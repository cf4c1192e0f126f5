"""Dense activation/kernel tensors and the exact convolution everything else builds on.

Conventions
-----------
* :class:`FeatureMap` holds activations indexed ``(row, col, channel)``.
* :class:`Tensor4` holds kernel stacks indexed ``(row, col, channel, kernel)``.
* :func:`conv` zero-pads so the output spatial size equals the input's. Output
  position ``(r, s)`` reads the input window *ending* there: the term for
  kernel offset ``(i, j)`` and channel ``t`` is ``K[i, j, t, l] * X[r-i, s-j, t]``,
  with out-of-range input indices contributing zero.
* Accumulation order is pinned: ascending kernel row, then kernel column, then
  input channel, one sequential addition per term, starting from +0.0.
  Re-running on the same platform is therefore bit-stable, and tests may use
  exact equality against a direct index-summation oracle.

Validation happens at the boundary. :func:`conv` checks its operands'
channels, runs the array core :func:`_conv` and wraps the result in one
validated :class:`FeatureMap`; a chain of layers (``pruning.evaluate_network``)
checks its shapes once, runs the core on arrays, requires every conv output to
be finite, and wraps only its last map. The core reads a map channel-major,
``(channel, row, col)``, flattened behind one +0.0 that stands for the padding:
``[+0.0, *x.ravel()]``. A cached index per map and kernel shape holds, for
term ``(i, j, t)`` and output cell ``(r, s)``, the place of ``X[r-i, s-j, t]``
there, or of the +0.0. One gather through it lays the terms out as a
``(terms, cells)`` matrix, rows in ascending ``(i, j, t)`` order, and one
``np.multiply`` by the kernel writes every term ``K[i, j, t, l] * X[r-i, s-j, t]``
into a ``(terms, kernels, cells)`` stack below the running sum (+0.0 at first),
with the cells as the contiguous inner axis. ``np.add.accumulate`` sums the
stack along the term axis with documented strictly sequential semantics
(``r[n] = r[n-1] + a[n]``); ``sum``, ``einsum`` and BLAS would sum pairwise or
in an unspecified order. A stack with few rows next to its cells (a 1x1 conv)
is instead summed by one whole-row ``np.add`` per row, the same additions. A
term read from the padding is an exact +-0.0, and a running sum that starts at
+0.0 never becomes -0.0, so adding such a term changes no bit: every cell sees
exactly the additions of the direct formula. When the stack and the gathered
rows would pass a fixed byte size, the terms are taken in passes, consecutive
runs of the term order, each summed onto the running sum.

No strides, dilation, bias or FFT: this is the reference semantics, kept small
enough to audit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "FeatureMap",
    "Tensor4",
    "conv",
    "relu",
    "pos_part",
    "neg_part",
    "norm_l1",
    "norm_max",
]

_STACK_BYTES = 1 << 22  # largest term stack and gathered terms conv holds in one pass
_ROWS_PER_CELL_SUM = 32  # stacks with 32x more cells than rows are summed row by row


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


def _validated(data, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if arr.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-D array, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all dimensions must be positive, got shape {arr.shape}")
    return _finite(arr)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """3-D activation tensor, row-major ``(row, col, channel)``."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _validated(self.data, 3))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class Tensor4:
    """4-D kernel stack, row-major ``(row, col, channel, kernel)``."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _validated(self.data, 4))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def channels_in(self) -> int:
        return self.data.shape[2]

    @property
    def kernels(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


def conv(kernel: Tensor4, fmap: FeatureMap) -> FeatureMap:
    """Zero-padded convolution with a trailing receptive window.

    ``out[r, s, l] = sum_{i, j, t} kernel[i, j, t, l] * fmap[r - i, s - j, t]``
    where references outside the input contribute 0. Output shape is
    ``height x width x kernels``.
    """
    if kernel.channels_in != fmap.channels:
        raise ShapeError(
            f"kernel expects {kernel.channels_in} input channels, map has {fmap.channels}"
        )
    return FeatureMap(_conv(kernel.data, fmap.data.transpose(2, 0, 1)).transpose(1, 2, 0))


@functools.lru_cache(maxsize=32)
def _window_index(channels: int, height: int, width: int, rows: int, cols: int) -> np.ndarray:
    """``(rows * cols * channels, height * width)``: for term ``(i, j, t)`` in
    ascending order and cell ``r * width + s``, the place of ``x[t, r - i, s - j]``
    in ``[+0.0, *x.ravel()]`` of a channel-major map ``x``, or 0 (the +0.0) off
    the map. Cached (read-only): a chain evaluates the same few shapes for
    every probe, and at the package's shapes an index is a few KB."""
    r = np.arange(height)[:, None] - np.arange(rows)[:, None, None, None, None]
    s = np.arange(width) - np.arange(cols)[:, None, None, None]
    t = np.arange(channels)[:, None, None] * (height * width)
    index = np.where((r >= 0) & (s >= 0), 1 + t + r * width + s, 0)  # (i, j, t, r, s)
    index = index.reshape(-1, height * width)
    index.flags.writeable = False
    return index


def _conv(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`conv` on arrays: ``weights`` ``(rows, cols, channels, kernels)``
    and a channel-major map ``x`` ``(channels, height, width)``, whose channels
    the caller has matched, to a new channel-major ``(kernels, height, width)``
    map. Nothing is validated here."""
    channels, height, width = x.shape
    # Offsets at or past the map's edge read only padding; skipping them drops only +-0.0 terms.
    rows, cols = min(weights.shape[0], height), min(weights.shape[1], width)
    kernels, cells = weights.shape[3], height * width
    padded = np.empty(1 + x.size)
    padded[0] = 0.0  # what every read of the padding gathers
    padded[1:].reshape(x.shape)[...] = x
    index = _window_index(channels, height, width, rows, cols)
    terms = weights[:rows, :cols].reshape(len(index), kernels, 1)
    # terms per pass: each holds a stack row (every kernel and cell) and a gathered row
    step = max(1, (_STACK_BYTES // (8 * cells) - kernels) // (kernels + 1))
    stack = np.empty((1 + min(step, len(index)), kernels, cells))
    stack[0] = 0.0  # the running sum every cell starts from
    top = 0  # the row that holds the running sum
    for first in range(0, len(index), step):
        gathered = padded.take(index[first : first + step])  # (terms, cells)
        if top:
            stack[0] = stack[top]
        block = stack[: 1 + len(gathered)]
        np.multiply(terms[first : first + step], gathered[:, None], out=block[1:])
        block = block.reshape(len(block), -1)
        if len(block) * _ROWS_PER_CELL_SUM <= block.shape[1]:
            for row in block[1:]:  # few terms over many cells: one add per row
                np.add(block[0], row, out=block[0])
            top = 0
        else:
            np.add.accumulate(block, axis=0, out=block)
            top = len(block) - 1
    return stack[top].reshape(kernels, height, width).copy()  # not a view of the stack


def relu(fmap: FeatureMap) -> FeatureMap:
    """Elementwise ``max(0, .)``; 1-Lipschitz in every entry."""
    return FeatureMap(np.maximum(fmap.data, 0.0))


def _rewrap(tensor, data: np.ndarray):
    return type(tensor)(data)


def pos_part(tensor):
    """Entrywise positive part: ``x * 1[x > 0]``. Works on FeatureMap and Tensor4."""
    d = tensor.data
    return _rewrap(tensor, np.where(d > 0.0, d, 0.0))


def neg_part(tensor):
    """Entrywise negative part: ``-x * 1[x < 0]``; nonnegative, support disjoint
    from :func:`pos_part`, and ``x == pos_part(x) - neg_part(x)`` exactly."""
    d = tensor.data
    return _rewrap(tensor, np.where(d < 0.0, -d, 0.0))


def _as_array(tensor) -> np.ndarray:
    if isinstance(tensor, np.ndarray):
        return tensor
    return tensor.data


def norm_l1(tensor) -> float:
    return float(np.abs(_as_array(tensor)).sum())


def norm_max(tensor) -> float:
    arr = _as_array(tensor)
    return float(np.abs(arr).max()) if arr.size else 0.0
