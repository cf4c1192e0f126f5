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

:func:`conv` evaluates that order without a Python loop per term. One strided
view of the input, zero-padded on the top and left, holds ``X[r-i, s-j, t]`` at
``(i, j, t, r, s)``, and one ``np.multiply`` by the kernel writes every term
``K[i, j, t, :] * X[r-i, s-j, t]`` into a stack in ascending ``(i, j, t)`` order,
below the running sum (+0.0 at first). ``np.add.accumulate`` sums the stack
along the term axis with documented strictly sequential semantics
(``r[n] = r[n-1] + a[n]``); ``sum``, ``einsum`` and BLAS would sum pairwise or
in an unspecified order. A stack with few rows next to its cells (a 1x1 conv)
is instead summed by one whole-row ``np.add`` per row, the same additions. A
term read from the padding is an exact +-0.0, and a running sum that starts at
+0.0 never becomes -0.0, so adding such a term changes no bit: every cell sees
exactly the additions of the direct formula. A stack beyond a fixed byte size
is split into passes, each a box of the term order seeded with the running sum.

No strides, dilation, bias or FFT: this is the reference semantics, kept small
enough to audit.
"""

from __future__ import annotations

import math
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

_STACK_BYTES = 1 << 22  # largest term stack conv builds in one pass
_ROWS_PER_CELL_SUM = 32  # stacks with 32x more cells than rows are summed row by row


def _validated(data, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if arr.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-D array, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all dimensions must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


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
    height, width, channels = fmap.shape
    # Offsets at or past the map's edge read only padding; skipping them drops only +-0.0 terms.
    rows, cols = min(kernel.rows, height), min(kernel.cols, width)
    cell = (height, width, kernel.kernels)
    # Channel-minor input padded on the top and left, and one view of it with
    # windows[i, j, t, r, s] = x[r - i, s - j, t], an exact +0.0 off the map.
    padded = np.zeros((height + rows - 1, width + cols - 1, channels))
    padded[rows - 1 :, cols - 1 :] = fmap.data
    s0, s1, s2 = padded.strides
    windows = np.ndarray((rows, cols, channels, height, width), buffer=padded,
                         offset=(rows - 1) * s0 + (cols - 1) * s1, strides=(-s0, -s1, s2, s0, s1))
    weights = kernel.data[:rows, :cols, :, None, None, :]  # (i, j, t, 1, 1, l)
    capacity = max(1, _STACK_BYTES // (8 * math.prod(cell)) - 1)  # terms per pass
    di = max(1, capacity // (cols * channels))  # a pass holds whole kernel rows,
    dj = min(cols, max(1, capacity // channels))  # or else offsets of one row,
    dt = min(channels, capacity)  # or else channels of one offset
    passes = [np.s_[i : i + di, j : j + dj, t : t + dt] for i in range(0, rows, di)
              for j in range(0, cols, dj) for t in range(0, channels, dt)]
    total = 0.0  # the running sum every cell starts from
    for box in passes:
        terms = windows[box]
        stack = np.empty((1 + math.prod(terms.shape[:3]), *cell))
        stack[0] = total
        np.multiply(weights[box], terms[..., None], out=stack[1:].reshape(*terms.shape, cell[2]))
        if len(stack) * _ROWS_PER_CELL_SUM <= stack[0].size:
            total = stack[0]  # few terms over many cells: one add per row
            for row in stack[1:]:
                np.add(total, row, out=total)
        else:
            total = np.add.accumulate(stack, axis=0, out=stack)[-1]
    return FeatureMap(total.copy())  # not a view that keeps the whole stack alive


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
