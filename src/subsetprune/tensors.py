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

:func:`conv` evaluates that order without a Python loop per term. The input is
zero-padded on the top and left, every term ``K[i, j, t, :] * X[r-i, s-j, t]``
is written into one stack in ascending ``(i, j, t)`` order (one multiply per
offset), below a zero row, and the stack is summed by ``np.add.accumulate``
along the term axis, whose documented semantics are strictly sequential
(``r[n] = r[n-1] + a[n]``); ``sum``, ``einsum`` and BLAS would sum pairwise or
in an unspecified order. ``accumulate`` runs one inner loop per cell, so a
stack with few rows next to its cells (the 1x1 expansion conv: 2 rows, 3,072
cells) is instead summed by one whole-row ``np.add`` per row, the same
sequential additions. A term read from the padding is an exact +-0.0, and a
running sum that starts at +0.0 never becomes -0.0, so adding such a term
changes no bit: every cell sees exactly the additions of the direct formula.
Stacks beyond a fixed byte size are summed in consecutive blocks of terms,
each block seeded with the running sum.

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
    "hadamard",
    "norm_l1",
    "norm_l2",
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
    # Channel-major input padded on the top and left, so window (i, j) holds
    # x[r - i, s - j, t] at (t, r, s) and an exact +0.0 off the map.
    padded = np.zeros((channels, height + rows - 1, width + cols - 1, 1))
    padded[:, rows - 1 :, cols - 1 :, 0] = fmap.data.transpose(2, 0, 1)
    weights = kernel.data[:, :, :, None, None, :]  # (i, j, t, 1, 1, l)
    capacity = max(1, _STACK_BYTES // (8 * math.prod(cell)) - 1)  # terms per pass
    group = max(1, capacity // channels)  # whole (i, j) offsets per pass ...
    step = min(channels, capacity)  # ... or, if one does not fit, channels per pass
    offsets = [(i, j) for i in range(rows) for j in range(cols)]
    total = np.zeros(cell)
    for first in range(0, len(offsets), group):
        chunk = offsets[first : first + group]
        for t0 in range(0, channels, step):
            t1 = min(t0 + step, channels)
            stack = np.empty((1 + len(chunk) * (t1 - t0), *cell))
            stack[0] = total
            for q, (i, j) in enumerate(chunk):
                window = padded[t0:t1, rows - 1 - i : rows - 1 - i + height,
                                cols - 1 - j : cols - 1 - j + width]
                lo = 1 + q * (t1 - t0)
                np.multiply(weights[i, j, t0:t1], window, out=stack[lo : lo + t1 - t0])
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


def hadamard(a, b):
    """Elementwise product of two tensors of identical type and shape."""
    if type(a) is not type(b):
        raise ShapeError(f"cannot multiply {type(a).__name__} with {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    return _rewrap(a, a.data * b.data)


def _as_array(tensor) -> np.ndarray:
    if isinstance(tensor, np.ndarray):
        return tensor
    return tensor.data


def norm_l1(tensor) -> float:
    return float(np.abs(_as_array(tensor)).sum())


def norm_l2(tensor) -> float:
    return float(np.sqrt((_as_array(tensor) ** 2).sum()))


def norm_max(tensor) -> float:
    arr = _as_array(tensor)
    return float(np.abs(arr).max()) if arr.size else 0.0
