"""Structured binary masks over 4-D kernels.

Three structure kinds are supported and *declared* on the mask, then checked
against the stored bits by :func:`validate_structure` (kinds are claims, not
trusted):

* ``ChannelBlocked(n)`` on a ``d x d' x c x (c n)`` mask keeps, for input
  channel ``k``, exactly the kernel block ``l // n == k`` (0-based; the
  1-based form is ``ceil(l / n) == k``).
* ``FilterRemoval(kept)`` keeps whole kernels: bits over ``(row, col,
  channel)`` are all-one for kept kernels and all-zero otherwise.
* ``Composite(parts)`` is the bitwise AND of the parts' implied patterns.

Composing two filter-removal masks stays a filter removal (kept-set
intersection), so the pruning pipeline's final mask is always
``Composite(ChannelBlocked(2n), FilterRemoval)``.

Binary serialisation layout (little-endian), round-trip tested:

=========  =================================================================
magic      ``b"SPM1"``
shape      4 x u32: rows, cols, channels, kernels
kind       u8 tag: 1 channel-blocked, 2 filter-removal, 3 composite; then
           tag 1 -> u32 block width n
           tag 2 -> u32 count, count x u32 sorted kept kernel ids
           tag 3 -> u16 part count, then nested kind blocks
bits       ``ceil(size / 8)`` bytes, ``np.packbits`` of the flat row-major bits
=========  =================================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, ShapeError
from .tensors import Tensor4

__all__ = [
    "ChannelBlocked",
    "FilterRemoval",
    "Composite",
    "MaskKind",
    "Mask4",
    "StructureReport",
    "channel_blocked_mask",
    "sign_split_mask",
    "filter_removal_mask",
    "compose",
    "validate_structure",
    "mask_to_bytes",
    "mask_from_bytes",
]


@dataclass(frozen=True)
class ChannelBlocked:
    n: int


@dataclass(frozen=True)
class FilterRemoval:
    kept: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(sorted(int(k) for k in set(self.kept))))


@dataclass(frozen=True)
class Composite:
    parts: tuple["MaskKind", ...]


MaskKind = Union[ChannelBlocked, FilterRemoval, Composite]


@dataclass(frozen=True, eq=False)
class Mask4:
    """Binary tensor congruent to a :class:`Tensor4`, with a declared kind."""

    bits: np.ndarray  # uint8 in {0, 1}, shape (rows, cols, channels, kernels)
    kind: MaskKind

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(np.asarray(self.bits))
        if bits.ndim != 4:
            raise ShapeError(f"mask must be 4-D, got ndim={bits.ndim}")
        if min(bits.shape) < 1:
            raise ShapeError("all mask dimensions must be positive")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.bits.shape

    def ones_count(self) -> int:
        return int(self.bits.sum())

    def apply(self, kernel: Tensor4) -> Tensor4:
        if kernel.shape != self.shape:
            raise ShapeError(f"mask shape {self.shape} vs kernel shape {kernel.shape}")
        return Tensor4(kernel.data * self.bits)


def channel_blocked_mask(d: int, c: int, n: int) -> Mask4:
    """Mask of shape ``d x d x c x (c n)`` keeping block ``l // n == k``."""
    if min(d, c, n) < 1:
        raise ParameterError("d, c and n must be >= 1")
    kind = ChannelBlocked(n)
    return Mask4(_expected_bits(kind, (d, d, c, c * n)), kind)


def sign_split_mask(blocked: Tensor4, n: int) -> Mask4:
    """Filter mask separating signs inside an already channel-blocked expansion.

    ``blocked`` must be ``1 x 1 x c x (2 n c)`` with the ``2n``-channel-blocked
    mask already applied, so kernel ``l`` (0-based) has its only possible
    nonzero entry at owner channel ``l // (2n)``. Kernel ``l`` is kept when
    that entry is nonnegative and ``l`` lies in the first half of the owner's
    block, or nonpositive and in the second half; exact zeros are kept in both
    cases. After application, first half-blocks are entrywise >= 0 and second
    half-blocks <= 0, which is what the ReLU-free split needs.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if blocked.rows != 1 or blocked.cols != 1:
        raise ShapeError("sign split expects a 1 x 1 spatial kernel")
    c = blocked.channels_in
    if blocked.kernels != 2 * n * c:
        raise ShapeError(
            f"expected {2 * n * c} kernels for c={c}, n={n}, got {blocked.kernels}"
        )
    kernel_ids = np.arange(2 * n * c)
    owner = kernel_ids // (2 * n)
    offset = kernel_ids - owner * 2 * n
    owner_vals = blocked.data[0, 0, owner, kernel_ids]
    keep = np.where(offset < n, owner_vals >= 0.0, owner_vals <= 0.0)
    kept = tuple(int(k) for k in np.flatnonzero(keep))
    return filter_removal_mask(blocked.shape, kept)


def filter_removal_mask(shape: tuple[int, int, int, int], kept) -> Mask4:
    """Mask keeping exactly the listed kernels, whole."""
    if len(shape) != 4 or min(shape) < 1:
        raise ShapeError(f"invalid mask shape {shape}")
    kind = FilterRemoval(kept)
    if kind.kept and not (0 <= kind.kept[0] and kind.kept[-1] < shape[3]):
        raise ParameterError(f"kernel index out of range [0, {shape[3]})")
    return Mask4(_expected_bits(kind, shape), kind)


def _flatten_parts(kind: MaskKind) -> tuple[MaskKind, ...]:
    if isinstance(kind, Composite):
        out: tuple[MaskKind, ...] = ()
        for part in kind.parts:
            out += _flatten_parts(part)
        return out
    return (kind,)


def _compose_kinds(a: MaskKind, b: MaskKind) -> MaskKind:
    if isinstance(a, FilterRemoval) and isinstance(b, FilterRemoval):
        return FilterRemoval(tuple(set(a.kept) & set(b.kept)))
    if isinstance(a, ChannelBlocked) and isinstance(b, ChannelBlocked) and a.n == b.n:
        return a
    return Composite(_flatten_parts(a) + _flatten_parts(b))


def compose(first: Mask4, second: Mask4) -> Mask4:
    """Bitwise AND; associative and commutative on bits."""
    if first.shape != second.shape:
        raise ShapeError(f"shape mismatch {first.shape} vs {second.shape}")
    return Mask4(first.bits & second.bits, _compose_kinds(first.kind, second.kind))


def _expected_bits(kind: MaskKind, shape: tuple[int, int, int, int]):
    """Bit pattern implied by a kind, or an error string when impossible."""
    d, dp, c, kernels = shape
    if isinstance(kind, ChannelBlocked):
        if kind.n < 1:
            return "channel-blocked width must be >= 1"
        if kernels != kind.n * c:
            return f"channel-blocked needs kernels == n * channels ({kind.n * c}), got {kernels}"
        owner = np.arange(kernels) // kind.n
        plane = (owner[None, :] == np.arange(c)[:, None]).astype(np.uint8)
        return np.broadcast_to(plane, shape).copy()
    if isinstance(kind, FilterRemoval):
        if kind.kept and not (0 <= kind.kept[0] and kind.kept[-1] < kernels):
            return f"kept kernel ids out of range [0, {kernels})"
        bits = np.zeros(shape, dtype=np.uint8)
        if kind.kept:
            bits[:, :, :, list(kind.kept)] = 1
        return bits
    if isinstance(kind, Composite):
        if not kind.parts:
            return "composite must have at least one part"
        acc = np.ones(shape, dtype=np.uint8)
        for part in kind.parts:
            sub = _expected_bits(part, shape)
            if isinstance(sub, str):
                return sub
            acc &= sub
        return acc
    return f"unknown kind {kind!r}"


@dataclass(frozen=True)
class StructureReport:
    valid: bool
    kind: MaskKind
    violations: tuple[tuple[int, int, int, int], ...]
    message: str


def validate_structure(mask: Mask4, max_violations: int = 16) -> StructureReport:
    """Check the declared kind's invariant against the stored bits."""
    expected = _expected_bits(mask.kind, mask.shape)
    if isinstance(expected, str):
        return StructureReport(False, mask.kind, (), expected)
    mismatch = np.argwhere(mask.bits != expected)
    if mismatch.size == 0:
        return StructureReport(True, mask.kind, (), "ok")
    coords = tuple(tuple(int(v) for v in row) for row in mismatch[:max_violations])
    return StructureReport(
        False, mask.kind, coords, f"{mismatch.shape[0]} bit(s) deviate from the declared kind"
    )


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

_MAGIC = b"SPM1"
_TAG_CHANNEL_BLOCKED = 1
_TAG_FILTER_REMOVAL = 2
_TAG_COMPOSITE = 3


def _kind_to_bytes(kind: MaskKind) -> bytes:
    if isinstance(kind, ChannelBlocked):
        return struct.pack("<BI", _TAG_CHANNEL_BLOCKED, kind.n)
    if isinstance(kind, FilterRemoval):
        head = struct.pack("<BI", _TAG_FILTER_REMOVAL, len(kind.kept))
        return head + struct.pack(f"<{len(kind.kept)}I", *kind.kept)
    if isinstance(kind, Composite):
        head = struct.pack("<BH", _TAG_COMPOSITE, len(kind.parts))
        return head + b"".join(_kind_to_bytes(p) for p in kind.parts)
    raise ValueError(f"unknown kind {kind!r}")


def _kind_from_bytes(buf: bytes, pos: int) -> tuple[MaskKind, int]:
    (tag,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    if tag == _TAG_CHANNEL_BLOCKED:
        (n,) = struct.unpack_from("<I", buf, pos)
        return ChannelBlocked(int(n)), pos + 4
    if tag == _TAG_FILTER_REMOVAL:
        (count,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        kept = struct.unpack_from(f"<{count}I", buf, pos)
        return FilterRemoval(tuple(int(k) for k in kept)), pos + 4 * count
    if tag == _TAG_COMPOSITE:
        (count,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        parts = []
        for _ in range(count):
            part, pos = _kind_from_bytes(buf, pos)
            parts.append(part)
        return Composite(tuple(parts)), pos
    raise ValueError(f"unknown kind tag {tag}")


def mask_to_bytes(mask: Mask4) -> bytes:
    shape = struct.pack("<4I", *mask.shape)
    packed = np.packbits(mask.bits.reshape(-1)).tobytes()
    return _MAGIC + shape + _kind_to_bytes(mask.kind) + packed


def mask_from_bytes(buf: bytes) -> Mask4:
    if buf[:4] != _MAGIC:
        raise ValueError("not a mask blob (bad magic)")
    try:
        shape = struct.unpack_from("<4I", buf, 4)
        kind, pos = _kind_from_bytes(buf, 20)
    except struct.error as exc:
        raise ValueError(f"mask blob header is truncated ({exc})") from exc
    size = int(np.prod(shape))
    expected_len = pos + (size + 7) // 8
    if len(buf) != expected_len:
        raise ValueError(f"mask blob length {len(buf)} != expected {expected_len}")
    flat = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, offset=pos), count=size)
    return Mask4(flat.reshape(shape), kind)
