"""Seeded sampling of every random object used here: normal tensors,
normally-scaled normal (NSN) ensembles, uniforms.

Determinism contract
--------------------
All draws are pure functions of a :class:`SeedSpec`. The byte stream comes
from the counter-based Philox generator keyed by ``(master_seed, stream_id)``.
Each thread keeps one Philox, and every draw first rewinds it to its stream's
key with a zero counter and an empty buffer: the state a freshly built
generator on that key starts in, so the draw reads exactly what a fresh
generator would (:func:`_rewound`). A rewound generator is valid until the
thread's next draw, so no caller holds two at once: a draw reads all it needs
from one stream before it rewinds to the next.

One word reader (:func:`_raw`) reads each stream's block at once; only the
intersection tail streams its words in chunks from :func:`_generator`. A
53-bit word (:func:`_words`) is a raw Philox word shifted right by 11, and a
uniform maps it into the open interval (0, 1). An n-value normal draw takes
2 * ceil(n/2) words at once and pairs uniform p with uniform ceil(n/2) + p in
the Box-Muller transform (see
:func:`_box_muller`). Hence ``(seed, stream, sequence of draw lengths)`` fully
determines every value, independent of how work is scheduled; a value depends
on the length of the call that drew it, so a longer draw does not extend a
shorter one. Distinct stream ids give independent streams; a single stream
must be consumed sequentially.

Substreams for parallel fan-out are derived with :meth:`SeedSpec.substream`,
a splitmix64-style mix of ``(stream_id, index)``. Every builder takes a list
of stream keys and transforms the whole ``(streams, words)`` block at once,
each row the bytes of its own stream; the public samplers are one-row calls.

Every draw reads raw words (``random_raw``); no ``Generator`` sampling method
is called, because numpy keeps bit-generator streams stable across releases
but not the streams of ``Generator`` methods (NEP 19). Restart heads, the
first k of a random permutation, replay numpy's shuffle from the raw words
(:func:`_shuffle_heads`): each word's 32-bit halves, low half first, feed a
Fisher-Yates shuffle whose step i draws j by masked rejection, and every size
starts again from the start of its stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensors import FeatureMap, Tensor4

__all__ = [
    "SeedSpec",
    "NsnEnsemble",
    "standard_normals",
    "sample_uniform",
    "sample_uniform_map",
    "sample_normal_tensor",
    "sample_nsn",
]

_MASK64 = (1 << 64) - 1
_BOX_MULLER_PAIRS = 1 << 12  # pairs per Box-Muller chunk; its scratch fits in L2
_HEAD_WORDS = 48  # raw words a restart-heads draw first reads per key, at least
_HEADS_BYTES = 1 << 22  # largest block of words and shuffled rows a heads draw replays at once


def _mix64(a: int, b: int) -> int:
    # splitmix64 finaliser over a*phi + b; enough avalanche for substream ids
    x = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def substream(self, index: int) -> "SeedSpec":
        """Pure derived stream; distinct indices give independent streams."""
        return SeedSpec(*_substream_keys([self], [index])[0])


# Per thread: one Philox, its Generator and the state a fresh one starts in.
_REWOUND = threading.local()


def _substream_keys(seeds, indices) -> list[tuple[int, int]]:
    """The Philox key ``(master_seed, stream_id)`` of ``seeds[s].substream(indices[i])``
    at row ``s * len(indices) + i``, each mixed once, without a :class:`SeedSpec`."""
    indices = [int(index) & _MASK64 for index in indices]
    return [(seed.master_seed, _mix64(seed.stream_id, index))
            for seed in seeds for index in indices]


def _rewound(keys):
    """The thread's one Philox Generator, once per key: rewound to that key with a
    zero counter and an empty buffer, the state a fresh ``Generator(Philox(key))``
    starts in, so its draws are that generator's; this saves building a Philox,
    seeded from OS entropy only to be rekeyed, per draw. Each key's generator is
    valid until the next is yielded. The state is handed over as plain ints,
    which the setter reads faster than arrays."""
    if not hasattr(_REWOUND, "rng"):
        _REWOUND.rng = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        fresh = _REWOUND.rng.bit_generator.state
        fresh["state"] = {name: part.tolist() for name, part in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        _REWOUND.fresh = fresh
    rng, fresh = _REWOUND.rng, _REWOUND.fresh
    bitgen, key = rng.bit_generator, fresh["state"]["key"]
    for key[0], key[1] in keys:
        bitgen.state = fresh
        yield rng


def _key(seed: SeedSpec) -> tuple[int, int]:
    return seed.master_seed, seed.stream_id


def _generator(seed: SeedSpec) -> np.random.Generator:
    """This thread's Philox Generator rewound to ``seed``'s stream, valid until
    the thread's next draw."""
    return next(_rewound([_key(seed)]))


def _raw(keys, *counts) -> list[np.ndarray]:
    """One ``(len(keys), count)`` block of raw Philox words per count: row r of
    the blocks, in turn, holds the consecutive words stream ``keys[r]`` starts
    with."""
    blocks = [np.empty((len(keys), count), dtype=np.uint64) for count in counts]
    for row, rng in enumerate(_rewound(keys)):
        for block in blocks:
            block[row] = rng.bit_generator.random_raw(block.shape[1])
    return blocks


def _words(keys, *counts) -> list[np.ndarray]:
    """The :func:`_raw` blocks as 53-bit words: a raw Philox word shifted right
    by 11, the value that ``integers(0, 2**53, dtype=np.uint64)`` draws: its
    Lemire multiply-shift ``x * 2**53 >> 64`` never rejects (threshold
    ``(2**64 - 2**53) % 2**53 = 0``).
    """
    blocks = _raw(keys, *counts)
    for block in blocks:
        np.right_shift(block, 11, out=block)
    return blocks


def _open_uniforms(words: np.ndarray) -> np.ndarray:
    """The open-interval (0, 1) uniform of each 53-bit word: (w + 0.5) * 2^-53."""
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _box_muller(words: np.ndarray, n: int) -> np.ndarray:
    """Box-Muller on each row of a ``(rows, 2m)`` block of 53-bit words: ``(rows, n)``
    normals, ``n <= 2m``.

    With ``u_i`` the open-interval uniform of word ``i`` of a row, pair ``p``
    takes ``u1 = u_p`` and ``u2 = u_{m+p}`` and yields values ``2p`` (the
    cosine) and ``2p + 1`` (the sine). The pairs of all rows are transformed
    ``_BOX_MULLER_PAIRS`` at a time (at least one column of pairs) through
    reused contiguous scratch; every element sees the same operations as a
    whole-array transform of its own row, so neither the chunking nor the
    other rows change a byte.
    """
    rows, pairs = words.shape[0], words.shape[1] // 2
    out = np.empty((rows, 2 * pairs))
    cosines, sines = out[:, 0::2], out[:, 1::2]
    columns = max(1, _BOX_MULLER_PAIRS // max(rows, 1))
    scratch = np.empty(3 * rows * min(pairs, columns))
    for lo in range(0, pairs, columns):
        hi = min(lo + columns, pairs)
        radius, theta, trig = scratch[: 3 * rows * (hi - lo)].reshape(3, rows, hi - lo)
        for u, first in ((radius, lo), (theta, pairs + lo)):  # as in _open_uniforms
            np.add(words[:, first : first + hi - lo], 0.5, out=u)
            np.multiply(u, 2.0**-53, out=u)
        np.log(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(2.0 * np.pi, theta, out=theta)
        np.multiply(radius, np.cos(theta, out=trig), out=cosines[:, lo:hi])
        np.multiply(radius, np.sin(theta, out=trig), out=sines[:, lo:hi])
    return out[:, :n]


def _normals(keys, n: int) -> np.ndarray:
    """``(len(keys), n)`` normals, row r :func:`_box_muller` of the first
    ``2 * ceil(n/2)`` words of stream ``keys[r]``, so a value depends on the
    draw's length ``n``."""
    return _box_muller(_words(keys, 2 * ((n + 1) // 2))[0], n)


def _uniforms(keys, n: int, low: float, high: float) -> np.ndarray:
    """``(len(keys), n)`` uniforms on the open interval (low, high), row r from
    the first n words of stream ``keys[r]``."""
    u = _open_uniforms(_words(keys, n)[0])
    u *= high - low
    u += low  # low + (high - low) * u, in place: IEEE addition commutes
    return u


def _nsn_parts(keys, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows, n)`` scalars and ``(rows, n, d)`` directions of the NSN
    vectors of streams ``keys``: per stream, the scalars' ``2 * ceil(n/2)``
    words, then the directions' ``2 * ceil(n d/2)``. The scalars' words are
    dropped before the directions are transformed."""
    scalar_words, direction_words = _words(keys, 2 * ((n + 1) // 2), 2 * ((n * d + 1) // 2))
    scalars = _box_muller(scalar_words, n)
    del scalar_words
    return scalars, _box_muller(direction_words, n * d).reshape(-1, n, d)


def _nsn_vectors(keys, n: int, d: int) -> np.ndarray:
    """``(rows, n, d)`` NSN vectors: the directions of :func:`_nsn_parts`, each
    scaled by its scalar in place."""
    scalars, directions = _nsn_parts(keys, n, d)
    return np.multiply(directions, scalars[:, :, None], out=directions)  # IEEE x commutes


def _shuffle_heads(halves: np.ndarray, sizes: np.ndarray, owners: np.ndarray, k: int):
    """Replay numpy's shuffle of ``arange(sizes[q])`` for every row q at once,
    each from the 32-bit halves ``halves[owners[q]]``; ``sizes`` descending.

    Step i = n-1, .., 1 of a row draws j by ``random_interval``'s masked
    rejection (the next half ``& (2**bitlen(i) - 1)``, drawn again while > i)
    and swaps positions i and j. Returns the ``(rows, k)`` heads and which rows
    ran past their halves: a short row's heads are not its stream's, and a
    draw past its halves reads as 0 so that every swap stays in its own row.
    """
    rows, width = len(sizes), halves.shape[1]
    top = int(sizes[0])
    flat = halves.reshape(-1)
    position = owners * width  # each row's next half in ``flat``
    limit = position + width
    shuffled = np.tile(np.arange(top), rows)  # row q at q * top
    starts = np.arange(0, rows * top, top)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(top)], dtype=np.uint32)
    actives = np.searchsorted(-sizes, -np.arange(2, top + 1), side="right")  # sizes >= t + 2
    for step, active in enumerate(actives.tolist(), 1):
        i = sizes[:active] - step
        mask = masks.take(i)
        at = position[:active]
        j = flat.take(at, mode="clip")
        j &= mask
        at += 1
        rejected = (j > i).nonzero()[0]
        while rejected.size:
            again = at.take(rejected)
            at[rejected] = again + 1
            redraw = np.where(again < limit.take(rejected), flat.take(again, mode="clip"), 0)
            redraw &= mask.take(rejected)
            j[rejected] = redraw
            rejected = rejected[redraw > i.take(rejected)]
        mine, theirs = starts[:active] + i, starts[:active] + j
        held = shuffled.take(mine)
        shuffled[mine] = shuffled.take(theirs)
        shuffled[theirs] = held
    return shuffled.reshape(rows, top)[:, :k], position > limit


def _replayed_heads(keys, sizes: np.ndarray, owners: np.ndarray, k: int, words: int):
    """:func:`_shuffle_heads` of rows ``(sizes[q], keys[owners[q]])`` from each
    key's first ``words`` raw words, one rewind per key, each word split into its
    32-bit halves low half first, the order numpy's ``next_uint32`` serves them.
    A row that runs past them is replayed from twice as many words of its own
    stream."""
    (raw,) = _raw(keys, words)
    halves = raw.astype("<u8", copy=False).view("<u4")
    heads, short = _shuffle_heads(halves, sizes, owners, k)
    if short.any():
        redo = short.nonzero()[0]
        again, owners_again = np.unique(owners[redo], return_inverse=True)
        heads[redo] = _replayed_heads([keys[r] for r in again.tolist()], sizes[redo],
                                      owners_again, k, 2 * words)
    return heads


def _substream_permutation_heads(keys, sizes, k: int) -> np.ndarray:
    """``(len(sizes), len(keys), k)``: block s, row r holds the first k entries of
    the permutation of ``sizes[s]`` that ``Generator.permutation`` draws first
    from stream ``keys[r]``.

    It is replayed from the raw words (:func:`_replayed_heads`), every size from
    the stream's start, so the bytes are the shuffle's and not whatever a numpy
    release's ``Generator`` does. Each key's stream is read once for all sizes,
    at first ``max(_HEAD_WORDS, 3 n / 4)`` words for the largest n: 1.5 halves
    a step, where a step draws ``(mask + 1) / (i + 1)`` halves on average,
    under 2 and about 1.35 over a shuffle. The keys are replayed in chunks
    under ``_HEADS_BYTES``: per key its words, and per row its shuffled
    ``arange`` and about eight row vectors.
    """
    heads = np.empty((len(sizes), len(keys), k), dtype=np.intp)
    if not heads.size:
        return heads
    order = np.argsort(sizes, kind="stable")[::-1]
    descending = np.asarray(sizes, dtype=np.intp)[order]
    top = int(descending[0])
    words = max(_HEAD_WORDS, 3 * top // 4)
    chunk = max(1, _HEADS_BYTES // (8 * words + 8 * len(sizes) * (top + 8)))
    for lo in range(0, len(keys), chunk):
        part = keys[lo : lo + chunk]
        rows = np.repeat(descending, len(part))
        owners = np.tile(np.arange(len(part)), len(sizes))
        drawn = _replayed_heads(part, rows, owners, k, words)
        heads[order, lo : lo + len(part)] = drawn.reshape(len(sizes), len(part), k)
    return heads


def standard_normals(n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. N(0, 1) draws from the given stream."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return _normals([_key(seed)], n)[0]


def sample_uniform(n: int, seed: SeedSpec, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """``n`` i.i.d. uniforms on the open interval (low, high)."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if not high > low:
        raise ParameterError("need high > low")
    return _uniforms([_key(seed)], n, low, high)[0]


def sample_uniform_map(
    height: int, width: int, channels: int, seed: SeedSpec, magnitude: float = 1.0
) -> FeatureMap:
    """Uniform probe input on ``(-magnitude, magnitude)^(height x width x channels)``."""
    if min(height, width, channels) < 1:
        raise ShapeError("all dimensions must be positive")
    vals = sample_uniform(height * width * channels, seed, -magnitude, magnitude)
    return FeatureMap(vals.reshape(height, width, channels))


def sample_normal_tensor(shape: tuple[int, int, int, int], seed: SeedSpec) -> Tensor4:
    """Kernel tensor with i.i.d. N(0, 1) entries, filled in row-major order."""
    if len(shape) != 4:
        raise ShapeError(f"expected 4 dimensions, got {len(shape)}")
    if min(shape) < 1:
        raise ShapeError(f"all dimensions must be positive, got {shape}")
    total = int(np.prod(shape))
    return Tensor4(standard_normals(total, seed).reshape(shape))


@dataclass(frozen=True, eq=False)
class NsnEnsemble:
    """``n`` sampled d-dimensional NSN vectors with their generating parts retained.

    Row ``i`` of :attr:`vectors` is ``scalars[i] * directions[i, :]`` exactly as
    stored, where the scalar and the d direction entries are i.i.d. standard
    normals. Keeping the parts lets diagnostics condition on the scalars.
    """

    scalars: np.ndarray  # (n,)
    directions: np.ndarray  # (n, d)
    vectors: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        scalars = np.ascontiguousarray(np.asarray(self.scalars, dtype=np.float64))
        directions = np.ascontiguousarray(np.asarray(self.directions, dtype=np.float64))
        vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if scalars.ndim != 1 or directions.ndim != 2 or vectors.ndim != 2:
            raise ShapeError("scalars must be 1-D; directions and vectors 2-D")
        if directions.shape != vectors.shape or directions.shape[0] != scalars.shape[0]:
            raise ShapeError("inconsistent ensemble shapes")
        if not np.array_equal(vectors, scalars[:, None] * directions):
            raise ValueError("vectors must equal scalars[:, None] * directions exactly")
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def take(self, count: int) -> "NsnEnsemble":
        """Prefix sub-ensemble; used for paired sweeps over growing n."""
        if not 0 <= count <= self.n:
            raise ParameterError(f"count must be in [0, {self.n}]")
        return NsnEnsemble(
            self.scalars[:count], self.directions[:count], self.vectors[:count]
        )


def sample_nsn(n: int, d: int, seed: SeedSpec) -> NsnEnsemble:
    """``n`` i.i.d. d-dimensional NSN vectors: fresh scalar and directions per vector."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be >= 1")
    (scalars,), (directions,) = _nsn_parts([_key(seed)], n, d)
    return NsnEnsemble(scalars, directions, scalars[:, None] * directions)
