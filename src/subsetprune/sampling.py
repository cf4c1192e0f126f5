"""Seeded sampling of every random object used here: normal tensors,
normally-scaled normal (NSN) vectors, uniforms.

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

One word reader (:func:`_raw`) reads all of each stream's blocks in one read;
the tiles below read their chunks' words at their place in the stream instead
(:func:`_words_at`: counter word // 4, then word % 4 words skipped), each run
of adjacent words in one read (:func:`_spans_at`), so a chunk that holds its
parts whole, as a small draw's one chunk does, rewinds once. A 53-bit
word (:func:`_words`) is a raw Philox word shifted right by 11, and a uniform
maps it into the open interval (0, 1). An n-value normal draw takes
2 * ceil(n/2) words and pairs uniform p with uniform ceil(n/2) + p in the
Box-Muller transform (see :func:`_box_muller`).

There is one builder per shape of draw. Every normal or NSN draw of one
stream is one map-reduce over the draw's rows (:func:`_map_rows`): a draw of
at least ``2 * _INLINE_PAIRS`` words runs as tiles, one thread per CPU, and
any other as one tile on the calling thread. Each tile walks a contiguous
range of the rows in chunks, reads each chunk's words, and hands the chunk to
a reducer that returns integer counts; the tiles' counts are summed. For
normals and NSN vectors (:func:`_reduce_normals`) a chunk is its rows'
values; a drawn array (:func:`_one_stream`) is the same map with a reducer
that writes each chunk into the output. The lemma checks that count (most
probable interval, NSN hit, joint window, chi-squared tails, intersection
tail) reduce on the tiles; only the second moment sums floats, on the calling
thread, since splitting a float sum would reorder its additions. A draw of
many streams (:func:`_normal_parts`, :func:`_nsn_vectors`) runs on the
calling thread, a few rows at a time. Each value is computed from its own two
words alone, and a sum of ints does not depend on the order of its terms, so
no byte depends on the CPU count or on scheduling. Hence
``(seed, stream, sequence of draw lengths)`` fully determines every value; a
value depends on the length of the call that drew it, so a longer draw does
not extend a shorter one. Distinct stream ids give independent streams.

Substream keys are derived by one mixer, :func:`_mix64`: splitmix64's
finaliser over ``stream_id * phi + index`` as numpy uint64 arrays, the master
seed kept. :func:`_substream_keys` mixes every index of every key of an array
in one call, so a scan derives a batch's keys without a :class:`SeedSpec` per
trial; :meth:`SeedSpec.substream` is the same call on one key. A many-stream
builder takes an array of stream keys and fills one ``(streams, values)``
array, each row the bytes its stream's one-stream draw would have.

Every draw reads raw words (``random_raw``); no ``Generator`` sampling method
is called, because numpy keeps bit-generator streams stable across releases
but not the streams of ``Generator`` methods (NEP 19). Restart heads, the
first k of a random permutation, replay numpy's shuffle from the raw words
(:func:`_shuffle_heads`): each word's 32-bit halves, low half first, feed a
Fisher-Yates shuffle whose step i draws j by masked rejection, and every size
starts again from the start of its stream.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensors import FeatureMap, Tensor4

__all__ = [
    "SeedSpec",
    "standard_normals",
    "sample_uniform",
    "sample_uniform_map",
    "sample_normal_tensor",
    "sample_nsn",
]

_MASK64 = (1 << 64) - 1
_BOX_MULLER_PAIRS = 1 << 12  # pairs per Box-Muller chunk; its scratch fits in L2
_TILE_PAIRS = 1 << 15  # pairs a tile reads and transforms at once
_INLINE_PAIRS = 1 << 15  # a one-stream draw of fewer than 2x this many words runs on one thread
_HEAD_WORDS = 48  # raw words a restart-heads draw first reads per key, at least
# A phase scan's batch of trials holds its draws plus the state its solves keep
# (not query scratch) in this many bytes (``harness._batches``); it is defined
# here so that the restart heads a greedy batch draws are replayed, chunk by
# chunk, in no more than a batch holds.
_BATCH_BYTES = 3 << 19
_HEADS_BYTES = _BATCH_BYTES  # largest block of words and shuffled rows a heads draw replays


def _mix64(streams: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser over ``streams * phi + indices`` (Steele, Lea and
    Flood 2014), elementwise over broadcast uint64 arrays: the package's one
    substream mixer. Array arithmetic wraps modulo 2^64 silently; numpy scalars
    would warn on overflow, so both operands must be arrays."""
    x = streams * np.uint64(0x9E3779B97F4A7C15) + indices
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def substream(self, index: int) -> "SeedSpec":
        """Pure derived stream; distinct indices give independent streams. Its
        key is :func:`_substream_keys` of this stream's one key."""
        return SeedSpec(*_substream_keys([_key(self)], [index])[0].tolist())


# Per thread: one Philox, its Generator and the state a fresh one starts in.
_REWOUND = threading.local()

# Threads a large normal draw runs on, one tile each: the calling thread and
# _WORKERS - 1 workers of the pool. One per CPU this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = None  # the tile workers, built on a draw's first use; a forked child drops it
_POOL_LOCK = threading.Lock()


def _drop_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _pool():
    """The tile workers: ``_WORKERS - 1`` threads (at least one), built once.
    ``concurrent.futures`` is imported here, so that a process whose draws all
    stay inline never loads it."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="sampling-tile")
        return _POOL


def _run(tiles) -> list:
    """Run each tile (a callable): the first on this thread, the others on the
    pool. Wait for all of them, and return their results in order."""
    futures = [_pool().submit(tile) for tile in tiles[1:]]
    try:
        first = tiles[0]()
    finally:
        for future in futures:  # wait for every tile, even when this one raised
            future.exception()
    return [first] + [future.result() for future in futures]


def _map_rows(rows: int, chunk: int, words: int, work) -> list[int]:
    """Map-reduce over the rows ``0 .. rows - 1`` of a one-row draw of
    ``words`` words: the position-wise sums of the tuples of ints that
    ``work(lo, hi)`` returns for rows ``lo:hi``, ``chunk`` rows at a time (at
    least one).

    A draw of at least ``2 * _INLINE_PAIRS`` words runs as ``_WORKERS`` tiles
    (:func:`_run`), each a contiguous range of rows; any other as one tile on
    this thread. ``work`` reads its chunk's words at their place in the stream
    (:func:`_words_at`) and must start no tiled draw: a tile that waits on the
    pool its own worker belongs to could wait forever. Sums of ints do not
    depend on the order they are added in, so no total depends on the tiles or
    the chunks."""
    tiles = _WORKERS if words >= 2 * _INLINE_PAIRS else 1
    chunk = max(1, chunk)

    def tile(first: int, last: int) -> list:
        return [work(lo, min(lo + chunk, last)) for lo in range(first, last, chunk)]

    tiled = _run([functools.partial(tile, rows * t // tiles, rows * (t + 1) // tiles)
                  for t in range(tiles)])
    return [sum(column) for column in zip(*(part for parts in tiled for part in parts))]


def _substream_keys(keys, indices) -> np.ndarray:
    """The ``(len(keys) * len(indices), 2)`` uint64 Philox keys ``(master_seed,
    stream_id)`` of substream ``indices[i]`` of stream ``keys[s]`` (a key, like
    each row, is ``(master_seed, stream_id)``) at row ``s * len(indices) + i``,
    all mixed in one :func:`_mix64` call; an index is taken modulo 2^64."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    indices = np.array([int(index) & _MASK64 for index in indices], dtype=np.uint64)
    out = np.empty((len(keys), len(indices), 2), dtype=np.uint64)
    out[:, :, 0] = keys[:, :1]
    out[:, :, 1] = _mix64(keys[:, 1:], indices)
    return out.reshape(-1, 2)


def _thread_philox():
    """This thread's one Philox Generator and the state a fresh one starts in,
    built on the thread's first draw. The state is held as plain ints, which
    the setter reads faster than arrays."""
    if not hasattr(_REWOUND, "rng"):
        _REWOUND.rng = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        fresh = _REWOUND.rng.bit_generator.state
        fresh["state"] = {name: part.tolist() for name, part in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        _REWOUND.fresh = fresh
    return _REWOUND.rng, _REWOUND.fresh


def _rewound(keys):
    """The thread's one Philox Generator, once per key: rewound to that key with a
    zero counter and an empty buffer, the state a fresh ``Generator(Philox(key))``
    starts in, so its draws are that generator's; this saves building a Philox,
    seeded from OS entropy only to be rekeyed, per draw. Each key's generator is
    valid until the next is yielded."""
    rng, fresh = _thread_philox()
    bitgen, key = rng.bit_generator, fresh["state"]["key"]
    for key[0], key[1] in np.asarray(keys, dtype=np.uint64).reshape(-1, 2).tolist():
        bitgen.state = fresh
        yield rng


def _key(seed: SeedSpec) -> tuple[int, int]:
    return seed.master_seed, seed.stream_id


def _generator(seed: SeedSpec) -> np.random.Generator:
    """This thread's Philox Generator rewound to ``seed``'s stream, valid until
    the thread's next draw. No package code calls it; it stays because the
    bench's tracer (``bench/tracing.py``) names it."""
    return next(_rewound([_key(seed)]))


def _raw(keys, *counts) -> list[np.ndarray]:
    """One ``(len(keys), count)`` block of raw Philox words per count: row r of
    the blocks, in turn, holds the consecutive words stream ``keys[r]`` starts
    with. Each key is rewound once and read in one ``random_raw(sum(counts))``
    call, and each block is a column slice of the one array they fill."""
    words = np.empty((len(keys), sum(counts)), dtype=np.uint64)
    for row, rng in enumerate(_rewound(keys)):
        words[row] = rng.bit_generator.random_raw(words.shape[1])
    ends = np.cumsum(counts).tolist()
    return [words[:, end - count : end] for end, count in zip(ends, counts)]


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


def _words_at(key, start: int, count: int) -> np.ndarray:
    """The 53-bit words ``start, .., start + count - 1`` of stream ``key``, as a
    ``(1, count)`` block. Philox makes four words per counter value and steps
    its counter before it makes them, so the thread's Philox is rewound to the
    key with counter ``start // 4`` and then skips ``start % 4`` words; the
    fresh state's counter is set back to zero for :func:`_rewound`."""
    rng, fresh = _thread_philox()
    bitgen, state = rng.bit_generator, fresh["state"]
    state["key"][:] = key
    state["counter"][0] = start // 4
    try:
        bitgen.state = fresh
    finally:
        state["counter"][0] = 0
    bitgen.random_raw(start % 4)
    words = bitgen.random_raw((1, count))
    return np.right_shift(words, 11, out=words)


def _open_uniforms(words: np.ndarray) -> np.ndarray:
    """The open-interval (0, 1) uniform of each 53-bit word: (w + 0.5) * 2^-53."""
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _box_muller(radius_words: np.ndarray, theta_words: np.ndarray, out: np.ndarray) -> None:
    """Box-Muller on two ``(rows, m)`` blocks of 53-bit words into the
    ``(rows, 2m)`` array ``out``.

    With ``u`` the open-interval uniform of a word, pair ``p`` of a row takes
    ``u1 = u(radius_words[p])`` and ``u2 = u(theta_words[p])`` and yields
    values ``2p`` (the cosine) and ``2p + 1`` (the sine). The pairs of all rows
    are transformed ``_BOX_MULLER_PAIRS`` at a time (at least one column of
    pairs) through reused contiguous scratch; every element sees the same
    operations as a whole-array transform of its own row, so neither the
    chunking nor the other rows change a byte.
    """
    rows, pairs = radius_words.shape
    cosines, sines = out[:, 0::2], out[:, 1::2]
    columns = max(1, _BOX_MULLER_PAIRS // max(rows, 1))
    scratch = np.empty(3 * rows * min(pairs, columns))
    for lo in range(0, pairs, columns):
        hi = min(lo + columns, pairs)
        radius, theta, trig = scratch[: 3 * rows * (hi - lo)].reshape(3, rows, hi - lo)
        for u, words in ((radius, radius_words), (theta, theta_words)):  # as in _open_uniforms
            np.add(words[:, lo:hi], 0.5, out=u)
            np.multiply(u, 2.0**-53, out=u)
        np.log(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(2.0 * np.pi, theta, out=theta)
        np.multiply(radius, np.cos(theta, out=trig), out=cosines[:, lo:hi])
        np.multiply(radius, np.sin(theta, out=trig), out=sines[:, lo:hi])


def _spans_at(key, spans) -> list[np.ndarray]:
    """The 53-bit words of each ``(start, count)`` span of stream ``key``, in
    order, as ``(1, count)`` blocks; each run of spans that start where the one
    before ends is read in one :func:`_words_at` call."""
    runs = []  # [start, counts]
    for start, count in spans:
        if runs and runs[-1][0] + sum(runs[-1][1]) == start:
            runs[-1][1].append(count)
        else:
            runs.append([start, [count]])
    blocks = []
    for start, counts in runs:
        words, at = _words_at(key, start, sum(counts)), 0
        for count in counts:
            blocks.append(words[:, at : at + count])
            at += count
    return blocks


def _chunk_normals(key, parts, lo: int, hi: int) -> list[np.ndarray]:
    """Rows ``lo:hi`` of each part ``(first, m, w)`` of a one-row draw, the part
    that starts at word ``first``, has m pairs and w values a row: its values
    ``lo * w : hi * w``, :func:`_box_muller` of the pairs that hold them, pair p
    from words ``first + p`` and ``first + m + p``, read at their place in the
    stream (:func:`_spans_at`). A part the chunk holds whole is one run of
    words, and so are consecutive whole parts. A pair split by the chunk's edge
    is transformed whole and only its half inside is kept."""
    spans = []
    for first, m, w in parts:
        a, b = lo * w // 2, (hi * w + 1) // 2
        spans += [(first + a, b - a), (first + m + a, b - a)]
    words = _spans_at(key, spans)
    values = []
    for _, _, w in parts:
        radius, theta = words.pop(0), words.pop(0)  # a split part's words go once used
        skip = lo * w % 2  # the cosine of a pair split by lo
        out = np.empty((1, 2 * radius.shape[1]))
        _box_muller(radius, theta, out)
        values.append(out[0, skip : skip + (hi - lo) * w])
    return values


def _reduce_normals(key, rows: int, width: int, d: int, reduce, scaled: bool = True) -> list[int]:
    """The sums of ``reduce(lo, values)`` over a one-row draw of ``rows`` rows
    of ``width`` d-dimensional vectors, ``values`` the ``(hi - lo, width, d)``
    vectors of rows ``lo:hi``, in chunks of about ``_TILE_PAIRS`` pairs, on
    the tiles (:func:`_map_rows`).

    The draw is the stream's ``rows * width`` NSN vectors, or with ``scaled``
    false its ``rows * width * d`` normals (:func:`_one_stream`): each
    part's values of a chunk are :func:`_chunk_normals`, the directions scaled
    in place, so a row's values are the whole draw's bytes. ``reduce`` returns
    a tuple of ints, or writes its rows into an output and returns ``()``; it
    never draws (see :func:`_map_rows`)."""
    widths = (width, width * d) if scaled else (width * d,)
    pairs = [(rows * w + 1) // 2 for w in widths]
    firsts = [2 * sum(pairs[:i]) for i in range(len(pairs))]
    layout = list(zip(firsts, pairs, widths))

    def work(lo: int, hi: int):
        parts = _chunk_normals(key, layout, lo, hi)
        values = parts[-1].reshape(hi - lo, width, d)
        if scaled:  # IEEE x commutes
            np.multiply(values, parts[0].reshape(hi - lo, width, 1), out=values)
        return reduce(lo, values)

    return _map_rows(rows, 2 * _TILE_PAIRS // sum(widths), 2 * sum(pairs), work)


def _one_stream(key, n: int, d: int, scaled: bool) -> np.ndarray:
    """The ``(n, d)`` draw of :func:`_reduce_normals` at width 1, each chunk
    written into its rows: every normal and NSN draw of one stream."""
    out = np.empty((n, d))

    def write(lo: int, values: np.ndarray) -> tuple:
        out[lo : lo + len(values)] = values[:, 0]
        return ()

    _reduce_normals(key, n, 1, d, write, scaled)
    return out


def _normals(key, n: int) -> np.ndarray:
    """``n`` normals of stream ``key``: :func:`_box_muller` of its first
    ``2 * ceil(n/2)`` words, so a value depends on the draw's length ``n``.
    It is :func:`standard_normals` without the check, and keeps its own name
    because the bench's tracer (``bench/tracing.py``) wraps it."""
    return _one_stream(key, n, 1, scaled=False).reshape(n)


def _normal_parts(keys, *lengths) -> list[np.ndarray]:
    """One ``(len(keys), n)`` block of normals per length n, drawn on this
    thread about ``_TILE_PAIRS`` pairs of rows at a time (at least one row):
    in each row, part i is :func:`_box_muller` of the ``2 * ceil(n/2)`` words
    of stream ``keys[r]`` that follow the earlier parts' words, pair p taking
    words p and ``ceil(n/2) + p`` of them. Each key is rewound once and its
    parts' words read in turn (:func:`_words`)."""
    pairs = [(n + 1) // 2 for n in lengths]
    outs = [np.empty((len(keys), 2 * m)) for m in pairs]
    step = max(1, _TILE_PAIRS // max(1, sum(pairs)))
    for lo in range(0, len(keys), step):
        blocks = _words(keys[lo : lo + step], *(2 * m for m in pairs))
        for block, m, out in zip(blocks, pairs, outs):
            _box_muller(block[:, :m], block[:, m:], out[lo : lo + step])
    return [out[:, :n] for out, n in zip(outs, lengths)]


def _uniforms(keys, n: int, low: float, high: float) -> np.ndarray:
    """``(len(keys), n)`` uniforms on the open interval (low, high), row r from
    the first n words of stream ``keys[r]``."""
    u = _open_uniforms(_words(keys, n)[0])
    u *= high - low
    u += low  # low + (high - low) * u, in place: IEEE addition commutes
    return u


def _nsn_vectors(keys, n: int, d: int) -> np.ndarray:
    """``(len(keys), n, d)`` NSN vectors of streams ``keys``, drawn on this
    thread (:func:`_normal_parts`): per stream, the scalars'
    ``2 * ceil(n/2)`` words, then the directions' ``2 * ceil(n d/2)``, each
    direction scaled by its scalar in place."""
    scalars, directions = _normal_parts(keys, n, n * d)
    directions = directions.reshape(-1, n, d)
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
        heads[redo] = _replayed_heads(keys[again], sizes[redo], owners_again, k, 2 * words)
    return heads


def _substream_permutation_heads(keys, owners, sizes, k: int) -> np.ndarray:
    """``(len(sizes), k)``: row q holds the first k entries of the permutation
    of ``sizes[q]`` that ``Generator.permutation`` draws first from stream
    ``keys[owners[q]]``; a key owns any number of rows, each size of its own.

    It is replayed from the raw words (:func:`_replayed_heads`), every size from
    the stream's start, so the bytes are the shuffle's and not whatever a numpy
    release's ``Generator`` does, and a row's bytes do not depend on the other
    rows. Each key's stream is read once for all its rows, at first
    ``max(_HEAD_WORDS, 3 n / 4)`` words for the largest n: 1.5 halves a step,
    where a step draws ``(mask + 1) / (i + 1)`` halves on average, under 2 and
    about 1.35 over a shuffle. The keys are replayed in chunks under
    ``_HEADS_BYTES``: per key its words, and per row (as many as the keys own
    on average) its shuffled ``arange`` and about eight row vectors.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    owners, sizes = np.asarray(owners, dtype=np.intp), np.asarray(sizes, dtype=np.intp)
    heads = np.empty((len(sizes), k), dtype=np.intp)
    if not heads.size:
        return heads
    top = int(sizes.max())
    words = max(_HEAD_WORDS, 3 * top // 4)
    rows_bytes = 8 * len(sizes) * (top + 8)  # every row's shuffled arange and row vectors
    chunk = max(1, _HEADS_BYTES * len(keys) // (8 * words * len(keys) + rows_bytes))  # keys
    by_owner = np.argsort(owners, kind="stable")
    bounds = owners.take(by_owner).searchsorted(np.arange(0, len(keys) + chunk, chunk))
    for lo, first, last in zip(range(0, len(keys), chunk), bounds, bounds[1:]):
        if first == last:
            continue
        rows = by_owner[first:last]
        rows = rows.take(np.argsort(-sizes.take(rows), kind="stable"))  # sizes descending
        heads[rows] = _replayed_heads(keys[lo : lo + chunk], sizes.take(rows),
                                      owners.take(rows) - lo, k, words)
    return heads


def standard_normals(n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. N(0, 1) draws from the given stream."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return _normals(_key(seed), n)


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


def sample_nsn(n: int, d: int, seed: SeedSpec) -> np.ndarray:
    """``(n, d)`` i.i.d. d-dimensional NSN vectors: row i is a standard normal
    scalar times its own d standard normal directions (:func:`_one_stream`)."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be >= 1")
    return _one_stream(_key(seed), n, d, scaled=True)
