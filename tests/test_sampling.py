"""Seeded sampling: determinism, moments, ensemble structure."""

import concurrent.futures
import functools
import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest

from subsetprune import (
    SeedSpec,
    ShapeError,
    sample_normal_tensor,
    sample_nsn,
    sample_uniform,
    standard_normals,
)
from subsetprune import harness, sampling
from subsetprune.harness import check_intersection_tail, scan_mrss_phase
from subsetprune.sampling import (_normals, _raw, _substream_keys, _substream_permutation_heads,
                                  _substreams, _words)
from subsetprune.solvers import Strategy

N_BIG = 1_000_000


def test_same_seed_bit_identical():
    seed = SeedSpec(123, 456)
    a = sample_normal_tensor((2, 3, 4, 5), seed)
    b = sample_normal_tensor((2, 3, 4, 5), seed)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(sample_nsn(7, 3, seed), sample_nsn(7, 3, seed))


def test_distinct_streams_differ():
    seed = SeedSpec(123, 0)
    a = standard_normals(64, seed)
    b = standard_normals(64, seed.substream(1))
    assert not np.array_equal(a, b)
    assert seed.substream(1) == seed.substream(1)
    assert seed.substream(1) != seed.substream(2)


def _splitmix_reference(stream: int, index: int) -> int:
    """splitmix64's finaliser over ``stream * phi + index`` in Python ints,
    each step masked to 64 bits: the stream id of substream ``index``."""
    mask = (1 << 64) - 1
    x = (stream * 0x9E3779B97F4A7C15 + (index & mask)) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


_EDGE_INDICES = [0, 1, 2**63, 2**64 - 1, -1, -(2**63), -(2**70) - 3, 2**64, 2**64 + 7,
                 2**130 + 5]


@pytest.mark.parametrize("streams,indices", [
    ([2**64 - 1], [-1]),  # one key
    ([0, 2**63, 2**64 - 1, 12345], [*_EDGE_INDICES, *range(2490)]),  # 10^4 keys
])
def test_substream_keys_are_splitmix64(streams, indices):
    keys = [(2**64 - 1 - stream, stream) for stream in streams]
    got = _substream_keys(keys, indices)
    assert got.dtype == np.uint64 and got.shape == (len(keys) * len(indices), 2)
    assert got.tolist() == [[master, _splitmix_reference(stream, index)]
                            for master, stream in keys for index in indices]
    for master, stream in keys[:4]:
        for index in _EDGE_INDICES:
            spec = SeedSpec(master, stream).substream(index)
            assert _key(spec) == (master, _splitmix_reference(stream, index))


@pytest.mark.parametrize("seed", [SeedSpec(0), SeedSpec(2**64 - 1, 2**63), SeedSpec(9, 2**64 - 1)])
def test_substreams_are_each_indexs_substream_from_one_mix(monkeypatch, seed):
    mixed = []
    mix = sampling._mix64
    monkeypatch.setattr(sampling, "_mix64", lambda streams, indices: (
        mixed.append(indices.size) or mix(streams, indices)))
    indices = [*_EDGE_INDICES, *range(40)]
    streams = _substreams(seed, indices)
    assert mixed == [len(indices)]
    assert streams == [seed.substream(index) for index in indices]
    assert [_key(stream) for stream in streams] == [
        (seed.master_seed, _splitmix_reference(seed.stream_id, index)) for index in indices]
    assert _substreams(seed, []) == []


@pytest.mark.parametrize("counts", [(3, 0, 5), (0,), (7,), (1, 1, 1, 1)])
@pytest.mark.parametrize("rows", [1, 5])
def test_raw_blocks_are_each_streams_consecutive_words(monkeypatch, counts, rows):
    # each key is rewound once and read in one call; block b of row r holds
    # the words that follow row r's earlier blocks on a fresh Philox
    keys = _substream_keys([(7, 2**64 - 1)], range(rows))
    reads = []
    rewound = sampling._rewound

    class Counting:
        def __init__(self, rng):
            self.bit_generator, self.philox = self, rng.bit_generator

        def random_raw(self, size=None):
            reads.append(size)
            return self.philox.random_raw(size)

    monkeypatch.setattr(sampling, "_rewound", lambda keys: map(Counting, rewound(keys)))
    blocks = _raw(keys, *counts)
    assert reads == [sum(counts)] * rows
    for row, key in enumerate(keys):
        philox = np.random.Philox(key=key)
        for block, count in zip(blocks, counts):
            assert block.shape == (rows, count) and block.dtype == np.uint64
            assert block[row].tobytes() == philox.random_raw(count).tobytes()


def test_normal_moments():
    draws = standard_normals(N_BIG, SeedSpec(2024, 7))
    assert abs(draws.mean()) <= 0.01
    assert abs(draws.var() - 1.0) <= 0.01
    assert abs((draws > 0).mean() - 0.5) <= 0.002


def test_zero_dimension_rejected():
    with pytest.raises(ShapeError):
        sample_normal_tensor((0, 1, 1, 1), SeedSpec(1))


def test_nsn_product_identity_and_moments():
    vectors = sample_nsn(N_BIG, 1, SeedSpec(11, 3))
    scalars, directions = _nsn_parts([_key(SeedSpec(11, 3))], N_BIG, 1)
    assert np.array_equal(vectors, scalars[0, :, None] * directions[0])
    y = vectors[:, 0]
    # |product of two standard normals| has mean 2/pi
    target = 2.0 / math.pi
    se = np.abs(y).std(ddof=1) / math.sqrt(y.size)
    assert abs(np.abs(y).mean() - target) <= 3.0 * se
    assert abs(y.mean()) <= 3.0 * y.std(ddof=1) / math.sqrt(y.size)


def test_nsn_entries_share_their_scalar():
    (scalars,), (directions,) = _nsn_parts([_key(SeedSpec(5))], 50, 4)
    ratio = sample_nsn(50, 4, SeedSpec(5)) / directions
    assert np.allclose(ratio, scalars[:, None], rtol=1e-12, atol=0.0)


def test_nsn_cross_vector_independence():
    y = sample_nsn(200_000, 1, SeedSpec(8, 1))[:, 0]
    first, second = y[0::2], y[1::2]
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(first.size)


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    both = np.concatenate([a, b])
    both.sort(kind="stable")
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def test_half_normal_scaling_reproduces_nsn_magnitudes():
    # |scalar| * |direction| with a half-normal scalar matches |NSN entry|
    m = 100_000
    nsn = np.abs(sample_nsn(m, 1, SeedSpec(17, 0))[:, 0])
    half = np.abs(standard_normals(m, SeedSpec(17, 1)))
    signed = standard_normals(m, SeedSpec(17, 2))
    alt = half * np.abs(signed)
    assert _ks_two_sample(nsn, alt) <= 0.02


def test_scalar_squares_follow_chi_squared_tails():
    # sum of k squared ensemble scalars is chi-squared(k); its tails must
    # respect exp(-t) at the standard thresholds
    k, t = 8, 2.0
    (scalars,) = sampling._normal_parts([_key(SeedSpec(21, 2))], 400_000)  # the NSN scalars
    stats = (scalars**2).reshape(-1, k).sum(axis=1)
    bound = math.exp(-t)
    upper = (stats >= k + 2 * math.sqrt(k * t) + 2 * t).mean()
    lower = (stats <= k - 2 * math.sqrt(k * t)).mean()
    slack = 3.0 * math.sqrt(bound / stats.size)
    assert upper <= bound + slack
    assert lower <= bound + slack


def test_uniform_range_and_mean():
    draws = sample_uniform(200_000, SeedSpec(4, 4), -1.0, 1.0)
    assert draws.min() > -1.0 and draws.max() < 1.0
    assert abs(draws.mean()) <= 3.0 * draws.std(ddof=1) / math.sqrt(draws.size)


def _fresh(seed: SeedSpec) -> np.random.Generator:
    """The reference stream: a generator built afresh on ``seed``'s Philox key."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _words_reference(rng, count: int) -> np.ndarray:
    return rng.integers(0, 1 << 53, size=count, dtype=np.uint64)


def _box_muller_reference(rng, n: int) -> np.ndarray:
    """Whole-array Box-Muller of the next 2 * ceil(n/2) words of ``rng``: pair p
    of m = ceil(n/2) takes words p and m + p."""
    m = (n + 1) // 2
    u = (_words_reference(rng, 2 * m).astype(np.float64) + 0.5) * (2.0**-53)
    radius = np.sqrt(-2.0 * np.log(u[:m]))
    theta = (2.0 * np.pi) * u[m:]
    out = np.empty(2 * m)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:n]


def _key(seed: SeedSpec) -> tuple[int, int]:
    return seed.master_seed, seed.stream_id


def _nsn_parts(keys, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows, n)`` scalars and ``(rows, n, d)`` directions that
    ``_nsn_vectors(keys, n, d)`` multiplies."""
    scalars, directions = sampling._normal_parts(keys, n, n * d)
    return scalars, directions.reshape(-1, n, d)


_PAIRS = sampling._BOX_MULLER_PAIRS


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 2 * _PAIRS - 1, 2 * _PAIRS, 2 * _PAIRS + 1, 2 * _PAIRS + 2,
          6 * _PAIRS + 1, 100_001],
)
def test_chunked_box_muller_matches_whole_array_layout(n):
    seed = SeedSpec(31, n)
    expected = _box_muller_reference(_fresh(seed), n)
    assert _normals(_key(seed), n).tobytes() == expected.tobytes()


def test_one_word_draw_equals_two_half_draws():
    # a 2^53 range takes one 64-bit word per value and never rejects, so the
    # shifted raw words are the integers draw, and a second block continues it
    m = 1001
    first, second = _words([_key(SeedSpec(9))], m, m + 1)
    expected = _words_reference(_fresh(SeedSpec(9)), 2 * m + 1)
    assert np.concatenate([first[0], second[0]]).tobytes() == expected.tobytes()


def test_normals_depend_on_the_call_length():
    # pair 0 takes uniforms 0 and ceil(n/2), so value 0 moves with n
    assert standard_normals(4, SeedSpec(3))[0] == pytest.approx(-0.273, abs=5e-4)
    assert standard_normals(6, SeedSpec(3))[0] == pytest.approx(0.112, abs=5e-4)


@pytest.fixture(params=[1, 2, 3, 7])
def workers(request, monkeypatch):
    """Large draws split over this many threads, on a pool of their own."""
    monkeypatch.setattr(sampling, "_WORKERS", request.param)
    monkeypatch.setattr(sampling, "_POOL", None)
    yield request.param
    if sampling._POOL is not None:
        sampling._POOL.shutdown()


def _tile_scratch(workers: int) -> int:
    """What the tiles of a one-row draw hold at once beside the output: per
    tile, one chunk's values and the two word windows of one of its parts
    (each at most 16 bytes a pair of the chunk's ``_TILE_PAIRS``), the
    Box-Muller scratch and 64 KiB for a ufunc's cast buffer."""
    return workers * (4 * 8 * sampling._TILE_PAIRS + 3 * 8 * _PAIRS + (1 << 16))


def _warm_tiles() -> None:
    """One small tiled draw, so that the pool's threads and their Philox
    generators exist before a peak is traced."""
    _normals(_key(SeedSpec(4)), 2 * sampling._INLINE_PAIRS)


def test_normals_peak_memory_is_output_plus_tile_scratch(workers):
    n = 3_313_920  # joint-check directions of a 12945-trial block: 128 vectors x d = 2
    _warm_tiles()
    tracemalloc.start()
    try:
        _normals(_key(SeedSpec(4)), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + _tile_scratch(workers)


def test_nsn_draw_peak_memory_is_output_plus_tile_scratch(workers):
    # 12945 trials of a 72-vector joint window in d = 2: no word block and no
    # scalar block is kept, each chunk's directions are scaled in place
    n, d = 12945 * 72, 2
    _warm_tiles()
    tracemalloc.start()
    try:
        sampling._one_stream(_key(SeedSpec(4)), n, d, scaled=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * d + _tile_scratch(workers)


_TILE, _INLINE = sampling._TILE_PAIRS, sampling._INLINE_PAIRS


def _assert_fresh_draws(rows: int, n: int, d: int) -> None:
    """The many-stream draws of ``rows`` streams (``_normal_parts``,
    ``_nsn_vectors``) and each stream's one-stream draws (``_normals``,
    ``_one_stream``) are, byte for byte, whole-array draws of generators
    built afresh."""
    seeds = [SeedSpec(41, 1000 * n + d).substream(row) for row in range(rows)]
    keys = [_key(seed) for seed in seeds]
    normals = np.stack([_box_muller_reference(_fresh(seed), n * d) for seed in seeds])
    scalars, directions = [], []
    for seed in seeds:
        rng = _fresh(seed)
        scalars.append(_box_muller_reference(rng, n))
        directions.append(_box_muller_reference(rng, n * d).reshape(n, d))
    scalars, directions = np.stack(scalars), np.stack(directions)
    vectors = scalars[:, :, None] * directions
    assert sampling._normal_parts(keys, n * d)[0].tobytes() == normals.tobytes()
    got = _nsn_parts(keys, n, d)
    assert got[0].tobytes() == scalars.tobytes() and got[1].tobytes() == directions.tobytes()
    assert sampling._nsn_vectors(keys, n, d).tobytes() == vectors.tobytes()
    for key, row_normals, row_vectors in zip(keys, normals, vectors):
        assert _normals(key, n * d).tobytes() == row_normals.tobytes()
        assert sampling._one_stream(key, n, d, scaled=True).tobytes() == row_vectors.tobytes()


@pytest.mark.parametrize("rows,n,d", [
    (1, 2 * _INLINE - 2, 1),  # normals one pair below the inline threshold, NSN above
    (1, 2 * _INLINE - 1, 1),  # normals at the threshold
    (1, 2 * _INLINE + 1, 3),  # odd n and odd n d: the directions start at word 2 mod 4
    (1, 2 * _TILE + 1, 1),  # at one worker, the tile crosses a sub-chunk edge
    (1, 14 * _TILE + 1, 1),  # at 7 workers, one tile crosses a sub-chunk edge
    (7, 2 * _INLINE // 7 + 1, 3),  # 7 rows above the threshold: one row at a time, inline
    (7, 5, 3),  # 7 rows, inline
])
def test_tiles_keep_every_byte(workers, rows, n, d):
    _assert_fresh_draws(rows, n, d)


def test_tiles_keep_every_byte_at_small_sizes(workers, monkeypatch):
    # sub-chunks of 5 pairs and tiles from 3 pairs: most tiles start and end
    # inside a Philox block of four words, and rows are read 1 to 5 at a time
    monkeypatch.setattr(sampling, "_TILE_PAIRS", 5)
    monkeypatch.setattr(sampling, "_INLINE_PAIRS", 3)
    monkeypatch.setattr(sampling, "_BOX_MULLER_PAIRS", 2)
    for rows in (1, 7):
        for n in (1, 2, 3, 6, 7, 13, 29):
            for d in (1, 2, 3):
                _assert_fresh_draws(rows, n, d)


def _rows_reference(seed: SeedSpec, rows: int, width: int, d: int, scaled: bool) -> np.ndarray:
    """The ``(rows, width, d)`` values of a whole-array draw on a fresh
    generator: NSN vectors, or plain normals when not ``scaled``."""
    rng = _fresh(seed)
    if not scaled:
        return _box_muller_reference(rng, rows * width * d).reshape(rows, width, d)
    scalars = _box_muller_reference(rng, rows * width).reshape(rows, width, 1)
    return _box_muller_reference(rng, rows * width * d).reshape(rows, width, d) * scalars


def _assert_reduced_rows(rows: int, width: int, d: int, scaled: bool, cap: int) -> None:
    """Every chunk ``_reduce_normals`` hands over holds its rows' bytes, and
    the totals are the whole draw's."""
    seed = SeedSpec(47, rows * width * d)
    expected = _rows_reference(seed, rows, width, d, scaled)
    got = np.full_like(expected, np.nan)

    def reduce(lo, values):
        assert values.shape[1:] == (width, d) and 1 <= len(values) <= cap
        got[lo : lo + len(values)] = values
        return len(values), int(np.signbit(values).sum())

    totals = sampling._reduce_normals(_key(seed), rows, width, d, reduce, scaled)
    assert got.tobytes() == expected.tobytes()
    assert totals == [rows, int(np.signbit(expected).sum())]


@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("rows,width,d", [(1, 1, 1), (2, 1, 1), (7, 3, 1), (5, 1, 3),
                                          (40, 3, 2), (33, 65, 1)])
def test_reduced_chunks_of_a_few_rows_keep_every_byte(workers, monkeypatch, rows, width, d,
                                                      scaled):
    # chunks of 1 to 4 rows, tiled at every size: an odd row width splits a
    # Box-Muller pair at chunk and tile edges, and the pair is kept whole
    monkeypatch.setattr(sampling, "_TILE_PAIRS", 4)
    monkeypatch.setattr(sampling, "_INLINE_PAIRS", 1)
    monkeypatch.setattr(sampling, "_BOX_MULLER_PAIRS", 2)
    _assert_reduced_rows(rows, width, d, scaled, max(1, 8 // (width * (d + scaled))))


@pytest.mark.parametrize("rows,width,d,scaled", [
    (12945, 65, 1, True),  # 504-row chunks of an odd width; at 3 tiles a tile starts mid-pair
    (12945, 1, 16, False),  # the chi-squared check at d = 16
    (1, 128, 2, True),  # one row, below the inline threshold
])
def test_reduced_chunks_keep_every_byte(workers, rows, width, d, scaled):
    _assert_reduced_rows(rows, width, d, scaled, max(1, 2 * _TILE // (width * (d + scaled))))


def test_run_returns_tile_results_after_every_tile_ends(workers):
    ended = []

    def tile(t):
        time.sleep(0.01 * t)
        ended.append(t)
        if t == 0:
            raise ValueError("tile 0")
        return t

    assert sampling._run([functools.partial(tile, t) for t in range(1, workers + 1)]) == list(
        range(1, workers + 1))
    ended.clear()
    with pytest.raises(ValueError, match="tile 0"):
        sampling._run([functools.partial(tile, t) for t in range(workers + 1)])
    assert sorted(ended) == list(range(workers + 1))


def _counted_reads(monkeypatch) -> list:
    """The ``(start, count)`` of every ``_words_at`` call from now on."""
    reads, words_at = [], sampling._words_at

    def counted(key, start, count):
        reads.append((start, count))
        return words_at(key, start, count)

    monkeypatch.setattr(sampling, "_words_at", counted)
    return reads


def test_a_small_draw_reads_its_words_in_one_call(monkeypatch):
    reads, seed = _counted_reads(monkeypatch), SeedSpec(43, 1)
    expected = _box_muller_reference(_fresh(seed), 6)
    assert standard_normals(6, seed).tobytes() == expected.tobytes()
    assert reads == [(0, 6)]
    reads.clear()
    expected = _rows_reference(seed, 48, 1, 4, scaled=True).reshape(48, 4)
    assert sample_nsn(48, 4, seed).tobytes() == expected.tobytes()
    assert reads == [(0, 48 + 192)]  # the scalars' 48 words, then the directions' 192


def test_a_chunk_reads_each_run_of_adjacent_words_at_once(monkeypatch):
    # one-row chunks of sample_nsn(2, 2): each holds the scalars' one pair
    # whole (words 0 and 1) and half of the directions' two pairs (words 2-5)
    monkeypatch.setattr(sampling, "_TILE_PAIRS", 1)
    reads, seed = _counted_reads(monkeypatch), SeedSpec(43, 2)
    expected = _rows_reference(seed, 2, 1, 2, scaled=True).reshape(2, 2)
    assert sample_nsn(2, 2, seed).tobytes() == expected.tobytes()
    # row 0: the scalar pair and its direction pair's radius word are one run;
    # row 1: its direction pair's words 3 and 5 are runs of their own
    assert reads == [(0, 3), (4, 1), (0, 2), (3, 1), (5, 1)]


@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, (1 << 16) + 3])
def test_words_at_reads_from_the_words_place_in_the_stream(start):
    seed = SeedSpec(12, start)
    expected = _words_reference(_fresh(seed), start + 9)
    assert sampling._words_at(_key(seed), start, 9).tobytes() == expected[start:].tobytes()
    # the thread's next rewind starts at word 0 again
    assert _words([_key(seed)], 3)[0].tobytes() == expected[:3].tobytes()


def test_concurrent_large_draws_keep_every_byte(workers):
    # four calling threads share the pool while the interpreter switches
    # threads every microsecond; every thread reads its own Philox
    seeds = [SeedSpec(43, i) for i in range(4)] * 3
    n = 2 * _INLINE + 7
    expected = [_box_muller_reference(_fresh(seed), n).tobytes() for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(lambda key: _normals(key, n).tobytes(), _key(seed))
                       for seed in seeds]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_a_pool_of_its_own(monkeypatch):
    # the parent's pool threads do not exist in a forked child: a child that
    # kept the pool would wait forever on its tiles
    monkeypatch.setattr(sampling, "_WORKERS", 2)
    monkeypatch.setattr(sampling, "_POOL", None)
    key, n = _key(SeedSpec(5, 5)), 4 * _INLINE
    try:
        expected = _normals(key, n).tobytes()
        assert sampling._POOL is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(sampling._POOL is not None or _normals(key, n).tobytes() != expected)
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (status := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.05)
        if not status[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] and os.waitstatus_to_exitcode(status[1]) == 0
    finally:
        sampling._POOL.shutdown()


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (3, 2), (7, 3), (10, 2), (4, 5)])
def test_batched_draws_are_the_per_stream_draws(rows, n, d):
    # one rewound Philox and one transform over all rows give each row the
    # bytes of a generator built afresh on its stream
    seeds = [SeedSpec(13, 7).substream(row) for row in range(rows)]
    keys = _substream_keys([_key(seed) for seed in seeds], [2])
    assert keys.tolist() == [list(_key(seed.substream(2))) for seed in seeds]
    normals, uniforms, scalars, directions = [], [], [], []
    for seed in seeds:
        normals.append(_box_muller_reference(_fresh(seed.substream(2)), n * d))
        u = (_words_reference(_fresh(seed.substream(2)), n * d) + 0.5) * (2.0**-53)
        uniforms.append(-3.0 + (0.5 - -3.0) * u)
        rng = _fresh(seed.substream(2))
        scalars.append(_box_muller_reference(rng, n))
        directions.append(_box_muller_reference(rng, n * d).reshape(n, d))
    scalars, directions = np.stack(scalars), np.stack(directions)
    vectors = scalars[:, :, None] * directions
    assert sampling._normal_parts(keys, n * d)[0].tobytes() == np.stack(normals).tobytes()
    assert sampling._uniforms(keys, n * d, -3.0, 0.5).tobytes() == np.stack(uniforms).tobytes()
    got = _nsn_parts(keys, n, d)
    assert got[0].tobytes() == scalars.tobytes() and got[1].tobytes() == directions.tobytes()
    assert sampling._nsn_vectors(keys, n, d).tobytes() == vectors.tobytes()
    for row, seed in enumerate(seeds):
        stream = seed.substream(2)
        assert standard_normals(n * d, stream).tobytes() == normals[row].tobytes()
        assert sample_uniform(n * d, stream, -3.0, 0.5).tobytes() == uniforms[row].tobytes()
        assert sample_nsn(n, d, stream).tobytes() == vectors[row].tobytes()


def test_batched_box_muller_scratch_is_bounded():
    # 2^13 rows of 2 pairs and one row of 2^16: the scratch stays about one
    # chunk of pairs either way (plus a ufunc's cast buffer)
    for rows, pairs in ((1 << 13, 2), (1, 1 << 16)):
        words = np.ones((rows, pairs), dtype=np.uint64)
        out = np.empty((rows, 2 * pairs))
        tracemalloc.start()
        try:
            sampling._box_muller(words, words, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * max(rows, _PAIRS) + (1 << 17)


# Restart heads: numpy's shuffle replayed from the raw words

_HEAD_KEYS = _substream_keys([(77, stream) for stream in range(1250)], range(1, 9))


def _heads(keys, sizes, k: int) -> np.ndarray:
    """``(len(sizes), len(keys), k)``: every size of every key, drawn as rows."""
    owners = np.tile(np.arange(len(keys)), len(sizes))
    rows = _substream_permutation_heads(keys, owners, np.repeat(sizes, len(keys)), k)
    return rows.reshape(len(sizes), len(keys), k)


def _permutation_reference(key, n: int) -> np.ndarray:
    """``permutation(n)`` of a generator built afresh on the Philox ``key``."""
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64))).permutation(n)


def _shuffle_reference(words: np.ndarray, n: int) -> tuple[list[int], int]:
    """numpy's shuffle of ``arange(n)`` in plain Python, from raw words split
    into 32-bit halves low half first: for i = n-1 .. 1, j is the next half
    masked to ``2**bitlen(i) - 1``, drawn again while j > i, and positions i
    and j swap. Returns the permutation and the number of halves drawn."""
    halves = [half for word in words.tolist() for half in (word & 0xFFFFFFFF, word >> 32)]
    shuffled, drawn = list(range(n)), 0
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := halves[drawn] & mask) > i:
            drawn += 1
        drawn += 1
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    return shuffled, drawn


@pytest.mark.parametrize("n", [1, 2, 3, 7, 48, 64])
def test_replayed_heads_are_the_generator_permutations(n):
    expected = np.array([_permutation_reference(key, n) for key in _HEAD_KEYS])
    for k in sorted({1, min(3, n), n}):
        heads = _heads(_HEAD_KEYS, [n], k)
        assert heads.shape == (1, len(_HEAD_KEYS), k)
        assert np.array_equal(heads[0], expected[:, :k])


def test_every_size_starts_from_the_stream_start():
    sizes = [20, 2, 64, 7, 20]
    keys = _HEAD_KEYS[:500]
    heads = _heads(keys, sizes, 2)
    for block, n in zip(heads, sizes):
        assert np.array_equal(block, _heads(keys, [n], 2)[0])
        assert np.array_equal(block, [_permutation_reference(key, n)[:2] for key in keys])


def test_the_shuffle_reference_is_numpys():
    (words,) = _raw(_HEAD_KEYS[:300], 96)
    for n in (2, 9, 33, 64):
        for key, row in zip(_HEAD_KEYS, words):
            assert _shuffle_reference(row, n)[0] == _permutation_reference(key, n).tolist()


def test_short_rows_reread_a_longer_prefix(monkeypatch):
    # at n = 64 a step draws about 1.3 halves on average, so a few keys need
    # more than the first read's 2 * 48 halves; exactly those are read again
    n, keys = 64, _HEAD_KEYS[:2000]
    first = max(sampling._HEAD_WORDS, 3 * n // 4)
    (words,) = _raw(keys, 4 * first)
    drawn = np.array([_shuffle_reference(row, n)[1] for row in words])
    short = {tuple(key) for key, count in zip(keys.tolist(), drawn) if count > 2 * first}
    assert 0 < len(short) < len(keys) // 10
    reads = []
    raw = sampling._raw
    monkeypatch.setattr(sampling, "_HEADS_BYTES", 1 << 22)  # the 2000 keys in one chunk
    monkeypatch.setattr(sampling, "_raw", lambda keys, *counts: reads.append(
        ([tuple(key) for key in keys.tolist()], counts)) or raw(keys, *counts))
    heads = _heads(keys, [n], 5)[0]
    assert [counts for _, counts in reads] == [(first,), (2 * first,)]
    assert set(reads[1][0]) == short
    assert np.array_equal(heads, [_permutation_reference(key, n)[:5] for key in keys])


def test_forced_rereads_and_chunks_keep_the_heads(monkeypatch):
    keys, sizes = _HEAD_KEYS[:600], [5, 64, 20, 33]
    expected = _heads(keys, sizes, 3)
    for words, cap in ((1, 1 << 22), (2, 20_000), (sampling._HEAD_WORDS, 1)):
        monkeypatch.setattr(sampling, "_HEAD_WORDS", words)
        monkeypatch.setattr(sampling, "_HEADS_BYTES", cap)
        assert np.array_equal(_heads(keys, sizes, 3), expected)


@pytest.mark.parametrize("cap", [1 << 22, 20_000, 1])
def test_heads_of_any_rows_are_those_rows_of_every_size(monkeypatch, cap):
    # a key may own several rows, one row or none, in any order; each row is
    # its (key, size) row of the draw of every size of every key
    keys, sizes = _HEAD_KEYS[:300], np.array([5, 64, 20, 33])
    every = _heads(keys, sizes, 3)
    pick = np.random.default_rng(9)
    owners = pick.integers(0, 150, 400)
    which = pick.integers(0, len(sizes), 400)
    monkeypatch.setattr(sampling, "_HEADS_BYTES", cap)
    rows = _substream_permutation_heads(keys, owners, sizes[which], 3)
    assert np.array_equal(rows, every[which, owners])


def test_restart_heads_are_pinned():
    # the package's own bytes: they no longer follow numpy's Generator code
    keys = _substream_keys([_key(SeedSpec(20240801))], [1, 2])
    assert _heads(keys, [10, 20, 64], 3).tolist() == [
        [[6, 7, 5], [5, 1, 3]], [[0, 19, 4], [16, 0, 5]], [[32, 58, 22], [43, 56, 1]]]
    assert _heads(keys[:1], [20], 20)[0, 0].tolist() == [
        0, 19, 4, 7, 1, 9, 5, 13, 3, 18, 10, 8, 14, 6, 17, 11, 2, 12, 15, 16]


def test_empty_heads_draw_nothing(monkeypatch):
    monkeypatch.setattr(sampling, "_raw", None)
    assert _heads([], [10], 3).shape == (1, 0, 3)
    assert _heads(_HEAD_KEYS[:4], [], 3).shape == (0, 4, 3)
    assert _heads(_HEAD_KEYS[:4], [5], 0).shape == (1, 4, 0)


class _RawOnly(np.random.Generator):
    """A generator whose sampling methods raise: only its bit generator reads."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a Generator sampling method was called")

    permutation = shuffle = random = integers = choice = _refuse


def test_no_generator_sampling_method_is_called(monkeypatch):
    # Generator is an immutable extension type, so the refusing subclass takes
    # its place; a new thread builds its one Philox generator from it
    def work():
        assert isinstance(sampling._generator(SeedSpec(0)), np.random.Generator)
        rows = scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 40, SeedSpec(3),
                               strategy=Strategy.GREEDY_SWAP)
        tail = check_intersection_tail(100, 10, 2, 20_000, SeedSpec(4))
        return type(sampling._generator(SeedSpec(0))), rows, tail.estimate

    expected = work()[1:]
    monkeypatch.setattr(np.random, "Generator", _RawOnly)
    monkeypatch.setattr(harness, "_TAIL_CHUNK", 1000)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        kind, rows, estimate = pool.submit(work).result(timeout=120)
    assert kind is _RawOnly
    assert (rows, estimate) == expected
