"""Seeded sampling: determinism, moments, ensemble structure."""

import math
import tracemalloc

import numpy as np
import pytest

from subsetprune import (
    NsnEnsemble,
    SeedSpec,
    ShapeError,
    sample_normal_tensor,
    sample_nsn,
    sample_uniform,
    standard_normals,
)
from subsetprune import sampling
from subsetprune.sampling import _normals, _substream_keys, _words

N_BIG = 1_000_000


def test_same_seed_bit_identical():
    seed = SeedSpec(123, 456)
    a = sample_normal_tensor((2, 3, 4, 5), seed)
    b = sample_normal_tensor((2, 3, 4, 5), seed)
    assert np.array_equal(a.data, b.data)
    e1 = sample_nsn(7, 3, seed)
    e2 = sample_nsn(7, 3, seed)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_distinct_streams_differ():
    seed = SeedSpec(123, 0)
    a = standard_normals(64, seed)
    b = standard_normals(64, seed.substream(1))
    assert not np.array_equal(a, b)
    assert seed.substream(1) == seed.substream(1)
    assert seed.substream(1) != seed.substream(2)


def test_normal_moments():
    draws = standard_normals(N_BIG, SeedSpec(2024, 7))
    assert abs(draws.mean()) <= 0.01
    assert abs(draws.var() - 1.0) <= 0.01
    assert abs((draws > 0).mean() - 0.5) <= 0.002


def test_zero_dimension_rejected():
    with pytest.raises(ShapeError):
        sample_normal_tensor((0, 1, 1, 1), SeedSpec(1))


def test_nsn_product_identity_and_moments():
    ensemble = sample_nsn(N_BIG, 1, SeedSpec(11, 3))
    assert np.array_equal(
        ensemble.vectors, ensemble.scalars[:, None] * ensemble.directions
    )
    y = ensemble.vectors[:, 0]
    # |product of two standard normals| has mean 2/pi
    target = 2.0 / math.pi
    se = np.abs(y).std(ddof=1) / math.sqrt(y.size)
    assert abs(np.abs(y).mean() - target) <= 3.0 * se
    assert abs(y.mean()) <= 3.0 * y.std(ddof=1) / math.sqrt(y.size)


def test_nsn_entries_share_their_scalar():
    ensemble = sample_nsn(50, 4, SeedSpec(5))
    ratio = ensemble.vectors / ensemble.directions
    assert np.allclose(ratio, ensemble.scalars[:, None], rtol=1e-12, atol=0.0)


def test_nsn_cross_vector_independence():
    ensemble = sample_nsn(200_000, 1, SeedSpec(8, 1))
    y = ensemble.vectors[:, 0]
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
    nsn = np.abs(sample_nsn(m, 1, SeedSpec(17, 0)).vectors[:, 0])
    half = np.abs(standard_normals(m, SeedSpec(17, 1)))
    signed = standard_normals(m, SeedSpec(17, 2))
    alt = half * np.abs(signed)
    assert _ks_two_sample(nsn, alt) <= 0.02


def test_scalar_squares_follow_chi_squared_tails():
    # sum of k squared ensemble scalars is chi-squared(k); its tails must
    # respect exp(-t) at the standard thresholds
    k, t = 8, 2.0
    ensemble = sample_nsn(400_000, 1, SeedSpec(21, 2))
    stats = (ensemble.scalars**2).reshape(-1, k).sum(axis=1)
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


def test_ensemble_take_prefix():
    ensemble = sample_nsn(20, 2, SeedSpec(6))
    prefix = ensemble.take(5)
    assert np.array_equal(prefix.vectors, ensemble.vectors[:5])


def test_hand_built_ensemble_must_be_consistent():
    with pytest.raises(ValueError):
        NsnEnsemble(np.ones(2), np.ones((2, 1)), np.full((2, 1), 2.0))


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


_PAIRS = sampling._BOX_MULLER_PAIRS


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 2 * _PAIRS - 1, 2 * _PAIRS, 2 * _PAIRS + 1, 2 * _PAIRS + 2,
          6 * _PAIRS + 1, 100_001],
)
def test_chunked_box_muller_matches_whole_array_layout(n):
    seed = SeedSpec(31, n)
    expected = _box_muller_reference(_fresh(seed), n)
    assert _normals([_key(seed)], n)[0].tobytes() == expected.tobytes()


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


def test_normals_peak_memory_is_words_plus_output():
    n = 3_313_920  # joint-check directions of a 12945-trial block: 128 vectors x d = 2
    tracemalloc.start()
    try:
        _normals([_key(SeedSpec(4))], n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + (1 << 20)


def test_nsn_draw_drops_the_scalar_words_first():
    # 12945 trials of a 72-vector joint window in d = 2: the scalars' words
    # are freed before the directions' transform, so the peak is the
    # directions' words, their normals and the scalars
    n, d = 12945 * 72, 2
    tracemalloc.start()
    try:
        sampling._nsn_vectors([_key(SeedSpec(4))], n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n * d + n) + (1 << 20)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (3, 2), (7, 3), (10, 2), (4, 5)])
def test_batched_draws_are_the_per_stream_draws(rows, n, d):
    # one rewound Philox and one transform over all rows give each row the
    # bytes of a generator built afresh on its stream
    seeds = [SeedSpec(13, 7).substream(row) for row in range(rows)]
    keys = _substream_keys(seeds, [2])
    assert keys == [_key(seed.substream(2)) for seed in seeds]
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
    assert _normals(keys, n * d).tobytes() == np.stack(normals).tobytes()
    assert sampling._uniforms(keys, n * d, -3.0, 0.5).tobytes() == np.stack(uniforms).tobytes()
    got = sampling._nsn_parts(keys, n, d)
    assert got[0].tobytes() == scalars.tobytes() and got[1].tobytes() == directions.tobytes()
    assert sampling._nsn_vectors(keys, n, d).tobytes() == vectors.tobytes()
    for row, seed in enumerate(seeds):
        stream = seed.substream(2)
        assert standard_normals(n * d, stream).tobytes() == normals[row].tobytes()
        assert sample_uniform(n * d, stream, -3.0, 0.5).tobytes() == uniforms[row].tobytes()
        ensemble = sample_nsn(n, d, stream)
        assert ensemble.scalars.tobytes() == scalars[row].tobytes()
        assert ensemble.directions.tobytes() == directions[row].tobytes()
        assert ensemble.vectors.tobytes() == vectors[row].tobytes()


def test_batched_box_muller_scratch_is_bounded():
    # 2^13 rows of 2 pairs and one row of 2^16: the scratch stays about one
    # chunk of pairs either way (plus a ufunc's cast buffer)
    for rows, pairs in ((1 << 13, 2), (1, 1 << 16)):
        words = np.ones((rows, 2 * pairs), dtype=np.uint64)
        tracemalloc.start()
        try:
            sampling._box_muller(words, 2 * pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * words.size + 3 * 8 * max(rows, _PAIRS) + (1 << 17)
