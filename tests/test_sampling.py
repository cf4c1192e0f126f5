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
from subsetprune.sampling import _generator, _normals, _uniform_open01

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


def _box_muller_reference(seed: SeedSpec, n: int) -> np.ndarray:
    """Whole-array Box-Muller: pair p of m = ceil(n/2) takes words p and m + p."""
    m = (n + 1) // 2
    words = _generator(seed).integers(0, 1 << 53, size=2 * m, dtype=np.uint64)
    u = (words.astype(np.float64) + 0.5) * (2.0**-53)
    radius = np.sqrt(-2.0 * np.log(u[:m]))
    theta = (2.0 * np.pi) * u[m:]
    out = np.empty(2 * m)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:n]


_PAIRS = sampling._BOX_MULLER_PAIRS


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 2 * _PAIRS - 1, 2 * _PAIRS, 2 * _PAIRS + 1, 2 * _PAIRS + 2,
          6 * _PAIRS + 1, 100_001],
)
def test_chunked_box_muller_matches_whole_array_layout(n):
    seed = SeedSpec(31, n)
    assert _normals(_generator(seed), n).tobytes() == _box_muller_reference(seed, n).tobytes()


def test_one_word_draw_equals_two_half_draws():
    # a 2^53 range takes one 64-bit word per value and never rejects
    m = 1001
    words = _generator(SeedSpec(9)).integers(0, 1 << 53, size=2 * m, dtype=np.uint64)
    rng = _generator(SeedSpec(9))
    halves = np.concatenate([_uniform_open01(rng, m), _uniform_open01(rng, m)])
    assert halves.tobytes() == ((words.astype(np.float64) + 0.5) * (2.0**-53)).tobytes()


def test_normals_depend_on_the_call_length():
    # pair 0 takes uniforms 0 and ceil(n/2), so value 0 moves with n
    assert standard_normals(4, SeedSpec(3))[0] == pytest.approx(-0.273, abs=5e-4)
    assert standard_normals(6, SeedSpec(3))[0] == pytest.approx(0.112, abs=5e-4)


def test_normals_peak_memory_is_words_plus_output():
    n = 3_313_920  # joint-check directions of a 12945-trial block: 128 vectors x d = 2
    tracemalloc.start()
    try:
        _normals(_generator(SeedSpec(4)), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + (1 << 20)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (3, 2), (7, 3), (10, 2), (4, 5)])
def test_batched_draws_are_the_per_stream_draws(rows, n, d):
    # one rewound Philox and one transform over all rows give each row the
    # bytes of its own stream's draw
    seeds = [SeedSpec(13, 7).substream(row) for row in range(rows)]
    expected = np.stack([sample_nsn(n, d, seed.substream(2)).vectors for seed in seeds])
    assert sampling._nsn_vectors(seeds, [2], n, d).tobytes() == expected.tobytes()
    expected = np.stack([sample_uniform(n * d, seed.substream(index), -3.0, 0.5)
                         for seed in seeds for index in (0, 5)])
    assert sampling._uniforms(seeds, [0, 5], n * d, -3.0, 0.5).tobytes() == expected.tobytes()


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
