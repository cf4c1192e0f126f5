"""Monte Carlo bound checks at reduced trial counts, plus scan plumbing."""

import dataclasses
import functools
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from subsetprune import (
    BoundCheckResult,
    BoundDirection,
    ParameterError,
    PruneParams,
    SeedSpec,
    SolverParams,
    Strategy,
    check_chi_squared_tails,
    check_intersection_tail,
    check_joint_upper_bound,
    check_most_probable_interval,
    check_nsn_hit_lower_bound,
    check_second_moment_identity,
    sample_nsn,
    sample_uniform,
    scan_mrss_phase,
    scan_prune_success,
    scan_rssp_phase,
    search_subsets,
)
from subsetprune import harness, sampling, solvers
from subsetprune.harness import (
    _block_totals,
    _intersection_overlaps,
    binomial_std_error,
    chi_squared_tail_bound,
    intersection_tail_bound,
    joint_hit_upper_bound,
    nsn_hit_lower_bound,
    wilson_interval,
    write_csv,
)
from subsetprune.sampling import _key, _substream_keys, _words
from test_sampling import _rows_reference, _tile_scratch, workers  # noqa: F401 (a fixture)
from test_solvers import reference_first_cover

SEED = SeedSpec(777)
SMALL = 20_000


def _fresh(seed):
    """The reference stream: a generator built afresh on ``seed``'s Philox key."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _l1_projected_target(d, radius, seed):
    """Reference: one trial's mrss-scan target, uniform on (-1, 1)^d from its own
    stream and scaled into the L1 ball of ``radius`` when it lies outside."""
    z = sample_uniform(d, seed, -1.0, 1.0)
    l1 = float(np.abs(z).sum())
    if l1 > radius:
        z = z * (radius / l1)
    return z


def reference_grouped_hit(vectors, target, params, group_size):
    """Reference: whether any of the consecutive disjoint groups of
    ``group_size`` vectors (the last absorbing the remainder, none when there
    are fewer vectors than one group) holds a hit, each group searched alone."""
    n = len(vectors)
    starts = list(range(0, n - group_size + 1, group_size))
    return any(search_subsets(vectors[lo:hi], target, params).solution is not None
               for lo, hi in zip(starts, [*starts[1:], n]))


def _one_decimal(values):
    return np.round(values, 1)


def _eighths(values):  # dyadic: every sum and residual exact
    return np.round(values * 8.0) / 8.0


class TestVerdictRule:
    def test_lower_bound_rule(self):
        ok = BoundCheckResult("x", 0.5, 0.01, 0.52, BoundDirection.LOWER, 100)
        assert ok.passed  # 0.5 >= 0.52 - 0.03
        bad = BoundCheckResult("x", 0.5, 0.001, 0.52, BoundDirection.LOWER, 100)
        assert not bad.passed

    def test_upper_bound_rule(self):
        ok = BoundCheckResult("x", 0.52, 0.01, 0.5, BoundDirection.UPPER, 100)
        assert ok.passed
        bad = BoundCheckResult("x", 0.55, 0.001, 0.5, BoundDirection.UPPER, 100)
        assert not bad.passed

    def test_line_mentions_verdict(self):
        result = BoundCheckResult("name", 0.1, 0.01, 0.2, BoundDirection.UPPER, 10)
        assert "[pass]" in result.line()


def test_binomial_std_error_positive_at_zero_hits():
    assert binomial_std_error(0, 1000) > 0.0
    assert binomial_std_error(1000, 1000) > 0.0


def test_wilson_interval_brackets_rate():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)


class TestChiSquared:
    @pytest.mark.parametrize("d,t", [(1, 4.0), (4, 1.0), (16, 0.5)])
    def test_tails_respect_bound(self, d, t):
        upper, lower = check_chi_squared_tails(d, t, SMALL, SEED.substream(1))
        assert upper.passed and lower.passed
        assert upper.bound == lower.bound == chi_squared_tail_bound(t)

    def test_large_t_tail_vanishes(self):
        upper, _ = check_chi_squared_tails(1, 30.0, SMALL, SEED.substream(2))
        assert upper.estimate == 0.0
        assert upper.passed

    def test_exact_tail_sanity_against_closed_form(self):
        # chi2_1 upper tail at threshold 1 + 4 + 8 = 13: 2 Phi(-sqrt(13))
        upper, _ = check_chi_squared_tails(1, 4.0, 200_000, SEED.substream(3))
        exact = math.erfc(math.sqrt(13.0 / 2.0))
        assert abs(upper.estimate - exact) <= 5.0 * binomial_std_error(
            int(exact * 200_000), 200_000
        )


class TestMostProbableInterval:
    def test_centre_equals_shift_zero(self):
        res = check_most_probable_interval(1.0, 0.0, 0.1, SMALL, SEED.substream(4))
        assert res.estimate == 0.0 and res.passed

    def test_shifted_interval_less_likely(self):
        res = check_most_probable_interval(1.0, 2.0, 0.1, SMALL, SEED.substream(5))
        assert res.passed
        assert res.estimate > 0.0

    def test_far_shift_frequency_vanishes(self):
        res = check_most_probable_interval(1.0, 50.0, 0.1, SMALL, SEED.substream(6))
        assert res.passed  # shifted frequency is zero, diff = centre frequency >= 0


class TestNsnHitBound:
    def test_bound_formula_dimension_one(self):
        # frozen: (1/16) * (0.4 / sqrt(pi * 1.625 * 64)) computed by hand
        expect = (2.0 * 0.2 / math.sqrt(math.pi * 1.625 * 64)) / 16.0
        assert nsn_hit_lower_bound(1, 64, 0.2) == pytest.approx(expect, rel=1e-12)

    def test_bound_scales_with_epsilon_power_d(self):
        for d in (1, 2, 3):
            ratio = nsn_hit_lower_bound(d, 64, 0.2) / nsn_hit_lower_bound(d, 64, 0.1)
            assert ratio == pytest.approx(2.0**d, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_empirical_respects_bound(self, d):
        res = check_nsn_hit_lower_bound(d, 64, 0.2, [0.0] * d, SMALL, SEED.substream(7))
        assert res.passed

    def test_hypotheses_enforced(self):
        with pytest.raises(ParameterError):
            check_nsn_hit_lower_bound(1, 8, 0.2, [0.0], 10, SEED)  # k < 16
        with pytest.raises(ParameterError):
            check_nsn_hit_lower_bound(1, 64, 0.3, [0.0], 10, SEED)  # eps >= 1/4
        with pytest.raises(ParameterError):
            check_nsn_hit_lower_bound(1, 64, 0.2, [9.0], 10, SEED)  # |z|_1 > sqrt(k)


class TestJointUpperBound:
    @pytest.mark.parametrize("j", [8, 64])
    def test_empirical_respects_bound(self, j):
        res = check_joint_upper_bound(1, 64, j, 0.1, [0.0], SMALL, SEED.substream(8))
        assert res.passed

    def test_tiny_epsilon_frequency_vanishes(self):
        res = check_joint_upper_bound(1, 64, 8, 1e-4, [0.0], 5_000, SEED.substream(9))
        assert res.estimate == 0.0

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            check_joint_upper_bound(1, 64, 0, 0.1, [0.0], 10, SEED)
        with pytest.raises(ParameterError):
            check_joint_upper_bound(1, 32, 8, 0.1, [0.0], 10, SEED)  # k < 64


class TestSecondMoment:
    def test_k_equals_n_collapses(self):
        # single subset: T in {0,1} so E[T^2] = E[T]; need n >= 2k, so use n=2,k=1
        report = check_second_moment_identity(2, 1, 1, 0.5, [0.0], 2000, SEED.substream(10))
        assert report.passed

    def test_huge_epsilon_exact(self):
        report = check_second_moment_identity(6, 2, 1, 50.0, [0.0], 500, SEED.substream(11))
        assert report.mean_count == 15.0  # C(6,2), every subset hits
        assert report.first_diff == 0.0 and report.second_diff == 0.0
        assert report.passed

    def test_reference_configuration(self):
        report = check_second_moment_identity(6, 2, 1, 0.3, [0.0], SMALL, SEED.substream(12))
        assert report.passed

    def test_enumeration_budget_guard(self):
        with pytest.raises(ParameterError):
            check_second_moment_identity(12, 2, 1, 0.3, [0.0], 10, SEED)

    def test_memory_at_the_largest_family(self):
        # n=10, k=4: a whole-block gather of 210 combos would take 4000 x 210 x 4 x 2 x 8 B
        # = 54 MB; each tile gathers its chunk's combos a few at a time instead
        args = 10, 4, 2, 0.6, [0.0, 0.0], 4000, SEED.substream(24)
        assert _second_moment_peak(args) <= _second_moment_scratch(sampling._WORKERS, 4000, 4)

    def test_memory_at_the_cli_shape(self, workers):
        args = 6, 2, 1, 0.3, [0.0], 12945, SeedSpec(20240801).substream(400)
        assert _second_moment_peak(args) <= _second_moment_scratch(workers, 12945, 2)

    @pytest.mark.parametrize("args, fields", [
        ((6, 2, 1, 0.3, [0.0], 12945, SeedSpec(20240801).substream(400)),
         ["12945", "3.9161838547701815", "3.931633835457706", "-0.01544998068752414",
          "0.05341465842173973", "21.44959443800695", "21.38702201622248",
          "0.06257242178447277", "0.40395468300353526"]),
        ((6, 2, 1, 0.3, [0.0], 20000, SeedSpec(20240801).substream(400)),
         ["20000", "3.91455", "3.92175", "-0.0072", "0.04339282668829031", "21.35905",
          "21.14475", "0.2143", "0.3265170803732938"]),
        ((10, 4, 2, 0.6, [0.0, 0.0], 4000, SEED.substream(24)),
         ["4000", "20.331", "19.32", "1.011", "0.9300751823105485", "683.3015", "579.8625",
          "103.43900000000002", "55.28289856677877"]),
    ], ids=["cli-one-block", "cli-two-blocks", "largest-family"])
    def test_report_bytes_are_pinned(self, workers, args, fields):
        # the report is in no CSV or bench digest, and stdout rounds it: these
        # are the whole-block draw's floats, repr for repr
        n, k, d, epsilon, z = args[:5]
        report = check_second_moment_identity(*args)
        assert _report_fields(report) == [
            *fields, repr({"n": n, "k": k, "d": d, "epsilon": epsilon, "z": z})]

    # rows a chunk is 2^16 // (n (1 + d)): 5461 at n = 6, d = 1, 3640 at d = 2,
    # 2048 at n = 8, d = 3 and 2184 at n = 10, d = 2. Each shape runs at a
    # chunk's rows and one more (a one-row chunk on one tile); 10923 leaves a
    # one-row chunk on the second of two tiles, 16385 a one-trial second block
    @pytest.mark.parametrize("n, k, d, epsilon, z, trials", [
        (2, 1, 1, 0.5, [0.0], 1),
        (6, 2, 1, 0.3, [0.0], 5461),
        (6, 2, 1, 0.3, [0.0], 5462),
        (6, 2, 1, 0.3, [0.1], 10923),
        (6, 3, 2, 0.5, [0.2, -0.1], 3640),
        (6, 3, 2, 0.5, [0.0, 0.0], 3641),
        (8, 4, 3, 0.8, [0.1, 0.0, -0.2], 2048),
        (8, 4, 3, 0.8, [0.0, 0.0, 0.0], 2049),
        (10, 4, 2, 0.6, [0.3, 0.1], 2185),
        (5, 1, 3, 0.4, [0.3, 0.3, 0.3], 16385),
    ])
    def test_equal_whole_block_draws(self, workers, n, k, d, epsilon, z, trials):
        seed = SEED.substream(60 + trials)
        report = check_second_moment_identity(n, k, d, epsilon, z, trials, seed)
        expected = _second_moment_reference(n, k, d, epsilon, z, trials, seed)
        assert _report_fields(report) == _report_fields(expected)

    @pytest.mark.parametrize("trials", [1, 7, 300])
    def test_equal_whole_block_draws_in_chunks_of_a_few_rows(self, workers, monkeypatch,
                                                             trials):
        # six rows a chunk, all tiled, and six of the 15 combos a gather; the
        # tiles write their rows into shared arrays, switching threads often
        monkeypatch.setattr(sampling, "_TILE_PAIRS", 40)
        monkeypatch.setattr(harness, "_TILE_PAIRS", 40)
        monkeypatch.setattr(sampling, "_INLINE_PAIRS", 1)
        seed = SEED.substream(61)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = check_second_moment_identity(6, 2, 1, 0.3, [0.1], trials, seed)
        finally:
            sys.setswitchinterval(interval)
        expected = _second_moment_reference(6, 2, 1, 0.3, [0.1], trials, seed)
        assert _report_fields(report) == _report_fields(expected)


def _report_fields(report):
    return [repr(getattr(report, f.name)) for f in dataclasses.fields(report)]


def _second_moment_scratch(workers: int, trials: int, k: int) -> int:
    """What the second-moment check holds at once: the tiles' scratch
    (:func:`test_sampling._tile_scratch`; a chunk's gather and its sums fit in
    the word windows and Box-Muller scratch, gone once the chunk is drawn),
    and per trial of a block its subset count and k + 2 hit flags, then the
    eight float arrays the calling thread sums."""
    return _tile_scratch(workers) + min(trials, harness._BLOCK) * (8 + (k + 2) + 8 * 8)


def _second_moment_peak(args) -> int:
    """The traced peak of one second-moment check, run once untraced first so
    that the pool's threads and their generators exist."""
    check_second_moment_identity(*args)
    tracemalloc.start()
    try:
        check_second_moment_identity(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _second_moment_reference(n, k, d, epsilon, z, trials, seed):
    """The check as a whole-block draw: each block's vectors drawn at once on a
    fresh generator, every subset's hits gathered for the whole block under a
    4 MiB cap, and the float sums of each block in the check's order."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    ncomb = combos.shape[0]
    chunk = max(1, (1 << 22) // max(1, 8 * min(trials, 1 << 14) * k * d))
    canonical = [
        np.array(list(range(k - j)) + list(range(k, k + j)), dtype=np.intp) for j in range(k + 1)
    ]
    hyper = [math.comb(k, k - j) * math.comb(n - k, j) / math.comb(n, k) for j in range(k + 1)]

    def draw(stream, count):
        vectors = _rows_reference(stream, count, n, d, True)
        hit = np.empty((count, ncomb), dtype=bool)
        for lo in range(0, ncomb, chunk):
            sums = vectors[:, combos[lo : lo + chunk], :].sum(axis=2)
            hit[:, lo : lo + chunk] = (np.abs(sums - z) <= epsilon).all(axis=2)
        t_count = hit.sum(axis=1).astype(np.float64)
        t_square = t_count * t_count
        single = ncomb * hit[:, 0].astype(np.float64)
        overlap = np.zeros(count)
        for j, pair in enumerate(canonical):
            pair_hit = (np.abs(vectors[:, pair, :].sum(axis=1) - z) <= epsilon).all(axis=1)
            overlap += hyper[j] * (hit[:, 0] & pair_hit).astype(np.float64)
        overlap *= float(ncomb) ** 2
        da, db = t_count - single, t_square - overlap
        return [float(x.sum()) for x in (
            da, da * da, db, db * db, t_count, t_square, single, overlap)]

    totals = [0] * 8
    for b, start in enumerate(range(0, trials, 1 << 14)):
        parts = draw(seed.substream(b), min(1 << 14, trials - start))
        totals = [total + part for total, part in zip(totals, parts)]
    sum_a, sum_a2, sum_b, sum_b2, sum_count, sum_square, sum_single, sum_overlap = totals
    return harness.SecondMomentReport(
        trials, sum_count / trials, sum_single / trials, *harness._paired(sum_a, sum_a2, trials),
        sum_square / trials, sum_overlap / trials, *harness._paired(sum_b, sum_b2, trials),
        {"n": n, "k": k, "d": d, "epsilon": epsilon, "z": z.tolist()})


class TestIntersectionTail:
    def test_bound_value(self):
        # frozen: exp(-2 * 4 * (11/12)^2) = exp(-6.7222...)
        assert intersection_tail_bound(36, 3) == pytest.approx(
            math.exp(-2.0 * 4.0 * (11.0 / 12.0) ** 2), rel=1e-12
        )

    def test_empirical_respects_bound(self):
        res = check_intersection_tail(1296, 36, 3, SMALL, SEED.substream(13))
        assert res.passed

    def test_parameter_rejections(self):
        with pytest.raises(ParameterError):
            check_intersection_tail(1296, 36, 1, 10, SEED)  # d < 2
        with pytest.raises(ParameterError):
            check_intersection_tail(1296, 2, 3, 10, SEED)  # k <= d
        with pytest.raises(ParameterError):
            check_intersection_tail(100, 36, 3, 10, SEED)  # n < k^2

    def test_tail_shrinks_with_n(self):
        sparse = check_intersection_tail(144, 6, 2, SMALL, SEED.substream(14))
        dense = check_intersection_tail(36, 6, 2, SMALL, SEED.substream(15))
        assert sparse.estimate <= dense.estimate

    # n = 1296 takes 101 rows per chunk (n does not divide the chunk), n = 1024
    # exactly 128; the counts fall short of, match and pass whole chunks
    @pytest.mark.parametrize(
        "n, k, count", [(1296, 36, 40), (1296, 36, 101), (1296, 36, 250),
                        (1024, 32, 128), (1024, 32, 300), (100, 10, 3000)],
    )
    def test_chunked_overlaps_match_one_shot_draw(self, n, k, count):
        stream = SEED.substream(n + count)
        got = _intersection_overlaps(_key(stream), count, n, k)
        assert np.array_equal(got, _one_shot_overlaps(_fresh(stream), count, n, k))

    @pytest.mark.parametrize("chunk", [1, 1000, 1 << 20])  # one row per chunk .. one chunk
    def test_check_matches_one_shot_blocks(self, monkeypatch, chunk):
        # 20000 trials at n = 100 span two blocks of 2^14; the hit total and
        # so the estimate equal the one-shot draw's per block
        monkeypatch.setattr(harness, "_TAIL_CHUNK", chunk)
        res = check_intersection_tail(100, 10, 2, SMALL, SEED.substream(16))
        hits = sum(
            int((_one_shot_overlaps(_fresh(SEED.substream(16).substream(b)), count,
                                    100, 10) >= 5).sum())
            for b, count in enumerate((1 << 14, SMALL - (1 << 14)))
        )
        assert hits > 0
        assert res.estimate == hits / SMALL

    def test_memory_streams_in_row_chunks(self):
        # one 12945-trial block at n = 1296: a whole-block draw and its
        # partitioned copy would take 2 x 134 MB
        tracemalloc.start()
        try:
            check_intersection_tail(1296, 36, 3, 12945, SEED.substream(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# Streamed checks against full-draw reference loops: each block of the block
# rule is drawn whole on a fresh generator and reduced by the expression the
# check applies to its chunks


def _full_draw_totals(trials, seed, block_totals, block=1 << 14):
    """Sums of ``block_totals(stream, count)`` over the blocks of the block rule."""
    starts = range(0, trials, block)
    return sum(np.asarray(block_totals(seed.substream(b), min(block, trials - start)))
               for b, start in enumerate(starts)).tolist()


def _streamed_estimates(trials):
    """The estimates and standard errors of the streamed checks (NSN hit,
    joint window, both chi-squared tails, most probable interval): a row width
    of 16 in d = 2, an odd 65 in d = 1, 3 plain normals and 1 scaled one."""
    results = [check_nsn_hit_lower_bound(2, 16, 0.249, [0.1, -0.1], trials, SEED.substream(41)),
               check_joint_upper_bound(1, 64, 1, 1.5, [0.3], trials, SEED.substream(42)),
               *check_chi_squared_tails(3, 0.5, trials, SEED.substream(43)),
               check_most_probable_interval(1.5, 0.5, 0.3, trials, SEED.substream(45))]
    return [(result.estimate, result.std_error) for result in results]


def _full_draw_estimates(trials):
    """What :func:`_streamed_estimates` gives on the full-draw totals."""
    *hits, total, squares = _full_draw_hits(trials)
    return [*((h / trials, binomial_std_error(h, trials)) for h in hits),
            harness._paired(total, squares, trials)]


@functools.lru_cache(maxsize=None)
def _full_draw_hits(trials):
    def nsn(stream, count):
        sums = _rows_reference(stream, count, 16, 2, True).sum(axis=1)
        return [(np.abs(sums - [0.1, -0.1]) <= 0.249).all(axis=1).sum()]

    def joint(stream, count):
        draws = _rows_reference(stream, count, 65, 1, True)
        first, middle, last = (draws[:, :1].sum(axis=1), draws[:, 1:64].sum(axis=1),
                               draws[:, 64:].sum(axis=1))
        hit = (np.abs(first + middle - 0.3) <= 1.5).all(axis=1)
        hit &= (np.abs(middle + last - 0.3) <= 1.5).all(axis=1)
        return [hit.sum()]

    def chi(stream, count):
        draws = _rows_reference(stream, count, 1, 3, False).reshape(count, 3)
        stat = (draws * draws).sum(axis=1)
        return [(stat >= 3 + 2 * math.sqrt(1.5) + 1).sum(), (stat <= 3 - 2 * math.sqrt(1.5)).sum()]

    def interval(stream, count):  # the per-draw differences, summed as floats
        x = 1.5 * _rows_reference(stream, count, 1, 1, False).reshape(count)
        delta = (np.abs(x) <= 0.3).astype(np.float64) - (np.abs(x - 0.5) <= 0.3).astype(np.float64)
        return [delta.sum(), (delta * delta).sum()]

    return [*_full_draw_totals(trials, SEED.substream(41), nsn),
            *_full_draw_totals(trials, SEED.substream(42), joint),
            *_full_draw_totals(trials, SEED.substream(43), chi),
            *_full_draw_totals(trials, SEED.substream(45), interval)]


class TestStreamedChecks:
    @pytest.mark.parametrize("trials", [1, 12945, 40000])
    def test_equal_full_draws(self, workers, trials):
        # 40000 trials: three blocks, the last partial, several chunks per tile
        assert _streamed_estimates(trials) == _full_draw_estimates(trials)
        assert trials == 1 or min(_full_draw_hits(trials)) > 0

    @pytest.mark.parametrize("trials", [1, 7, 300])
    def test_equal_full_draws_in_chunks_of_a_few_rows(self, workers, monkeypatch, trials):
        # one row a chunk for the NSN checks, 26 for chi-squared, 80 for the
        # interval, all tiled
        monkeypatch.setattr(sampling, "_TILE_PAIRS", 40)
        monkeypatch.setattr(sampling, "_INLINE_PAIRS", 1)
        assert _streamed_estimates(trials) == _full_draw_estimates(trials)

    @pytest.mark.parametrize("trials", [1, 12945, 40000])
    def test_tail_equals_full_draws(self, workers, trials):
        assert check_intersection_tail(100, 10, 2, trials, SEED.substream(18)).estimate == (
            _tail_full_draw_hits(trials) / trials)

    @pytest.mark.parametrize("trials", [1, 301])
    def test_tail_equals_full_draws_in_chunks_of_a_few_rows(self, workers, monkeypatch, trials):
        monkeypatch.setattr(harness, "_TAIL_CHUNK", 250)  # two rows of 100
        monkeypatch.setattr(sampling, "_INLINE_PAIRS", 1)
        assert check_intersection_tail(100, 10, 2, trials, SEED.substream(18)).estimate == (
            _tail_full_draw_hits(trials) / trials)

    @pytest.mark.parametrize("check", [
        lambda seed: check_joint_upper_bound(2, 64, 64, 0.1, [0, 0], 12945, seed),
        lambda seed: check_nsn_hit_lower_bound(3, 64, 0.2, [0, 0, 0], 12945, seed),
    ], ids=["joint", "nsn"])
    def test_memory_is_a_few_chunks(self, monkeypatch, check):
        # a whole block of normals is 42.1 MB for the joint window, 28.9 MB
        # for the d = 3 NSN hit; three tiles hold a chunk each
        monkeypatch.setattr(sampling, "_WORKERS", 3)
        monkeypatch.setattr(sampling, "_POOL", None)
        try:
            check(SEED.substream(44))  # the pool's threads and generators exist
            tracemalloc.start()
            try:
                check(SEED.substream(44))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            sampling._POOL.shutdown()
        assert peak < 8e6

    def test_no_reducer_draws_and_no_tile_starts_tiles(self, workers, monkeypatch):
        # a draw from a reducer on a worker could wait on the pool its own
        # tile holds a worker of
        expected = (_streamed_estimates(300), check_intersection_tail(100, 10, 2, 300, SEED),
                    check_second_moment_identity(6, 2, 1, 0.3, [0.1], 300, SEED))
        state = threading.local()
        engine, run, philox = sampling._reduce_normals, sampling._run, sampling._thread_philox

        def flagged(name, call):
            def wrapper(*args):
                setattr(state, name, True)
                try:
                    return call(*args)
                finally:
                    setattr(state, name, False)
            return wrapper

        def guarded_engine(key, rows, width, d, reduce, scaled=True):
            return engine(key, rows, width, d, flagged("reducing", reduce), scaled)

        def guarded_run(tiles):
            assert not getattr(state, "tile", False), "a tile started tiles"
            return run([flagged("tile", tile) for tile in tiles])

        def guarded_philox():
            assert not getattr(state, "reducing", False), "a reducer drew"
            return philox()

        monkeypatch.setattr(sampling, "_INLINE_PAIRS", 1)
        monkeypatch.setattr(harness, "_reduce_normals", guarded_engine)
        monkeypatch.setattr(sampling, "_run", guarded_run)
        monkeypatch.setattr(sampling, "_thread_philox", guarded_philox)
        got = (_streamed_estimates(300), check_intersection_tail(100, 10, 2, 300, SEED),
               check_second_moment_identity(6, 2, 1, 0.3, [0.1], 300, SEED))
        assert got == expected


@functools.lru_cache(maxsize=None)
def _tail_full_draw_hits(trials):
    """Intersection-tail hits of ``check_intersection_tail(100, 10, 2, trials,
    SEED.substream(18))`` from one-shot blocks of 2^14."""
    (hits,) = _full_draw_totals(trials, SEED.substream(18), lambda stream, count: [
        (_one_shot_overlaps(_fresh(stream), count, 100, 10) >= 5).sum()])
    return hits


def _one_shot_overlaps(rng, count, n, k):
    """The whole-block reference: one (count, n) draw and a partitioned copy."""
    u = rng.random((count, n))
    kth = np.partition(u, k - 1, axis=1)[:, k - 1]
    return (u[:, :k] <= kth[:, None]).sum(axis=1)


class TestScans:
    def test_rssp_scan_monotone_by_pairing(self):
        rows = scan_rssp_phase(0.2, [4, 8, 16], 11, 30, SEED.substream(16))
        rates = [row["rate"] for row in rows]
        assert rates == sorted(rates)  # prefix pairing makes this exact
        for row in rows:
            assert 0.0 <= row["wilson_low"] <= row["rate"] <= row["wilson_high"] <= 1.0
            assert row["epsilon"] == 0.2 and row["trials"] == 30

    def test_rssp_scan_loose_regime_saturates(self):
        # true rate at n=10, eps=0.5 is about 0.97: the extreme targets +-1
        # fail when the one-sided positive (negative) parts sum below 0.5,
        # roughly Phi(-1.96) per side
        rows = scan_rssp_phase(0.5, [10], 11, 200, SEED.substream(17))
        assert rows[0]["rate"] >= 0.9

    def test_rssp_single_variable_fails_fine_grid(self):
        rows = scan_rssp_phase(0.05, [1], 41, 20, SEED.substream(18))
        assert rows[0]["rate"] <= 0.05

    def test_mrss_scan_k1_with_vector_targets(self):
        # k=1 and the target equal to an ensemble vector always hits
        vectors = sample_nsn(5, 2, SEED.substream(19))
        params = SolverParams(epsilon=1e-9, k=1)
        for i in range(5):
            sol = search_subsets(vectors, vectors[i], params).solution
            assert sol is not None and sol.indices == (i,)

    def test_mrss_scan_monotone_in_n(self):
        rows = scan_mrss_phase(1, 2, [2, 4, 8], 0.1, 40, SEED.substream(20))
        rates = [row["rate"] for row in rows]
        assert rates == sorted(rates)  # enumeration over a prefix-paired family

    @pytest.mark.parametrize("epsilon,n_values,grid_size,trials,stream", [
        (0.05, [60, 10, 30, 20], 41, 30, 30),
        (0.3, [3, 1, 6], 11, 40, 31),  # 12 of the 40 trials never cover the grid
        (0.02, [40, 12, 25], 81, 20, 32),
    ])
    def test_rssp_scan_matches_covering_every_n(self, epsilon, n_values, grid_size, trials,
                                                stream):
        seed = SEED.substream(stream)
        grid = np.linspace(-1.0, 1.0, grid_size)
        expect = dict.fromkeys(sorted(n_values), 0)
        for trial in range(trials):
            draws = sample_uniform(max(n_values), seed.substream(trial), -1.0, 1.0)
            for n in expect:
                expect[n] += reference_first_cover(draws, epsilon, grid, [n]) is not None
        rows = scan_rssp_phase(epsilon, n_values, grid_size, trials, seed)
        assert {row["n"]: row["successes"] for row in rows} == expect
        assert [row["n"] for row in rows] == sorted(n_values)

    @pytest.mark.parametrize("stream", range(4))
    def test_rssp_scan_counts_a_batch_once_per_first_size(self, monkeypatch, stream):
        # random first covering sizes, None included, in batches of 16 trials:
        # counting each batch's distinct sizes once gives the per-trial fold
        sizes, rng, firsts, batches = [10, 20, 40], np.random.default_rng(stream), [], []
        harness_count_from, counted = harness._count_from, []

        def first_sizes(draws, epsilon, grid, n_values):
            assert list(n_values) == sizes
            batch = rng.choice(np.array(sizes + [None], dtype=object), len(draws)).tolist()
            firsts.extend(batch)
            batches.append(len(batch))
            return batch

        def count_from(successes, first, count=1):
            counted.append(first)
            harness_count_from(successes, first, count)

        monkeypatch.setattr(harness, "_first_covering_sizes", first_sizes)
        monkeypatch.setattr(harness, "_count_from", count_from)
        rows = scan_rssp_phase(0.01, sizes, 41, 300, SEED.substream(stream))
        expect = dict.fromkeys(sizes, 0)
        for first in firsts:
            harness_count_from(expect, first)
        assert len(batches) == 19 and sum(batches) == 300
        assert {row["n"]: row["successes"] for row in rows} == expect
        assert len(counted) <= 4 * len(batches)

    @pytest.mark.parametrize("d,k,n_values,epsilon,trials,stream,extra", [
        (1, 2, [12, 4, 8, 30], 0.01, 40, 33, {}),  # 4 of the 40 trials never hit
        (2, 3, [20, 10, 15], 0.25, 30, 34, {}),
        # one trial of each of these hits at a smaller n and misses at a larger one
        (2, 3, [12, 8, 16], 0.1, 30, 44, {"strategy": Strategy.GREEDY_SWAP}),
        (2, 2, [6, 11, 8], 0.15, 30, 35, {"group_size": 4}),
        # greedy: d = 1 and d = 3, k equal to the smallest n
        (1, 2, [2, 7, 12], 0.02, 30, 45, {"strategy": Strategy.GREEDY_SWAP}),
        (3, 3, [3, 9, 14], 0.3, 30, 46, {"strategy": Strategy.GREEDY_SWAP}),
        # pools and targets rounded to 1 decimal: many tied residuals
        (2, 3, [6, 12, 18], 0.1, 30, 47, {"strategy": Strategy.GREEDY_SWAP,
                                          "rounded": _one_decimal}),
        # rounded to eighths: some trials' best residual is exactly epsilon
        (2, 3, [4, 6, 9], 0.25, 40, 53, {"rounded": _eighths, "tied": True}),
        (2, 3, [8, 16], 0.15, 30, 48, {"strategy": Strategy.GREEDY_SWAP,
                                       "solver": {"restarts": 0}}),
        (2, 3, [8, 16], 0.15, 30, 49, {"strategy": Strategy.GREEDY_SWAP,
                                       "solver": {"max_iters": 1}}),
        # trials in many batches: one at a time, and 4 a batch with a short last one
        (2, 3, [10, 15, 20], 0.25, 30, 50, {"strategy": Strategy.GREEDY_SWAP, "cap": 1}),
        (2, 3, [10, 15, 20], 0.25, 30, 51, {"strategy": Strategy.GREEDY_SWAP, "cap": 1.0}),
        (2, 3, [10, 20], 0.25, 31, 52, {"strategy": Strategy.GREEDY_SWAP, "cap": 4.0}),
        (2, 3, [10, 15, 20], 0.25, 30, 54, {"cap": 1}),
        (2, 3, [10, 20], 0.25, 31, 55, {"cap": 4.0}),
        (2, 2, [6, 11, 8], 0.15, 31, 56, {"group_size": 4, "cap": 4.0}),
        # greedy groups: an n below one group, a last group absorbing a
        # remainder, and 4 trials a batch
        (2, 2, [3, 8, 12], 0.15, 30, 61, {"strategy": Strategy.GREEDY_SWAP, "group_size": 4}),
        (2, 2, [6, 11], 0.15, 30, 62, {"strategy": Strategy.GREEDY_SWAP, "group_size": 4}),
        (2, 2, [6, 11, 8], 0.15, 31, 63, {"strategy": Strategy.GREEDY_SWAP, "group_size": 4,
                                          "cap": 4.0}),
    ])
    def test_mrss_scan_matches_solving_every_n(self, monkeypatch, d, k, n_values, epsilon,
                                               trials, stream, extra):
        seed = SEED.substream(stream)
        extra = dict(extra)
        if "solver" in extra:  # the scan's SolverParams, and the reference loop's
            monkeypatch.setattr(harness, "SolverParams",
                                functools.partial(SolverParams, **extra.pop("solver")))
        rounded = extra.pop("rounded", None)
        if rounded is not None:  # the scan's batched draw; the reference rounds its own
            draws = harness._mrss_draws
            monkeypatch.setattr(harness, "_mrss_draws",
                                lambda *args: tuple(rounded(part) for part in draws(*args)))
        tied = extra.pop("tied", False)
        strategy = extra.get("strategy", Strategy.EXHAUSTIVE)
        cap, batch_sizes = extra.pop("cap", None), []
        if cap is not None:  # an int is bytes, a float a number of one trial's bytes
            if strategy is Strategy.GREEDY_SWAP:  # and the descent's, in swap blocks
                one_start = 8 * k * max(n_values) * d
                one_trial = (harness.SolverParams(epsilon, k).restarts + 1) * one_start
                monkeypatch.setattr(solvers, "_DESCENT_BYTES",
                                    cap if isinstance(cap, int) else int(cap * one_trial))
            batches = harness._batches

            def capped(count, trial_bytes):
                monkeypatch.setattr(harness, "_BATCH_BYTES",
                                    cap if isinstance(cap, int) else int(cap * trial_bytes))
                batch_sizes.extend(len(batch) for batch in batches(count, trial_bytes))
                return batches(count, trial_bytes)

            monkeypatch.setattr(harness, "_batches", capped)
        group_size = extra.get("group_size")
        expect = dict.fromkeys(sorted(n_values), 0)
        at_epsilon = 0
        for trial in range(trials):
            sub = seed.substream(trial)
            vectors = sample_nsn(max(n_values), d, sub.substream(0))
            target = _l1_projected_target(d, 1.0, sub.substream(1))
            if rounded is not None:
                vectors, target = rounded(vectors), rounded(target)
            params = harness.SolverParams(epsilon=epsilon, k=k, strategy=strategy,
                                          seed=sub.substream(2))
            for n in expect:
                if group_size is None:
                    outcome = search_subsets(vectors[:n], target, params)
                    expect[n] += outcome.solution is not None
                    at_epsilon += outcome.best.residual_inf == epsilon
                else:
                    expect[n] += reference_grouped_hit(vectors[:n], target, params, group_size)
        rows = scan_mrss_phase(d, k, n_values, epsilon, trials, seed, **extra)
        assert {row["n"]: row["successes"] for row in rows} == expect
        assert [row["n"] for row in rows] == sorted(n_values)
        assert 0 < sum(expect.values()) < trials * len(expect)  # hits and misses both
        if tied:
            assert at_epsilon > 0
        if cap is not None:
            size = 1 if isinstance(cap, int) else int(cap)
            assert batch_sizes == [size] * (trials // size) + [trials % size] * (trials % size > 0)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_group_of_n_is_the_ungrouped_row(self, strategy):
        seed = SEED.substream(64)
        for n in (4, 9, 13):
            grouped = scan_mrss_phase(2, 2, [n], 0.1, 30, seed, strategy, group_size=n)
            plain = scan_mrss_phase(2, 2, [n], 0.1, 30, seed, strategy)
            assert grouped[0]["successes"] == plain[0]["successes"]
            assert (grouped[0]["group_size"], plain[0]["group_size"]) == (n, "")

    def test_groups_hit_at_least_as_often_as_the_first_group(self):
        # the first group of every n >= 2G is the G-prefix, drawn alike
        seed, n_values = SEED.substream(65), [4, 8, 11, 12]
        grouped = scan_mrss_phase(2, 2, n_values, 0.08, 40, seed, group_size=4)
        first = scan_mrss_phase(2, 2, n_values, 0.08, 40, seed)[0]["successes"]
        assert 0 < first < 40
        assert all(row["successes"] >= first for row in grouped[1:])

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_hit_in_the_second_group_counts(self, monkeypatch, strategy):
        # the first group's values are huge; only {4, 5} of the second hits 1.5
        pool = np.array([100.0, 100.0, 100.0, 100.0, 1.0, 0.5, 0.25, 0.1])[:, None]

        def planted(streams, n, d, radius):
            return np.tile(pool[:n], (len(streams), 1, 1)), np.full((len(streams), 1), 1.5)

        monkeypatch.setattr(harness, "_mrss_draws", planted)
        rows = scan_mrss_phase(1, 2, [4, 8], 0.05, 6, SEED, strategy, group_size=4)
        assert [row["successes"] for row in rows] == [0, 6]

    @staticmethod
    def _planted_greedy_scan(monkeypatch, pools, n_values, group_size=None):
        """A greedy 1-D scan for k = 2 within 0.05 of 1.5, trial t drawing
        ``pools[t]``, 3 trials a batch. Returns the successes, each batch's
        restart-head draws as (trials, sizes) and each descent call's
        (problems, starts a problem)."""
        seed = SEED.substream(66)
        trial_of = {_key(seed.substream(t)): t for t in range(len(pools))}
        trial_of_key = {_key(seed.substream(t).substream(2)): t for t in range(len(pools))}

        def planted(streams, n, d, radius):
            vectors = np.array([pools[trial_of[tuple(s)]][:n] for s in streams.tolist()])
            return vectors[:, :, None], np.full((len(streams), 1), 1.5)

        draws, descents = [], []
        restart_heads, swap_descents = solvers._restart_heads, solvers._swap_descents

        def spied_heads(keys, owners, sizes, restarts, k):
            draws.append(([trial_of_key[tuple(key)] for key in keys.tolist()],
                          sorted(set(sizes.tolist()))))
            return restart_heads(keys, owners, sizes, restarts, k)

        def spied_descents(vectors, targets, owners, starts, max_iters):
            descents.append((len(vectors), len(starts) // len(vectors)))
            return swap_descents(vectors, targets, owners, starts, max_iters)

        monkeypatch.setattr(harness, "_mrss_draws", planted)
        monkeypatch.setattr(harness, "_batches",
                            lambda trials, _: (range(lo, min(lo + 3, trials))
                                               for lo in range(0, trials, 3)))
        monkeypatch.setattr(solvers, "_restart_heads", spied_heads)
        monkeypatch.setattr(solvers, "_swap_descents", spied_descents)
        rows = scan_mrss_phase(1, 2, n_values, 0.05, len(pools), seed, Strategy.GREEDY_SWAP,
                               group_size=group_size)
        return [row["successes"] for row in rows], draws, descents

    # greedy builds toward 1.5: {1.0, 0.5} is one, and 100s never hit
    _BUILD_HITS = [1.0, 0.5] + [100.0] * 7
    _BUILD_HITS_FROM_5 = [100.0] * 4 + [1.0, 0.5] + [100.0] * 3
    _NEVER = [100.0] * 9

    def test_restart_heads_are_drawn_for_the_build_misses_only(self, monkeypatch):
        pools = [self._BUILD_HITS, self._BUILD_HITS_FROM_5, self._NEVER,
                 self._BUILD_HITS, self._BUILD_HITS, self._BUILD_HITS_FROM_5]
        successes, draws, descents = self._planted_greedy_scan(monkeypatch, pools, [4, 8])
        assert successes == [3, 5]
        # one draw a batch, for every length of an n with a miss: the second
        # batch's only miss is at n = 4
        assert draws == [([1, 2], [4, 8]), ([5], [4])]
        assert descents == [(3, 1), (3, 1), (2, 8), (1, 8),  # batch 0: builds, then restarts
                            (3, 1), (3, 1), (1, 8)]

    def test_a_batch_whose_builds_all_hit_draws_no_heads(self, monkeypatch):
        successes, draws, descents = self._planted_greedy_scan(
            monkeypatch, [self._BUILD_HITS] * 3, [4, 8])
        assert successes == [3, 3]
        assert draws == [] and descents == [(3, 1), (3, 1)]

    def test_grouped_restart_heads_are_drawn_for_the_build_misses_only(self, monkeypatch):
        # groups of 4: at n = 9 the groups hold 4 and 5 vectors, and a build
        # hit in the second group spares the trial its restarts
        pools = [self._BUILD_HITS, self._BUILD_HITS_FROM_5, self._NEVER]
        successes, draws, descents = self._planted_greedy_scan(monkeypatch, pools, [4, 9],
                                                               group_size=4)
        assert successes == [1, 2]
        assert draws == [([1, 2], [4, 5])]
        # builds: n = 4, then n = 9's two groups; restarts: n = 4, then the
        # trial that missed both groups' builds at n = 9, group by group
        assert descents == [(3, 1), (3, 1), (2, 1), (2, 8), (1, 8), (1, 8)]

    def test_group_size_below_k_squared_is_rejected(self):
        with pytest.raises(ParameterError, match="group_size must be >= k\\^2"):
            scan_mrss_phase(2, 3, [9, 18], 0.1, 5, SEED, group_size=8)

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("n,d,radius", [(1, 1, 1.0), (5, 2, 0.5), (7, 3, 1.0), (4, 9, 2.0),
                                            (3, 17, 0.0), (6, 2, 10.0)])
    def test_batched_trials_are_the_per_stream_trials(self, trials, n, d, radius):
        streams = [SEED.substream(57).substream(trial) for trial in range(trials)]
        vectors, targets = harness._mrss_draws(np.array([_key(s) for s in streams], np.uint64),
                                               n, d, radius)
        expected = np.stack([sample_nsn(n, d, s.substream(0)) for s in streams])
        assert vectors.tobytes() == expected.tobytes()
        expected = np.stack([_l1_projected_target(d, radius, s.substream(1)) for s in streams])
        assert targets.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scan", ["exhaustive", "grouped", "rssp"])
    def test_scan_memory_does_not_grow_with_trials(self, scan):
        # the peak is one full batch's: no exhaustive trial hits, so each
        # batch indexes all of its pools at n = 40 (62 trials a batch), or,
        # grouped, each of its two groups of 20 there (198 trials a batch);
        # the rssp epsilon covers the grid at once, so a batch holds its
        # draws and a small state (98 trials a batch by the worst case's 334
        # intervals)
        if scan == "rssp":
            run = functools.partial(scan_rssp_phase, 1.5, [1, 500], 11)
        elif scan == "grouped":
            run = functools.partial(scan_mrss_phase, 2, 3, [10, 40], 1e-9, group_size=20)
        else:
            run = functools.partial(scan_mrss_phase, 2, 3, [10, 40], 1e-9)
        run(5, SEED)  # fill the caches
        peaks = []
        for trials in (200, 2000):
            tracemalloc.start()
            try:
                run(trials, SEED.substream(58))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_greedy_scan_memory_does_not_grow_with_trials(self, monkeypatch):
        # a batch holds 968 trials here (1,624 bytes each: draws, starts and
        # two lengths' restart-head rows), so both scans fill several batches;
        # the engines' transients come on top, each under its own cap
        scan_mrss_phase(2, 3, [10, 20], 0.25, 5, SEED, Strategy.GREEDY_SWAP)  # fill the caches
        batches, peaks = [], []
        split = harness._batches
        monkeypatch.setattr(harness, "_batches", lambda trials, trial_bytes: batches.append(
            len(list(split(trials, trial_bytes)))) or split(trials, trial_bytes))
        for trials in (2000, 10000):
            tracemalloc.start()
            try:
                scan_mrss_phase(2, 3, [10, 20], 0.25, trials, SEED.substream(53),
                                Strategy.GREEDY_SWAP)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert batches == [3, 11]
        assert peaks[1] <= 1.05 * peaks[0], peaks
        transient = max(solvers._DESCENT_BYTES, sampling._HEADS_BYTES)
        assert max(peaks) <= harness._BATCH_BYTES + transient, peaks

    def test_the_default_greedy_scan_is_one_batch_under_the_cap(self, monkeypatch):
        seed = SeedSpec(20240801)
        scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 5, seed, Strategy.GREEDY_SWAP)  # fill the caches
        batches = []
        split = harness._batches
        monkeypatch.setattr(harness, "_batches", lambda trials, trial_bytes: batches.extend(
            split(trials, trial_bytes)) or split(trials, trial_bytes))
        tracemalloc.start()
        try:
            scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 200, seed, Strategy.GREEDY_SWAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batches == [range(200)]
        assert peak <= harness._BATCH_BYTES, peak

    def test_restart_heads_are_shuffled_for_the_missed_lengths_only(self, monkeypatch):
        # the default greedy scan: a trial whose build missed at n needs its
        # restart heads at n's length, one row a restart; the build misses
        # are the misses of the same scan without restarts
        seed = SeedSpec(20240801)
        monkeypatch.setattr(harness, "SolverParams", functools.partial(SolverParams, restarts=0))
        builds = scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 200, seed, Strategy.GREEDY_SWAP)
        monkeypatch.setattr(harness, "SolverParams", SolverParams)
        shuffled = []
        shuffle = sampling._shuffle_heads
        monkeypatch.setattr(sampling, "_shuffle_heads", lambda halves, sizes, owners, k: (
            shuffled.append(len(sizes)) or shuffle(halves, sizes, owners, k)))
        scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 200, seed, Strategy.GREEDY_SWAP)
        misses = sum(200 - row["successes"] for row in builds)
        assert shuffled == [8 * misses] == [1240]  # every needy trial at all 3 lengths: 1848

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_scans_build_no_seed_spec_per_trial(self, monkeypatch, strategy):
        built = []
        post_init = SeedSpec.__post_init__
        monkeypatch.setattr(SeedSpec, "__post_init__",
                            lambda spec: built.append(spec) or post_init(spec))
        scan_mrss_phase(2, 3, [10, 15, 20], 0.25, 200, SEED, strategy)
        scan_mrss_phase(2, 3, [9, 18], 0.25, 100, SEED, strategy, group_size=9)
        scan_rssp_phase(0.05, [10, 20], 41, 200, SEED)
        assert len(built) == 2  # each mrss scan's SolverParams' default seed, and no trial's

    def test_small_epsilon_rssp_scan_stays_near_the_cap(self):
        # at n = 60 a trial's cover may hold 60,001 intervals, so each batch
        # is one trial; all 1600 trials folded in one state held about 242 MB
        seed = SEED.substream(60)
        scan_rssp_phase(0.001, [20], 201, 2, seed)  # fill the caches
        tracemalloc.start()
        try:
            rows = scan_rssp_phase(0.001, [20, 40, 60], 201, 1600, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * harness._BATCH_BYTES, peak
        grid = np.linspace(-1.0, 1.0, 201)
        expect = dict.fromkeys([20, 40, 60], 0)
        for trial in range(1600):
            draws = sample_uniform(60, seed.substream(trial), -1.0, 1.0)
            first = reference_first_cover(draws, 0.001, grid, [20, 40, 60])
            for n in expect:
                expect[n] += first is not None and first <= n
        assert {row["n"]: row["successes"] for row in rows} == expect

    @pytest.mark.parametrize("n_values,distinct", [([10, 10], [10]), ([20, 5, 20, 5], [5, 20])])
    def test_duplicate_n_is_scanned_once(self, n_values, distinct):
        seed = SEED.substream(37)
        rows = scan_rssp_phase(0.2, n_values, 11, 5, seed)
        assert rows == scan_rssp_phase(0.2, distinct, 11, 5, seed)
        mrss = scan_mrss_phase(2, 3, n_values, 0.5, 5, seed)
        assert mrss == scan_mrss_phase(2, 3, distinct, 0.5, 5, seed)
        assert all(row["successes"] <= row["trials"] for row in rows + mrss)

    def test_prune_scan_schema(self):
        rows = scan_prune_success(1, 1, 1, [8, 16], 0.25, 3, SEED.substream(21))
        assert [row["n"] for row in rows] == [8, 16]
        for row in rows:
            assert 0.0 <= row["channel_rate"] <= 1.0
            assert row["channel_total"] == 2 * 3  # signs x trials

    def test_prune_scan_trial_seeds_are_the_seeds_substreams(self, monkeypatch):
        seed, seeds, mixes = SEED.substream(21), [], []
        layer, mix = harness.prune_random_layer, sampling._mix64

        def spy(d, c0, c1, n, params, stream, spatial):
            seeds.append((n, stream))
            return layer(d, c0, c1, n, params, stream, spatial)

        monkeypatch.setattr(harness, "prune_random_layer", spy)
        monkeypatch.setattr(sampling, "_mix64", lambda streams, indices: (
            mixes.append(indices.size) or mix(streams, indices)))
        scan_prune_success(1, 1, 1, [8, 16], 0.25, 3, seed)
        assert seeds == [(n, seed.substream(t)) for n in (8, 16) for t in range(3)]
        assert mixes[0] == 3  # every trial's seed from the first mix, before any draw

    def test_prune_scan_rejects_conflicting_epsilon(self):
        with pytest.raises(ParameterError, match="epsilon"):
            scan_prune_success(1, 1, 1, [8], 0.1, 1, SEED.substream(21),
                               params=PruneParams(epsilon=0.25))

    def test_write_csv_is_deterministic(self, tmp_path):
        rows = scan_rssp_phase(0.2, [4, 8], 11, 10, SEED.substream(22))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, rows)
        write_csv(b, scan_rssp_phase(0.2, [4, 8], 11, 10, SEED.substream(22)))
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header.startswith("n,trials,successes,rate,wilson_low,wilson_high")


def test_reproducibility_of_checks():
    a = check_nsn_hit_lower_bound(1, 64, 0.2, [0.0], 5_000, SEED.substream(23))
    b = check_nsn_hit_lower_bound(1, 64, 0.2, [0.0], 5_000, SEED.substream(23))
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_joint_bound_formula_uses_dimension_constant():
    # for d <= 4 the constant is 1/16, so the denominator factor is 1/2
    expect = 3.0 * (4.0 * 0.01 / (math.pi * 0.5 * 8.0)) ** 1
    assert joint_hit_upper_bound(1, 8, 0.1) == pytest.approx(expect, rel=1e-12)


_CHECK_CALLS = {
    "chi_squared_tails": lambda trials: check_chi_squared_tails(4, 1.0, trials, SEED),
    "most_probable_interval": lambda trials: check_most_probable_interval(
        1.0, 2.0, 0.1, trials, SEED),
    "nsn_hit_lower_bound": lambda trials: check_nsn_hit_lower_bound(
        1, 64, 0.2, [0.0], trials, SEED),
    "joint_upper_bound": lambda trials: check_joint_upper_bound(
        1, 64, 8, 0.1, [0.0], trials, SEED),
    "second_moment_identity": lambda trials: check_second_moment_identity(
        6, 2, 1, 0.3, [0.0], trials, SEED),
    "intersection_tail": lambda trials: check_intersection_tail(100, 10, 2, trials, SEED),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("check", sorted(_CHECK_CALLS))
def test_every_check_rejects_fewer_than_one_trial(check, trials):
    with pytest.raises(ParameterError, match="trials must be >= 1"):
        _CHECK_CALLS[check](trials)


def test_block_totals_follow_the_block_rule():
    seen = []

    def draw(key, count):
        seen.append((count, _words([key], 4)[0][0].tolist()))
        return count, 0.5 * count

    totals = _block_totals(2 * 5 + 3, SEED, draw, block=5)
    expected = [(count, _fresh(SEED.substream(b)).integers(0, 1 << 53, 4, np.uint64).tolist())
                for b, count in enumerate((5, 5, 3))]
    assert seen == expected
    assert totals == [13, 6.5]
