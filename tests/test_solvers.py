"""Subset-sum solvers against exhaustive oracles."""

import concurrent.futures
import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetprune import sampling, solvers
from subsetprune import (
    BudgetError,
    CardinalityMode,
    ParameterError,
    SeedSpec,
    SolverParams,
    Strategy,
    sample_nsn,
    sample_uniform,
    search_subsets,
    subset_sum_number,
)
from subsetprune.sampling import _key, _substream_keys, _substream_permutation_heads


def verify_solution(solution, vectors, target, atol=1e-12):
    """Reference check: recompute the witness from the raw ensemble and
    compare the stored sum and residual."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    achieved = ascending_sum(vectors, solution.indices)
    if np.abs(achieved - solution.achieved).max(initial=0.0) > atol:
        return False
    residual = float(np.abs(achieved - target).max()) if target.size else 0.0
    return abs(residual - solution.residual_inf) <= atol


def enumerate_1d_hits(xs, target, epsilon):
    """Oracle: all subsets within epsilon, any cardinality."""
    hits = []
    n = len(xs)
    for mask in range(2**n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += xs[i]
        if abs(total - target) <= epsilon:
            hits.append(tuple(i for i in range(n) if mask >> i & 1))
    return hits


def all_subset_sums(xs):
    """All 2^n subset sums; entry m sums the set bits of m in ascending index order."""
    sums = np.zeros(1)
    for x in xs:
        sums = np.concatenate([sums, sums + x])
    return sums


def mitm_hits(xs, epsilon):
    """Oracle: ``hit(z)``, whether a subset of ``xs`` of any cardinality (the
    empty one included) sums to within ``epsilon`` of z, by meet-in-the-middle
    (Horowitz & Sahni 1974). Each half's subset sums are built and sorted once
    per pool. A target is one searchsorted of the ascending needles ``z -
    left[::-1]`` into the sorted right half, and it hits when the nearest right
    sum r on either side of some needle gives ``|l + r - z| <= epsilon``."""
    half = (len(xs) + 1) // 2
    descending = np.sort(all_subset_sums(xs[:half]))[::-1]
    right = np.sort(all_subset_sums(xs[half:]))

    def hit(z):
        above = right.searchsorted(z - descending)
        below = np.maximum(above - 1, 0)
        np.minimum(above, right.size - 1, out=above)
        return any((np.abs(descending + right[near] - z) <= epsilon).any()
                   for near in (below, above))

    return hit


def enumerate_k_hits(vectors, target, k, epsilon):
    """Oracle: all k-subsets of row vectors within the epsilon box."""
    hits = []
    for combo in itertools.combinations(range(len(vectors)), k):
        total = np.zeros(len(target))
        for i in combo:
            total = total + vectors[i]
        if np.abs(total - np.asarray(target)).max() <= epsilon:
            hits.append(combo)
    return hits


def dyadic_pool(seed, n=12):
    """Multiples of 1/8 of magnitude at most 1: every subset sum is exact, so
    equal sums are exact ties."""
    return np.random.default_rng(seed).integers(-8, 9, size=n) / 8.0


def column(values):
    return np.asarray(values, dtype=float)[:, None]


def solve(vectors, target, params):
    return search_subsets(vectors, target, params).solution


class TestMrss:
    def test_1d_pair(self):
        params = SolverParams(epsilon=0.05, k=2)
        sol = solve(column([0.3, 0.2, -0.1]), [0.1], params)
        assert sol.indices == (1, 2)

    def test_singleton_vector_target(self):
        sol = solve(np.array([[0.3, 0.3]]), [0.3, 0.3], SolverParams(epsilon=1e-6, k=1))
        assert sol.indices == (0,)

    def test_exact_k_larger_than_n_is_proven_infeasible(self):
        outcome = search_subsets(column([0.1, 0.2]), [0.0], SolverParams(epsilon=0.1, k=5))
        assert outcome.status == "proven-infeasible"
        assert outcome.best is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_greedy_subset_of_enum_and_ground_truth(self, d):
        k = 3
        for trial in range(8):
            vectors = sample_nsn(10, d, SeedSpec(700 + trial, d))
            targets = [
                sample_uniform(d, SeedSpec(800 + trial, 10 * d + i), -1.0, 1.0)
                for i in range(25)
            ]
            targets = [z / max(1.0, np.abs(z).sum()) for z in targets]
            for i, z in enumerate(targets):
                enum = solve(vectors, z, SolverParams(epsilon=0.2, k=k))
                greedy = solve(
                    vectors,
                    z,
                    SolverParams(
                        epsilon=0.2,
                        k=k,
                        strategy=Strategy.GREEDY_SWAP,
                        seed=SeedSpec(900 + trial, i),
                    ),
                )
                oracle = enumerate_k_hits(vectors, z, k, 0.2)
                assert (enum is not None) == bool(oracle)
                if greedy is not None:  # greedy success implies enum success
                    assert enum is not None
                    assert verify_solution(greedy, vectors, z)

    def test_enum_monotone_in_epsilon(self):
        vectors = sample_nsn(9, 2, SeedSpec(42, 42))
        params_small = SolverParams(epsilon=0.1, k=3)
        params_large = SolverParams(epsilon=0.2, k=3)
        for i in range(20):
            z = sample_uniform(2, SeedSpec(43, i), -1.0, 1.0)
            if solve(vectors, z, params_small) is not None:
                assert solve(vectors, z, params_large) is not None

    def test_at_most_mode_allows_smaller_subsets(self):
        params = SolverParams(epsilon=0.01, k=2, mode=CardinalityMode.AT_MOST)
        sol = solve(column([0.5, 0.6, 0.7]), [0.5], params)
        assert sol.indices == (0,)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_witnesses_reverify(self, seed):
        vectors = sample_nsn(8, 2, SeedSpec(seed))
        z = sample_uniform(2, SeedSpec(seed, 1), -1.0, 1.0)
        outcome = search_subsets(
            vectors, z, SolverParams(epsilon=0.3, k=3, mode=CardinalityMode.AT_MOST)
        )
        assert outcome.best is not None
        assert verify_solution(outcome.best, vectors, z)
        if outcome.solution is not None:
            assert outcome.solution.residual_inf <= 0.3


class TestSubsetSumNumber:
    def test_counts_single_pair(self):
        assert subset_sum_number(column([0.3, 0.2, -0.1]), [0.1], 2, 0.05) == 1

    def test_huge_epsilon_counts_everything(self):
        assert subset_sum_number(column([0.3, 0.2, -0.1]), [0.1], 2, 10.0) == 3

    def test_zero_epsilon_generic_ensemble(self):
        assert subset_sum_number(sample_nsn(8, 1, SeedSpec(77)), [0.123], 3, 0.0) == 0

    def test_budget_guard(self):
        vectors = sample_nsn(40, 1, SeedSpec(78))
        with pytest.raises(BudgetError, match="exceed the enumeration budget 5000000 "):
            subset_sum_number(vectors, [0.0], 20, 0.1)

    def test_target_of_another_dimension_or_non_finite_rejected(self):
        vectors = sample_nsn(8, 2, SeedSpec(79))
        with pytest.raises(ParameterError, match="shape"):  # not broadcast over 28 pairs
            subset_sum_number(vectors, [0.0], 2, 10.0)
        with pytest.raises(ParameterError, match="finite"):
            subset_sum_number(vectors, [0.0, np.nan], 2, 0.1)

    def test_positive_count_iff_enum_success(self):
        for trial in range(10):
            vectors = sample_nsn(9, 2, SeedSpec(500 + trial))
            z = sample_uniform(2, SeedSpec(600 + trial), -1.0, 1.0)
            count = subset_sum_number(vectors, z, 3, 0.2)
            sol = solve(vectors, z, SolverParams(epsilon=0.2, k=3))
            assert (count > 0) == (sol is not None)


def brute_force_best(vectors, target, cardinalities):
    """Oracle: every subset in lex order, summed in ascending index order;
    the smallest residual wins and ties go to the lexicographically first set."""
    best = None
    for j in cardinalities:
        for combo in itertools.combinations(range(len(vectors)), j):
            total = np.zeros(len(target))
            for i in combo:
                total = total + vectors[i]
            residual = float(np.abs(total - target).max(initial=0.0))
            if best is None or residual < best[1] or (residual == best[1] and combo < best[0]):
                best = (combo, residual)
    return best


def oracle_pools():
    """(vectors, target) pairs: generic, rounded to 1 decimal (exact ties and
    layers the coordinate-0 prefilter empties), far from the target, empty,
    and with more exact ties than any cap: 1,160 zero-residual 3-subsets of 22,
    the lexicographically first of them last in colex order."""
    for d in range(1, 6):
        for trial in range(6):
            n = 4 + trial
            rng = np.random.default_rng(1000 * d + trial)
            vectors = rng.normal(size=(n, d)) * 0.5
            target = rng.uniform(-1.0, 1.0, size=d)
            yield vectors, target
            yield np.round(vectors, 1), np.round(target, 1)
        yield np.abs(np.round(np.random.default_rng(d).normal(size=(6, d)), 1)) + 1.0, np.zeros(d)
        yield np.empty((0, d)), np.full(d, 0.5)
    many_ties = np.zeros((22, 1))
    many_ties[0], many_ties[21] = 1.0, -1.0
    yield many_ties, np.zeros(1)
    yield dyadic_pool(5)[:, None], np.array([0.375])


class TestExhaustiveOracle:
    @pytest.mark.parametrize("mode", list(CardinalityMode))
    def test_search_matches_brute_force(self, mode):
        for vectors, target in oracle_pools():
            n = len(vectors)
            for k in range(1, 5):
                params = SolverParams(epsilon=0.1, k=k, mode=mode)
                outcome = search_subsets(vectors, target, params)
                if mode is CardinalityMode.EXACT:
                    expected = brute_force_best(vectors, target, [k]) if k <= n else None
                else:
                    expected = brute_force_best(vectors, target, range(min(k, n) + 1))
                assert outcome.exhaustive
                if expected is None:
                    assert outcome.best is None and outcome.solution is None
                    continue
                assert outcome.best.indices == expected[0]
                assert repr(outcome.best.residual_inf) == repr(expected[1])
                assert (outcome.solution is not None) == (expected[1] <= 0.1)

    @pytest.mark.parametrize("mode", list(CardinalityMode))
    @pytest.mark.parametrize("n, d, k", [(12, 1, 5), (14, 2, 4), (16, 3, 5), (13, 4, 4)])
    def test_top_layer_dominated_pools_match_brute_force(self, mode, n, d, k):
        # the top layer holds most of the family and only its coordinate 0 is
        # stored; rounded pools add exact ties inside it
        rng = np.random.default_rng(100 * n + d)
        vectors = rng.normal(size=(n, d)) * 0.4
        target = rng.uniform(-1.0, 1.0, size=d)
        cardinalities = [k] if mode is CardinalityMode.EXACT else range(k + 1)
        for pool, z in ((vectors, target), (np.round(vectors, 1), np.round(target, 1))):
            outcome = search_subsets(pool, z, SolverParams(epsilon=0.1, k=k, mode=mode))
            expected = brute_force_best(pool, z, cardinalities)
            assert outcome.best.indices == expected[0]
            assert repr(outcome.best.residual_inf) == repr(expected[1])
            for eps in (0.05, 0.3):
                assert subset_sum_number(pool, z, k, eps) == len(
                    enumerate_k_hits(pool, z, k, eps)
                )

    def test_top_layer_memory(self):
        # 1,925,357 sums of 4 coordinates would take 61.6 MB; the index keeps
        # the 213,053 below the top layer at 44 bytes each (9.4 MB) and never
        # builds the top layer's 1,712,304. Measured peak: 14.5 MB; margin 5.5 MB.
        rng = np.random.default_rng(48)
        vectors = rng.normal(size=(48, 4)) * 0.3
        params = SolverParams(epsilon=0.1, k=5, mode=CardinalityMode.AT_MOST)
        tracemalloc.start()
        try:
            search_subsets(vectors, rng.uniform(-0.5, 0.5, size=4), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_one_shot_searches_keep_nothing(self):
        # 200 distinct pools of the phase-scan shape: each index is about 7 KB,
        # so a search-level cache of them would leave over 1 MB behind
        params = SolverParams(epsilon=0.25, k=3)
        pools = [sample_nsn(20, 2, SeedSpec(1400 + i)) for i in range(201)]
        search_subsets(pools[0], np.zeros(2), params)  # fills the shape caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i, vectors in enumerate(pools[1:]):
                search_subsets(vectors, sample_uniform(2, SeedSpec(1700, i), -1.0, 1.0), params)
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert left < 64_000

    def test_subset_sum_number_matches_brute_force(self):
        for vectors, target in oracle_pools():
            for k in range(min(len(vectors), 4) + 1):
                for eps in (0.0, 0.1, 0.3):
                    assert subset_sum_number(vectors, target, k, eps) == len(
                        enumerate_k_hits(vectors, target, k, eps)
                    )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        vectors = np.zeros((4, 2))
        vectors[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            search_subsets(vectors, np.zeros(2), SolverParams(epsilon=0.1, k=2))
        with pytest.raises(ParameterError, match="finite"):
            search_subsets(np.zeros((4, 2)), [0.0, bad], SolverParams(epsilon=0.1, k=2))

    def test_budget_errors_name_family_and_bytes(self):
        params = SolverParams(epsilon=0.1, k=3, mode=CardinalityMode.AT_MOST,
                              enumeration_budget=1000)
        # 1 + 40 + 780 + 9880 subsets; the index holds the 821 sums below the
        # top layer, 3 coordinates of 8 bytes each, with their 8-byte sort keys
        # and 4-byte colex places, and nothing of the top layer: (24 + 12) * 821
        with pytest.raises(BudgetError, match=r"10701 subsets of size <= 3 of 40 vectors.*"
                                              r"budget 1000.* 29556 bytes"):
            search_subsets(np.zeros((40, 3)), np.zeros(3), params)
        vectors = sample_nsn(40, 1, SeedSpec(78))
        # EXACT mode indexes every lower layer too: (8 + 12) * sum(C(40, j) for j < 20)
        with pytest.raises(BudgetError, match=r"137846528820 20-subsets of 40 vectors.*"
                                              r" 9616650989560 bytes"):
            subset_sum_number(vectors, [0.0], 20, 0.1)


def assert_matches_oracles(vectors, target, k, epsilon):
    """Both modes of the exhaustive search against brute force, bit for bit,
    and the k-subset count against enumeration."""
    n = len(vectors)
    for mode in CardinalityMode:
        cardinalities = [k] if mode is CardinalityMode.EXACT else range(min(k, n) + 1)
        outcome = search_subsets(vectors, target, SolverParams(epsilon=epsilon, k=k, mode=mode))
        expected = brute_force_best(vectors, target, cardinalities)
        assert outcome.best.indices == expected[0]
        assert repr(outcome.best.residual_inf) == repr(expected[1])
    assert subset_sum_number(vectors, target, k, epsilon) == len(
        enumerate_k_hits(vectors, target, k, epsilon)
    )


class TestWindowEdges:
    """Coordinate-0 windows at their edges: each j-subset is a prefix of
    layer j-1 plus vectors[last], looked up by coordinate 0."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dyadic_gaps_equal_to_the_bound(self, seed):
        # with coordinate 1 zero the residual is the coordinate-0 gap exactly,
        # so the bound equals the gap of every subset tied with the best
        xs = dyadic_pool(seed, n=10)
        for other in (np.zeros(10), dyadic_pool(seed + 10, n=10)):
            vectors = np.column_stack([xs, other])
            for z0 in np.arange(-2.0, 2.01, 0.375):
                for k in (2, 3, 4):
                    assert_matches_oracles(vectors, np.array([z0, 0.0]), k, 0.125)

    def test_windows_straddling_a_slice_prefix(self):
        # every vector has coordinate 0 = 1/4, so every j-subset has s_0 = j/4
        # and a window takes whole blocks, the prefix of slice ``last`` only
        rng = np.random.default_rng(21)
        vectors = np.column_stack([np.full(9, 0.25), rng.normal(size=(9, 2)) * 0.5])
        for k in (2, 3, 4):
            for trial in range(6):
                target = np.concatenate([[0.25 * k], rng.uniform(-1.0, 1.0, size=2)])
                assert_matches_oracles(vectors, target, k, 0.3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_column_slice(self, k):
        # slice last = k-1 holds one subset, {0, ..., k-1}: the exact target here
        rng = np.random.default_rng(22 + k)
        vectors = rng.normal(size=(8, 3)) * 0.5
        target = np.zeros(3)
        for i in range(k):
            target = target + vectors[i]
        assert_matches_oracles(vectors, target, k, 1e-9)
        outcome = search_subsets(vectors, target, SolverParams(epsilon=1e-9, k=k))
        assert outcome.best.indices == tuple(range(k)) and outcome.best.residual_inf == 0.0

    @pytest.mark.parametrize("z0", [-60.0, 60.0])
    def test_targets_beyond_both_ends(self, z0):
        # a far target's lookups clip to a block's end, so each pivot falls
        # back to the first or last subset of its block
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(9, 2)) * 0.5
        for k in (1, 3, 5):
            target = np.array([z0, rng.uniform(-1.0, 1.0)])
            assert_matches_oracles(vectors, target, k, 0.1)
            assert subset_sum_number(vectors, target, k, 1e3) == len(
                list(itertools.combinations(range(9), k))
            )

    def test_count_at_an_attained_gap(self):
        # dyadic sums are exact, so an epsilon equal to an attained residual
        # counts the subsets on the box boundary too
        vectors = np.column_stack([dyadic_pool(31, n=11), dyadic_pool(32, n=11)])
        target = np.array([0.375, -0.25])
        for k in (2, 3, 4):
            residuals = {
                float(np.abs(ascending_sum(vectors, combo) - target).max())
                for combo in itertools.combinations(range(11), k)
            }
            for epsilon in sorted(residuals)[:6]:
                assert subset_sum_number(vectors, target, k, epsilon) == len(
                    enumerate_k_hits(vectors, target, k, epsilon)
                )


class TestStoredLayers:
    """A layer below the top is windowed in its own n + 1 blocks, the top layer
    in every (slice, block) pair, and each candidate is rejected one
    coordinate at a time."""

    @pytest.mark.parametrize("mode", list(CardinalityMode))
    @pytest.mark.parametrize("d", [0, 1, 2, 4])
    def test_both_modes_match_brute_force(self, mode, d):
        # generic and quarter-rounded pools; in AT_MOST mode some winners lie
        # in a stored layer and some in the top one
        rng = np.random.default_rng(50 + d)
        lengths = set()
        for trial in range(6):
            n = 7 + trial % 3
            vectors = rng.normal(size=(n, d)) * 0.5
            target = rng.uniform(-0.6, 0.6, size=d)
            rounded = np.round(vectors * 4) / 4, np.round(target * 4) / 4
            for pool, z in ((vectors, target), rounded):
                for k in (1, 3, 5):
                    cardinalities = [k] if mode is CardinalityMode.EXACT else range(k + 1)
                    outcome = search_subsets(pool, z, SolverParams(epsilon=0.1, k=k, mode=mode))
                    expected = brute_force_best(pool, z, cardinalities)
                    assert outcome.best.indices == expected[0]
                    assert repr(outcome.best.residual_inf) == repr(expected[1])
                    lengths.add(len(expected[0]) == k)
        if mode is CardinalityMode.AT_MOST and d:
            assert lengths == {False, True}

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_winner_in_a_stored_layer(self, d):
        # the target is the exact sum of two generic vectors, so an AT_MOST
        # k = 4 search wins in stored layer 2, decoded from its own place
        rng = np.random.default_rng(41 + d)
        vectors = rng.normal(size=(10, d)) * 0.5
        params = SolverParams(epsilon=1e-9, k=4, mode=CardinalityMode.AT_MOST)
        for pair in [(0, 1), (0, 9), (3, 4), (2, 7), (8, 9)]:
            target = ascending_sum(vectors, pair)
            outcome = search_subsets(vectors, target, params)
            assert outcome.best.indices == pair and outcome.best.residual_inf == 0.0
            assert brute_force_best(vectors, target, range(5)) == (pair, 0.0)

    @pytest.mark.parametrize("zero_at", [0, 9])
    def test_ties_across_a_stored_and_the_top_layer(self, zero_at):
        # a zero vector adds nothing, so {a, b} in stored layer 2 and {a, b} plus
        # the zero in top layer 3 tie at residual 0.0: with the zero at index 0
        # the top-layer set is lexicographically first, at index 9 the stored one
        rng = np.random.default_rng(43)
        vectors = np.insert(rng.normal(size=(9, 3)) * 0.5, zero_at, 0.0, axis=0)
        params = SolverParams(epsilon=0.1, k=3, mode=CardinalityMode.AT_MOST)
        others = [i for i in range(10) if i != zero_at]
        for a, b in [(others[0], others[1]), (others[2], others[6]), (others[7], others[8])]:
            target = ascending_sum(vectors, (a, b))
            winner = (0, a, b) if zero_at == 0 else (a, b)
            outcome = search_subsets(vectors, target, params)
            assert outcome.best.indices == winner and outcome.best.residual_inf == 0.0
            assert brute_force_best(vectors, target, range(4)) == (winner, 0.0)

    def test_coordinate_1_gaps_equal_to_the_bound(self):
        # dyadic sums are exact, and every coordinate-0 gap is below 1/8, so at
        # each epsilon a multiple of 1/8 the box boundary is met in coordinate 1;
        # one index built for k = 5 counts stored layers 1..4 and the top layer
        rng = np.random.default_rng(44)
        vectors = np.column_stack([rng.integers(-4, 5, size=11) / 256.0, dyadic_pool(45, n=11)])
        index = solvers._SubsetIndex(vectors[None])
        index._build(5)
        for z1 in (0.375, -0.25, 1.0):
            target = np.array([0.0, z1])
            for k in range(1, 6):
                for epsilon in (0.125, 0.25, 0.375, 0.5):
                    expected = len(enumerate_k_hits(vectors, target, k, epsilon))
                    assert index.count(target[None], k, epsilon)[0] == expected
            for k in (2, 4, 5):
                assert_matches_oracles(vectors, target, k, 0.125)

    def test_stored_layers_issue_n_plus_1_windows(self, monkeypatch):
        # n = 48, k <= 5: layers 1..4 are stored and take 49 windows each; the
        # top layer's (slice, block) pairs number sum_{last=4}^{47} (last - 3) = 990
        windows = []
        runs = solvers._SubsetIndex._runs

        def spy(self, j, targets, bound):
            lo, sizes, lasts = runs(self, j, targets, bound)
            windows.append((j, lo.size, lasts is None))
            return lo, sizes, lasts

        monkeypatch.setattr(solvers._SubsetIndex, "_runs", spy)
        rng = np.random.default_rng(46)
        vectors = rng.normal(size=(48, 4)) * 0.3
        index = solvers._SubsetIndex(vectors[None])
        params = SolverParams(epsilon=0.03, k=5, mode=CardinalityMode.AT_MOST)
        search_subsets(vectors, rng.uniform(-0.5, 0.5, size=4), params, index)
        assert windows == [(1, 49, True), (2, 49, True), (3, 49, True), (4, 49, True),
                           (5, 990, False)]
        windows.clear()
        index.count(np.zeros((1, 4)), 3, 0.03)
        assert windows == [(3, 49, True)]

    def test_query_memory_at_the_prune_layer_shape(self):
        # a built index of 48 vectors of 4 coordinates, queried up to k = 5 at
        # the prune-layer tolerance: each query gathers one coordinate of its
        # candidates at a time. Measured peak over 20 targets: 5.1 MB (6.3 MB
        # when every candidate's four coordinates were gathered at once)
        rng = np.random.default_rng(48)
        vectors = rng.normal(size=(48, 4)) * 0.3
        index = solvers._SubsetIndex(vectors[None])
        index._build(5)
        params = SolverParams(epsilon=0.03125, k=5, mode=CardinalityMode.AT_MOST)
        peak = 0
        for _ in range(20):
            target = rng.uniform(-0.5, 0.5, size=4)
            tracemalloc.start()
            try:
                search_subsets(vectors, target, params, index)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peak < 6e6


def many_pools(rng, pools, n, d, k):
    """(pools, targets): generic pools, one scaled by 1e6 whose target is its
    last k vectors' sum exactly, one vector repeated n times, and one dyadic
    pool whose residuals tie exactly."""
    vectors = rng.normal(size=(pools, n, d)) * 0.5
    targets = rng.uniform(-1.0, 1.0, size=(pools, d))
    vectors[1] *= 1e6
    targets[1] = ascending_sum(vectors[1], range(n - k, n))
    vectors[2] = vectors[2, 0]
    targets[2] = ascending_sum(vectors[2], range(k)) + 0.01
    vectors[3], targets[3] = np.round(vectors[3] * 8.0) / 8.0, np.round(targets[3] * 8.0) / 8.0
    return vectors, targets


class TestManyPools:
    @pytest.mark.parametrize("n,d,k", [(7, 1, 2), (9, 2, 3), (8, 3, 4), (6, 2, 1), (5, 2, 5)])
    @pytest.mark.parametrize("query_bytes", [None, 1, 3000], ids=["one-group", "one-run", "few"])
    def test_pools_of_one_index_are_single_pool_indexes(self, monkeypatch, n, d, k, query_bytes):
        # a count's runs in one group, a group per run, and groups of a few runs
        if query_bytes is not None:
            monkeypatch.setattr(solvers, "_QUERY_BYTES", query_bytes)
        rng = np.random.default_rng(100 * n + d)
        vectors, targets = many_pools(rng, 6, n, d, k)
        index = solvers._SubsetIndex(vectors)
        for epsilon in (0.0, 0.05, 0.125, 0.3, 2.0):
            counts = index.count(targets, k, epsilon)
            for pool, (one, target) in enumerate(zip(vectors, targets)):
                alone = solvers._SubsetIndex(one[None])
                assert counts[pool] == alone.count(target[None], k, epsilon)[0]
                assert counts[pool] == len(enumerate_k_hits(one, target, k, epsilon))
                hit = search_subsets(one, target, SolverParams(epsilon=max(epsilon, 1e-300), k=k))
                assert (counts[pool] > 0) == (hit.best.residual_inf <= epsilon)
        assert index.count(targets, k, 0.0)[1] >= 1  # the 1e6 pool's exact sum

    def test_wide_count_memory_is_grouped(self):
        # every 3-subset of 40 pools of 30 vectors is within 1e3: 162,400
        # subsets, about 10 MB as one block of sums, residuals and places
        vectors = np.random.default_rng(5).normal(size=(40, 30, 2))
        index = solvers._SubsetIndex(vectors)
        index._build(3)
        tracemalloc.start()
        try:
            counts = index.count(np.zeros((40, 2)), 3, 1e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == [math.comb(30, 3)] * 40
        assert peak < 4 * solvers._QUERY_BYTES

    def test_restart_heads_of_many_sizes_mix_each_key_once(self, monkeypatch):
        keys = [(3, stream) for stream in range(4)]
        sizes = [5, 9, 20]
        owners = np.arange(len(keys))
        separate = [solvers._restart_heads(keys, owners, [n] * len(keys), 5, 3) for n in sizes]
        mixed = []
        mix = sampling._mix64
        monkeypatch.setattr(sampling, "_mix64", lambda *args: mixed.append(mix(*args)) or mixed[-1])
        stacked = solvers._restart_heads(keys, np.tile(owners, len(sizes)),
                                         np.repeat(sizes, len(keys)), 5, 3)
        assert stacked.tobytes() == np.stack(separate).tobytes()
        assert len(mixed) == 1 and mixed[0].size == len(keys) * 5  # every restart key, once


def reference_first_cover(xs, epsilon, grid, sizes):
    """Reference: the first n in ``sizes`` (ascending) whose prefix ``xs[:n]``
    covers every grid point, or None, by one row's own fold. The union of
    ``[s - eps, s + eps]`` over the subset sums s is a sorted list of disjoint
    closed intervals; each value is folded in by sorting the union and its
    shift together and merging where a ``lo`` is within the running max of
    ``hi``, and a grid point is covered when the last interval starting at or
    before it reaches it."""
    lo, hi = np.array([-epsilon]), np.array([epsilon])
    done = 0
    for n in sizes:
        for x in xs[done:n]:
            lo, hi = np.concatenate([lo, lo + x]), np.concatenate([hi, hi + x])
            order = np.argsort(lo, kind="stable")
            lo, reach = lo[order], np.maximum.accumulate(hi[order])
            starts = np.flatnonzero(np.append(True, lo[1:] > reach[:-1]))
            lo, hi = lo[starts], reach[np.append(starts[1:], lo.size) - 1]
        done = n
        idx = np.searchsorted(lo, grid, side="right") - 1
        if ((idx >= 0) & (grid <= hi[np.clip(idx, 0, hi.size - 1)])).all():
            return n
    return None


def covers(xs, epsilon, z):
    """Whether the cover engine of rssp-scan puts ``z`` within ``epsilon`` of a
    subset sum of all of ``xs`` (0 is a covering prefix size too, hence ``is
    not None``)."""
    first = solvers._first_covering_sizes(np.reshape(xs, (1, -1)), epsilon, np.array([z]),
                                          [len(xs)])
    return first[0] is not None


def reference_covers(xs, epsilon, z):
    return reference_first_cover(xs, epsilon, np.array([z]), [len(xs)]) is not None


class TestCover:
    def test_origin_always_covered(self):
        assert covers(np.array([]), 0.0, 0.0)

    def test_single_value_misses_far_target(self):
        assert not covers(np.array([0.5]), 0.1, -0.9)

    def test_exact_hit_at_zero_epsilon(self):
        # 0.5 - 0.25 is exact, so a zero-width box still holds it
        xs = np.array([0.5, -0.25, 0.75])
        assert covers(xs, 0.0, 0.25)
        assert mitm_hits(xs, 0.0)(0.25)

    def test_target_beyond_the_range_of_sums_missed(self):
        xs = np.array([0.5, -0.25, 0.75])  # every subset sum lies in [-0.25, 1.25]
        for z in (2.0, -1.0):
            assert not covers(xs, 0.01, z)
            assert not mitm_hits(xs, 0.01)(z)

    @pytest.mark.parametrize("z,hit", [(0.0, True), (0.5, True), (0.6, False)])
    def test_empty_subset_covers_only_small_targets(self, z, hit):
        # 0 is the only subset sum within 1 of the origin
        xs = np.array([5.0, 7.0])
        assert covers(xs, 0.5, z) == hit
        assert mitm_hits(xs, 0.5)(z) == hit

    def test_equal_sums_within_one_half(self):
        # 0.375 is both x4 and x3 + x5, two right-half sets with equal sums
        xs = np.array([5.0, 7.0, 9.0, 0.125, 0.375, 0.25])
        assert covers(xs, 0.0, 0.375)
        assert mitm_hits(xs, 0.0)(0.375)
        assert not covers(xs, 0.0, 0.0625)
        assert not mitm_hits(xs, 0.0)(0.0625)

    @pytest.mark.parametrize("trial", range(3))
    def test_cover_and_mitm_oracle_match_enumeration_on_grid(self, trial):
        xs = sample_uniform(12, SeedSpec(300 + trial), -1.0, 1.0)
        hit = mitm_hits(xs, 0.03)
        for z in np.linspace(-1.0, 1.0, 21):
            expected = bool(enumerate_1d_hits(xs.tolist(), float(z), 0.03))
            assert covers(xs, 0.03, z) == hit(float(z)) == expected
        # sums are exact multiples of 1/8, so a target at an odd multiple of
        # 1/16 lies on the boundary of every box it is in
        xs = dyadic_pool(trial)
        hit = mitm_hits(xs, 1 / 16)
        for z in np.linspace(-4.0, 4.0, 129):
            expected = bool(enumerate_1d_hits(xs.tolist(), float(z), 1 / 16))
            assert covers(xs, 1 / 16, z) == hit(float(z)) == expected

    @pytest.mark.parametrize("trial", range(5))
    def test_interval_engine_matches_enumeration(self, trial):
        xs = sample_uniform(12, SeedSpec(2000 + trial), -1.0, 1.0)
        eps = 0.05
        for z in np.linspace(-1.0, 1.0, 41):
            hit = bool(enumerate_1d_hits(xs.tolist(), float(z), eps))
            assert covers(xs, eps, z) == hit
            assert reference_covers(xs, eps, z) == hit

    @pytest.mark.parametrize("n", [0, 1, 7, 12])
    def test_mitm_oracle_matches_enumeration(self, n):
        pools = [
            (sample_uniform(n, SeedSpec(300 + n), -1.0, 1.0), 0.03, np.linspace(-1.0, 1.0, 21)),
            # sums are exact multiples of 1/8, so a target at an odd multiple
            # of 1/16 is hit only on a box boundary, exactly eps away
            (dyadic_pool(n, n=n), 1 / 16, np.linspace(-4.0, 4.0, 129)),
        ]
        for xs, eps, targets in pools:
            hit = mitm_hits(xs, eps)
            for z in targets:
                assert hit(float(z)) == bool(enumerate_1d_hits(xs.tolist(), float(z), eps))

    def test_cover_matches_mitm_oracle_at_n40(self):
        xs = sample_uniform(40, SeedSpec(2100), -1.0, 1.0)
        eps = 0.05
        hit = mitm_hits(xs, eps)
        targets = [(float(z), hit(float(z))) for z in np.linspace(-1.0, 1.0, 41)]
        # the largest and the smallest subset sum, pushed outward by eps/2 (a
        # hit) and by 2 eps (a miss), so an engine that always covers fails
        largest, smallest = xs[xs > 0].sum(), xs[xs < 0].sum()
        for outward, expected in [(eps / 2, True), (2 * eps, False)]:
            for z in (largest + outward, smallest - outward):
                assert hit(z) == expected
                targets.append((z, expected))
        for z, expected in targets:
            assert covers(xs, eps, z) == expected
            assert reference_covers(xs, eps, z) == expected

    def test_intervals_grow_with_values(self):
        # every point covered before stays covered
        for point in np.linspace(-0.2, 0.5, 30):
            if covers(np.array([0.3]), 0.1, point):
                assert covers(np.array([0.3, 0.4]), 0.1, point)

    @settings(max_examples=60, deadline=None)
    @given(
        epsilon=st.floats(0.01, 0.5) | st.sampled_from([1 / 16, 1 / 8, 1 / 4]),
        half_width=st.floats(0.0, 1.0),
        grid_size=st.integers(1, 81),
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True).map(sorted),
        trials=st.integers(1, 40),
        eighths=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(epsilon=0.01, half_width=1.0, grid_size=81, sizes=[1, 2], trials=5, eighths=False,
             seed=0)  # no row covers
    @example(epsilon=0.5, half_width=0.5, grid_size=11, sizes=[0, 4], trials=3, eighths=False,
             seed=1)  # the empty subset covers
    @example(epsilon=1 / 16, half_width=1.0, grid_size=33, sizes=[3, 6, 12], trials=20,
             eighths=True, seed=2)  # intervals touch at grid points
    def test_batched_engine_is_the_per_row_fold(self, epsilon, half_width, grid_size, sizes,
                                                trials, eighths, seed):
        draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (trials, sizes[-1]))
        if eighths:  # many equal endpoints
            draws = np.round(draws * 8.0) / 8.0
        grid = np.linspace(-half_width, half_width, grid_size)
        expect = [reference_first_cover(row, epsilon, grid, sizes) for row in draws]
        assert solvers._first_covering_sizes(draws, epsilon, grid, sizes) == expect


def one_start_greedy_build(vectors, target, k):
    """The greedy start as the one-start-at-a-time solver built it."""
    n = vectors.shape[0]
    chosen = []
    current = np.zeros(vectors.shape[1])
    available = np.ones(n, dtype=bool)
    for _ in range(k):
        residuals = np.abs((current + vectors) - target).max(axis=1)
        residuals[~available] = np.inf
        pick = int(np.argmin(residuals))
        available[pick] = False
        chosen.append(pick)
        current = current + vectors[pick]
    return sorted(chosen)


def ascending_sum(vectors, indices):
    total = np.zeros(vectors.shape[1])
    for i in indices:
        total = total + vectors[i]
    return total


def one_start_swap_descent(vectors, target, start, max_iters):
    """Oracle: best-improvement swaps of one start, one numpy block per step,
    ``current`` summed in ascending index order."""
    n = vectors.shape[0]
    inside = sorted(start)
    in_set = np.zeros(n, dtype=bool)
    in_set[inside] = True
    current = ascending_sum(vectors, inside)
    residual = float(np.abs(current - target).max())
    for _ in range(max_iters):
        outside = np.flatnonzero(~in_set)
        if not inside or outside.size == 0:
            break
        trial = (
            current[None, None, :]
            - vectors[inside][:, None, :]
            + vectors[outside][None, :, :]
        )
        trial_res = np.abs(trial - target).max(axis=2)
        flat = int(np.argmin(trial_res))
        best = float(trial_res.reshape(-1)[flat])
        if not best < residual:
            break
        out_pos, in_pos = divmod(flat, outside.size)
        leaving, entering = inside[out_pos], int(outside[in_pos])
        in_set[leaving] = False
        in_set[entering] = True
        inside = sorted(np.flatnonzero(in_set).tolist())
        current = ascending_sum(vectors, inside)
        residual = float(np.abs(current - target).max())
    return tuple(inside), residual


def _fresh(seed):
    """The reference stream: a generator built afresh on ``seed``'s Philox key."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def one_start_greedy_swap_best(vectors, target, k, params):
    """Oracle: the greedy start, then each restart in turn, kept if strictly
    better or equal and lexicographically smaller."""
    n = vectors.shape[0]
    best_indices, best_res = one_start_swap_descent(
        vectors, target, one_start_greedy_build(vectors, target, k), params.max_iters
    )
    for restart in range(1, params.restarts + 1):
        rng = _fresh(params.seed.substream(restart))
        start = sorted(int(i) for i in rng.permutation(n)[:k])
        indices, res = one_start_swap_descent(vectors, target, start, params.max_iters)
        if res < best_res or (res == best_res and indices < best_indices):
            best_indices, best_res = indices, res
    return best_indices, best_res


def greedy_cases():
    """(vectors, target, k) over n 4-21, d 1-3 and k 1-5, with k = n (no index
    outside) and k > n; every other pool and target rounded to 1 decimal."""
    rng = np.random.default_rng(2024)
    for case in range(160):
        n = int(rng.integers(4, 22))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6)) if case % 8 else (n if case % 16 else n + 2)
        vectors = rng.normal(size=(n, d)) * 0.5
        target = rng.uniform(-1.0, 1.0, size=d)
        if case % 2:
            vectors, target = np.round(vectors, 1), np.round(target, 1)
        yield vectors, target, k


def greedy_swap_best(vectors, target, k, params):
    """The batched engine on the one problem ``(vectors, target)``."""
    heads = solvers._restart_heads([_key(params.seed)], [0], [len(vectors)], params.restarts,
                                   k)[0]
    indices, residuals = solvers._greedy_swap_best(vectors[None], target[None], k, heads, params)
    return tuple(indices[0].tolist()), float(residuals[0])


class TestGreedySwap:
    @pytest.mark.parametrize("mode", list(CardinalityMode))
    @pytest.mark.parametrize("restarts, max_iters", [(0, 200), (8, 200), (8, 1)])
    def test_batched_descent_matches_one_start_loop(self, mode, restarts, max_iters):
        for case, (vectors, target, k) in enumerate(greedy_cases()):
            n = len(vectors)
            params = SolverParams(epsilon=0.1, k=k, mode=mode, strategy=Strategy.GREEDY_SWAP,
                                  restarts=restarts, max_iters=max_iters, seed=SeedSpec(case, 5))
            if mode is CardinalityMode.EXACT:
                cardinalities = [k] if k <= n else []
            else:
                cardinalities = range(min(k, n) + 1)
            expected = None
            for j in cardinalities:
                if j == 0:
                    cand = ((), float(np.abs(target).max()))
                else:
                    cand = one_start_greedy_swap_best(vectors, target, j, params)
                    got = greedy_swap_best(vectors, target, j, params)
                    assert got[0] == cand[0]
                    assert repr(got[1]) == repr(cand[1])
                if expected is None or cand[1] < expected[1] or (
                    cand[1] == expected[1] and cand[0] < expected[0]
                ):
                    expected = cand
            outcome = search_subsets(vectors, target, params)
            if expected is None:
                assert outcome.best is None
            else:
                assert outcome.best.indices == expected[0]

    def test_chunked_descent_matches_one_block(self, monkeypatch):
        # a cap below one start's block puts every start in a chunk of its own
        rng = np.random.default_rng(7)
        for trial in range(20):
            vectors = np.round(rng.normal(size=(12, 2)) * 0.5, 1)
            target = np.round(rng.uniform(-1.0, 1.0, size=2), 1)
            params = SolverParams(epsilon=0.1, k=3, strategy=Strategy.GREEDY_SWAP,
                                  restarts=12, seed=SeedSpec(trial))
            whole = greedy_swap_best(vectors, target, 3, params)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_DESCENT_BYTES", 1)
                chunked = greedy_swap_best(vectors, target, 3, params)
            assert chunked[0] == whole[0] and repr(chunked[1]) == repr(whole[1])
            assert whole == one_start_greedy_swap_best(vectors, target, 3, params)

    @pytest.mark.parametrize("restarts, max_iters", [(0, 200), (8, 200), (8, 1), (20, 2)])
    @pytest.mark.parametrize("cap", [None, 1, 3], ids=["one-batch", "one-start", "three-starts"])
    def test_batched_problems_match_one_start_loop(self, monkeypatch, restarts, max_iters, cap):
        # P problems in one call, each against the one-start oracle; a cap of
        # one or three starts' swap blocks makes starts enter as others stop
        rng = np.random.default_rng(16)
        for case in range(12):
            problems, n, d = (int(rng.integers(*span)) for span in ((2, 7), (3, 14), (1, 4)))
            k = n if case % 6 == 5 else min(n, int(rng.integers(1, 5)))
            vectors = rng.normal(size=(problems, n, d)) * 0.5
            targets = rng.uniform(-1.0, 1.0, size=(problems, d))
            if case % 2:
                vectors, targets = np.round(vectors, 1), np.round(targets, 1)
            seeds = [SeedSpec(case, problem) for problem in range(problems)]
            params = SolverParams(epsilon=0.1, k=k, strategy=Strategy.GREEDY_SWAP,
                                  restarts=restarts, max_iters=max_iters)
            if cap is not None:
                monkeypatch.setattr(solvers, "_DESCENT_BYTES", cap * 8 * k * n * d)
            heads = solvers._restart_heads([_key(seed) for seed in seeds], range(problems),
                                           [n] * problems, restarts, k)
            indices, residuals = solvers._greedy_swap_best(vectors, targets, k, heads, params)
            for problem, seed in enumerate(seeds):
                expected = one_start_greedy_swap_best(vectors[problem], targets[problem], k,
                                                      dataclasses.replace(params, seed=seed))
                assert tuple(indices[problem].tolist()) == expected[0]
                assert repr(float(residuals[problem])) == repr(expected[1])

    def test_descent_residuals_are_the_reported_residuals(self):
        # added in ascending index order each 1.0 rounds away against 1e16,
        # while numpy's pairwise sum of a long block keeps some of them
        rng = np.random.default_rng(0)
        vectors = np.concatenate([[1e16], np.ones(20), rng.normal(size=10)])[:, None]
        target = np.array([1e16])
        starts = np.sort([rng.permutation(31)[:13] for _ in range(8)], axis=1)
        owners = np.zeros(len(starts), dtype=np.intp)
        inside, residual = solvers._swap_descents(vectors[None], target[None], owners, starts, 200)
        for row, res in zip(inside, residual):
            assert float(res) == solvers._make_solution(vectors, row, target).residual_inf

    @pytest.mark.parametrize("seed", [SeedSpec(0), SeedSpec(11, 3), SeedSpec(2**64 - 1, 2**63)])
    def test_restart_permutations_are_the_substream_permutations(self, seed):
        indices = [0, 1, 2, 7, 1000]
        keys = _substream_keys([_key(seed)], indices)
        owners = np.arange(len(keys))
        for n in (1, 2, 5, 20, 48):
            heads = _substream_permutation_heads(keys, owners, [n] * len(keys), n)
            for row, index in zip(heads, indices):
                expected = _fresh(seed.substream(index)).permutation(n)
                assert row.astype(np.int64).tobytes() == expected.astype(np.int64).tobytes()
            assert np.array_equal(_substream_permutation_heads(keys, owners, [n] * len(keys), 1),
                                  heads[:, :1])

    def test_restart_permutations_from_many_threads(self):
        # each thread rewinds its own Philox, so concurrent draws are the serial ones
        seeds = [SeedSpec(5, stream) for stream in range(40)]
        keys = _substream_keys([_key(seed) for seed in seeds], range(1, 9))
        rows = np.tile(np.arange(len(keys)), 2), np.repeat([20, 7], len(keys))
        expected = _substream_permutation_heads(keys, *rows, 3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                draws = [pool.submit(_substream_permutation_heads, keys, *rows, 3)
                         for _ in range(8)]
                results = [draw.result(timeout=60) for draw in draws]
        finally:
            sys.setswitchinterval(switch)
        for heads in results:
            assert np.array_equal(heads, expected)

    def test_descent_memory_is_chunked(self):
        # 20,001 starts of 5 x 48 swaps in 4 coordinates would take about
        # 150 MB as one block
        rng = np.random.default_rng(48)
        vectors = rng.normal(size=(48, 4)) * 0.3
        params = SolverParams(epsilon=0.01, k=5, strategy=Strategy.GREEDY_SWAP, restarts=20_000)
        tracemalloc.start()
        try:
            search_subsets(vectors, rng.uniform(-0.5, 0.5, size=4), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("mode", list(CardinalityMode))
    @pytest.mark.parametrize("strategy", [Strategy.EXHAUSTIVE, Strategy.GREEDY_SWAP])
    def test_zero_dimensional_vectors(self, mode, strategy):
        params = SolverParams(epsilon=0.1, k=2, mode=mode, strategy=strategy)
        outcome = search_subsets(np.zeros((5, 0)), np.zeros(0), params)
        assert outcome.status == "hit"
        assert outcome.best.indices == ((0, 1) if mode is CardinalityMode.EXACT else ())
        assert outcome.best.residual_inf == 0.0
