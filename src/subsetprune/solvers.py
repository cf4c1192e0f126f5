"""Approximate subset-sum solvers and counters over random ensembles.

A target ``z`` is *hit* by an index set ``S`` when the achieved sum lands in
the closed infinity-norm box ``[z - eps, z + eps]``; boundary hits count.

Strategies
----------
``EXHAUSTIVE``
    Enumerates every admissible subset (budget-capped). A miss is a proof
    that no admissible subset exists.
``MEET_IN_THE_MIDDLE``
    Exact for the 1-D any-cardinality problem; the enumeration budget caps
    each half-table at ``2^ceil(n/2)`` sums.
``GREEDY_SWAP``
    Fixed-cardinality d-dimensional local search: greedy build toward the
    target, then best-improvement single swaps, with seeded random restarts.
    A miss proves nothing and is reported as "not-found", never as
    "proven-infeasible".

    The greedy start and every restart descend together: each step scores
    all swaps of all starts as one coordinate-major ``(d, starts, k, n)``
    block of ``current - leaving + entering``, the start's own columns at
    +inf, and the starts whose best swap improves take it. Per start this is
    the one-start loop exactly: the same elementwise values, ``current``
    re-summed over the sorted indices by the same reduction, the first
    argmin in (leaving position, entering index) order, at most ``max_iters``
    swaps, and between starts the smallest residual with ties to the
    lexicographically smallest indices. The starts go in consecutive chunks
    whose block stays under ``_DESCENT_BYTES``. Restart r starts from the
    sorted first k of ``_generator(seed.substream(r)).permutation(n)``, drawn
    by rewinding one Philox to each substream key rather than building one
    per restart.

Determinism: among equal-residual candidates the lexicographically smallest
index set wins, and greedy restarts draw from an explicit :class:`SeedSpec`.

The exhaustive engine (shared by :func:`search_subsets` and
:func:`subset_sum_number`) builds each cardinality layer of subset sums
coordinate-major, a ``(d, C(n, j))`` array in colex order, with no
intermediate copies. The search first scans the contiguous coordinate-0 row:
with ``U`` the smaller of the best residual so far and the full residual at
the coordinate-0 argmin, the full L-inf residual is computed only where
``|s_0 - z_0| <= U`` (the count uses ``<= eps``). This is exact
(sort-and-search, Horowitz & Sahni 1974): an L-inf residual is never below its
coordinate-0 term, so the minimum and every tie at it survive the filter, in
ascending colex rank, and each sum is still added in ascending index order, so
results are bit-identical to a dense scan.

The top layer (the largest cardinality, most of the family) is therefore
built as its coordinate-0 row alone, and ``|s_0 - z_0|`` overwrites that row
in place. A surviving top-layer sum is completed by a prefix gather: in colex
order the rank-r k-subset with largest index ``last`` is column
``r - C(last, k)`` of layer k-1 plus ``vectors[last]``, the very add the build
performs, so residuals and ties are unchanged. The family takes d x (sums
below the top layer) x 8 + (top-layer sums) x 8 bytes.

The 1-D cover question ("is every grid point hit by some subset sum?") is
answered exactly for any n by :func:`inflated_sum_intervals`, which maintains
the union of ``[s - eps, s + eps]`` over all subset sums s as a sorted list of
disjoint closed intervals: start from the empty subset's interval and fold in
one value at a time (union of the shifted and unshifted families). Interval
merging is exact, so membership agrees with full enumeration up to the usual
one-ulp reassociation caveat at exact box boundaries. A fold never drops a
point, so cover is monotone in the prefix length: :func:`_smallest_covering_prefix`
runs the same fold once across a list of prefix sizes and stops at the first
that covers the grid, which is how the RSSP phase scan uses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BudgetError, ParameterError
from .sampling import NsnEnsemble, SeedSpec, _substream_permutation_heads

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "CardinalityMode",
    "Strategy",
    "SolverParams",
    "SubsetSolution",
    "SearchOutcome",
    "dimension_constant",
    "verify_solution",
    "solve_rssp_1d",
    "solve_mrss",
    "search_subsets",
    "subset_sum_number",
    "partition_boost",
    "BoostResult",
    "GroupAttempt",
    "cover_targets",
    "CoverReport",
    "inflated_sum_intervals",
]

DEFAULT_ENUMERATION_BUDGET = 5_000_000


class CardinalityMode(Enum):
    EXACT = "exact"
    AT_MOST = "at_most"


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    MEET_IN_THE_MIDDLE = "mitm"
    GREEDY_SWAP = "greedy_swap"


def dimension_constant(d: int) -> float:
    """``min(1/d^2, 1/16)``; recomputed on demand so it can never go stale."""
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    return min(1.0 / (d * d), 1.0 / 16.0)


@dataclass(frozen=True)
class SolverParams:
    """Knobs for the fixed-cardinality multidimensional search."""

    epsilon: float
    k: int
    mode: CardinalityMode = CardinalityMode.EXACT
    strategy: Strategy = Strategy.EXHAUSTIVE
    restarts: int = 8
    max_iters: int = 200
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0, 0))

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ParameterError("epsilon must be positive")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.restarts < 0 or self.max_iters < 1:
            raise ParameterError("restarts must be >= 0 and max_iters >= 1")
        if self.enumeration_budget < 1:
            raise ParameterError("enumeration_budget must be >= 1")


@dataclass(frozen=True, eq=False)
class SubsetSolution:
    """Witness for a hit (or the best near-miss a search could find)."""

    indices: tuple[int, ...]
    achieved: np.ndarray  # (d,)
    residual_inf: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        achieved = np.atleast_1d(np.asarray(self.achieved, dtype=np.float64))
        object.__setattr__(self, "achieved", achieved)
        object.__setattr__(self, "residual_inf", float(self.residual_inf))


def _sum_of(vectors: np.ndarray, indices) -> np.ndarray:
    """Ascending-index sequential sum; the canonical achieved value."""
    total = np.zeros(vectors.shape[1], dtype=np.float64)
    for i in indices:
        total = total + vectors[i]
    return total


def _make_solution(vectors: np.ndarray, indices, target: np.ndarray) -> SubsetSolution:
    achieved = _sum_of(vectors, sorted(int(i) for i in indices))
    residual = float(np.abs(achieved - target).max()) if target.size else 0.0
    return SubsetSolution(tuple(sorted(int(i) for i in indices)), achieved, residual)


def verify_solution(
    solution: SubsetSolution, vectors: np.ndarray, target, atol: float = 1e-12
) -> bool:
    """Recompute the witness from the raw ensemble and check the stored fields."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    achieved = _sum_of(vectors, solution.indices)
    if np.abs(achieved - solution.achieved).max(initial=0.0) > atol:
        return False
    residual = float(np.abs(achieved - target).max()) if target.size else 0.0
    return abs(residual - solution.residual_inf) <= atol


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a subset search, keeping the best near-miss for reporting."""

    solution: SubsetSolution | None  # within tolerance, else None
    best: SubsetSolution | None  # best subset seen regardless of tolerance
    exhaustive: bool  # whole family enumerated?

    @property
    def status(self) -> str:
        if self.solution is not None:
            return "hit"
        return "proven-infeasible" if self.exhaustive else "not-found"


# ---------------------------------------------------------------------------
# 1-D any-cardinality solver
# ---------------------------------------------------------------------------


def _all_subset_sums(xs: np.ndarray) -> np.ndarray:
    """All 2^n subset sums; entry m sums the set bits of m in ascending index order."""
    sums = np.zeros(1, dtype=np.float64)
    for x in xs:
        sums = np.concatenate([sums, sums + x])
    return sums


def _mask_indices(mask: int, offset: int = 0) -> tuple[int, ...]:
    out = []
    bit = 0
    while mask:
        if mask & 1:
            out.append(offset + bit)
        mask >>= 1
        bit += 1
    return tuple(out)


def _lex_best_masks(masks, to_indices) -> tuple[int, ...]:
    return min(to_indices(m) for m in masks)


def solve_rssp_1d(
    xs,
    target: float,
    epsilon: float,
    strategy: Strategy = Strategy.MEET_IN_THE_MIDDLE,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SubsetSolution | None:
    """Any-cardinality 1-D subset sum within ``epsilon`` of ``target``.

    Both strategies are exact: ``None`` means no subset (including the empty
    one) lands in the closed interval.
    """
    xs = np.ascontiguousarray(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 1:
        raise ParameterError("xs must be a 1-D array")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    if not np.isfinite(target):
        raise ParameterError("target must be finite")
    n = xs.size
    target = float(target)
    vectors = xs[:, None]
    tvec = np.array([target])

    if strategy is Strategy.EXHAUSTIVE:
        if 2**n > enumeration_budget:
            raise BudgetError(f"2^{n} subsets exceed the enumeration budget")
        sums = _all_subset_sums(xs)
        residuals = np.abs(sums - target)
        best = residuals.min()
        ties = np.flatnonzero(residuals == best)
        indices = _lex_best_masks(ties.tolist(), _mask_indices)
        solution = _make_solution(vectors, indices, tvec)
        return solution if solution.residual_inf <= epsilon else None

    if strategy is not Strategy.MEET_IN_THE_MIDDLE:
        raise ParameterError(f"unsupported 1-D strategy {strategy}")
    n_left = (n + 1) // 2
    if 2**n_left > enumeration_budget:
        raise BudgetError(f"meet-in-the-middle half-table 2^{n_left} exceeds the budget")

    left = _all_subset_sums(xs[:n_left])
    right = _all_subset_sums(xs[n_left:])
    order = np.argsort(right, kind="stable")
    right_sorted = right[order]
    need = target - left
    pos = np.searchsorted(right_sorted, need)
    lo = np.clip(pos - 1, 0, right_sorted.size - 1)
    hi = np.clip(pos, 0, right_sorted.size - 1)
    res_lo = np.abs(left + right_sorted[lo] - target)
    res_hi = np.abs(left + right_sorted[hi] - target)
    best = min(res_lo.min(), res_hi.min())

    def pair_indices(left_mask: int, right_rank: int) -> tuple[int, ...]:
        right_mask = int(order[right_rank])
        return tuple(sorted(_mask_indices(left_mask) + _mask_indices(right_mask, n_left)))

    candidates = [
        pair_indices(int(i), int(lo[i])) for i in np.flatnonzero(res_lo == best)
    ] + [pair_indices(int(i), int(hi[i])) for i in np.flatnonzero(res_hi == best)]
    solution = _make_solution(vectors, min(candidates), tvec)
    return solution if solution.residual_inf <= epsilon else None


# ---------------------------------------------------------------------------
# Fixed-cardinality d-dimensional search
# ---------------------------------------------------------------------------

def _family_size(n: int, cardinalities) -> int:
    return sum(math.comb(n, k) for k in cardinalities)


def _colex_sum_layers(vectors: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Subset sums of every cardinality up to k_max, coordinate-major, colex order.

    Layer j is a ``(d, C(m, j))`` array whose column r is the sum of the r-th
    j-subset in colexicographic order. In colex order the (j-1)-subsets with
    maximum element below L are exactly the first C(L, j-1) columns of layer
    j-1, so layer j is filled slice by slice, each slice a prefix of layer j-1
    plus one vector, written straight into the preallocated layer: no
    per-subset Python work and no concatenate copy. Within a subset the
    additions happen in ascending index order (the canonical order).

    The top layer (j = k_max >= 1) is usually most of the family, and only its
    coordinate 0 is needed before the prefilter, so it holds that row alone;
    :func:`_layer_columns` completes any of its columns on demand. Memory is
    d x (family below the top layer) x 8 + C(m, k_max) x 8 bytes.
    """
    m, d = vectors.shape
    columns = vectors[:, :, None]  # columns[last] is vectors[last] as a (d, 1) column
    layers = [np.zeros((d, 1))]
    for j in range(1, k_max + 1):
        rows = d if j < k_max else min(d, 1)
        prev, addend = layers[j - 1][:rows], columns[:, :rows]
        layer = np.empty((rows, math.comb(m, j)))
        start = 0
        for last in range(j - 1, m):
            stop = start + math.comb(last, j - 1)
            np.add(prev[:, : stop - start], addend[last], out=layer[:, start:stop])
            start = stop
        layers.append(layer)
    return layers


@functools.lru_cache(maxsize=64)
def _slice_starts(m: int, k_max: int) -> np.ndarray:
    """``C(last, k_max)`` for last in 0..m-1: where each top-layer slice begins.

    Cached (read-only) because scans re-solve the same few shapes many times.
    """
    starts = np.array([math.comb(last, k_max) for last in range(m)], dtype=np.int64)
    starts.flags.writeable = False
    return starts


def _layer_columns(layers: list[np.ndarray], vectors: np.ndarray, j: int, ranks, starts):
    """Full d-dim sums of layer j at colex rank(s) ``ranks`` (an int or an array).

    Below the top layer they are stored. A top-layer column r is recomputed as
    the single add the build made: column ``r - C(last, j)`` of layer j-1 plus
    ``vectors[last]``, where ``last`` (the subset's largest index) is the last
    slice start at or below r. The result is bit-identical to a full build.
    """
    if not 0 < j == len(layers) - 1:
        return layers[j].take(ranks, axis=1)
    lasts = starts.searchsorted(ranks, side="right") - 1
    prefix = layers[j - 1].take(ranks - starts.take(lasts), axis=1)
    return prefix + vectors.take(lasts, axis=0).T


def _coordinate0_gaps(layers: list[np.ndarray], j: int, target: np.ndarray) -> np.ndarray:
    """``|s_0 - z_0|`` over layer j (zeros when d = 0).

    The top layer's row is private to the caller and is overwritten in place:
    a second buffer of that size costs its page faults.
    """
    if not target.size:
        return np.zeros(layers[j].shape[1])
    row = layers[j][0]
    gaps = np.subtract(row, target[0], out=row) if 0 < j == len(layers) - 1 else row - target[0]
    return np.abs(gaps, out=gaps)


def _colex_decode(rank: int, j: int) -> tuple[int, ...]:
    """Indices of the rank-th j-subset in colex order (combinatorial number system)."""
    out = []
    remaining = int(rank)
    for size in range(j, 0, -1):
        last = size - 1
        while math.comb(last + 1, size) <= remaining:
            last += 1
        out.append(last)
        remaining -= math.comb(last, size)
    return tuple(reversed(out))


_TIE_DECODE_CAP = 1024


def _check_family_budget(n: int, cardinalities, d: int, budget: int) -> None:
    family = _family_size(n, cardinalities)
    if family > budget:
        k_max = max(cardinalities)
        sizes = f"{k_max}-subsets" if len(cardinalities) == 1 else f"subsets of size <= {k_max}"
        # what _colex_sum_layers allocates: every layer below k_max in full, row 0 of the top
        below = _family_size(n, range(k_max))
        needed = 8 * (d * below + min(d, 1) * math.comb(n, k_max))
        raise BudgetError(
            f"{family} {sizes} of {n} vectors exceed the enumeration budget {budget} "
            f"(building their {d}-dim sums would allocate {needed} bytes)"
        )


def _enumerate_best(
    vectors: np.ndarray, target: np.ndarray, cardinalities, budget: int
) -> tuple[tuple[int, ...], float]:
    n, d = vectors.shape
    _check_family_budget(n, cardinalities, d, budget)
    k_max = max(cardinalities)
    layers = _colex_sum_layers(vectors, k_max)
    starts = _slice_starts(n, k_max)
    best_res = math.inf
    best_indices: tuple[int, ...] | None = None
    for j in cardinalities:
        if layers[j].shape[1] == 0:
            continue
        # Coordinate-0 prefilter: a sum's L-inf residual is at least its
        # coordinate-0 gap a0, so every sum at residual <= bound (the layer
        # minimum and all its ties included, in ascending colex rank) passes
        # a0 <= bound, and the full residual is computed on those alone.
        a0 = _coordinate0_gaps(layers, j, target)
        pivot = int(np.argmin(a0))
        pivot_sum = _layer_columns(layers, vectors, j, pivot, starts)
        bound = min(best_res, float(np.abs(pivot_sum - target).max(initial=0.0)))
        ranks = np.flatnonzero(a0 <= bound)
        if ranks.size == 0:
            continue
        sums = _layer_columns(layers, vectors, j, ranks, starts)
        residuals = np.abs(sums - target[:, None]).max(axis=0, initial=0.0)
        res = float(residuals.min())
        if res > best_res:
            continue
        # exact-tie resolution; the cap keeps degenerate inputs from exploding
        ties = ranks[residuals == res][:_TIE_DECODE_CAP]
        decoded = min(_colex_decode(int(r), j) for r in ties)
        if res < best_res or best_indices is None or decoded < best_indices:
            best_res, best_indices = res, decoded
    assert best_indices is not None
    return best_indices, best_res


def _greedy_build(vectors: np.ndarray, target: np.ndarray, k: int) -> list[int]:
    n = vectors.shape[0]
    chosen: list[int] = []
    current = np.zeros(vectors.shape[1])
    available = np.ones(n, dtype=bool)
    for _ in range(k):
        residuals = np.abs((current + vectors) - target).max(axis=1, initial=0.0)
        residuals[~available] = np.inf
        pick = int(np.argmin(residuals))
        available[pick] = False
        chosen.append(pick)
        current = current + vectors[pick]
    return sorted(chosen)


_DESCENT_BYTES = 1 << 22  # largest (d, starts, k, n) swap block one descent step builds


def _swap_descents(
    vectors: np.ndarray, target: np.ndarray, inside: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement single-swap descent from every row of ``inside`` (one
    start per row, indices ascending) at once; returns the rows reached and
    their residuals. Scoring all n entering columns, a start's own at +inf,
    keeps the first argmin among its outside indices in ascending order. A
    start whose best swap does not improve keeps its set, so it scores the
    same swaps again: once stopped, it stays stopped.
    """
    n = vectors.shape[0]
    columns = np.ascontiguousarray(vectors.T)
    rows, positions = np.arange(inside.shape[0]), np.arange(inside.shape[1])
    current = vectors[inside].sum(axis=1)
    residual = np.abs(current - target).max(axis=1, initial=0.0)
    for _ in range(max_iters):
        trial = (current.T[:, :, None] - columns[:, inside])[..., None] + columns[:, None, None, :]
        np.subtract(trial, target[:, None, None, None], out=trial)
        scores = np.abs(trial, out=trial).max(axis=0, initial=0.0)
        scores[rows[:, None, None], positions[:, None], inside[:, None, :]] = np.inf
        flat = scores.reshape(rows.size, -1).argmin(axis=1)
        leaving, entering = np.divmod(flat, n)
        improving = scores[rows, leaving, entering] < residual
        if not improving.any():
            break
        swapped = inside.copy()
        swapped[rows, leaving] = entering
        swapped.sort(axis=1)
        inside = np.where(improving[:, None], swapped, inside)
        current = vectors[inside].sum(axis=1)
        residual = np.abs(current - target).max(axis=1, initial=0.0)
    return inside, residual


def _lex_min_row(inside: np.ndarray, residual: np.ndarray) -> int:
    """Row with the smallest residual, ties to the lexicographically smallest indices."""
    return int(np.lexsort((*inside.T[::-1], residual))[0])


def _greedy_swap_best(
    vectors: np.ndarray, target: np.ndarray, k: int, params: SolverParams
) -> tuple[tuple[int, ...], float]:
    """Swap descents from the greedy build and ``params.restarts`` seeded random
    starts (the sorted first k of substream r's permutation, for r = 1, 2, ...),
    in consecutive chunks whose swap block stays under ``_DESCENT_BYTES``."""
    n, d = vectors.shape
    per_chunk = max(1, _DESCENT_BYTES // (8 * k * n * max(d, 1)))
    winners, residuals = [], []
    for first in range(0, params.restarts + 1, per_chunk):
        restarts = range(max(first, 1), min(first + per_chunk, params.restarts + 1))
        starts = _substream_permutation_heads(params.seed, restarts, n, k)
        if first == 0:
            starts = np.vstack([_greedy_build(vectors, target, k), starts])
        starts.sort(axis=1)
        inside, residual = _swap_descents(vectors, target, starts, params.max_iters)
        pick = _lex_min_row(inside, residual)
        winners.append(inside[pick])
        residuals.append(residual[pick])
    pick = _lex_min_row(np.array(winners), np.array(residuals))
    return tuple(winners[pick].tolist()), float(residuals[pick])


def search_subsets(vectors, target, params: SolverParams) -> SearchOutcome:
    """Search raw vectors for a subset hitting the box around ``target``.

    Returns the best subset found either way, so callers can report near
    misses; :attr:`SearchOutcome.exhaustive` says whether a miss is a proof.
    """
    vectors = np.atleast_2d(np.ascontiguousarray(np.asarray(vectors, dtype=np.float64)))
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if not (np.isfinite(target).all() and np.isfinite(vectors).all()):
        raise ParameterError("target and vectors must be finite")
    if vectors.ndim != 2 or vectors.shape[1] != target.size:
        raise ParameterError(
            f"vectors of dimension {vectors.shape[1]} vs target of dimension {target.size}"
        )
    n = vectors.shape[0]
    if params.mode is CardinalityMode.EXACT:
        if params.k > n:
            return SearchOutcome(None, None, exhaustive=True)  # no k-subsets exist
        cardinalities: list[int] = [params.k]
    else:
        cardinalities = list(range(0, min(params.k, n) + 1))

    if params.strategy is Strategy.EXHAUSTIVE:
        indices, residual = _enumerate_best(
            vectors, target, cardinalities, params.enumeration_budget
        )
        exhaustive = True
    elif params.strategy is Strategy.GREEDY_SWAP:
        best: tuple[tuple[int, ...], float] | None = None
        for k in cardinalities:
            if k == 0:
                cand = ((), float(np.abs(target).max(initial=0.0)))
            else:
                cand = _greedy_swap_best(vectors, target, k, params)
            if best is None or cand[1] < best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        assert best is not None
        indices, residual = best
        exhaustive = False
    else:
        raise ParameterError(f"strategy {params.strategy} is 1-D only")

    solution = _make_solution(vectors, indices, target)
    hit = solution if solution.residual_inf <= params.epsilon else None
    return SearchOutcome(hit, solution, exhaustive)


def solve_mrss(ensemble: NsnEnsemble, target, params: SolverParams) -> SubsetSolution | None:
    """Fixed-cardinality multidimensional solve over an NSN ensemble.

    ``None`` from the exhaustive strategy proves infeasibility within the
    cardinality family; ``None`` from greedy-swap only means "not found".
    """
    if params.mode is CardinalityMode.EXACT and params.k > ensemble.n:
        raise ParameterError(f"k={params.k} exceeds ensemble size n={ensemble.n}")
    return search_subsets(ensemble.vectors, target, params).solution


def subset_sum_number(
    ensemble: NsnEnsemble,
    target,
    k: int,
    epsilon: float,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact count of k-subsets whose sum lands in the closed box around target."""
    if not epsilon >= 0.0:
        raise ParameterError("epsilon must be nonnegative")
    if not 0 <= k <= ensemble.n:
        raise ParameterError(f"k must be in [0, {ensemble.n}]")
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    _check_family_budget(ensemble.n, [k], ensemble.d, enumeration_budget)
    vectors = ensemble.vectors
    layers = _colex_sum_layers(vectors, k)
    ranks = np.flatnonzero(_coordinate0_gaps(layers, k, target) <= epsilon)
    sums = _layer_columns(layers, vectors, k, ranks, _slice_starts(ensemble.n, k))
    return int((np.abs(sums - target[:, None]).max(axis=0, initial=0.0) <= epsilon).sum())


# ---------------------------------------------------------------------------
# Group boosting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupAttempt:
    group: int
    status: str  # hit / not-found / proven-infeasible / skipped
    residual_inf: float | None


@dataclass(frozen=True)
class BoostResult:
    target_index: int
    solution: SubsetSolution | None  # indices are global into the full ensemble
    attempts: tuple[GroupAttempt, ...]


def partition_boost(
    ensemble: NsnEnsemble,
    targets,
    params: SolverParams,
    group_size: int,
) -> list[BoostResult]:
    """Try each target against disjoint vector groups until one group hits.

    The ensemble is split into consecutive disjoint groups of ``group_size``
    (the last group absorbs any remainder). Groups are attempted in order and
    the first hit wins, so success probability can only improve with the
    number of groups. Per-group attempt records support success-rate
    estimation.
    """
    if group_size < params.k * params.k:
        raise ParameterError("group_size must be at least k^2")
    if ensemble.n < group_size:
        raise ParameterError("ensemble smaller than one group")
    starts = list(range(0, ensemble.n - group_size + 1, group_size))
    bounds = [(s, s + group_size) for s in starts]
    bounds[-1] = (bounds[-1][0], ensemble.n)  # remainder joins the last group

    results: list[BoostResult] = []
    for t_index, target in enumerate(targets):
        attempts: list[GroupAttempt] = []
        chosen: SubsetSolution | None = None
        for g, (lo, hi) in enumerate(bounds):
            if chosen is not None:
                attempts.append(GroupAttempt(g, "skipped", None))
                continue
            outcome = search_subsets(ensemble.vectors[lo:hi], target, params)
            residual = outcome.best.residual_inf if outcome.best is not None else None
            attempts.append(GroupAttempt(g, outcome.status, residual))
            if outcome.solution is not None:
                shifted = tuple(i + lo for i in outcome.solution.indices)
                chosen = SubsetSolution(
                    shifted, outcome.solution.achieved, outcome.solution.residual_inf
                )
        results.append(BoostResult(t_index, chosen, tuple(attempts)))
    return results


# ---------------------------------------------------------------------------
# Cover reports ("for all z" on a finite grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverReport:
    """Per-target hit flags for a grid; ``excess`` is the distance beyond the
    epsilon box (0.0 exactly when the target is covered)."""

    targets: np.ndarray
    covered: np.ndarray
    excess: np.ndarray
    epsilon: float

    @property
    def success(self) -> bool:
        return bool(self.covered.all())

    @property
    def min_excess(self) -> float:
        return float(self.excess.min()) if self.excess.size else 0.0

    @property
    def max_excess(self) -> float:
        return float(self.excess.max()) if self.excess.size else 0.0


def _coalesce(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    cummax = np.maximum.accumulate(hi)
    fresh = np.empty(lo.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = lo[1:] > cummax[:-1]
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], lo.size) - 1
    return lo[starts], cummax[ends]


def _fold_intervals(lo: np.ndarray, hi: np.ndarray, xs) -> tuple[np.ndarray, np.ndarray]:
    """Fold the values ``xs`` into the interval union ``(lo, hi)``, in order."""
    for x in xs:
        lo, hi = _coalesce(np.concatenate([lo, lo + x]), np.concatenate([hi, hi + x]))
    return lo, hi


def inflated_sum_intervals(xs, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint sorted closed intervals whose union is exactly
    ``{ y : some subset sum s of xs has |s - y| <= epsilon }``.

    Folding in one value doubles the family (keep or add the value) and the
    merge of overlapping intervals is exact, so this answers cover queries for
    any n without enumerating 2^n sums.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    if not epsilon >= 0.0:
        raise ParameterError("epsilon must be nonnegative")
    return _fold_intervals(np.array([-epsilon]), np.array([epsilon]), xs)


def _smallest_covering_prefix(xs: np.ndarray, epsilon: float, grid: np.ndarray, sizes):
    """The first n in ``sizes`` (ascending) whose prefix ``xs[:n]`` covers every
    grid point, or None.

    The union is folded once: the union of ``xs[:n]`` is where folding the
    next values starts, and folding stops at the first covered n. Each union
    is the very one :func:`inflated_sum_intervals` returns for that prefix, and
    a fold never loses a point (U is inside the union of U and U + x), so every
    larger prefix covers the grid as well.
    """
    lo, hi = np.array([-epsilon]), np.array([epsilon])
    done = 0
    for n in sizes:
        lo, hi = _fold_intervals(lo, hi, xs[done:n])
        done = n
        if (_interval_excess(lo, hi, grid) == 0.0).all():
            return n
    return None


def _interval_excess(lo: np.ndarray, hi: np.ndarray, targets: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(lo, targets, side="right") - 1
    inside = (idx >= 0) & (targets <= hi[np.clip(idx, 0, hi.size - 1)])
    gap_right = np.where(idx >= 0, targets - hi[np.clip(idx, 0, hi.size - 1)], np.inf)
    nxt = np.clip(idx + 1, 0, lo.size - 1)
    gap_left = np.where(idx + 1 < lo.size, lo[nxt] - targets, np.inf)
    return np.where(inside, 0.0, np.minimum(gap_right, gap_left))


def cover_targets(source, targets, epsilon: float) -> CoverReport:
    """Evaluate the universal quantifier on a finite target grid: the exact
    any-cardinality cover of every grid point by the subset sums of the 1-D
    values ``source``, via the interval union."""
    try:
        xs = np.asarray(source, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cover source must be an array of values: {exc}") from None
    grid = np.asarray(targets, dtype=np.float64).ravel()
    lo, hi = inflated_sum_intervals(xs, epsilon)
    excess = _interval_excess(lo, hi, grid)
    return CoverReport(grid, excess == 0.0, excess, epsilon)
