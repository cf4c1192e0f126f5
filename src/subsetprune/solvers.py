"""Approximate subset-sum solvers and counters over raw vectors.

A target ``z`` is *hit* by an index set ``S`` when the achieved sum lands in
the closed infinity-norm box ``[z - eps, z + eps]``; boundary hits count.
Every solver takes raw ``(n, d)`` vectors (1-D values for the 1-D solvers),
and one validator rejects non-finite values and a target of another dimension
with :class:`ParameterError`. Among equal-residual candidates the
lexicographically smallest index set wins, and greedy restarts draw from an
explicit :class:`SeedSpec`.

Entry points
------------
:func:`search_subsets`
    The d-dimensional search over subsets of exactly (or at most) ``k``
    vectors; :func:`partition_boost` runs it on disjoint groups.
:func:`solve_rssp_1d`
    The 1-D any-cardinality solve, exact by meet-in-the-middle
    (sort-and-search, Horowitz & Sahni 1974); the enumeration budget caps
    each half-table at ``2^ceil(n/2)`` sums.
:func:`subset_sum_number`
    The exact count of k-subsets inside the box.
:func:`_smallest_covering_prefix`
    The 1-D cover question over a target grid, by interval union; the engine
    of the RSSP phase scan.

Strategies of :func:`search_subsets`
------------------------------------
``EXHAUSTIVE``
    Enumerates every admissible subset (budget-capped). A miss is a proof
    that no admissible subset exists.
``GREEDY_SWAP``
    Fixed-cardinality d-dimensional local search: greedy build toward the
    target, then best-improvement single swaps, with seeded random restarts.
    A miss proves nothing and is reported as "not-found", never as
    "proven-infeasible".

    One engine, :func:`_greedy_swap_best`, solves any number P of problems
    of the same shape at once; :func:`search_subsets` calls it with P = 1 and
    the greedy MRSS scan with a batch of trials. Each problem's greedy start
    and restarts, tagged with the problem, descend together with every other
    problem's: each step scores all swaps of all starts in the batch as one
    coordinate-major ``(d, k, n, starts)`` block of ``current - leaving +
    entering``, a start's own entering columns at +inf, and the starts whose
    best swap improves take it. Per start this is the one-start loop exactly:
    the same elementwise values, ``current`` re-summed over the sorted
    indices in ascending index order (as the reported witness is), the first
    argmin in (leaving position, entering index) order and at most
    ``max_iters`` swaps; per problem the smallest residual wins, ties to the
    lexicographically smallest indices. The batch's block stays under one
    byte cap, ``_DESCENT_BYTES``: a start that stops leaves the batch and a
    waiting one enters. Restart r starts from the sorted first k of
    ``_generator(seed.substream(r)).permutation(n)``, drawn by rewinding one
    Philox to each substream key rather than building one per restart.

The exhaustive engine is one private subset index over a pool,
``_SubsetIndex``: :func:`search_subsets` and :func:`subset_sum_number` build
one per call, and a caller with many targets passes its own (pruning keeps
one per (channel, sign) of the last pruned layer). For a query of the
subsets of up to K vectors it stores every sum below the top layer: the
colex layers of sizes 0..K-1, built coordinate-major as one stack, each sum
a sum of the layer below plus one vector, added in ascending index order. They are kept in block
order: block b of layer L holds the L-subsets whose largest index is b - 1
(a colex run), sorted by coordinate 0, with sort keys ``s_0 + b * spacing``
and each sum's place in the colex stack. That is 8 d + 12 bytes per sum
below the top layer; the top layer, most of the family, is never built.

In colex order the j-subsets whose largest index is ``last`` (slice
``last``) are exactly the (j-1)-subsets in blocks b <= last plus
``vectors[last]``. So for a target z and a bound U, the j-subsets with
``|s_0 - z_0| <= U`` are, block by block, the run of coordinate 0 within
``z_0 - v_0 +- U`` (v the vector ``last``), and two searchsorted calls over
every (slice, block) pair find all the runs at once. Each sum found is
completed by the very add the build would make, prefix sum plus
``vectors[last]``, and kept when its full L-inf residual is at most U.

Why every bit is kept: the windows only ever admit extra sums, never lose
one. ``fl(p_0 + v_0)`` and then ``fl(. - z_0)`` are nondecreasing in
``p_0``, so the sums that pass the exact test ``|(p_0 + v_0) - z_0| <= U``
have ``p_0`` in one interval around ``z_0 - v_0``. Its ends, computed in
floating point, may be off by a few ulps of ``|z_0| + U + |p_0| + |v_0|``,
so each window is widened by 2^-50 of that bound, more than the rounding
error of those few operations, plus a subnormal floor. The keys add
``b * spacing`` to ``s_0`` and the lookups add it to the window's ends,
clipped first to the range of ``s_0`` so a lookup stays in its block;
``x -> fl(x + c)`` is nondecreasing too, so a key window holds every sum of
its value window. Everything admitted is then re-tested exactly, its
residual computed as the build and the witness compute it. So the minimum,
every tie at it and every count are those of a scan of the whole family,
and the tied colex ranks are decoded in one vectorised pass over a cached
``C(last, size)`` table, the lexicographically smallest winning.

The bound is ``eps`` for the count. The search takes the layers in
ascending cardinality and bounds each by the best residual so far or,
before there is one, by its pivots': per slice, the subset of its largest
block nearest ``z_0 - v_0`` in coordinate 0, clipped into the block, so
always a real subset. An L-inf residual is never below its coordinate-0
term, so the minimum and every tie at it survive the bound.

The 1-D cover question ("is every grid point hit by some subset sum?") is
answered exactly for any n by :func:`_smallest_covering_prefix`. It maintains
the union of ``[s - eps, s + eps]`` over all subset sums s as a sorted list of
disjoint closed intervals: start from the empty subset's interval and fold in
one value at a time (union of the shifted and unshifted families). Interval
merging is exact, so membership agrees with full enumeration up to the usual
one-ulp reassociation caveat at exact box boundaries. A fold never drops a
point, so cover is monotone in the prefix length: the fold runs once across a
list of prefix sizes and stops at the first that covers the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BudgetError, ParameterError
from .sampling import SeedSpec, _substream_permutation_heads

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "CardinalityMode",
    "Strategy",
    "SolverParams",
    "SubsetSolution",
    "SearchOutcome",
    "dimension_constant",
    "solve_rssp_1d",
    "search_subsets",
    "subset_sum_number",
    "partition_boost",
]

DEFAULT_ENUMERATION_BUDGET = 5_000_000


class CardinalityMode(Enum):
    EXACT = "exact"
    AT_MOST = "at_most"


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
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


def _validated(vectors, target) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous float64 ``(n, d)`` vectors and a ``(d,)`` target, all finite."""
    vectors = np.atleast_2d(np.ascontiguousarray(np.asarray(vectors, dtype=np.float64)))
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if not (np.isfinite(target).all() and np.isfinite(vectors).all()):
        raise ParameterError("target and vectors must be finite")
    if vectors.ndim != 2 or target.ndim != 1 or vectors.shape[1] != target.size:
        raise ParameterError(f"vectors of shape {vectors.shape} vs target of shape {target.shape}")
    return vectors, target


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


def _lex_min_mask(masks: np.ndarray) -> int:
    """The set among ``masks`` (bit i set when index i is in) whose ascending
    index tuple is lexicographically smallest: a set with no index left wins,
    else the smallest next index, one index at a time."""
    chosen = 0
    while (masks != 0).all():
        low = masks & -masks
        first = low.min()
        masks = masks[low == first] ^ first
        chosen |= int(first)
    return chosen


def solve_rssp_1d(
    xs,
    target: float,
    epsilon: float,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SubsetSolution | None:
    """Any-cardinality 1-D subset sum within ``epsilon`` of ``target``, by
    meet-in-the-middle over the halves ``xs[:ceil(n/2)]`` and the rest.

    Exact: ``None`` means no subset (including the empty one) lands in the
    closed interval. Each left sum meets the right sums nearest its need; the
    witness is the lexicographically smallest set over every left sum at the
    best residual and the whole run of right sums equal to its nearest one.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ParameterError("xs must be a 1-D array")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    vectors, tvec = _validated(xs[:, None], target)
    target = float(tvec[0])
    n_left = (xs.size + 1) // 2
    if 2**n_left > enumeration_budget:
        raise BudgetError(f"meet-in-the-middle half-table 2^{n_left} exceeds the budget")

    left = _all_subset_sums(xs[:n_left])
    right = _all_subset_sums(xs[n_left:])
    order = np.argsort(right, kind="stable")
    right_sorted = right[order]
    pos = np.searchsorted(right_sorted, target - left)
    near = np.clip(np.stack([pos - 1, pos]), 0, right.size - 1)  # below, at or above
    near_sums = right_sorted[near]
    residuals = np.abs(left + near_sums - target)
    tied = residuals == residuals.min()
    # A left set whose tied right run holds the empty set (sum 0.0) ends
    # there; any other continues past every left index, as bit n_left says.
    lefts = np.flatnonzero(tied.any(axis=0))
    ends = (tied[:, lefts] & (near_sums[:, lefts] == 0.0)).any(axis=0)
    pick = _lex_min_mask(np.where(ends, lefts, lefts | (1 << n_left)))
    left_mask, right_mask = pick & ((1 << n_left) - 1), 0
    if pick >> n_left:
        runs = [
            order[right_sorted.searchsorted(v, "left") : right_sorted.searchsorted(v, "right")]
            for v in near_sums[tied[:, left_mask], left_mask]
        ]
        right_mask = _lex_min_mask(np.concatenate(runs))
    indices = _mask_indices(left_mask) + _mask_indices(right_mask, n_left)
    solution = _make_solution(vectors, indices, tvec)
    return solution if solution.residual_inf <= epsilon else None


# ---------------------------------------------------------------------------
# Fixed-cardinality d-dimensional search
# ---------------------------------------------------------------------------

def _family_size(n: int, cardinalities) -> int:
    return sum(math.comb(n, k) for k in cardinalities)


@functools.lru_cache(maxsize=64)
def _colex_table(m: int, k_max: int) -> np.ndarray:
    """``C(last, size)`` at ``[size, last]`` for size 0..k_max and last 0..m-1.

    Row ``size`` is nondecreasing, so a searchsorted on it finds a subset's
    largest index from its colex rank. Cached (read-only) because scans
    re-solve the same few shapes many times.
    """
    table = np.array(
        [[math.comb(last, size) for last in range(m)] for size in range(k_max + 1)],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _colex_rows(table: np.ndarray, ranks: np.ndarray, j: int) -> np.ndarray:
    """Ascending indices of the j-subsets at colex ``ranks``, one row each: the
    largest index is the last ``last`` with ``C(last, j) <= rank``, and the
    rest is the (j-1)-subset at rank ``rank - C(last, j)``."""
    rows = np.empty((ranks.size, j), dtype=np.int64)
    remaining = ranks.astype(np.int64)
    for size in range(j, 0, -1):
        rows[:, size - 1] = table[size].searchsorted(remaining, side="right") - 1
        remaining = remaining - table[size].take(rows[:, size - 1])
    return rows


@functools.lru_cache(maxsize=64)
def _block_sizes(n: int, k_max: int) -> np.ndarray:
    """How many sums each block of the colex stack of n vectors holds.

    The stack holds the colex layers of sizes 0..k_max-1 one after another;
    its block ``L (n + 1) + b`` holds the L-subsets whose largest index is
    b - 1 (b = 0: the empty set), C(b-1, L-1) of them, a colex run. Cached
    (read-only) like :func:`_colex_table`.
    """
    sizes = [1] + [0] * n  # layer 0: the empty set, in block 0
    for size in range(1, k_max):
        sizes += [0] + [math.comb(b - 1, size - 1) for b in range(1, n + 1)]
    sizes = np.array(sizes[: k_max * (n + 1)], dtype=np.int64)
    sizes.flags.writeable = False
    return sizes


@functools.lru_cache(maxsize=64)
def _slices(n: int, j: int) -> tuple[np.ndarray, ...]:
    """The slices of layer j of n vectors (j >= 1) in the colex stack's blocks
    (:func:`_block_sizes`).

    Slice ``last`` is layer j-1's nonempty blocks b <= last plus
    ``vectors[last]``: ``counts`` consecutive blocks up to ``tops``, the
    largest, which ends just before ``ends`` in the stack. Block ``p`` of a
    query's flattened run of all of them is ``p + shifts[slice]``. Cached
    (read-only) like :func:`_colex_table`.
    """
    size, first = j - 1, (j - 1) * (n + 1)
    lasts = np.arange(size, n)
    tops = first + (lasts if size else np.zeros_like(lasts))
    counts = tops - (first + size) + 1
    shifts = first + size - (counts.cumsum() - counts)
    ends = _family_size(n, range(size)) + np.array([math.comb(last, size) for last in lasts])
    for array in (lasts, tops, counts, shifts, ends):
        array.flags.writeable = False
    return lasts, tops, counts, shifts, ends


class _SubsetIndex:
    """The subset sums of one pool, built on first use and queried for any
    number of targets (module docstring).

    A query of cardinality up to K needs the colex layers below K: they are
    built as one colex stack, rebuilt when a larger K is asked for, and kept
    in block order (:func:`_block_sizes`), each block sorted by coordinate
    0: ``rows`` holds the sums, ``keys`` the sort keys ``s_0 + b * spacing``
    of block b and ``order`` each position's place in the colex stack.
    ``d = 0`` is indexed as one zero coordinate, which leaves every residual
    0.0.
    """

    def __init__(self, vectors: np.ndarray):
        n, d = vectors.shape
        self.columns = np.ascontiguousarray(vectors.T) if d else np.zeros((1, n))
        self.k_max = -1  # nothing built yet

    def _build(self, k_max: int) -> None:
        """Index the layers below ``k_max``, unless a larger K's are there."""
        if k_max <= self.k_max:
            return
        self.k_max = k_max
        stack = self._colex_stack()
        # |s_0| < radius, so block b's keys lie within b * spacing +- radius
        self.radius = float(np.abs(stack[0]).max(initial=0.0)) + 1.0
        self.spacing = 4.0 * self.radius
        sizes = _block_sizes(self.columns.shape[1], k_max)
        keys = (np.arange(sizes.size) * self.spacing).repeat(sizes)
        keys += stack[0]
        places = np.int32 if stack.shape[1] < 2**31 else np.int64  # 4 bytes in practice
        self.order = keys.argsort().astype(places)
        self.keys = keys.take(self.order)
        for row in stack:  # rearranged in place, a row at a time
            row[:] = row.take(self.order)
        self.rows = stack
        # |p_0| + |v_0| <= k_max * max |v_0|, up to a relative k_max ulps
        self.magnitude = k_max * float(np.abs(self.columns[0]).max(initial=0.0))

    def _colex_stack(self) -> np.ndarray:
        """Layers 0..k_max-1 side by side, column r of a layer summing its r-th
        subset in colex order. The subsets with largest index ``last`` are the
        first C(last, size-1) columns of the layer below plus
        ``vectors[last]``, so each layer is filled slice by slice, written
        straight into place; within a subset the adds go in ascending index
        order. Layer 1 (0.0 plus each vector) takes one add, and layer 2 is
        the lower triangle of one broadcast add of layer 1 and the vectors,
        row by row its slices in order."""
        d, n = self.columns.shape
        addends = self.columns.T[:, :, None]  # addends[last]: vectors[last] as a column
        stack = np.zeros((d, _family_size(n, range(self.k_max))))
        if self.k_max > 1:
            stack[:, 1 : n + 1] += self.columns
        if self.k_max > 2:  # row last, column i: layer 1's sum i plus vectors[last]
            pairs = stack[:, None, 1 : n + 1] + self.columns[:, :, None]
            ids = np.arange(n)
            stack[:, n + 1 : n + 1 + math.comb(n, 2)] = pairs[:, ids[:, None] > ids]
        below, start = n + 1, n + 1 + math.comb(n, 2)
        for size in range(3, self.k_max):
            prev = stack[:, below:start]
            for last in range(size - 1, n):
                width = math.comb(last, size - 1)
                np.add(prev[:, :width], addends[last], out=stack[:, start : start + width])
                start += width
            below += prev.shape[1]
        return stack

    def _needles(self, values: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Sort keys of coordinate-0 ``values`` in ``blocks``, clipped into the
        block. ``x -> fl(x + b * spacing)`` is nondecreasing, so a key window
        holds every sum whose coordinate 0 lies in the value window."""
        keys = np.minimum(values, self.radius)
        np.maximum(keys, -self.radius, out=keys)
        keys += blocks * self.spacing
        return keys

    def _residuals(self, positions: np.ndarray, lasts: np.ndarray, target) -> np.ndarray:
        """L-inf residuals of the subsets made of the one at ``positions`` plus
        ``vectors[lasts]``: each sum is the very add the colex build of the
        layer above makes, so it is bit-identical to that layer built."""
        sums = self.rows.take(positions, axis=1)
        for row, column in zip(sums, self.columns):  # a row at a time: no second (d, m) block
            row += column.take(lasts)
        sums -= target[:, None]
        return np.abs(sums, out=sums).max(axis=0)

    def _pivot_bound(self, j: int, target: np.ndarray) -> float:
        """The smallest residual of a few real j-subsets near the target in
        coordinate 0: per slice, the first subset of its pivot block at or
        above ``z_0 - v_0``, or that block's last subset."""
        lasts, blocks, _, _, ends = _slices(self.columns.shape[1], j)
        needles = self._needles(target[0] - self.columns[0].take(lasts), blocks)
        positions = np.minimum(self.keys.searchsorted(needles), ends - 1)
        return float(self._residuals(positions, lasts, target).min())

    def _window(self, j: int, target: np.ndarray, bound: float):
        """The j-subsets whose coordinate-0 gap may be at most ``bound``, as
        (position in the layer below, last, residual): every one with residual
        at most ``bound`` and a few more, which the callers' exact residual
        tests drop. Each window pair takes its block's run of coordinate 0
        within ``z_0 - v_0 +- bound``, widened by more than the rounding error
        of computing its ends."""
        lasts, _, counts, shifts, _ = _slices(self.columns.shape[1], j)
        lasts = lasts.repeat(counts)  # one (last, block) pair per window
        blocks = np.arange(lasts.size) + shifts.repeat(counts)
        reach = bound + (2.0**-50 * (abs(target[0]) + bound + self.magnitude) + 2.0**-1070)
        below, above = self._needles((target[0] - self.columns[0].take(lasts))
                                     + np.array([[-reach], [reach]]), blocks)
        lo = self.keys.searchsorted(below, side="left")
        sizes = self.keys.searchsorted(above, side="right") - lo
        positions = (lo - (sizes.cumsum() - sizes)).repeat(sizes)
        positions += np.arange(positions.size)
        lasts = lasts.repeat(sizes)
        return positions, lasts, self._residuals(positions, lasts, target)

    def best(self, target: np.ndarray, cardinalities) -> tuple[tuple[int, ...], float]:
        """The subset of any cardinality in ``cardinalities`` (ascending) with
        the smallest residual, ties to the lexicographically smallest indices.

        A layer's windows are bounded by the best residual so far, or by its
        pivots' before there is one. Only the layers tied at the final best
        are decoded.
        """
        target = target if target.size else np.zeros(1)
        n = self.columns.shape[1]
        self._build(max(cardinalities))
        best, tied = math.inf, []  # tied: (j, positions, lasts) at the best residual
        if 0 in cardinalities:
            best, tied = float(np.abs(target).max()), [(0, None, None)]
        for j in cardinalities:
            if j == 0:
                continue
            bound = best if best < math.inf else self._pivot_bound(j, target)
            positions, lasts, residuals = self._window(j, target, bound)
            res = float(residuals.min(initial=math.inf))
            if res > best or res == math.inf:
                continue
            ties = (residuals == res).nonzero()[0]
            layer = (j, positions.take(ties), lasts.take(ties))
            best, tied = res, ([*tied, layer] if res == best else [layer])
        assert tied
        if tied[0][0] == 0:  # the empty set precedes every other tied set
            return (), best
        table = _colex_table(n, self.k_max)
        winners = []
        for j, positions, lasts in tied:
            # where slice ``last`` begins plus the prefix's colex rank in layer j-1
            ranks = table[j].take(lasts) + self.order.take(positions) - _family_size(n, range(j - 1))
            rows = _colex_rows(table, ranks, j)
            winners.append(tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist()))
        return min(winners), best

    def count(self, target: np.ndarray, k: int, epsilon: float) -> int:
        """The number of k-subsets with residual at most ``epsilon``."""
        target = target if target.size else np.zeros(1)
        if k == 0:
            return int(np.abs(target).max() <= epsilon)
        self._build(k)
        return int((self._window(k, target, epsilon)[2] <= epsilon).sum())


def _check_family_budget(n: int, cardinalities, d: int, budget: int) -> None:
    family = _family_size(n, cardinalities)
    if family > budget:
        k_max = max(cardinalities)
        sizes = f"{k_max}-subsets" if len(cardinalities) == 1 else f"subsets of size <= {k_max}"
        # what _SubsetIndex keeps: the sums of every layer below k_max, their
        # sort keys and their colex places; nothing of the top layer
        needed = (8 * max(d, 1) + 12) * _family_size(n, range(k_max))
        raise BudgetError(
            f"{family} {sizes} of {n} vectors exceed the enumeration budget {budget} "
            f"(building their {d}-dim sums would allocate {needed} bytes)"
        )


def _greedy_builds(vectors: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Each problem's greedy start, indices ascending: k times over, the vector
    not yet taken whose addition to the running sum (in pick order) leaves the
    smallest residual, the first on ties."""
    problems, _, d = vectors.shape
    rows = np.arange(problems)[:, None]
    chosen = np.empty((problems, k), dtype=np.intp)
    current = np.zeros((problems, 1, d))
    for step in range(k):
        residuals = np.abs((current + vectors) - targets[:, None]).max(axis=2, initial=0.0)
        residuals[rows, chosen[:, :step]] = np.inf
        picks = residuals.argmin(axis=1)[:, None]
        chosen[:, step : step + 1] = picks
        current = current + vectors[rows, picks]
    chosen.sort(axis=1)
    return chosen


_DESCENT_BYTES = 1 << 18  # largest (d, k, n, starts) swap block a descent batch builds


def _swap_descents(
    vectors: np.ndarray, targets: np.ndarray, owners: np.ndarray, starts: np.ndarray,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement single-swap descent from every row of ``starts``, indices
    ascending into the ``(n, d)`` vectors of problem ``owners[row]``; returns
    the rows reached and their residuals.

    The starts descend together in one batch whose ``(d, k, n, starts)`` swap
    block stays under ``_DESCENT_BYTES``, entering in row order. A start
    stops when its best swap does not improve or it has made ``max_iters``
    swaps; a stopped start keeps its set, so it scores the same swaps again
    and stays stopped. The stopped starts leave the batch when starts wait to
    enter, when all have stopped, or when they are an eighth of a full batch.
    A start's own entering columns hold +inf, so its own swaps score +inf and
    the argmin in (leaving position, entering index) order is the first among
    its outside indices. ``current`` is summed in ascending index order, so
    each residual is the one the witness reports.
    """
    problems, n, d = vectors.shape
    k = starts.shape[1]
    columns = vectors.transpose(2, 1, 0)  # columns[:, i, p]: vector i of problem p
    flat = np.ascontiguousarray(vectors.transpose(2, 0, 1)).reshape(d, problems * n)
    total = len(starts)
    width = max(1, _DESCENT_BYTES // (8 * k * n * max(d, 1)))
    queued = min(width, total)
    block, scored = np.empty(d * k * n * queued), np.empty(k * n * queued)
    reached, residuals = np.empty_like(starts), np.empty(total)

    def entering_batch(first: int, count: int, step: int) -> list[np.ndarray]:
        """Batch columns of starts first, ..., first + count - 1, the start axis
        last: ids, ``(k, count)`` indices, offsets into ``flat``, targets,
        ``(d, n, count)`` entering columns and the step each entered at."""
        mine = owners[first : first + count]
        inside = starts[first : first + count].T.copy()
        entering_columns = columns.take(mine, axis=2)
        entering_columns[:, inside, np.arange(count)] = np.inf
        return [np.arange(first, first + count), inside, mine * n, targets.take(mine, axis=0).T,
                entering_columns, np.full(count, step)]

    batch, rows, step = entering_batch(0, queued, 0), np.arange(queued), 0
    while True:
        ids, inside, offsets, goals, entering_columns, entered = batch
        members = flat[:, inside + offsets]
        current = np.add.accumulate(members, axis=1)[:, -1]
        residual = np.maximum.reduce(np.abs(current - goals), axis=0, initial=0.0)
        trial = block[: d * k * n * rows.size].reshape(d, k, n, rows.size)
        np.add((current[:, None] - members)[:, :, None], entering_columns[:, None], out=trial)
        np.subtract(trial, goals[:, None, None], out=trial)
        np.abs(trial, out=trial)
        scores = scored[: k * n * rows.size].reshape(k, n, rows.size)
        scores = np.maximum.reduce(trial, axis=0, initial=0.0, out=scores).reshape(-1, rows.size)
        swaps = scores.argmin(axis=0)
        improving = scores[swaps, rows] < residual
        if step >= max_iters:
            improving &= entered > step - max_iters
        moving = np.count_nonzero(improving)
        stopped = rows.size - moving
        if stopped and (stopped == rows.size or queued < total or 8 * stopped >= width):
            reached[ids], residuals[ids] = inside.T, residual  # final for the stopped
            if not moving and queued == total:
                return reached, residuals
            keep = improving.nonzero()[0]
            batch = [part.take(keep, axis=-1) for part in batch]
            inside, offsets, entering_columns = batch[1], batch[2], batch[4]
            swaps, rows = swaps.take(keep), rows[:moving]
        leaving, entering = np.divmod(swaps, n)
        left = inside[leaving, rows]
        if moving < rows.size:  # a stopped start still here swaps an index for itself
            entering = np.where(improving, entering, left)
        inside[leaving, rows] = entering
        inside.sort(axis=0)
        entering_columns[:, left, rows] = flat[:, left + offsets]
        entering_columns[:, entering, rows] = np.inf
        step += 1
        if rows.size < width and queued < total:
            count = min(width - rows.size, total - queued)
            joining = entering_batch(queued, count, step)
            batch = [np.concatenate(pair, axis=-1) for pair in zip(batch, joining)]
            queued += count
            rows = np.arange(rows.size + count)


def _greedy_swap_best(
    vectors: np.ndarray, targets: np.ndarray, k: int, seeds, params: SolverParams
) -> tuple[np.ndarray, np.ndarray]:
    """Each of P problems' best k-subset found by swap descents from its greedy
    build and ``params.restarts`` seeded random starts: the sorted first k of
    substream r of ``seeds[p]``'s permutation, for r = 1, 2, ... ``vectors``
    is ``(P, n, d)`` and ``targets`` ``(P, d)``; returns the ``(P, k)``
    indices and the ``(P,)`` residuals, per problem the smallest residual with
    ties to the lexicographically smallest indices."""
    problems, n, _ = vectors.shape
    per = params.restarts + 1
    starts = np.empty((problems, per, k), dtype=np.intp)
    starts[:, 0] = _greedy_builds(vectors, targets, k)
    heads = _substream_permutation_heads(seeds, range(1, per), n, k)
    starts[:, 1:] = heads.reshape(problems, per - 1, k)
    starts = starts.reshape(problems * per, k)
    starts.sort(axis=1)
    owners = np.arange(problems).repeat(per)
    reached, residuals = _swap_descents(vectors, targets, owners, starts, params.max_iters)
    best = np.lexsort((*reached.T[::-1], residuals, owners))[::per]  # each problem's first
    return reached.take(best, axis=0), residuals.take(best)


def search_subsets(vectors, target, params: SolverParams, index=None) -> SearchOutcome:
    """Search raw vectors for a subset hitting the box around ``target``.

    Returns the best subset found either way, so callers can report near
    misses; :attr:`SearchOutcome.exhaustive` says whether a miss is a proof.
    ``index``, a :class:`_SubsetIndex` over these same vectors, lets a caller
    that solves many targets against one pool keep the exhaustive sums; by
    default each call indexes the pool afresh.
    """
    vectors, target = _validated(vectors, target)
    n, d = vectors.shape
    if params.mode is CardinalityMode.EXACT:
        if params.k > n:
            return SearchOutcome(None, None, exhaustive=True)  # no k-subsets exist
        cardinalities: list[int] = [params.k]
    else:
        cardinalities = list(range(0, min(params.k, n) + 1))

    if params.strategy is Strategy.EXHAUSTIVE:
        _check_family_budget(n, cardinalities, d, params.enumeration_budget)
        index = _SubsetIndex(vectors) if index is None else index
        indices, residual = index.best(target, cardinalities)
        exhaustive = True
    else:
        best: tuple[tuple[int, ...], float] | None = None
        for k in cardinalities:
            if k == 0:
                cand = ((), float(np.abs(target).max(initial=0.0)))
            else:
                winners, residuals = _greedy_swap_best(vectors[None], target[None], k,
                                                       [params.seed], params)
                cand = (tuple(winners[0].tolist()), float(residuals[0]))
            if best is None or cand[1] < best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        assert best is not None
        indices, residual = best
        exhaustive = False

    solution = _make_solution(vectors, indices, target)
    hit = solution if solution.residual_inf <= params.epsilon else None
    return SearchOutcome(hit, solution, exhaustive)


def subset_sum_number(
    vectors,
    target,
    k: int,
    epsilon: float,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact count of k-subsets whose sum lands in the closed box around target."""
    vectors, target = _validated(vectors, target)
    n, d = vectors.shape
    if not epsilon >= 0.0:
        raise ParameterError("epsilon must be nonnegative")
    if not 0 <= k <= n:
        raise ParameterError(f"k must be in [0, {n}]")
    _check_family_budget(n, [k], d, enumeration_budget)
    return _SubsetIndex(vectors).count(target, k, epsilon)


def partition_boost(
    vectors, target, params: SolverParams, group_size: int
) -> SubsetSolution | None:
    """Search consecutive disjoint groups of ``group_size`` vectors (the last
    group absorbs any remainder) in order; the first hit wins, with indices
    into the whole pool, so success can only improve with the number of
    groups. ``None`` when no group hits.
    """
    vectors, target = _validated(vectors, target)
    n = vectors.shape[0]
    if group_size < params.k * params.k:
        raise ParameterError("group_size must be at least k^2")
    if n < group_size:
        raise ParameterError("fewer vectors than one group")
    starts = list(range(0, n - group_size + 1, group_size))
    for lo, hi in zip(starts, [*starts[1:], n]):
        hit = search_subsets(vectors[lo:hi], target, params).solution
        if hit is not None:
            shifted = tuple(i + lo for i in hit.indices)
            return SubsetSolution(shifted, hit.achieved, hit.residual_inf)
    return None


# ---------------------------------------------------------------------------
# 1-D cover ("for all z" on a finite grid)
# ---------------------------------------------------------------------------


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


def _smallest_covering_prefix(xs: np.ndarray, epsilon: float, grid: np.ndarray, sizes):
    """The first n in ``sizes`` (ascending) whose prefix ``xs[:n]`` covers every
    grid point, or None.

    The union is folded once: the union of ``xs[:n]`` is where folding the
    next values starts, and folding stops at the first covered n. A fold
    never loses a point (U is inside the union of U and U + x), so every
    larger prefix covers the grid as well.
    """
    lo, hi = np.array([-epsilon]), np.array([epsilon])
    done = 0
    for n in sizes:
        lo, hi = _fold_intervals(lo, hi, xs[done:n])
        done = n
        if _covered(lo, hi, grid).all():
            return n
    return None


def _covered(lo: np.ndarray, hi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Whether each grid point lies in the union of the disjoint sorted closed
    intervals ``[lo, hi]``: in the last interval starting at or before it."""
    idx = np.searchsorted(lo, grid, side="right") - 1
    return (idx >= 0) & (grid <= hi[np.clip(idx, 0, hi.size - 1)])
