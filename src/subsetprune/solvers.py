"""Approximate subset-sum solvers and counters over raw vectors.

A target ``z`` is *hit* by an index set ``S`` when the achieved sum lands in
the closed infinity-norm box ``[z - eps, z + eps]``; boundary hits count.
The search and the count take raw ``(n, d)`` vectors, and one validator
rejects non-finite values and a target of another dimension with
:class:`ParameterError`. Among equal-residual candidates the
lexicographically smallest index set wins, and greedy restarts draw from an
explicit :class:`SeedSpec`.

Entry points
------------
:func:`search_subsets`
    The d-dimensional search over subsets of exactly (or at most) ``k``
    vectors.
:func:`subset_sum_number`
    The exact count of k-subsets inside the box.
:func:`_first_covering_sizes`
    The one 1-D engine: the any-cardinality cover question over a target
    grid, by interval union, for a block of trials at once; the engine of
    the RSSP phase scan.

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

    Two engines serve every greedy solve: :func:`_greedy_builds` builds
    each of P problems' greedy start at once, and :func:`_swap_descents`
    descends any number of starts, each tagged with its problem, together.
    :func:`_greedy_swap_best` runs them over each problem's build and
    restarts and keeps the best, which :func:`search_subsets` calls with
    P = 1. The greedy MRSS scan asks only whether a trial hits, so it runs
    them in two phases (``harness._solve_greedy_batch``): every trial
    descends from its build alone, and only the trials whose builds missed
    descend from their restarts; a problem's best residual is within eps
    exactly when one of its starts' is. The starts of a batch descend
    together: each step scores all swaps of all starts in the batch as one
    coordinate-major ``(d, k, n, starts)`` block of ``current - leaving +
    entering``, a start's own entering columns at +inf, and the starts whose
    best swap improves take it. Per start this is the one-start loop exactly:
    the same elementwise values, ``current`` re-summed over the sorted
    indices in ascending index order (as the reported witness is), the first
    argmin in (leaving position, entering index) order and at most
    ``max_iters`` swaps, whichever starts share the batch; per problem the
    smallest residual wins, ties to the lexicographically smallest indices.
    The batch's block stays under one byte cap, ``_DESCENT_BYTES``: a start
    that stops leaves the batch and a waiting one enters. Restart r starts
    from the sorted first k of the ``permutation(n)`` that stream
    ``seed.substream(r)`` draws first, which the caller draws
    (:func:`_restart_heads`): numpy's shuffle replayed from the substream's
    raw Philox words, split into 32-bit halves low half first, each step's
    index drawn by masked rejection and every n from the start of the stream
    (``sampling._substream_permutation_heads``). A scan draws a batch's
    heads once, only for the trials whose builds missed and only at the
    group lengths of the n where they missed, mixing each such key once and
    reading its stream once for all of its lengths.

The exhaustive engine is one private subset index, ``_SubsetIndex``, over P
pools of one shape: each pool's blocks are blocks of one index.
:func:`search_subsets` and :func:`subset_sum_number` build one over their one
pool per call, and a caller with many targets passes its own (pruning keeps
one per (channel, sign) of the last pruned layer); the exhaustive MRSS scan
builds one per n and group over a batch of trials' group vectors and asks, in
one count query, which pools hold a k-subset within eps. For a query of the subsets of
up to K vectors it stores every sum below the top layer: the colex layers of
sizes 0..K-1, built coordinate-major as one stack per pool, each sum a sum of
the layer below plus one vector, added in ascending index order. They are
kept in block order: block b of layer L holds the L-subsets whose largest
index is b - 1 (a colex run), sorted by coordinate 0, with sort keys
``s_0 + b * spacing`` and each sum's place in the colex stack; block b of
pool p is block ``p * B + b`` of the one key array (B blocks a pool, one
``spacing`` for all), and each pool is sorted on its own. That is 8 d + 12
bytes per sum below the top layer; the top layer, most of the family, is
never built.

A query of cardinality j below the built K reads layer j itself: its sums
are stored, each the very add ``prefix + vectors[last]`` that windows of
the layer below would recompute, so its j-subsets with ``|s_0 - z_0| <= U`` are, block by block,
the run of coordinate 0 within ``z_0 +- U``: n + 1 windows a pool, found by
two searchsorted calls, and a sum found decodes from its place in the colex
stack alone. The top layer K is not stored. In colex order its subsets whose
largest index is ``last`` (slice ``last``) are exactly the (K-1)-subsets in
blocks b <= last plus ``vectors[last]``, so the runs are those of coordinate
0 within ``z_0 - v_0 +- U`` (v the vector ``last``), one per (slice, block)
pair, about n^2 / 2 a pool; each sum found is completed by the very add the
build would make, prefix sum plus ``vectors[last]``.

Every candidate of either kind is then tested one coordinate at a time,
coordinates 1..d-1 first and coordinate 0, which the window already bounds,
last: coordinate c's gap ``|fl(s_c - z_c)|`` (``s_c`` the stored sum or
``fl(p_c + v_c)``) is computed, the candidates whose gap is over U leave,
and only the rest gather the next coordinate. A subset leaves only when one
of its coordinate terms exceeds U, and its L-inf residual, the running max
of its gaps, is at least that term; max is exact in any order.

Why every bit is kept: the windows only ever admit extra sums, never lose
one. ``fl(p_0 + v_0)`` and then ``fl(. - z_0)`` are nondecreasing in
``p_0`` (and ``fl(s_0 - z_0)`` in ``s_0``), so the sums that pass the exact
test have ``p_0`` (or ``s_0``) in one interval around ``z_0 - v_0`` (or
``z_0``). Its ends, computed in floating point, may be off by a few ulps of
``|z_0| + U + |p_0| + |v_0|``, so each window is widened by 2^-50 of that
bound, more than the rounding error of those few operations, plus a
subnormal floor. The keys add ``b * spacing`` to ``s_0`` and the lookups add
it to the window's ends, clipped first to the range of ``s_0`` so a lookup
stays in its block; ``x -> fl(x + c)`` is nondecreasing too, so a key window
holds every sum of its value window. Everything admitted is then tested
exactly, coordinate by coordinate, each gap computed as the build and the
witness compute it, and a subset is dropped only when a gap exceeds U, so
never one with residual at most U. So the minimum, every tie at it and every
count are those of a scan of the whole family, and the tied colex ranks are
decoded in one vectorised pass over a cached ``C(last, size)`` table, the
lexicographically smallest winning.

The bound is ``eps`` for the count. The search takes the layers in
ascending cardinality and bounds each by the best residual so far or,
before there is one, by its pivots': per slice, the subset of its largest
block nearest ``z_0 - v_0`` in coordinate 0, clipped into the block, so
always a real subset. An L-inf residual is never below any of its
coordinate terms, so the minimum and every tie at it survive the bound.

The 1-D cover question ("is every grid point hit by some subset sum?") is
answered exactly for any n by :func:`_first_covering_sizes`, for a ``(T, N)``
block of trials at once. Each trial's union of ``[s - eps, s + eps]`` over
its subset sums s is a sorted run of disjoint closed intervals. All the runs
live in one state sorted by owner and then ``lo``: complex keys
``owner + 1j * lo``, which numpy orders lexicographically, and each
interval's ``hi``. Starting from the empty subset's interval, value i is
folded into every trial still folding at once. The keys and their shift by
each trial's ``x[i]`` are two sorted runs, and one stable argsort merges
them (numpy's stable sort is a timsort, which finds the runs) into the
permutation of a lexsort by (owner, ``lo``), ties included. Intervals merge
where a ``lo`` is within the running max of ``hi``, an
``np.maximum.accumulate`` of the keys ``owner + 1j * hi``: that max is
lexicographic too, so it restarts at each owner with no arithmetic on an
endpoint, and a key past the max before it, a new owner's included, starts
an interval. Each endpoint is the one addition ``lo + x`` or ``hi + x``
that a fold of that trial alone makes, and the merged set does not depend
on the order among ties, so every trial's union is the one it would reach
alone. Interval merging is exact, so
membership agrees with full enumeration up to the usual one-ulp
reassociation caveat at exact box boundaries. A fold never drops a point, so
cover is monotone in the prefix length: at each requested size, ascending,
every trial counts the grid points inside its intervals, and one that holds
them all leaves the state with that size. For values in (-1, 1) a trial's
union holds at most ``min(2^n, floor(n / eps) + 1)`` intervals, each at
least 2 eps wide inside [-n - eps, n + eps]; :func:`_checked_cover_bytes`
turns that count into bytes for the scan's batches and raises
:class:`BudgetError` when it is over the enumeration budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BudgetError, ParameterError
from .sampling import SeedSpec, _key, _substream_keys, _substream_permutation_heads

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "CardinalityMode",
    "Strategy",
    "SolverParams",
    "SubsetSolution",
    "SearchOutcome",
    "dimension_constant",
    "search_subsets",
    "subset_sum_number",
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
    ``vectors[last]``: consecutive blocks up to ``tops``, the largest, which
    ends just before ``ends`` in the stack. ``pair_lasts`` and ``pair_blocks``
    list every (slice, block) pair block-major, slices ascending within a
    block, so a query's needles ascend from block to block. Cached
    (read-only) like :func:`_colex_table`.
    """
    size, first = j - 1, (j - 1) * (n + 1)
    lasts = np.arange(size, n)
    tops = first + (lasts if size else np.zeros_like(lasts))
    ends = _family_size(n, range(size)) + np.array([math.comb(last, size) for last in lasts])
    blocks = np.arange(first + size, tops.max(initial=first + size - 1) + 1)
    rows, cols = (tops >= blocks[:, None]).nonzero()  # (block, slice) pairs, block-major
    pair_lasts, pair_blocks = lasts.take(cols), blocks.take(rows)
    for array in (lasts, tops, ends, pair_lasts, pair_blocks):
        array.flags.writeable = False
    return lasts, tops, ends, pair_lasts, pair_blocks


_QUERY_BYTES = 1 << 20  # largest group of candidate subsets a count query tests at once


class _SubsetIndex:
    """The subset sums of P pools of one shape, built on first use and queried
    for any number of targets (module docstring).

    ``vectors`` is ``(P, n, d)``. A query of cardinality up to K needs the
    colex layers below K: they are built as one colex stack per pool, rebuilt
    when a larger K is asked for, and kept in block order
    (:func:`_block_sizes`), each block sorted by coordinate 0; block b of pool
    p is block ``p * B + b`` of one key array, B blocks a pool. ``rows``
    holds the sums, ``keys`` the sort keys ``s_0 + (p * B + b) * spacing``
    and ``order`` each position's place in the pools' stacked colex stacks.
    ``d = 0`` is indexed as one zero coordinate, which leaves every residual
    0.0.
    """

    def __init__(self, vectors: np.ndarray):
        pools, n, d = vectors.shape
        columns = vectors.transpose(2, 0, 1) if d else np.zeros((1, pools, n))
        self.columns = np.ascontiguousarray(columns).reshape(len(columns), pools * n)  # p * n + i
        self.pools, self.n = pools, n
        self.k_max = -1  # nothing built yet

    def _build(self, k_max: int) -> None:
        """Index the layers below ``k_max``, unless a larger K's are there."""
        if k_max <= self.k_max:
            return
        self.k_max = k_max
        stack = self._colex_stack()  # (d, P, F)
        # |s_0| < radius, so block b's keys lie within b * spacing +- radius
        self.radius = float(np.abs(stack[0]).max(initial=0.0)) + 1.0
        self.spacing = 4.0 * self.radius
        sizes = _block_sizes(self.n, k_max)
        self.family = family = stack.shape[2]  # sums a pool
        keys = (np.arange(self.pools * sizes.size) * self.spacing).repeat(
            np.tile(sizes, self.pools)).reshape(self.pools, family)
        keys += stack[0]
        places = np.int32 if stack[0].size < 2**31 else np.int64  # 4 bytes in practice
        order = keys.argsort(axis=1).astype(places)  # per pool: one global sort is slower
        if self.pools > 1:
            order += np.arange(0, self.pools * family, family, dtype=places)[:, None]
        self.order = order.ravel()
        self.keys = keys.ravel().take(self.order)
        self.rows = stack.reshape(stack.shape[0], -1)
        for row in self.rows:  # rearranged in place, a row at a time
            row[:] = row.take(self.order)
        # |p_0| + |v_0| <= k_max * max |v_0| (over every pool), up to a relative k_max ulps
        self.magnitude = k_max * float(np.abs(self.columns[0]).max(initial=0.0))

    def _colex_stack(self) -> np.ndarray:
        """Each pool's layers 0..k_max-1 side by side, ``(d, P, F)``, column r of
        a layer summing its r-th subset in colex order. The subsets with
        largest index ``last`` are the first C(last, size-1) columns of the
        layer below plus ``vectors[last]``, so each layer is filled slice by
        slice, written straight into place; within a subset the adds go in
        ascending index order. Layer 1 (0.0 plus each vector) takes one add,
        and layer 2 is the lower triangle of one broadcast add of layer 1 and
        the vectors, row by row its slices in order."""
        d, n = self.columns.shape[0], self.n
        columns = self.columns.reshape(d, self.pools, n)
        addends = columns.transpose(2, 0, 1)[..., None]  # addends[last]: vectors[last], (d, P, 1)
        stack = np.zeros((d, self.pools, _family_size(n, range(self.k_max))))
        if self.k_max > 1:
            stack[:, :, 1 : n + 1] += columns
        if self.k_max > 2:  # row last, column i: layer 1's sum i plus vectors[last]
            pairs = stack[:, :, None, 1 : n + 1] + columns[..., None]
            ids = np.arange(n)
            stack[:, :, n + 1 : n + 1 + math.comb(n, 2)] = pairs[:, :, ids[:, None] > ids]
        below, start = n + 1, n + 1 + math.comb(n, 2)
        for size in range(3, self.k_max):
            prev = stack[:, :, below:start]
            for last in range(size - 1, n):
                width = math.comb(last, size - 1)
                np.add(prev[:, :, :width], addends[last], out=stack[:, :, start : start + width])
                start += width
            below += prev.shape[2]
        return stack

    def _needles(self, values: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Sort keys of coordinate-0 ``values`` in ``blocks``, clipped into the
        block. ``x -> fl(x + b * spacing)`` is nondecreasing, so a key window
        holds every sum whose coordinate 0 lies in the value window."""
        keys = np.minimum(values, self.radius)
        np.maximum(keys, -self.radius, out=keys)
        return keys + blocks * self.spacing

    def _kept(self, positions: np.ndarray, lasts, targets: np.ndarray, bound: float):
        """The subsets at ``positions`` whose L-inf residual against their
        pool's target is at most ``bound``, as (positions, lasts, residuals).

        A stored subset (``lasts`` None) is the sum at its position; otherwise
        it is that sum plus vector ``lasts`` (``p * n + last`` in pool p), the
        very add the colex build of the layer above makes, so bit-identical to
        that layer built. Coordinate by coordinate, each gap ``|fl(s_c - z_c)|``
        is computed as that sum's, a subset whose gap is over ``bound`` leaves,
        and the next coordinate is gathered for the rest only: coordinates 1,
        ..., d - 1 first and coordinate 0, which the windows already bound,
        last. The residual is the running max of the gaps, exact in any order."""
        owners = positions // self.family if self.pools > 1 else 0
        residuals = np.zeros(positions.size)
        for c in [*range(1, len(self.rows)), 0]:
            gaps = self.rows[c].take(positions)
            if lasts is not None:
                gaps += self.columns[c].take(lasts)
            gaps -= targets[:, c].take(owners)
            np.abs(gaps, out=gaps)
            keep = (gaps <= bound).nonzero()[0]
            if keep.size < positions.size:
                positions, gaps = positions.take(keep), gaps.take(keep)
                residuals = residuals.take(keep)
                lasts = None if lasts is None else lasts.take(keep)
                owners = owners.take(keep) if self.pools > 1 else 0
            np.maximum(residuals, gaps, out=residuals)
        return positions, lasts, residuals

    def _pivot_bound(self, j: int, target: np.ndarray) -> float:
        """The smallest residual of a few real j-subsets of the one pool near the
        target in coordinate 0: per slice, the first subset of its pivot block
        at or above ``z_0 - v_0``, or that block's last subset."""
        lasts, blocks, ends, _, _ = _slices(self.n, j)
        needles = self._needles(target[0] - self.columns[0].take(lasts), blocks)
        positions = np.minimum(self.keys.searchsorted(needles), ends - 1)
        return float(self._kept(positions, lasts, target[None], math.inf)[2].min())

    def _runs(self, j: int, targets: np.ndarray, bound: float):
        """The j-subsets of every pool whose coordinate-0 gap to the pool's
        target may be at most ``bound``, as runs: per window its first
        position, its length and, unless layer j is stored (then None), its
        vector ``last``, numbered ``p * n + last`` in pool p.

        A stored layer (j below the built ``k_max``) is windowed in its own
        n + 1 blocks, each within ``z_0 +- bound``; the top layer in every
        (slice, block) pair of the layer below, block-major, each within
        ``z_0 - v_0 +- bound``. The runs hold every subset with residual at
        most ``bound`` and a few more, which :meth:`_kept` drops: each window
        is widened by more than the rounding error of computing its ends."""
        n = self.n
        pools = np.arange(self.pools)[:, None]
        offsets = pools * _block_sizes(n, self.k_max).size
        goals = targets[:, :1]
        if j < self.k_max:
            blocks, lasts, centres = j * (n + 1) + np.arange(n + 1) + offsets, None, goals
        else:
            _, _, _, lasts, blocks = _slices(n, j)
            blocks, lasts = blocks + offsets, lasts + pools * n
            centres = goals - self.columns[0].take(lasts)
        reach = bound + (2.0**-50 * (np.abs(goals) + bound + self.magnitude) + 2.0**-1070)
        below, above = self._needles(centres + np.stack([-reach, reach]), blocks)
        lo = self.keys.searchsorted(below.ravel(), side="left")
        sizes = self.keys.searchsorted(above.ravel(), side="right") - lo
        return lo, sizes, None if lasts is None else lasts.ravel()

    def _window(self, lo: np.ndarray, sizes: np.ndarray, lasts, targets, bound: float):
        """The subsets of the runs ``(lo, sizes, lasts)`` with residual at most
        ``bound``, as :meth:`_kept` returns them."""
        positions = (lo - (sizes.cumsum() - sizes)).repeat(sizes)
        positions += np.arange(positions.size)
        lasts = None if lasts is None else lasts.repeat(sizes)
        return self._kept(positions, lasts, targets, bound)

    def best(self, target: np.ndarray, cardinalities) -> tuple[tuple[int, ...], float]:
        """The subset of the one pool of any cardinality in ``cardinalities``
        (ascending) with the smallest residual, ties to the lexicographically
        smallest indices.

        A layer's windows are bounded by the best residual so far, or by its
        pivots' before there is one. Only the layers tied at the final best
        are decoded.
        """
        assert self.pools == 1
        target = target if target.size else np.zeros(1)
        n = self.n
        self._build(max(cardinalities))
        best, tied = math.inf, []  # tied: (j, positions, lasts) at the best residual
        if 0 in cardinalities:
            best, tied = float(np.abs(target).max()), [(0, None, None)]
        for j in cardinalities:
            if j == 0:
                continue
            bound = best if best < math.inf else self._pivot_bound(j, target)
            positions, lasts, residuals = self._window(*self._runs(j, target[None], bound),
                                                       target[None], bound)
            if not residuals.size:  # nothing at or below the best so far
                continue
            res = float(residuals.min())
            ties = (residuals == res).nonzero()[0]
            layer = (j, positions.take(ties), None if lasts is None else lasts.take(ties))
            best, tied = res, ([*tied, layer] if res == best else [layer])
        assert tied
        if tied[0][0] == 0:  # the empty set precedes every other tied set
            return (), best
        table = _colex_table(n, self.k_max)
        winners = []
        for j, positions, lasts in tied:
            # a stored sum's colex place less its layer's start; a top-layer
            # subset's is where slice ``last`` begins plus its prefix's rank
            ranks = self.order.take(positions).astype(np.int64)
            if lasts is None:
                ranks -= _family_size(n, range(j))
            else:
                ranks += table[j].take(lasts) - _family_size(n, range(j - 1))
            rows = _colex_rows(table, ranks, j)
            winners.append(tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist()))
        return min(winners), best

    def count(self, targets: np.ndarray, k: int, epsilon: float) -> np.ndarray:
        """Per pool, the number of its k-subsets with residual at most ``epsilon``
        from its row of the ``(P, d)`` targets.

        The runs are tested a group at a time, each group's subsets within
        ``_QUERY_BYTES`` and one run, so a wide epsilon over many pools holds
        little more at once than a narrow one.
        """
        targets = targets if targets.shape[1] else np.zeros((self.pools, 1))
        if k == 0:
            return (np.abs(targets).max(axis=1) <= epsilon).astype(np.intp)
        self._build(k)
        lo, sizes, lasts = self._runs(k, targets, epsilon)
        step = max(1, _QUERY_BYTES // (8 * len(self.columns) + 48))  # subsets a group
        cuts = sizes.cumsum().searchsorted(np.arange(step, sizes.sum(), step), side="right")
        cuts = [0, *cuts, sizes.size]
        counts = np.zeros(self.pools, dtype=np.intp)
        for first, stop in zip(cuts, cuts[1:]):
            group = None if lasts is None else lasts[first:stop]
            hits, _, _ = self._window(lo[first:stop], sizes[first:stop], group, targets, epsilon)
            counts += np.bincount(hits // self.family, minlength=self.pools)
        return counts


def _index_bytes(n: int, k_max: int, d: int) -> int:
    """What a :class:`_SubsetIndex` keeps per pool for queries of up to ``k_max``
    vectors: the sums of every layer below ``k_max``, their sort keys and their
    colex places, 8 d + 12 bytes each; nothing of the top layer."""
    return (8 * max(d, 1) + 12) * _family_size(n, range(k_max))


def _check_family_budget(n: int, cardinalities, d: int, budget: int) -> None:
    family = _family_size(n, cardinalities)
    if family > budget:
        k_max = max(cardinalities)
        sizes = f"{k_max}-subsets" if len(cardinalities) == 1 else f"subsets of size <= {k_max}"
        needed = _index_bytes(n, k_max, d)
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
    vectors: np.ndarray, targets: np.ndarray, k: int, heads: np.ndarray, params: SolverParams
) -> tuple[np.ndarray, np.ndarray]:
    """Each of P problems' best k-subset found by swap descents from its greedy
    build and ``params.restarts`` random starts. ``vectors`` is ``(P, n, d)``,
    ``targets`` ``(P, d)`` and ``heads`` ``(P * restarts, k)``, problem-major:
    restart r of problem p starts from the sorted row ``p * restarts + r - 1``
    (:func:`_restart_heads`). Returns the ``(P, k)`` indices and the ``(P,)``
    residuals, per problem the smallest residual with ties to the
    lexicographically smallest indices.

    It is the engine of :func:`search_subsets`, which needs the best witness.
    The greedy MRSS scan needs only whether a problem hits, so it does not
    call this: its build descents come first and its restarts only for the
    builds that miss (``harness._solve_greedy_batch``), the same starts'
    descents and the same hits."""
    problems, n, _ = vectors.shape
    per = params.restarts + 1
    starts = np.empty((problems, per, k), dtype=np.intp)
    starts[:, 0] = _greedy_builds(vectors, targets, k)
    starts[:, 1:] = heads.reshape(problems, per - 1, k)
    starts = starts.reshape(problems * per, k)
    starts.sort(axis=1)
    owners = np.arange(problems).repeat(per)
    reached, residuals = _swap_descents(vectors, targets, owners, starts, params.max_iters)
    best = np.lexsort((*reached.T[::-1], residuals, owners))[::per]  # each problem's first
    return reached.take(best, axis=0), residuals.take(best)


def _restart_heads(keys, owners, sizes, restarts: int, k: int) -> np.ndarray:
    """The restart heads of :func:`_greedy_swap_best` for the rows ``(owners[q],
    sizes[q])`` over the problems whose streams are ``keys``: row q, restart r
    (at ``[q, r - 1]``) is the first k of the ``permutation(sizes[q])`` that
    substream r of stream ``keys[owners[q]]`` draws first, r = 1, 2, ...; the
    keys' restart keys are mixed in one call, and each restart stream is read
    once for all of its problem's rows."""
    streams = _substream_keys(keys, range(1, restarts + 1))  # problem p's at p * restarts
    rows = (np.asarray(owners, dtype=np.intp)[:, None] * restarts + np.arange(restarts)).ravel()
    heads = _substream_permutation_heads(streams, rows, np.repeat(sizes, restarts), k)
    return heads.reshape(len(sizes), restarts, k)


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
        index = _SubsetIndex(vectors[None]) if index is None else index
        indices, residual = index.best(target, cardinalities)
        exhaustive = True
    else:
        best: tuple[tuple[int, ...], float] | None = None
        heads = _restart_heads([_key(params.seed)], [0], [n], params.restarts,
                               max(cardinalities))[0]
        for k in cardinalities:
            if k == 0:
                cand = ((), float(np.abs(target).max(initial=0.0)))
            else:
                winners, residuals = _greedy_swap_best(vectors[None], target[None], k,
                                                       heads[:, :k], params)
                cand = (tuple(winners[0].tolist()), float(residuals[0]))
            if best is None or cand[1] < best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        assert best is not None
        indices, residual = best
        exhaustive = False

    solution = _make_solution(vectors, indices, target)
    hit = solution if solution.residual_inf <= params.epsilon else None
    return SearchOutcome(hit, solution, exhaustive)


def subset_sum_number(vectors, target, k: int, epsilon: float) -> int:
    """Exact count of k-subsets whose sum lands in the closed box around target,
    within the default enumeration budget."""
    vectors, target = _validated(vectors, target)
    n, d = vectors.shape
    if not epsilon >= 0.0:
        raise ParameterError("epsilon must be nonnegative")
    if not 0 <= k <= n:
        raise ParameterError(f"k must be in [0, {n}]")
    _check_family_budget(n, [k], d, DEFAULT_ENUMERATION_BUDGET)
    return int(_SubsetIndex(vectors[None]).count(target[None], k, epsilon)[0])


# ---------------------------------------------------------------------------
# 1-D cover ("for all z" on a finite grid)
# ---------------------------------------------------------------------------


_INTERVAL_BYTES = 24  # one interval of the cover state: its owner + 1j * lo key and hi


def _checked_cover_bytes(n: int, epsilon: float, budget: int) -> int:
    """The bytes of one trial's cover state after ``n`` uniforms on (-1, 1), at
    worst; :class:`BudgetError` when its interval count exceeds ``budget``.

    The union holds at most one interval per subset sum, 2^n, and its disjoint
    intervals are each at least 2 eps wide inside [-n - eps, n + eps], so at
    most floor(n / eps) + 1 of them.
    """
    intervals = 1 << n if n / epsilon >= 1 << n else math.floor(n / epsilon) + 1
    state = _INTERVAL_BYTES * intervals
    if intervals > budget:
        raise BudgetError(
            f"the cover of n={n} values at epsilon={epsilon} may hold {intervals} intervals "
            f"({state} bytes) a trial, over the budget of {budget} intervals"
        )
    return state


def _first_covering_sizes(draws: np.ndarray, epsilon: float, grid: np.ndarray, sizes) -> list:
    """Per row of the ``(T, N)`` draws, the first n in ``sizes`` (ascending)
    whose prefix ``row[:n]`` covers every point of the ascending ``grid``, or
    None, by the module docstring's fold: one merge and one running max a value."""
    first = [None] * draws.shape[0]
    lo, hi = np.arange(len(first)) - 1j * epsilon, np.full(len(first), epsilon)
    done = 0
    for n in sizes:
        for i in range(done, n):
            shift = draws[lo.real.astype(np.intp), i]
            lo, hi = np.concatenate([lo, lo + 1j * shift]), np.concatenate([hi, hi + shift])
            order = lo.argsort(kind="stable")
            lo = lo[order]
            reach = hi[order] * 1j
            reach += lo.real
            np.maximum.accumulate(reach, out=reach)
            # an interval starts at a lo past the reach before it, a new row's lo included
            fresh = np.ones(lo.size + 1, dtype=bool)
            fresh[1:-1] = lo[1:] > reach[:-1]
            lo, hi = lo[fresh[:-1]], reach.imag[fresh[1:]]
        done = n
        # touching intervals merge, so a row's grid counts add up to its covered points
        owner = lo.real.astype(np.intp)
        inside = (np.searchsorted(grid, hi, side="right")
                  - np.searchsorted(grid, lo.imag, side="left"))
        covered = np.bincount(owner, inside, len(first)) == grid.size
        for row in np.flatnonzero(covered):
            first[row] = n
        staying = ~covered[owner]
        lo, hi = lo[staying], hi[staying]
        if not lo.size:
            break
    return first
