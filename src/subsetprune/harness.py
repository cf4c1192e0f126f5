"""Monte Carlo verification of the closed-form probability bounds, plus
phase-transition scans with CSV output.

Statistical convention: an inequality ``p <= b`` (or ``>=``) is declared PASS
when the empirical estimate respects the bound up to three standard errors.
Standard errors for binomial frequencies use the Agresti-Coull adjustment
(z = 3), which stays honest when the hit count is zero. Paired identities
(where both sides are estimated from the same trials) are tested on the
per-trial differences, whose expectation is exactly zero under the identity.

Block rule: every check draws its trials in blocks of 2^14 (the intersection
tail, whose trials are n values wide, in blocks of ``min(2^14, 2^24 // n)``);
block ``b`` always draws from ``seed.substream(b)`` and the block totals are
summed in block order.

Checks that count (most probable interval, NSN hit, joint window,
chi-squared tails and the intersection tail) stream each block: the block's
trials are split into contiguous ranges, one per tile (``sampling._map_rows``),
and each tile reads its trials in row chunks, each chunk's words at their
place in the block's stream, and counts the chunk's hits; the counts are
summed. Each trial is reduced by the expression a whole-block draw would get,
on a slice of the same row shape, so the counts are those of one whole-block
draw. Only the second moment sums floats: it draws each whole block and
reduces it on the calling thread, where the order of the additions is fixed.
Results are therefore bit-reproducible and independent of the CPU count.
Every check rejects ``trials < 1`` with :class:`ParameterError`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BudgetError, ParameterError
from .pruning import PruneParams, prune_random_layer
from .sampling import (
    _BATCH_BYTES,
    SeedSpec,
    _key,
    _map_rows,
    _nsn_vectors,
    _one_stream,
    _reduce_normals,
    _substream_keys,
    _uniforms,
    _words_at,
)
from . import solvers
from .solvers import (
    SolverParams,
    Strategy,
    _check_family_budget,
    _checked_cover_bytes,
    _first_covering_sizes,
    dimension_constant,
)

__all__ = [
    "BoundDirection",
    "BoundCheckResult",
    "SecondMomentReport",
    "binomial_std_error",
    "wilson_interval",
    "nsn_hit_lower_bound",
    "joint_hit_upper_bound",
    "chi_squared_tail_bound",
    "intersection_tail_bound",
    "check_chi_squared_tails",
    "check_most_probable_interval",
    "check_nsn_hit_lower_bound",
    "check_joint_upper_bound",
    "check_second_moment_identity",
    "check_intersection_tail",
    "scan_rssp_phase",
    "scan_mrss_phase",
    "scan_prune_success",
    "write_csv",
]

_Z = 3.0  # z of the Agresti-Coull and Wilson intervals: README's three standard errors
_BLOCK = 1 << 14  # trials per sampling block; fixed so reruns are bit-identical
_TAIL_CHUNK = 1 << 17  # uniforms per intersection-tail row chunk
_GATHER_BYTES = 1 << 22  # largest (trials, combos, k, d) gather the second-moment check builds


class BoundDirection(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class BoundCheckResult:
    """One Monte Carlo estimate compared against a closed-form bound at 3 sigma."""

    name: str
    estimate: float
    std_error: float
    bound: float
    direction: BoundDirection
    trials: int
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.direction is BoundDirection.LOWER:
            return self.estimate >= self.bound - 3.0 * self.std_error
        return self.estimate <= self.bound + 3.0 * self.std_error

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "FAIL"

    def line(self) -> str:
        side = ">=" if self.direction is BoundDirection.LOWER else "<="
        return (
            f"[{self.verdict}] {self.name}: estimate {self.estimate:.6g} {side} "
            f"bound {self.bound:.6g} (3se = {3.0 * self.std_error:.3g}, trials {self.trials})"
        )


def binomial_std_error(successes: int, trials: int) -> float:
    """Agresti-Coull adjusted standard error at ``_Z``; positive even at 0 or all hits."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    z = _Z
    adjusted_n = trials + z * z
    p = (successes + z * z / 2.0) / adjusted_n
    return math.sqrt(p * (1.0 - p) / adjusted_n)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The Wilson score interval of a binomial rate at ``_Z``."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    z = _Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the limits are exactly 0 and 1 at the degenerate counts; avoid fp dust
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return low, high


def _block_totals(trials: int, seed: SeedSpec, draw, block: int = _BLOCK) -> list:
    """Per-position sums of ``draw(key, count)`` over the blocks of the block rule,
    ``key`` the Philox key of the block's stream."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    totals = None
    starts = range(0, trials, block)
    for key, start in zip(_substream_keys([_key(seed)], range(len(starts))).tolist(), starts):
        parts = draw(key, min(block, trials - start))
        totals = [total + part for total, part in zip(totals or [0] * len(parts), parts)]
    return totals


def _frequency(name, hits, bound, direction, trials, params) -> BoundCheckResult:
    """A hit frequency with its Agresti-Coull standard error against ``bound``."""
    return BoundCheckResult(
        name, hits / trials, binomial_std_error(hits, trials), bound, direction, trials, params
    )


def _paired(total: float, square_total: float, trials: int) -> tuple[float, float]:
    """Mean and standard error of per-trial differences from their sum and sum of squares."""
    mean = total / trials
    var = max(0.0, square_total / trials - mean * mean)
    return mean, math.sqrt(var / trials)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def chi_squared_tail_bound(t: float) -> float:
    """Both chi-squared tail bounds share the value exp(-t)."""
    if not t > 0.0:
        raise ParameterError("t must be positive")
    return math.exp(-t)


def nsn_hit_lower_bound(d: int, k: int, epsilon: float) -> float:
    """Lower bound on Pr(sum of k NSN vectors lands in the eps box): with
    ``c = min(1/d^2, 1/16)``, it is ``(1/16) * (2 eps / sqrt(pi (1 + 2 sqrt(c)
    + 2 c) k))^d``."""
    c = dimension_constant(d)
    base = 2.0 * epsilon / math.sqrt(math.pi * (1.0 + 2.0 * math.sqrt(c) + 2.0 * c) * k)
    return (base**d) / 16.0


def joint_hit_upper_bound(d: int, j: int, epsilon: float) -> float:
    """Upper bound on the joint two-window hit probability:
    ``3 * (4 eps^2 / (pi (1 - 2 sqrt(c)) j))^d``."""
    c = dimension_constant(d)
    return 3.0 * (4.0 * epsilon * epsilon / (math.pi * (1.0 - 2.0 * math.sqrt(c)) * j)) ** d


def intersection_tail_bound(k: int, d: int) -> float:
    """``exp(-2 (k/d^2) (1 - d/k)^2)`` for Pr(|S meet S'| >= k/d)."""
    return math.exp(-2.0 * (k / (d * d)) * (1.0 - d / k) ** 2)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


def check_chi_squared_tails(
    d: int, t: float, trials: int, seed: SeedSpec
) -> tuple[BoundCheckResult, BoundCheckResult]:
    """Empirical chi-squared(d) tail frequencies against exp(-t) on both sides.
    Each trial's d normals are counted on the tiles, chunk by chunk."""
    if d < 1 or not t > 0.0:
        raise ParameterError("need d >= 1, t > 0")
    upper_threshold = d + 2.0 * math.sqrt(d * t) + 2.0 * t
    lower_threshold = d - 2.0 * math.sqrt(d * t)

    def tails(lo, values):
        draws = values.reshape(len(values), d)
        stat = (draws * draws).sum(axis=1)
        return int((stat >= upper_threshold).sum()), int((stat <= lower_threshold).sum())

    hits_hi, hits_lo = _block_totals(
        trials, seed, lambda key, count: _reduce_normals(key, count, 1, d, tails, scaled=False))
    bound = chi_squared_tail_bound(t)
    params = {"d": d, "t": t}
    return (
        _frequency(f"chi2 upper tail d={d} t={t}", hits_hi, bound, BoundDirection.UPPER,
                   trials, params),
        _frequency(f"chi2 lower tail d={d} t={t}", hits_lo, bound, BoundDirection.UPPER,
                   trials, params),
    )


def check_most_probable_interval(
    sigma: float, z: float, epsilon: float, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """For centred normals, the interval around 0 is the most probable one of
    its width. Tested paired: per draw, 1[centre hit] - 1[shifted hit] has
    nonnegative expectation. Each term is -1, 0 or 1, so the sums of the
    differences and of their squares are the counts of draws in only one of
    the two windows, counted on the tiles, chunk by chunk."""
    if not sigma > 0.0 or not epsilon > 0.0:
        raise ParameterError("need sigma > 0, epsilon > 0")

    def counts(lo, values):
        x = sigma * values
        centre, shifted = np.abs(x) <= epsilon, np.abs(x - z) <= epsilon
        return int((centre > shifted).sum()), int((shifted > centre).sum())

    only_centre, only_shifted = _block_totals(
        trials, seed, lambda key, count: _reduce_normals(key, count, 1, 1, counts, scaled=False))
    mean, std_error = _paired(only_centre - only_shifted, only_centre + only_shifted, trials)
    return BoundCheckResult(
        f"most probable interval sigma={sigma} z={z} eps={epsilon}",
        mean,
        std_error,
        0.0,
        BoundDirection.LOWER,
        trials,
        {"sigma": sigma, "z": z, "epsilon": epsilon},
    )


def check_nsn_hit_lower_bound(
    d: int, k: int, epsilon: float, z, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """Frequency of ``sum of k NSN vectors`` landing in the eps box around z,
    against the closed-form lower bound. A trial is a row of k vectors, its
    hits counted on the tiles, chunk by chunk."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if k < 16:
        raise ParameterError("hypothesis requires k >= 16")
    if d < 1 or d > k:
        raise ParameterError("hypothesis requires 1 <= d <= k")
    if z.size != d:
        raise ParameterError("z must have dimension d")
    if not 0.0 < epsilon < 0.25:
        raise ParameterError("hypothesis requires epsilon in (0, 1/4)")
    if float(np.abs(z).sum()) > math.sqrt(k):
        raise ParameterError("hypothesis requires l1 norm of z at most sqrt(k)")

    def hits_of(lo, vectors):
        sums = vectors.sum(axis=1)
        return (int((np.abs(sums - z) <= epsilon).all(axis=1).sum()),)

    (hits,) = _block_totals(
        trials, seed, lambda key, count: _reduce_normals(key, count, k, d, hits_of))
    return _frequency(f"nsn hit lower bound d={d} k={k} eps={epsilon}", hits,
                      nsn_hit_lower_bound(d, k, epsilon), BoundDirection.LOWER, trials,
                      {"d": d, "k": k, "epsilon": epsilon, "z": z.tolist()})


def check_joint_upper_bound(
    d: int, k: int, j: int, epsilon: float, z, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """Joint frequency of two overlapping k-windows both hitting the eps box.

    Windows share the middle block: A sums vectors 1..j, B sums j+1..k, C sums
    k+1..k+j; the event is {A+B and B+C both in the box}. The asymptotic
    hypothesis on k carries an unknown constant, so only the fixed desk regime
    k >= 64 is enforced here and the bound is checked empirically. A trial is
    a row of k + j vectors, its hits counted on the tiles, chunk by chunk.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if not 1 <= j <= k:
        raise ParameterError("need 1 <= j <= k")
    if k < 64:
        raise ParameterError("desk regime requires k >= 64")
    if z.size != d:
        raise ParameterError("z must have dimension d")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")

    def hits_of(lo, draws):
        first = draws[:, :j].sum(axis=1)
        middle = draws[:, j:k].sum(axis=1) if j < k else np.zeros_like(first)
        last = draws[:, k:].sum(axis=1)
        hit = (np.abs(first + middle - z) <= epsilon).all(axis=1)
        hit &= (np.abs(middle + last - z) <= epsilon).all(axis=1)
        return (int(hit.sum()),)

    (hits,) = _block_totals(
        trials, seed, lambda key, count: _reduce_normals(key, count, k + j, d, hits_of))
    return _frequency(f"joint window upper bound d={d} k={k} j={j} eps={epsilon}", hits,
                      joint_hit_upper_bound(d, j, epsilon), BoundDirection.UPPER, trials,
                      {"d": d, "k": k, "j": j, "epsilon": epsilon, "z": z.tolist(),
                       "note": "asymptotic k-regime not certified (unknown constant); desk scale"})


@dataclass(frozen=True)
class SecondMomentReport:
    """Paired test of the counting identities for the box-hit subset count T.

    ``E[T] = C(n,k) Pr(first subset hits)`` and ``E[T^2]`` equals the overlap
    decomposition: ``C(n,k)^2 sum_j Pr(|S meet S'| = k - j) Pr(joint hit of
    the canonical pair at half-difference j)``. Both identities are exact, so
    the per-trial differences have mean zero; each is tested at 3 sigma.
    """

    trials: int
    mean_count: float
    single_side: float
    first_diff: float
    first_std_error: float
    mean_square: float
    overlap_side: float
    second_diff: float
    second_std_error: float
    params: dict

    @property
    def first_passed(self) -> bool:
        return abs(self.first_diff) <= 3.0 * self.first_std_error or self.first_diff == 0.0

    @property
    def second_passed(self) -> bool:
        return abs(self.second_diff) <= 3.0 * self.second_std_error or self.second_diff == 0.0

    @property
    def passed(self) -> bool:
        return self.first_passed and self.second_passed

    def lines(self) -> list[str]:
        tag1 = "pass" if self.first_passed else "FAIL"
        tag2 = "pass" if self.second_passed else "FAIL"
        return [
            f"[{tag1}] subset count mean {self.mean_count:.6g} vs single-hit side "
            f"{self.single_side:.6g} (diff {self.first_diff:.3g}, 3se {3 * self.first_std_error:.3g})",
            f"[{tag2}] subset count second moment {self.mean_square:.6g} vs overlap side "
            f"{self.overlap_side:.6g} (diff {self.second_diff:.3g}, 3se {3 * self.second_std_error:.3g})",
        ]


def check_second_moment_identity(
    n: int, k: int, d: int, epsilon: float, z, trials: int, seed: SeedSpec
) -> SecondMomentReport:
    """The identities of :class:`SecondMomentReport` over ``trials`` ensembles
    of n NSN vectors. Each block is drawn whole, and its float sums run on the
    calling thread."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if n > 10 or k > 4:
        raise ParameterError("double enumeration budget requires n <= 10 and k <= 4")
    if k < 1 or n < 2 * k:
        raise ParameterError("need 1 <= k and n >= 2k for the canonical overlap pairs")
    if z.size != d:
        raise ParameterError("z must have dimension d")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")

    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    ncomb = combos.shape[0]
    chunk = max(1, _GATHER_BYTES // max(1, 8 * min(trials, _BLOCK) * k * d))  # combos per gather
    # canonical pair at half-difference j: overlap k - j, fresh tail from k..k+j-1
    canonical = [
        np.array(list(range(k - j)) + list(range(k, k + j)), dtype=np.intp) for j in range(k + 1)
    ]
    hyper = [
        math.comb(k, k - j) * math.comb(n - k, j) / math.comb(n, k) for j in range(k + 1)
    ]

    def draw(key, count):
        vectors = _one_stream(key, count * n, d, scaled=True).reshape(count, n, d)
        hit = np.empty((count, ncomb), dtype=bool)
        for lo in range(0, ncomb, chunk):
            sums = vectors[:, combos[lo : lo + chunk], :].sum(axis=2)
            hit[:, lo : lo + chunk] = (np.abs(sums - z) <= epsilon).all(axis=2)
        t_count = hit.sum(axis=1).astype(np.float64)
        t_square = t_count * t_count

        single = ncomb * hit[:, 0].astype(np.float64)  # combos[0] == (0 .. k-1)
        overlap = np.zeros(count)
        for j, pair in enumerate(canonical):
            pair_hit = (np.abs(vectors[:, pair, :].sum(axis=1) - z) <= epsilon).all(axis=1)
            overlap += hyper[j] * (hit[:, 0] & pair_hit).astype(np.float64)
        overlap *= float(ncomb) ** 2

        da = t_count - single  # first identity differences
        db = t_square - overlap  # second identity differences
        return tuple(float(x.sum()) for x in (
            da, da * da, db, db * db, t_count, t_square, single, overlap))

    sum_a, sum_a2, sum_b, sum_b2, sum_count, sum_square, sum_single, sum_overlap = (
        _block_totals(trials, seed, draw)
    )
    first_diff, first_std_error = _paired(sum_a, sum_a2, trials)
    second_diff, second_std_error = _paired(sum_b, sum_b2, trials)
    return SecondMomentReport(
        trials=trials,
        mean_count=sum_count / trials,
        single_side=sum_single / trials,
        first_diff=first_diff,
        first_std_error=first_std_error,
        mean_square=sum_square / trials,
        overlap_side=sum_overlap / trials,
        second_diff=second_diff,
        second_std_error=second_std_error,
        params={"n": n, "k": k, "d": d, "epsilon": epsilon, "z": z.tolist()},
    )


def _intersection_overlaps(key, count: int, n: int, k: int) -> np.ndarray:
    """Per-trial ``|{0, .., k-1} meet S|`` for ``count`` uniform k-subsets S of [n].

    Trial t's S holds the k smallest of row t of ``count`` rows of n uniforms
    ``w * 2**-53``, w the 53-bit words (raw words shifted right by 11) that
    stream ``key`` reads in turn: the values ``Generator.random`` draws.
    Scaling by a power of two keeps their order and ties, so the rows are
    compared as the words themselves. The rows are split over the tiles
    (:func:`sampling._map_rows`), each tile reading ``_TAIL_CHUNK // n`` rows
    at a time (at least one), each chunk at its place in the stream
    (:func:`sampling._words_at`); each chunk keeps a copy of its first k
    columns, is partitioned in place and writes its rows' overlaps.
    """
    overlaps = np.empty(count, dtype=np.intp)

    def chunk(lo, hi):
        words = _words_at(key, lo * n, (hi - lo) * n).reshape(hi - lo, n)
        head = words[:, :k].copy()
        words.partition(k - 1, axis=1)
        np.sum(head <= words[:, k - 1 : k], axis=1, out=overlaps[lo:hi])
        return ()

    _map_rows(count, _TAIL_CHUNK // n, count * n, chunk)
    return overlaps


def check_intersection_tail(
    n: int, k: int, d: int, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """Tail of the overlap of two independent uniform k-subsets of [n].

    By exchangeability the first subset is fixed to {0, .., k-1}; the second
    is sampled as the k smallest of n i.i.d. uniforms, which is a uniform
    k-subset. The overlap distribution is identical to sampling both.
    """
    if d < 2:
        raise ParameterError("need d >= 2")
    if k <= d:
        raise ParameterError("need k > d (otherwise the threshold k/d is <= 1)")
    if n < k * k:
        raise ParameterError("hypothesis requires n >= k^2")
    threshold = k / d

    def draw(key, count):
        overlaps = _intersection_overlaps(key, count, n, k)
        return (int((overlaps >= threshold).sum()),)

    # the block size fixes which trials share a substream; draws stream in row chunks
    (hits,) = _block_totals(trials, seed, draw, max(1, min(_BLOCK, (1 << 24) // n)))
    return _frequency(f"subset intersection tail n={n} k={k} d={d}", hits,
                      intersection_tail_bound(k, d), BoundDirection.UPPER, trials,
                      {"n": n, "k": k, "d": d, "threshold": threshold})


# ---------------------------------------------------------------------------
# Phase scans
# ---------------------------------------------------------------------------


def write_csv(path, rows: list[dict]) -> None:
    """Schema-stable CSV: field order from the first row, full parameter echo."""
    if not rows:
        raise ParameterError("refusing to write an empty CSV")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _rate_row(n: int, trials: int, successes: int, echo: dict) -> dict:
    """One scan row: the success counts, rate and Wilson bounds, then ``echo``."""
    low, high = wilson_interval(successes, trials)
    return {
        "n": n,
        "trials": trials,
        "successes": successes,
        "rate": successes / trials,
        "wilson_low": low,
        "wilson_high": high,
        **echo,
    }


def _scan_sizes(n_values, least: int, trials: int) -> list[int]:
    """The distinct n of a scan, ascending; each is scanned once."""
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < least:
        raise ParameterError(f"every n must be >= {least}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    return sorted(set(n_values))


def _count_from(successes: dict, first: int | None, count: int = 1) -> None:
    """Count ``count`` successes for ``first`` and every larger n (none when
    ``first`` is None)."""
    if first is not None:
        for n in successes:
            successes[n] += count if n >= first else 0


def _batches(trials: int, trial_bytes: int):
    """The trials in consecutive batches of as many as ``_BATCH_BYTES`` holds at
    ``trial_bytes`` a trial (at least one). ``trial_bytes`` counts what a batch
    keeps for one trial between engine calls; the transients of the greedy
    engines (a swap descent's blocks, a heads replay's chunks) stay under caps
    of their own whatever the batch size."""
    size = max(1, _BATCH_BYTES // trial_bytes)
    for first in range(0, trials, size):
        yield range(first, min(first + size, trials))


def scan_rssp_phase(
    epsilon: float,
    n_values,
    grid_size: int,
    trials: int,
    seed: SeedSpec,
) -> list[dict]:
    """Cover success rate of uniform ensembles on a symmetric target grid.

    Trial t draws max(n) uniforms on (-1, 1) once, from ``seed.substream(t)``,
    and reuses prefixes for every n (paired seeds), so the per-trial success
    indicator is monotone in n by construction. The trials are drawn in
    batches (:func:`_batches`). A trial's bytes are its draws and its cover
    state at the largest n at worst: 24 bytes for each of at most
    ``min(2^n, floor(n / epsilon) + 1)`` intervals. The fold sorts copies of
    that state, so a batch can peak at a few times the cap. Before the first
    draw that count, and ``grid_size``, are checked against
    ``DEFAULT_ENUMERATION_BUDGET`` (:class:`BudgetError`). A batch's trials
    fold their interval unions together (:func:`solvers._first_covering_sizes`)
    across the distinct n, ascending; a trial leaves at its first covered n
    and counts a success for that n and every larger one, which covering n
    alone would give bit for bit. Columns: n, trials, successes, rate,
    wilson_low, wilson_high plus the parameter echo.
    """
    sizes = _scan_sizes(n_values, 1, trials)
    if grid_size < 1:
        raise ParameterError("grid_size must be >= 1")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    budget = solvers.DEFAULT_ENUMERATION_BUDGET
    trial_bytes = 16 * sizes[-1] + _checked_cover_bytes(sizes[-1], epsilon, budget)
    if grid_size > budget:
        raise BudgetError(f"a grid of {grid_size} points ({8 * grid_size} bytes) is over the "
                          f"budget of {budget} points")
    grid = np.linspace(-1.0, 1.0, grid_size)
    successes = dict.fromkeys(sizes, 0)
    for batch in _batches(trials, trial_bytes):
        draws = _uniforms(_substream_keys([_key(seed)], batch), sizes[-1], -1.0, 1.0)
        for first in _first_covering_sizes(draws, epsilon, grid, sizes):
            _count_from(successes, first)
    echo = {
        "epsilon": epsilon,
        "grid_size": grid_size,
        "master_seed": seed.master_seed,
        "stream_id": seed.stream_id,
    }
    return [_rate_row(n, trials, successes[n], echo) for n in sizes]


def _mrss_draws(streams, n: int, d: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, n, d)`` ensembles and ``(P, d)`` targets of the trials whose
    streams have the ``(P, 2)`` keys ``streams``: trial stream s draws the
    ``(n, d)`` vectors of ``sample_nsn(n, d, s.substream(0))`` and a target
    uniform on (-1, 1)^d from ``s.substream(1)``, scaled into the L1 ball of
    ``radius`` when it lies outside. Both substreams' keys are mixed in one
    call."""
    keys = _substream_keys(streams, [0, 1]).reshape(-1, 2, 2)
    vectors = _nsn_vectors(keys[:, 0], n, d)
    targets = _uniforms(keys[:, 1], d, -1.0, 1.0)
    l1 = np.abs(targets).sum(axis=1)
    outside = l1 > radius
    targets[outside] *= (radius / l1[outside])[:, None]
    return vectors, targets


def _groups(n: int, group_size: int | None) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` groups of an n-prefix: the whole prefix without
    ``group_size``, else consecutive groups of ``group_size`` whose last absorbs
    the remainder, and none when n < ``group_size``."""
    if group_size is None:
        return [(0, n)]
    starts = list(range(0, n - group_size + 1, group_size))
    return list(zip(starts, [*starts[1:], n]))


def _solve_batch(base: SolverParams, group_size: int | None, successes: dict, streams, vectors,
                 targets):
    """Count the batch's hits: per n, ascending, each group of the prefix is
    solved for every trial without a hit yet in one engine call, and a trial
    hits when any of its groups does. An exhaustive group asks one subset index
    over the trials' group vectors which hold a k-subset within epsilon; a
    greedy scan is :func:`_solve_greedy_batch`. The ungrouped exhaustive scan
    stops a trial at its first hit and counts it for that n and every larger
    one."""
    if base.strategy is Strategy.GREEDY_SWAP:
        _solve_greedy_batch(base, group_size, successes, streams, vectors, targets)
        return
    k, epsilon = base.k, base.epsilon
    live = np.arange(len(streams))  # trials without a hit yet
    for n in successes:
        pending = live  # trials without a hit at this n
        for lo, hi in _groups(n, group_size):
            hits = solvers._SubsetIndex(vectors[pending, lo:hi]).count(targets[pending], k,
                                                                       epsilon) > 0
            pending = pending[~hits]
            if not pending.size:
                break
        if group_size is not None:
            successes[n] += live.size - pending.size
        else:
            _count_from(successes, n, live.size - pending.size)
            live = pending
            if not live.size:
                break


def _descent_hits(base: SolverParams, pool: np.ndarray, goals: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Which of the P problems (``(P, n, d)`` pool, ``(P, d)`` goals) end a
    swap descent within epsilon from one of their ``(P, S, k)`` starts, all
    descending in one batch (:func:`solvers._swap_descents`)."""
    problems, per, k = starts.shape
    starts = np.sort(starts.reshape(problems * per, k), axis=1)
    owners = np.arange(problems).repeat(per)
    residuals = solvers._swap_descents(pool, goals, owners, starts, base.max_iters)[1]
    return (residuals.reshape(problems, per) <= base.epsilon).any(axis=1)


def _solve_greedy_batch(base: SolverParams, group_size: int | None, successes: dict, streams,
                        vectors, targets):
    """Count the batch's greedy hits in two phases; a trial hits at n when a
    descent from the greedy build or from a restart head of one of its groups
    ends within epsilon.

    Phase 1: per n and group, every trial without a build hit at that n yet
    descends from its greedy build alone. Phase 2: only the trials whose
    every build missed at some n draw restart heads, once for the batch, at
    the group lengths of the n where they missed and no other (the keys mixed
    in two calls, each restart stream read once for all its lengths,
    :func:`solvers._restart_heads`), and per n and group those without a hit
    yet descend from their ``restarts`` heads. A start's descent does not
    depend on the other starts of its batch, and a problem's minimum residual
    over its starts is within epsilon exactly when one start's is, so each
    trial's hit is its one-trial :func:`solvers.search_subsets` solve's."""
    k = base.k
    groups = {n: _groups(n, group_size) for n in successes}
    missed = {}  # n: the trials whose every group's build missed
    for n, spans in groups.items():
        pending = np.arange(len(streams))
        for lo, hi in spans:
            pool, goals = vectors[pending, lo:hi], targets[pending]
            builds = solvers._greedy_builds(pool, goals, k)[:, None]
            pending = pending[~_descent_hits(base, pool, goals, builds)]
            if not pending.size:
                break
        missed[n] = pending
    needy = np.unique(np.concatenate(list(missed.values())))
    if base.restarts and needy.size:
        lengths = sorted({hi - lo for spans in groups.values() for lo, hi in spans})
        used = np.zeros((len(lengths), needy.size), dtype=bool)  # (length, needy trial)
        for n, spans in groups.items():
            for lo, hi in spans:
                used[lengths.index(hi - lo), needy.searchsorted(missed[n])] = True
        length_of, trial_of = used.nonzero()
        drawn = solvers._restart_heads(_substream_keys(streams[needy], [2]), trial_of,
                                       np.take(lengths, length_of), base.restarts, k)
        row_of = used.cumsum().reshape(used.shape) - 1  # a used (length, trial)'s row of drawn
        for n, spans in groups.items():
            pending = missed[n]
            for lo, hi in spans:
                if not pending.size:
                    break
                rows = row_of[lengths.index(hi - lo), needy.searchsorted(pending)]
                hits = _descent_hits(base, vectors[pending, lo:hi], targets[pending], drawn[rows])
                pending = pending[~hits]
            missed[n] = pending
    for n in successes:
        successes[n] += len(streams) - missed[n].size


def scan_mrss_phase(
    d: int,
    k: int,
    n_values,
    epsilon: float,
    trials: int,
    seed: SeedSpec,
    strategy: Strategy = Strategy.EXHAUSTIVE,
    target_radius: float = 1.0,
    group_size: int | None = None,
) -> list[dict]:
    """Success rate of fixed-cardinality solves as the ensemble grows.

    Per trial one ensemble of max(n) vectors is drawn and prefixes are reused
    (paired seeds). Targets are uniform on (-1,1)^d scaled into the L1 ball of
    ``target_radius``. Rates are labelled empirical: the success constant is
    never asserted. Columns: n, trials, successes, rate, wilson bounds, echo.

    With ``group_size`` G, an n-prefix is split into consecutive disjoint
    groups of G vectors, the last absorbing the remainder (none when n < G),
    and a trial hits when any group holds a hit; without it the group is the
    whole prefix (:func:`_groups`).

    The trials are drawn, each from its own substream, in batches
    (:func:`_batches`). A trial's bytes are its draws and what the batch keeps
    for its solves between engine calls: for its largest group, its
    exhaustive index's 8 d + 12 bytes per sum, but not a query's window arrays
    or ``_QUERY_BYTES`` group, so an exhaustive batch can hold a few times the
    cap; for a greedy trial, its ``restarts + 1`` starts and one row of
    ``restarts`` heads a group length, k indices each. The greedy engines'
    transients stay under their own caps (``solvers._DESCENT_BYTES``,
    ``sampling._HEADS_BYTES``) whatever the batch size, so the default greedy
    scan is one batch. A batch's trial keys, and the keys of their draws and
    restarts, come from a few vectorised mixes (:func:`sampling._substream_keys`),
    with no :class:`SeedSpec` built per trial. Each distinct n is solved once,
    in ascending order, each group for the whole batch in one engine call
    (:func:`_solve_batch`). The exhaustive scan without groups stops a trial
    at its first hit and counts it for every larger n: the colex family of a
    prefix is a prefix of the larger family, built by the same additions, so
    the exhaustive minimum can only fall as n grows. An exhaustive scan checks
    every group's family against the enumeration budget before the first
    draw, in the order of ``n_values``. Greedy-swap and grouped scans solve every n: a
    local-search miss is not monotone in n, and the last group changes its
    members with n. A greedy batch solves in two phases
    (:func:`_solve_greedy_batch`): every trial descends from its greedy
    builds, and only the trials whose builds all missed at some n draw
    restart heads and descend from them. Every row is the one solving trial
    by trial gives.
    """
    sizes = _scan_sizes(n_values, k, trials)
    if not target_radius >= 0.0:  # a negative radius flips the target, NaN skips the projection
        raise ParameterError(f"target_radius must be >= 0, got {target_radius}")
    if group_size is not None and group_size < k * k:
        raise ParameterError("group_size must be >= k^2")
    if d < 1:  # sampling would reject it before any budget check
        raise ParameterError("d must be >= 1")
    base = SolverParams(epsilon=epsilon, k=k, strategy=strategy)
    lengths = {hi - lo for n in sizes for lo, hi in _groups(n, group_size)}
    if strategy is Strategy.GREEDY_SWAP:  # its starts, and a restart-head row a group length
        solve_bytes = 8 * k * (base.restarts + 1 + base.restarts * len(lengths))
    else:
        for n in n_values:  # in the given order, so the first group over budget is named
            for lo, hi in _groups(int(n), group_size):
                _check_family_budget(hi - lo, [k], d, base.enumeration_budget)
        solve_bytes = solvers._index_bytes(max(lengths, default=0), k, d)
    trial_bytes = 16 * (sizes[-1] * (d + 1) + d + 2) + solve_bytes  # its draws' words and values
    successes = dict.fromkeys(sizes, 0)
    for batch in _batches(trials, trial_bytes):
        streams = _substream_keys([_key(seed)], batch)
        _solve_batch(base, group_size, successes, streams,
                     *_mrss_draws(streams, sizes[-1], d, target_radius))
    echo = {
        "d": d,
        "k": k,
        "epsilon": epsilon,
        "strategy": strategy.value,
        "target_radius": target_radius,
        "group_size": group_size if group_size is not None else "",
        "master_seed": seed.master_seed,
        "stream_id": seed.stream_id,
    }
    return [_rate_row(n, trials, successes[n], echo) for n in sizes]


def scan_prune_success(
    d: int,
    c0: int,
    c1: int,
    n_values,
    epsilon: float,
    trials: int,
    seed: SeedSpec,
    params: PruneParams | None = None,
    spatial: int = 4,
) -> list[dict]:
    """Channel-solve hit rate of single-layer pruning as overparameterisation
    grows; explicitly empirical constant-hunting, nothing asserted.

    Trial ``t`` is :func:`prune_random_layer` on ``seed.substream(t)``, so its
    probe error is the one a saved ``prune-one`` bundle re-verifies.
    ``params``, when given, must carry the same ``epsilon``.
    """
    if params is not None and params.epsilon != epsilon:
        raise ParameterError(f"epsilon {epsilon} disagrees with params.epsilon {params.epsilon}")
    base = params or PruneParams(epsilon=epsilon)
    rows = []
    for n in _scan_sizes(n_values, 1, trials):
        channel_hits = 0
        channel_total = 0
        full = 0
        probe_errors = []
        for trial in range(trials):
            report = prune_random_layer(d, c0, c1, n, base, seed.substream(trial), spatial).report
            solves = report.layers[0].channel_solves
            channel_hits += sum(1 for s in solves if s.success)
            channel_total += len(solves)
            full += int(report.fully_successful)
            probe_errors.append(report.empirical_max_error)
        rows.append(
            {
                "n": n,
                "trials": trials,
                "channel_hits": channel_hits,
                "channel_total": channel_total,
                "channel_rate": channel_hits / channel_total if channel_total else 0.0,
                "fully_successful": full,
                "median_probe_error": float(np.median(probe_errors)),
                "max_probe_error": float(np.max(probe_errors)),
                "d": d,
                "c0": c0,
                "c1": c1,
                "epsilon": base.epsilon,
                "mode": base.mode.value,
                "strategy": base.strategy.value,
                "spatial": spatial,
                "master_seed": seed.master_seed,
                "stream_id": seed.stream_id,
            }
        )
    return rows
