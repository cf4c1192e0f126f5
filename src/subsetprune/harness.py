"""Monte Carlo verification of the closed-form probability bounds, plus
phase-transition scans with CSV output.

Statistical convention: an inequality ``p <= b`` (or ``>=``) is declared PASS
when the empirical estimate respects the bound up to three standard errors.
Standard errors for binomial frequencies use the Agresti-Coull adjustment
(z = 3), which stays honest when the hit count is zero. Paired identities
(where both sides are estimated from the same trials) are tested on the
per-trial differences, whose expectation is exactly zero under the identity.

Every check samples through :class:`SeedSpec` substreams in fixed-size blocks,
so results are bit-reproducible and independent of how trials would be
fanned out across workers (block ``b`` always draws from ``seed.substream(b)``).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ParameterError
from .pruning import PruneParams, make_probes, probe_error, prune_single_layer
from .sampling import (
    SeedSpec,
    _generator,
    _normals,
    sample_normal_tensor,
    sample_nsn,
    sample_uniform,
)
from .solvers import (
    SolverParams,
    Strategy,
    _check_family_budget,
    _smallest_covering_prefix,
    dimension_constant,
    partition_boost,
    search_subsets,
)
from .tensors import norm_l1

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

_BLOCK = 1 << 14  # trials per sampling block; fixed so reruns are bit-identical
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


def binomial_std_error(successes: int, trials: int, z: float = 3.0) -> float:
    """Agresti-Coull adjusted standard error; positive even at 0 or all hits."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    adjusted_n = trials + z * z
    p = (successes + z * z / 2.0) / adjusted_n
    return math.sqrt(p * (1.0 - p) / adjusted_n)


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the limits are exactly 0 and 1 at the degenerate counts; avoid fp dust
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return low, high


def _blocks(trials: int):
    done = 0
    index = 0
    while done < trials:
        count = min(_BLOCK, trials - done)
        yield index, count
        done += count
        index += 1


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
    """Empirical chi-squared(d) tail frequencies against exp(-t) on both sides."""
    if d < 1 or not t > 0.0 or trials < 1:
        raise ParameterError("need d >= 1, t > 0, trials >= 1")
    upper_threshold = d + 2.0 * math.sqrt(d * t) + 2.0 * t
    lower_threshold = d - 2.0 * math.sqrt(d * t)
    hits_hi = 0
    hits_lo = 0
    for index, count in _blocks(trials):
        rng = _generator(seed.substream(index))
        draws = _normals(rng, count * d).reshape(count, d)
        stat = (draws * draws).sum(axis=1)
        hits_hi += int((stat >= upper_threshold).sum())
        hits_lo += int((stat <= lower_threshold).sum())
    bound = chi_squared_tail_bound(t)
    params = {"d": d, "t": t}
    upper = BoundCheckResult(
        f"chi2 upper tail d={d} t={t}",
        hits_hi / trials,
        binomial_std_error(hits_hi, trials),
        bound,
        BoundDirection.UPPER,
        trials,
        params,
    )
    lower = BoundCheckResult(
        f"chi2 lower tail d={d} t={t}",
        hits_lo / trials,
        binomial_std_error(hits_lo, trials),
        bound,
        BoundDirection.UPPER,
        trials,
        params,
    )
    return upper, lower


def check_most_probable_interval(
    sigma: float, z: float, epsilon: float, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """For centred normals, the interval around 0 is the most probable one of
    its width. Tested paired: per draw, 1[centre hit] - 1[shifted hit] has
    nonnegative expectation."""
    if not sigma > 0.0 or not epsilon > 0.0 or trials < 1:
        raise ParameterError("need sigma > 0, epsilon > 0, trials >= 1")
    diff_sum = 0.0
    diff_sq_sum = 0.0
    for index, count in _blocks(trials):
        rng = _generator(seed.substream(index))
        x = sigma * _normals(rng, count)
        centre = (np.abs(x) <= epsilon).astype(np.float64)
        shifted = (np.abs(x - z) <= epsilon).astype(np.float64)
        delta = centre - shifted
        diff_sum += float(delta.sum())
        diff_sq_sum += float((delta * delta).sum())
    mean = diff_sum / trials
    var = max(0.0, diff_sq_sum / trials - mean * mean)
    std_error = math.sqrt(var / trials)
    return BoundCheckResult(
        f"most probable interval sigma={sigma} z={z} eps={epsilon}",
        mean,
        std_error,
        0.0,
        BoundDirection.LOWER,
        trials,
        {"sigma": sigma, "z": z, "epsilon": epsilon},
    )


def _nsn_window_sums(rng, count: int, vectors: int, d: int) -> np.ndarray:
    """(count, vectors, d) raw NSN draws: scalars first, then directions."""
    scalars = _normals(rng, count * vectors).reshape(count, vectors)
    directions = _normals(rng, count * vectors * d).reshape(count, vectors, d)
    return scalars[:, :, None] * directions


def check_nsn_hit_lower_bound(
    d: int, k: int, epsilon: float, z, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """Frequency of ``sum of k NSN vectors`` landing in the eps box around z,
    against the closed-form lower bound."""
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
    hits = 0
    for index, count in _blocks(trials):
        rng = _generator(seed.substream(index))
        sums = _nsn_window_sums(rng, count, k, d).sum(axis=1)
        hits += int((np.abs(sums - z) <= epsilon).all(axis=1).sum())
    return BoundCheckResult(
        f"nsn hit lower bound d={d} k={k} eps={epsilon}",
        hits / trials,
        binomial_std_error(hits, trials),
        nsn_hit_lower_bound(d, k, epsilon),
        BoundDirection.LOWER,
        trials,
        {"d": d, "k": k, "epsilon": epsilon, "z": z.tolist()},
    )


def check_joint_upper_bound(
    d: int, k: int, j: int, epsilon: float, z, trials: int, seed: SeedSpec
) -> BoundCheckResult:
    """Joint frequency of two overlapping k-windows both hitting the eps box.

    Windows share the middle block: A sums vectors 1..j, B sums j+1..k, C sums
    k+1..k+j; the event is {A+B and B+C both in the box}. The asymptotic
    hypothesis on k carries an unknown constant, so only the fixed desk regime
    k >= 64 is enforced here and the bound is checked empirically.
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
    hits = 0
    for index, count in _blocks(trials):
        rng = _generator(seed.substream(index))
        draws = _nsn_window_sums(rng, count, k + j, d)
        first = draws[:, :j].sum(axis=1)
        middle = draws[:, j:k].sum(axis=1) if j < k else np.zeros_like(first)
        last = draws[:, k:].sum(axis=1)
        hit = (np.abs(first + middle - z) <= epsilon).all(axis=1)
        hit &= (np.abs(middle + last - z) <= epsilon).all(axis=1)
        hits += int(hit.sum())
    return BoundCheckResult(
        f"joint window upper bound d={d} k={k} j={j} eps={epsilon}",
        hits / trials,
        binomial_std_error(hits, trials),
        joint_hit_upper_bound(d, j, epsilon),
        BoundDirection.UPPER,
        trials,
        {"d": d, "k": k, "j": j, "epsilon": epsilon, "z": z.tolist(),
         "note": "asymptotic k-regime not certified (unknown constant); desk scale"},
    )


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

    sum_a = sum_a2 = 0.0  # first identity differences
    sum_b = sum_b2 = 0.0  # second identity differences
    sum_count = sum_square = 0.0
    sum_single = sum_overlap = 0.0
    for index, count in _blocks(trials):
        rng = _generator(seed.substream(index))
        scalars = _normals(rng, count * n).reshape(count, n)
        directions = _normals(rng, count * n * d).reshape(count, n, d)
        vectors = scalars[:, :, None] * directions
        hit = np.empty((count, ncomb), dtype=bool)
        for lo in range(0, ncomb, chunk):
            sums = vectors[:, combos[lo : lo + chunk], :].sum(axis=2)
            hit[:, lo : lo + chunk] = (np.abs(sums - z) <= epsilon).all(axis=2)
        t_count = hit.sum(axis=1).astype(np.float64)
        t_square = t_count * t_count

        hit_first = hit[:, 0].astype(np.float64)  # combos[0] == (0 .. k-1)
        single = ncomb * hit_first
        overlap = np.zeros(count)
        for j, pair in enumerate(canonical):
            pair_sum = vectors[:, pair, :].sum(axis=1)
            pair_hit = (np.abs(pair_sum - z) <= epsilon).all(axis=1)
            overlap += hyper[j] * (hit[:, 0] & pair_hit).astype(np.float64)
        overlap *= float(ncomb) ** 2

        da = t_count - single
        db = t_square - overlap
        sum_a += float(da.sum())
        sum_a2 += float((da * da).sum())
        sum_b += float(db.sum())
        sum_b2 += float((db * db).sum())
        sum_count += float(t_count.sum())
        sum_square += float(t_square.sum())
        sum_single += float(single.sum())
        sum_overlap += float(overlap.sum())

    mean_a = sum_a / trials
    mean_b = sum_b / trials
    var_a = max(0.0, sum_a2 / trials - mean_a * mean_a)
    var_b = max(0.0, sum_b2 / trials - mean_b * mean_b)
    return SecondMomentReport(
        trials=trials,
        mean_count=sum_count / trials,
        single_side=sum_single / trials,
        first_diff=mean_a,
        first_std_error=math.sqrt(var_a / trials),
        mean_square=sum_square / trials,
        overlap_side=sum_overlap / trials,
        second_diff=mean_b,
        second_std_error=math.sqrt(var_b / trials),
        params={"n": n, "k": k, "d": d, "epsilon": epsilon, "z": z.tolist()},
    )


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
    hits = 0
    block = max(1, min(_BLOCK, (1 << 24) // max(1, n)))  # cap the (block x n) draw
    done = 0
    index = 0
    while done < trials:
        count = min(block, trials - done)
        rng = _generator(seed.substream(index))
        u = rng.random((count, n))
        kth = np.partition(u, k - 1, axis=1)[:, k - 1]
        overlap = (u[:, :k] <= kth[:, None]).sum(axis=1)
        hits += int((overlap >= threshold).sum())
        done += count
        index += 1
    return BoundCheckResult(
        f"subset intersection tail n={n} k={k} d={d}",
        hits / trials,
        binomial_std_error(hits, trials),
        intersection_tail_bound(k, d),
        BoundDirection.UPPER,
        trials,
        {"n": n, "k": k, "d": d, "threshold": threshold},
    )


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


def _count_from(successes: dict, first: int | None) -> None:
    """Count a success for ``first`` and every larger n (none when ``first`` is None)."""
    if first is not None:
        for n in successes:
            successes[n] += n >= first


def scan_rssp_phase(
    epsilon: float,
    n_values,
    grid_size: int,
    trials: int,
    seed: SeedSpec,
) -> list[dict]:
    """Cover success rate of uniform ensembles on a symmetric target grid.

    Trial t draws max(n) uniforms on (-1, 1) once and reuses prefixes for every
    n (paired seeds), so the per-trial success indicator is monotone in n by
    construction. Each distinct n is scanned once, in ascending order, and a
    trial stops at its first covered n: it folds its interval union once
    across n and counts a success for that n and every larger one, which
    covering n alone would give bit for bit. Columns: n, trials, successes,
    rate, wilson_low, wilson_high plus the parameter echo.
    """
    sizes = _scan_sizes(n_values, 1, trials)
    if grid_size < 1:
        raise ParameterError("grid_size must be >= 1")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    grid = np.linspace(-1.0, 1.0, grid_size)
    successes = dict.fromkeys(sizes, 0)
    for trial in range(trials):
        draws = sample_uniform(sizes[-1], seed.substream(trial), -1.0, 1.0)
        _count_from(successes, _smallest_covering_prefix(draws, epsilon, grid, sizes))
    echo = {
        "epsilon": epsilon,
        "grid_size": grid_size,
        "master_seed": seed.master_seed,
        "stream_id": seed.stream_id,
    }
    return [_rate_row(n, trials, successes[n], echo) for n in sizes]


def _l1_projected_target(d: int, radius: float, seed: SeedSpec) -> np.ndarray:
    z = sample_uniform(d, seed, -1.0, 1.0)
    l1 = float(np.abs(z).sum())
    if l1 > radius:
        z = z * (radius / l1)
    return z


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

    Each distinct n is solved once, in ascending order. The exhaustive scan
    without groups stops a trial at its first hit and counts it for every
    larger n: the colex family of a prefix is a prefix of the larger family,
    built by the same additions, so the exhaustive minimum can only fall as n
    grows. Every requested n's family is checked against the enumeration
    budget before the first trial. Greedy-swap and grouped scans solve every
    n: a local-search miss is not monotone in n, and the last group of
    :func:`partition_boost` changes its members with n.
    """
    sizes = _scan_sizes(n_values, k, trials)
    if group_size is not None and group_size < k * k:
        raise ParameterError("group_size must be >= k^2")
    if d < 1:  # sampling would reject it before any budget check
        raise ParameterError("d must be >= 1")
    base = SolverParams(epsilon=epsilon, k=k, strategy=strategy)
    stop_at_first_hit = group_size is None and strategy is Strategy.EXHAUSTIVE
    if stop_at_first_hit:
        for n in n_values:  # in the given order, so the first n over budget is named
            _check_family_budget(int(n), [k], d, base.enumeration_budget)
    successes = dict.fromkeys(sizes, 0)
    for trial in range(trials):
        stream = seed.substream(trial)
        ensemble = sample_nsn(sizes[-1], d, stream.substream(0))
        target = _l1_projected_target(d, target_radius, stream.substream(1))
        params = replace(base, seed=stream.substream(2))
        for n in sizes:
            prefix = ensemble.take(n)
            if group_size is None:
                hit = search_subsets(prefix.vectors, target, params).solution is not None
            elif n < group_size:
                hit = False
            else:
                hit = partition_boost(prefix.vectors, target, params, group_size) is not None
            if hit and stop_at_first_hit:
                _count_from(successes, n)
                break
            successes[n] += hit
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
            stream = seed.substream(trial)
            expansion = sample_normal_tensor((1, 1, c0, 2 * n * c0), stream.substream(0))
            mixing = sample_normal_tensor((d, d, 2 * n * c0, c1), stream.substream(1))
            raw = sample_normal_tensor((d, d, c0, c1), stream.substream(2))
            target = type(raw)(raw.data / norm_l1(raw))
            result = prune_single_layer(mixing, expansion, target, base, stream.substream(3))
            channel_hits += sum(1 for s in result.channel_solves if s.success)
            channel_total += len(result.channel_solves)
            full += int(result.fully_successful)
            probes = make_probes(spatial, spatial, c0, base.probe_count, stream.substream(4),
                                 base.magnitude_bound)
            probe_errors.append(
                probe_error((target,), (expansion, mixing), (result.mask,), probes)
            )
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
