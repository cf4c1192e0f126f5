"""Layer-wise structured pruning of random two-stage convolutions.

The pipeline realises three facts as executable code:

1. *ReLU-free split* (:func:`drop_relu_decompose`): after a ``2n``-channel-
   blocked mask and a sign-separating filter mask, the ReLU of the masked
   1 x 1 expansion satisfies, entrywise and for every input,
   ``relu((V . S) * X) == (V . S)+ * X+ + (V . S)- * X-``.
2. *Single-layer pruning* (:func:`prune_single_layer`): for each input channel
   and sign, the surviving expansion entries scale the following kernel's
   slices into candidate vectors (flattened over row, col, out-channel), and a
   subset-sum solve picks at most ``k_budget`` of them whose sum approximates
   the target channel (positive side) or its negation (negative side) within
   ``eps / (2 d^2 c1 c0)`` per entry. The third mask keeps exactly the
   selected kernels, so the final mask is the composition of a channel-blocked
   mask and one filter removal.
3. *Multi-layer composition* (:func:`prune_network`): each target layer is
   pruned with per-layer budget ``eps / (2 ell)``; if every channel solve of
   every layer hits, the end-to-end error on any input of max-norm <= M is at
   most ``M ((1 + eps/(2 ell))^ell - 1)``: the nets have no biases, so both
   chains are positively homogeneous and the error scales linearly in M.
   :func:`prune_random_layer` samples and prunes one seeded layer, bound ``eps * M``.

Both return a :class:`PrunedNetworkBundle` whose report's empirical error is
:func:`bundle_probe_error` of the bundle, the check ``dump-report`` repeats.
The report keeps only what the run adds: each layer's
:class:`LayerPruneResult`, the probe error and the bound. A saved report
writes every other key from the bundle, and :func:`load_bundle` rebuilds each
layer record from the bundle's own kernels and masks, reading only the
selected kernels, the tolerance and the k budget; :func:`report_mismatch`
names the first stored key that differs from its re-derived value.

Channel solves that the search cannot hit are first-class results: the best
near-miss subset is still applied (so a pruned network always exists) and the
miss is reported per (layer, channel, sign), never silently absorbed.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ParameterError, ShapeError, StructureError
from .masks import (
    ChannelBlocked,
    Mask4,
    channel_blocked_mask,
    compose,
    filter_removal_mask,
    mask_from_bytes,
    mask_to_bytes,
    sign_split_mask,
    validate_structure,
)
from .sampling import SeedSpec, _key, _substream_keys, _uniforms, sample_normal_tensor
from .solvers import (
    DEFAULT_ENUMERATION_BUDGET,
    CardinalityMode,
    SolverParams,
    SearchOutcome,
    Strategy,
    _SubsetIndex,
    _make_solution,
    search_subsets,
)
from .tensors import FeatureMap, Tensor4, _conv, _finite, neg_part, norm_l1, pos_part

__all__ = [
    "NetworkSpec",
    "PruneParams",
    "ChannelSolve",
    "LayerPruneResult",
    "PruneReport",
    "PrunedNetworkBundle",
    "default_k_budget",
    "drop_relu_decompose",
    "prune_single_layer",
    "prune_network",
    "prune_random_layer",
    "evaluate_network",
    "make_probes",
    "probe_error",
    "single_layer_output",
    "save_bundle",
    "load_bundle",
    "report_mismatch",
    "bundle_probe_error",
    "composition_bound",
    "kept_channel_costs",
]

# substream offsets of a pruning run's seed; fixed so reruns are reproducible
_STREAM_SOLVER = 1_000
_STREAM_PROBES = 2_000
_STREAM_TARGETS = 100  # of the master seed, one per target layer


@dataclass(frozen=True)
class NetworkSpec:
    """Shapes of a target network and of the doubled random network that hosts it."""

    depth: int  # number of target layers
    spatial: int  # probe inputs live on spatial x spatial grids
    channels: tuple[int, ...]  # c_0 .. c_depth
    kernel_sizes: tuple[int, ...]  # d_1 .. d_depth
    overparam: tuple[int, ...]  # n_1 .. n_depth

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "kernel_sizes", tuple(int(d) for d in self.kernel_sizes))
        object.__setattr__(self, "overparam", tuple(int(n) for n in self.overparam))
        if self.depth < 1 or self.spatial < 1:
            raise ParameterError("depth and spatial size must be >= 1")
        if len(self.channels) != self.depth + 1:
            raise ParameterError("channels must list c_0 .. c_depth")
        if len(self.kernel_sizes) != self.depth or len(self.overparam) != self.depth:
            raise ParameterError("kernel_sizes and overparam must list one value per layer")
        if min(self.channels) < 1 or min(self.kernel_sizes) < 1 or min(self.overparam) < 1:
            raise ParameterError("all sizes must be positive")

    def random_kernel_shapes(self) -> list[tuple[int, int, int, int]]:
        """Shapes of the 2*depth random kernels: a 1 x 1 expansion then a mixing
        kernel per target layer."""
        shapes = []
        for i in range(self.depth):
            c_in, c_out = self.channels[i], self.channels[i + 1]
            d, n = self.kernel_sizes[i], self.overparam[i]
            shapes.append((1, 1, c_in, 2 * n * c_in))
            shapes.append((d, d, 2 * n * c_in, c_out))
        return shapes

    def target_kernel_shapes(self) -> list[tuple[int, int, int, int]]:
        return [
            (self.kernel_sizes[i], self.kernel_sizes[i], self.channels[i], self.channels[i + 1])
            for i in range(self.depth)
        ]

    def sample_random_net(self, seed: SeedSpec) -> list[Tensor4]:
        return [
            sample_normal_tensor(shape, seed.substream(i))
            for i, shape in enumerate(self.random_kernel_shapes())
        ]

    def sample_targets(self, seed: SeedSpec) -> list[Tensor4]:
        """Unit-L1 target kernels, layer ``i`` drawn from ``seed.substream(100 + i)``."""
        return [
            _unit_l1_target(shape, seed.substream(_STREAM_TARGETS + i))
            for i, shape in enumerate(self.target_kernel_shapes())
        ]


def _unit_l1_target(shape, seed: SeedSpec) -> Tensor4:
    raw = sample_normal_tensor(shape, seed)
    return Tensor4(raw.data / norm_l1(raw))


@dataclass(frozen=True)
class PruneParams:
    """Budget and solver knobs for one pruning run."""

    epsilon: float
    magnitude_bound: float = 1.0  # inputs are promised to satisfy max-norm <= this
    k_budget: int | None = None  # None -> floor(sqrt(n / (d ln(1/eps)))) per layer
    mode: CardinalityMode = CardinalityMode.AT_MOST
    strategy: Strategy = Strategy.EXHAUSTIVE
    probe_count: int = 32
    restarts: int = 8
    max_iters: int = 200
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError("epsilon must lie in (0, 1)")
        if not self.magnitude_bound > 0.0:
            raise ParameterError("magnitude bound must be positive")
        if not math.isfinite(2.0 * self.magnitude_bound):  # the probes span (-M, M)
            raise ParameterError(f"magnitude bound {self.magnitude_bound!r} is too large: "
                                 "2 * M must be finite")
        if self.k_budget is not None and self.k_budget < 1:
            raise ParameterError("k_budget must be >= 1")
        if self.probe_count < 0:
            raise ParameterError("probe_count must be >= 0")


def default_k_budget(n: int, d: int, epsilon: float) -> int:
    """Heuristic per-block cardinality cap ``sqrt(n / (d ln(1/eps)))``.

    A default anchor only: nothing downstream relies on this exact count.
    """
    if n < 1 or d < 1 or not 0.0 < epsilon < 1.0:
        raise ParameterError("need n, d >= 1 and epsilon in (0, 1)")
    return max(1, int(math.floor(math.sqrt(n / (d * math.log(1.0 / epsilon))))))


def drop_relu_decompose(expansion: Tensor4, blocked_mask: Mask4) -> tuple[Mask4, Mask4]:
    """Build the sign-separating filter mask and the combined mask.

    ``blocked_mask`` must be a valid ``ChannelBlocked(2n)`` mask congruent to
    ``expansion``. Returns ``(sign_mask, combined)`` where ``combined`` is the
    AND of both. The ReLU-free identity holds for the masked expansion on
    every input, including mixed-sign ones.
    """
    if not isinstance(blocked_mask.kind, ChannelBlocked):
        raise StructureError("expected a channel-blocked mask")
    report = validate_structure(blocked_mask)
    if not report.valid:
        raise StructureError(f"invalid channel-blocked mask: {report.message}")
    if blocked_mask.shape != expansion.shape:
        raise ShapeError("mask and expansion shapes differ")
    width = blocked_mask.kind.n
    if width % 2 != 0:
        raise StructureError("block width must be even (a 2n-channel-blocked mask)")
    blocked = blocked_mask.apply(expansion)
    sign_mask = sign_split_mask(blocked, width // 2)
    return sign_mask, compose(blocked_mask, sign_mask)


@dataclass(frozen=True)
class ChannelSolve:
    """One subset-sum solve: (input channel, sign) against a flattened target."""

    channel: int
    sign: int  # +1: approximate the target; -1: approximate its negation
    pool: tuple[int, ...]  # candidate kernel ids (nonzero entries of the sign block)
    selected: tuple[int, ...]  # kernel ids chosen (best found, hit or not)
    residual_inf: float
    tolerance: float
    status: str  # hit / not-found / proven-infeasible

    @property
    def success(self) -> bool:
        return self.status == "hit"


@dataclass(frozen=True)
class LayerPruneResult:
    mask: Mask4
    pruned_first: Tensor4  # masked 1 x 1 expansion
    channel_solves: tuple[ChannelSolve, ...]
    kept_kernels: tuple[int, ...]
    tolerance: float
    k_budget: int
    occupancy_warnings: tuple[str, ...]

    @property
    def fully_successful(self) -> bool:
        return all(s.success for s in self.channel_solves)


def _kernel_rows(mixing: Tensor4) -> np.ndarray:
    """Row ``k`` is ``mixing[:, :, k, :]`` flattened row-major over (row, col, kernel)."""
    return np.transpose(mixing.data, (2, 0, 1, 3)).reshape(mixing.channels_in, -1)


class _PreparedLayer:
    """The target-free half of :func:`prune_single_layer` for one random pair.

    It checks the pair's shapes, splits the expansion by sign and keeps each
    (channel, sign) pool with its scaled candidate vectors, occupancy
    warning and exhaustive subset index; :meth:`prune` solves one target
    against them. An index builds its sums on first use and keeps them for
    later targets.
    """

    def __init__(self, mixing: Tensor4, expansion: Tensor4):
        c0 = expansion.channels_in
        if expansion.rows != 1 or expansion.cols != 1:
            raise ShapeError("expansion kernel must be 1 x 1 spatially")
        if expansion.kernels % (2 * c0) != 0:
            raise ShapeError("expansion kernels must be 2 * n * c0 for integer n")
        self.n = n = expansion.kernels // (2 * c0)
        if mixing.cols != mixing.rows:
            raise ShapeError("mixing kernel must be square")
        if mixing.channels_in != expansion.kernels:
            raise ShapeError("mixing channels must match expansion kernels")
        self.mixing, self.expansion = Tensor4(mixing.data.copy()), Tensor4(expansion.data.copy())
        self.blocked = channel_blocked_mask(1, c0, 2 * n)
        _, combined = drop_relu_decompose(self.expansion, self.blocked)
        masked = combined.apply(self.expansion)
        positive = pos_part(masked).data[0, 0]
        negative = neg_part(masked).data[0, 0]
        rows = _kernel_rows(self.mixing)

        self.pools: list[tuple[int, int, tuple[int, ...], np.ndarray, _SubsetIndex]] = []
        self.warnings: list[str] = []
        for channel in range(c0):
            base = channel * 2 * n
            for sign, values, lo in (
                (+1, positive[channel], base),
                (-1, negative[channel], base + n),
            ):
                pool = tuple(int(k) for k in range(lo, lo + n) if values[k] > 0.0)
                if len(pool) * 3 <= n:
                    self.warnings.append(
                        f"channel {channel} sign {sign:+d}: only {len(pool)} of {n} block "
                        "entries survive the sign split (expected more than n/3)"
                    )
                candidates = rows[list(pool)] * values[list(pool), None]
                index = _SubsetIndex(candidates[None])
                self.pools.append((channel, sign, pool, candidates, index))

    def prune(self, target: Tensor4, params: PruneParams, seed: SeedSpec) -> LayerPruneResult:
        """One target's channel solves, masks and pruned kernels. A solve over
        the enumeration budget raises :class:`BudgetError` naming its channel,
        sign and pool size."""
        mixing, expansion = self.mixing, self.expansion
        d, c1, c0 = mixing.rows, mixing.kernels, expansion.channels_in
        if target.shape != (d, d, c0, c1):
            raise ShapeError(f"target shape {target.shape} != {(d, d, c0, c1)}")
        if norm_l1(target) > 1.0 + 1e-9:
            raise ParameterError("target kernel must have L1 norm <= 1")
        tolerance = params.epsilon / (2.0 * d * d * c1 * c0)
        k_budget = params.k_budget or default_k_budget(self.n, d, params.epsilon)

        solves: list[ChannelSolve] = []
        kept: set[int] = set()
        for channel, sign, pool, candidates, index in self.pools:
            flat_target = sign * target.data[:, :, channel, :].reshape(-1)
            solver = SolverParams(
                epsilon=tolerance,
                k=k_budget,
                mode=params.mode,
                strategy=params.strategy,
                restarts=params.restarts,
                max_iters=params.max_iters,
                enumeration_budget=params.enumeration_budget,
                seed=seed.substream(2 * channel + (sign < 0)),
            )
            try:
                outcome = search_subsets(candidates, flat_target, solver, index)
            except BudgetError as exc:
                raise BudgetError(f"channel {channel} sign {sign:+d}, pool of {len(pool)}: "
                                  f"{exc}") from exc
            solve = _channel_solve(channel, sign, pool, tolerance, outcome)
            kept.update(solve.selected)
            solves.append(solve)

        removal = filter_removal_mask(expansion.shape, sorted(kept))
        final_mask = compose(self.blocked, removal)
        return LayerPruneResult(
            mask=final_mask,
            pruned_first=final_mask.apply(expansion),
            channel_solves=tuple(solves),
            kept_kernels=tuple(sorted(kept)),
            tolerance=tolerance,
            k_budget=k_budget,
            occupancy_warnings=tuple(self.warnings),
        )


def _channel_solve(channel: int, sign: int, pool: tuple[int, ...], tolerance: float,
                   outcome: SearchOutcome) -> ChannelSolve:
    """The record of one solve; no subset at all (an EXACT k above the pool size)
    selects nothing at residual inf."""
    if outcome.best is None:
        return ChannelSolve(channel, sign, pool, (), math.inf, tolerance, outcome.status)
    selected = tuple(pool[i] for i in outcome.best.indices)
    return ChannelSolve(channel, sign, pool, selected, outcome.best.residual_inf, tolerance,
                        outcome.status)


# The most recently pruned pair, keyed by the exact shapes and bytes of its
# mixing and expansion kernels, so a changed or mutated pair is prepared anew.
_last_prepared: tuple[tuple, _PreparedLayer] | None = None


def _prepared_layer(mixing: Tensor4, expansion: Tensor4) -> _PreparedLayer:
    global _last_prepared
    key = (mixing.shape, mixing.data.tobytes(), expansion.shape, expansion.data.tobytes())
    if _last_prepared is None or _last_prepared[0] != key:
        _last_prepared = None  # the previous pair's indices go before the new ones are built
        _last_prepared = (key, _PreparedLayer(mixing, expansion))
    return _last_prepared[1]


def prune_single_layer(
    mixing: Tensor4,
    expansion: Tensor4,
    target: Tensor4,
    params: PruneParams,
    seed: SeedSpec = SeedSpec(0, 0),
) -> LayerPruneResult:
    """Prune ``mixing * relu(expansion * X)`` so it approximates ``target * X``.

    Shapes: ``expansion`` is ``1 x 1 x c0 x 2 n c0``, ``mixing`` is
    ``d x d x 2 n c0 x c1`` and ``target`` is ``d x d x c0 x c1`` with L1 norm
    at most 1. The per-entry solve tolerance is ``eps / (2 d^2 c1 c0)``; on a
    fully successful layer the sup error over inputs of max-norm <= M is at
    most ``eps * M`` (the per-entry bound times the number of contributing
    window terms is already below that).

    The target-free work for the pair, its subset indices included, is kept
    for the most recently pruned pair only, so pruning many targets against
    one random pair builds each index once.
    """
    return _prepared_layer(mixing, expansion).prune(target, params, seed)


def _kept_channels(masked: np.ndarray, following: np.ndarray):
    """``(kept, masked', following')``: the output columns of the kernel data
    ``masked`` that hold a nonzero entry, ascending, and the pair of kernel data
    cut down to them, those columns and the input channels of ``following``
    they feed; None arrays if none is kept.

    The cut pair's output is bit-equal: a dropped column's conv output and ReLU
    are +0.0, so each term it feeds into ``following`` is an exact +-0.0, which
    leaves a running sum that started at +0.0 unchanged (see :mod:`.tensors`).
    """
    kept = masked.reshape(-1, masked.shape[3]).any(axis=0).nonzero()[0]
    if not kept.size:
        return kept, None, None
    return kept, masked.take(kept, axis=3), following.take(kept, axis=2)


def single_layer_output(mixing: Tensor4, pruned_expansion: Tensor4, probe: FeatureMap) -> FeatureMap:
    """``conv(mixing, relu(conv(pruned_expansion, probe)))``, on the kept channels."""
    return evaluate_network([pruned_expansion, mixing], probe)


def make_probes(
    height: int,
    width: int,
    channels: int,
    count: int,
    seed: SeedSpec,
    magnitude: float = 1.0,
) -> list[FeatureMap]:
    """Seeded uniform probes plus the two constant corner inputs at +-magnitude.

    Probe i is ``sample_uniform_map(height, width, channels, seed.substream(i),
    magnitude)``, with its checks; all probes are drawn in one keyed read."""
    shape = (height, width, channels)
    if count > 0 and min(shape) < 1:
        raise ShapeError("all dimensions must be positive")
    if count > 0 and not magnitude > 0.0:
        raise ParameterError("need high > low")
    draws = _uniforms(_substream_keys([_key(seed)], range(count)), height * width * channels,
                      -magnitude, magnitude)
    probes = [FeatureMap(row.reshape(shape)) for row in draws]
    probes.append(FeatureMap(np.full(shape, magnitude)))
    probes.append(FeatureMap(np.full(shape, -magnitude)))
    return probes


def evaluate_network(kernels, fmap: FeatureMap) -> FeatureMap:
    """Alternate convolution and ReLU; the final convolution stays linear.

    Every kernel but the last runs on its kept channels only
    (:func:`_kept_channels`), which gives the full-width result bit for bit.
    The shapes are checked here, once; the chain then runs on arrays through
    the conv core, each map channel-major, and only the last map is wrapped.
    Every conv output must be finite, as a :class:`FeatureMap` would require,
    so an overflow raises ``ValueError`` even where a ReLU would clear it.
    """
    kernels = list(kernels)
    if not kernels:
        raise ParameterError("need at least one kernel")
    if [k.channels_in for k in kernels] != [fmap.channels] + [k.kernels for k in kernels[:-1]]:
        raise ShapeError("each kernel must read the channels the one before it writes")
    weights = [kernel.data for kernel in kernels]
    x = fmap.data.transpose(2, 0, 1)
    for i in range(len(weights) - 1):
        _, kernel, weights[i + 1] = _kept_channels(weights[i], weights[i + 1])
        if kernel is None:  # every later map is +0.0 as well
            return FeatureMap(np.zeros((fmap.height, fmap.width, kernels[-1].kernels)))
        x = np.maximum(_finite(_conv(kernel, x)), 0.0)
    return FeatureMap(_conv(weights[-1], x).transpose(1, 2, 0))


def probe_error(target_kernels, random_kernels, masks, probes) -> float:
    """Worst entrywise ``|f(p) - g(p)|`` over ``probes``.

    ``f`` is the target chain and ``g`` the random chain (expansion, mixing,
    ...) with ``masks[i]`` applied to the 1 x 1 expansion of target layer
    ``i``; the mixing kernels are used unmasked, since the mask already zeroes
    the channels they would read. Each mask is applied once, before the probes.
    """
    pruned = list(random_kernels)
    if len(pruned) != 2 * len(masks):
        raise ShapeError("need one mask per expansion kernel")
    pruned[::2] = [mask.apply(expansion) for mask, expansion in zip(masks, pruned[::2])]
    worst = 0.0
    for probe in probes:
        fx = evaluate_network(target_kernels, probe)
        gx = evaluate_network(pruned, probe)
        worst = max(worst, float(np.abs(fx.data - gx.data).max()))
    return worst


@dataclass(frozen=True)
class PruneReport:
    """What a pruning run adds to its bundle: each target layer's record, the
    bundle's probe error and the bound that holds when every solve hits."""

    layers: tuple[LayerPruneResult, ...]
    empirical_max_error: float
    theoretical_bound: float
    # the report as a bundle file held it, kept by load_bundle for report_mismatch
    stored: dict | None = field(default=None, compare=False, repr=False)

    @property
    def fully_successful(self) -> bool:
        return all(layer.fully_successful for layer in self.layers)


def composition_bound(epsilon: float, depth: int) -> float:
    """``(1 + eps/(2 ell))^ell - 1``: the unrolled per-layer budget."""
    return (1.0 + epsilon / (2.0 * depth)) ** depth - 1.0


def prune_network(
    random_kernels,
    target_kernels,
    params: PruneParams,
    seed: SeedSpec = SeedSpec(0, 0),
    spatial: int = 4,
) -> PrunedNetworkBundle:
    """Prune every odd random layer so the whole chain tracks the target chain.

    ``random_kernels`` holds 2*ell kernels (expansion, mixing, ...) and
    ``target_kernels`` the ell targets, each of L1 norm <= 1. Per-layer budget
    is ``eps / (2 ell)``. Probe inputs (seeded uniforms on ``(-M, M)`` plus the
    two constant corners at +-M, with M the magnitude bound) estimate the sup
    error; the algebraic per-layer bounds are the actual guarantee, and the
    reported bound is ``M * composition_bound(eps, ell)``. Partial failures
    are carried in the returned bundle's report; a :class:`BudgetError` names
    its layer, counted from 1.
    """
    targets = list(target_kernels)
    randoms = list(random_kernels)
    depth = len(targets)
    if depth < 1 or len(randoms) != 2 * depth:
        raise ParameterError("need 2 random kernels per target layer")
    layer_params = dataclasses.replace(params, epsilon=params.epsilon / (2.0 * depth))
    results = []
    for i in range(depth):
        try:
            results.append(prune_single_layer(randoms[2 * i + 1], randoms[2 * i], targets[i],
                                              layer_params, seed.substream(_STREAM_SOLVER + i)))
        except BudgetError as exc:
            raise BudgetError(f"layer {i + 1}: {exc}") from exc
    bound = params.magnitude_bound * composition_bound(params.epsilon, depth)
    return _reported_bundle(randoms, targets, results, params, seed, spatial, bound)


def prune_random_layer(d: int, c0: int, c1: int, n: int, params: PruneParams, seed: SeedSpec,
                       spatial: int = 4) -> PrunedNetworkBundle:
    """Prune one seeded random layer against a seeded unit-L1 target.

    The expansion and mixing kernels come from ``seed.substream(0)`` and
    ``(1)``, the ``d x d x c0 x c1`` target from ``(2)`` and the channel solves
    from ``(3)``. The report's bound is ``eps * M``, binding when the layer is
    fully successful.
    """
    spec = NetworkSpec(1, spatial, (c0, c1), (d,), (n,))
    randoms = spec.sample_random_net(seed)
    target = _unit_l1_target(spec.target_kernel_shapes()[0], seed.substream(2))
    result = prune_single_layer(randoms[1], randoms[0], target, params, seed.substream(3))
    bound = params.epsilon * params.magnitude_bound
    return _reported_bundle(randoms, [target], [result], params, seed, spatial, bound)


def _reported_bundle(randoms, targets, results, params, seed, spatial,
                     bound) -> PrunedNetworkBundle:
    """The bundle of one pruning run, with its report attached; the report's
    empirical error is :func:`bundle_probe_error` of the bundle itself."""
    bundle = PrunedNetworkBundle(tuple(randoms), tuple(targets), tuple(r.mask for r in results),
                                 params, seed, spatial)
    report = PruneReport(tuple(results), bundle_probe_error(bundle), bound)
    return dataclasses.replace(bundle, report=report)


# ---------------------------------------------------------------------------
# Bundle serialisation: kernels + masks + seeds + params + report in one file
# ---------------------------------------------------------------------------

_BUNDLE_FORMAT = "subsetprune-bundle-v1"


def _tensor_to_payload(t: Tensor4) -> dict:
    return {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}


def _tensor_from_payload(payload: dict) -> Tensor4:
    return Tensor4(np.array(payload["data"], dtype=np.float64).reshape(payload["shape"]))


def _params_to_payload(params: PruneParams) -> dict:
    out = dataclasses.asdict(params)
    out["mode"] = params.mode.value
    out["strategy"] = params.strategy.value
    return out


def _params_from_payload(payload: dict) -> PruneParams:
    payload = dict(payload)
    payload["mode"] = CardinalityMode(payload["mode"])
    payload["strategy"] = Strategy(payload["strategy"])
    return PruneParams(**payload)


@dataclass(frozen=True)
class PrunedNetworkBundle:
    random_kernels: tuple[Tensor4, ...]
    target_kernels: tuple[Tensor4, ...]
    masks: tuple[Mask4, ...]
    params: PruneParams
    seed: SeedSpec
    spatial: int
    report: PruneReport | None = None


def _report_payload(bundle: PrunedNetworkBundle) -> dict:
    """The stored form of ``bundle.report``; every key but the layer records,
    the probe error and the bound is written from the bundle itself."""
    report = bundle.report
    return {
        "epsilon": bundle.params.epsilon,
        "magnitude_bound": bundle.params.magnitude_bound,
        "spatial": bundle.spatial,
        "probe_count": bundle.params.probe_count,
        "empirical_max_error": report.empirical_max_error,
        "theoretical_bound": report.theoretical_bound,
        "fully_successful": report.fully_successful,
        "seed": {"master_seed": bundle.seed.master_seed, "stream_id": bundle.seed.stream_id},
        "layers": [
            {
                "layer": i,
                "tolerance": layer.tolerance,
                "k_budget": layer.k_budget,
                "kept_kernels": len(layer.kept_kernels),
                "total_kernels": layer.mask.shape[3],
                "occupancy_warnings": list(layer.occupancy_warnings),
                "channel_solves": [
                    {
                        "channel": c.channel,
                        "sign": c.sign,
                        "pool_size": len(c.pool),
                        "selected": list(c.selected),
                        "residual_inf": c.residual_inf,
                        "tolerance": c.tolerance,
                        "status": c.status,
                    }
                    for c in layer.channel_solves
                ],
            }
            for i, layer in enumerate(report.layers, 1)
        ],
    }


def save_bundle(path, bundle: PrunedNetworkBundle) -> None:
    payload = {
        "format": _BUNDLE_FORMAT,
        "seed": {"master_seed": bundle.seed.master_seed, "stream_id": bundle.seed.stream_id},
        "spatial": bundle.spatial,
        "params": _params_to_payload(bundle.params),
        "random_kernels": [_tensor_to_payload(t) for t in bundle.random_kernels],
        "target_kernels": [_tensor_to_payload(t) for t in bundle.target_kernels],
        "masks": [base64.b64encode(mask_to_bytes(m)).decode("ascii") for m in bundle.masks],
        "report": _report_payload(bundle) if bundle.report is not None else None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _loaded_layer(expansion: Tensor4, mixing: Tensor4, target: Tensor4, mask: Mask4,
                  entry: dict, params: PruneParams) -> LayerPruneResult:
    """A saved layer record rebuilt by the code the pruning ran: pools and
    warnings from the kernels, kept kernels from the mask, each solve's residual
    and status from its selected kernels, summed as the search sums its witness.
    Only those kernels, the tolerance and the k budget are read from ``entry``;
    the last two depend on which command wrote the bundle."""
    prepared = _PreparedLayer(mixing, expansion)  # its subset indices stay unbuilt
    tolerance, k_budget = _stored(entry, "tolerance", float), _stored(entry, "k_budget", int)
    solves = []
    for (channel, sign, pool, candidates, _), stored in zip(prepared.pools,
                                                             entry["channel_solves"]):
        if params.mode is CardinalityMode.EXACT and k_budget > len(pool):
            outcome = SearchOutcome(None, None, exhaustive=True)  # no k-subsets exist
        else:
            place = {kernel: i for i, kernel in enumerate(pool)}
            best = _make_solution(candidates, [place[k] for k in stored["selected"] if k in place],
                                  sign * target.data[:, :, channel, :].reshape(-1))
            outcome = SearchOutcome(best if best.residual_inf <= tolerance else None, best,
                                    exhaustive=params.strategy is Strategy.EXHAUSTIVE)
        solves.append(_channel_solve(channel, sign, pool, tolerance, outcome))
    kept = np.flatnonzero(mask.bits.reshape(-1, mask.shape[3]).any(axis=0))
    return LayerPruneResult(mask, mask.apply(expansion), tuple(solves), tuple(kept.tolist()),
                            tolerance, k_budget, tuple(prepared.warnings))


def _stored(record: dict, key: str, kind):
    """``kind(record[key])``; a stored value that does not convert raises a
    ValueError naming ``key``."""
    try:
        return kind(record[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _read_bundle(path) -> dict:
    """The JSON object stored at ``path``, if it is a bundle file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise ValueError(f"{path} is not a {_BUNDLE_FORMAT} file")
    return payload


def load_bundle(path) -> PrunedNetworkBundle:
    """The bundle saved at ``path``, with any report rebuilt layer by layer
    (:func:`_loaded_layer`) and keeping its stored form for
    :func:`report_mismatch`. A missing, wrongly typed or unconvertible value
    raises ValueError naming the bundle."""
    payload = _read_bundle(path)
    try:
        bundle = PrunedNetworkBundle(
            random_kernels=tuple(_tensor_from_payload(t) for t in payload["random_kernels"]),
            target_kernels=tuple(_tensor_from_payload(t) for t in payload["target_kernels"]),
            masks=tuple(mask_from_bytes(base64.b64decode(m)) for m in payload["masks"]),
            params=_params_from_payload(payload["params"]),
            seed=SeedSpec(_stored(payload["seed"], "master_seed", int),
                          _stored(payload["seed"], "stream_id", int)),
            spatial=_stored(payload, "spatial", int),
        )
        stored = payload.get("report")
        if stored is not None:
            pieces = zip(bundle.random_kernels[::2], bundle.random_kernels[1::2],
                         bundle.target_kernels, bundle.masks, stored["layers"])
            layers = tuple(_loaded_layer(*piece, bundle.params) for piece in pieces)
            report = PruneReport(layers, _stored(stored, "empirical_max_error", float),
                                 _stored(stored, "theoretical_bound", float), stored)
            bundle = dataclasses.replace(bundle, report=report)
    except KeyError as exc:
        raise ValueError(f"bundle {path} lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bundle {path} has a malformed field: {exc}") from exc
    depth = len(bundle.target_kernels)  # bundle_probe_error needs one target or more
    if depth < 1 or len(bundle.random_kernels) != 2 * depth or len(bundle.masks) != depth:
        raise ValueError(f"bundle {path} needs at least one target, two random kernels "
                         "and one mask per target")
    return bundle


def report_mismatch(bundle: PrunedNetworkBundle) -> str | None:
    """The first key of the report ``bundle`` was loaded with whose stored value
    is not the one re-derived from the bundle (``key: stored ..., derived
    ...``), or a count of layer records or solves other than of masks or
    pools; None when all agree or the bundle holds no stored report. A
    missing, unknown or wrongly typed key raises ValueError. The probe error
    and the bound are read, not derived."""
    stored = bundle.report.stored if bundle.report is not None else None
    if stored is None:
        return None
    layers = stored["layers"]
    if len(layers) != len(bundle.masks):
        return f"report has {len(layers)} layer records for {len(bundle.masks)} masks"
    for i, (entry, mask) in enumerate(zip(layers, bundle.masks)):
        solves, pools = len(entry["channel_solves"]), 2 * mask.shape[2]  # a pool per channel, sign
        if solves != pools:
            return f"report.layers[{i}] has {solves} channel solves for {pools} pools"
    return next(_differences("report", stored, _report_payload(bundle)), None)


def _differences(key: str, stored, derived):
    """Each key under ``key``, in the derived payload's order, whose stored value
    differs from the derived one."""
    if type(stored) is not type(derived):
        raise ValueError(f"stored {key} must be a JSON {type(derived).__name__}, got {stored!r}")
    if isinstance(derived, dict):
        if stored.keys() != derived.keys():
            raise ValueError(f"stored {key} has keys {sorted(stored)}, expected {sorted(derived)}")
        for name, value in derived.items():
            yield from _differences(f"{key}.{name}", stored[name], value)
    elif isinstance(derived, list) and len(stored) == len(derived):
        for i, items in enumerate(zip(stored, derived)):
            yield from _differences(f"{key}[{i}]", *items)
    elif stored != derived:
        yield f"{key}: stored {stored!r}, derived {derived!r}"


def bundle_probe_error(bundle: PrunedNetworkBundle) -> float:
    """The empirical probe error of a bundle's kernels and masks, on the probes
    its seed's substream 2000 draws: every report's error is this call."""
    c0 = bundle.target_kernels[0].channels_in
    probes = make_probes(
        bundle.spatial,
        bundle.spatial,
        c0,
        bundle.params.probe_count,
        bundle.seed.substream(_STREAM_PROBES),
        bundle.params.magnitude_bound,
    )
    return probe_error(bundle.target_kernels, bundle.random_kernels, bundle.masks, probes)


def kept_channel_costs(bundle: PrunedNetworkBundle) -> list[tuple[int, int, int, int]]:
    """Per target layer: kept and total expansion kernels, and the multiply-adds
    (map cells x kernel entries) one probe costs the layer's two convolutions at
    full width and on the kept channels only."""
    costs = []
    for i, mask in enumerate(bundle.masks):
        expansion, mixing = bundle.random_kernels[2 * i : 2 * i + 2]
        kept = _kept_channels(mask.apply(expansion).data, mixing.data)[0].size
        per_kernel = bundle.spatial**2 * (expansion.data[..., 0].size + mixing.data[:, :, 0].size)
        costs.append((kept, expansion.kernels, per_kernel * expansion.kernels, per_kernel * kept))
    return costs
