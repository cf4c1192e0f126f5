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

Channel solves that the search cannot hit are first-class results: the best
near-miss subset is still applied (so a pruned network always exists) and the
miss is reported per (layer, channel, sign), never silently absorbed.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, StructureError
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
from .sampling import SeedSpec, sample_normal_tensor, sample_uniform_map
from .solvers import (
    DEFAULT_ENUMERATION_BUDGET,
    CardinalityMode,
    SolverParams,
    Strategy,
    search_subsets,
)
from .tensors import FeatureMap, Tensor4, conv, neg_part, norm_l1, pos_part, relu

__all__ = [
    "NetworkSpec",
    "PruneParams",
    "ChannelSolve",
    "LayerPruneResult",
    "LayerSummary",
    "PruneReport",
    "PrunedNetworkBundle",
    "default_k_budget",
    "drop_relu_decompose",
    "prune_single_layer",
    "prune_network",
    "evaluate_network",
    "make_probes",
    "probe_error",
    "single_layer_output",
    "save_bundle",
    "load_bundle",
    "bundle_probe_error",
    "composition_bound",
]

# substream offsets inside prune_network; fixed so reruns are reproducible
_STREAM_SOLVER = 1_000
_STREAM_PROBES = 2_000


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
    pruned_second: Tensor4  # mixing kernel with dropped channels zeroed
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
    """
    c0 = expansion.channels_in
    if expansion.rows != 1 or expansion.cols != 1:
        raise ShapeError("expansion kernel must be 1 x 1 spatially")
    if expansion.kernels % (2 * c0) != 0:
        raise ShapeError("expansion kernels must be 2 * n * c0 for integer n")
    n = expansion.kernels // (2 * c0)
    d, c1 = mixing.rows, mixing.kernels
    if mixing.cols != d:
        raise ShapeError("mixing kernel must be square")
    if mixing.channels_in != expansion.kernels:
        raise ShapeError("mixing channels must match expansion kernels")
    if target.shape != (d, d, c0, c1):
        raise ShapeError(f"target shape {target.shape} != {(d, d, c0, c1)}")
    if norm_l1(target) > 1.0 + 1e-9:
        raise ParameterError("target kernel must have L1 norm <= 1")

    blocked = channel_blocked_mask(1, c0, 2 * n)
    _, combined = drop_relu_decompose(expansion, blocked)
    masked = combined.apply(expansion)
    positive = pos_part(masked).data[0, 0]
    negative = neg_part(masked).data[0, 0]

    tolerance = params.epsilon / (2.0 * d * d * c1 * c0)
    k_budget = params.k_budget or default_k_budget(n, d, params.epsilon)
    rows = _kernel_rows(mixing)

    solves: list[ChannelSolve] = []
    warnings: list[str] = []
    kept: set[int] = set()
    for channel in range(c0):
        base = channel * 2 * n
        for sign, values, lo in (
            (+1, positive[channel], base),
            (-1, negative[channel], base + n),
        ):
            pool = tuple(int(k) for k in range(lo, lo + n) if values[k] > 0.0)
            if len(pool) * 3 <= n:
                warnings.append(
                    f"channel {channel} sign {sign:+d}: only {len(pool)} of {n} block "
                    "entries survive the sign split (expected more than n/3)"
                )
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
            if pool:
                candidates = rows[list(pool)] * values[list(pool), None]
                outcome = search_subsets(candidates, flat_target, solver)
            else:
                empty = np.empty((0, flat_target.size))
                outcome = search_subsets(empty, flat_target, solver)
            if outcome.best is None:
                selected: tuple[int, ...] = ()
                residual = math.inf
            else:
                selected = tuple(pool[i] for i in outcome.best.indices)
                residual = outcome.best.residual_inf
            kept.update(selected)
            solves.append(
                ChannelSolve(channel, sign, pool, selected, residual, tolerance, outcome.status)
            )

    removal = filter_removal_mask(expansion.shape, sorted(kept))
    final_mask = compose(blocked, removal)
    pruned_first = final_mask.apply(expansion)
    pruned_second_data = mixing.data.copy()
    dropped = [k for k in range(expansion.kernels) if k not in kept]
    if dropped:
        pruned_second_data[:, :, dropped, :] = 0.0
    return LayerPruneResult(
        mask=final_mask,
        pruned_first=pruned_first,
        pruned_second=Tensor4(pruned_second_data),
        channel_solves=tuple(solves),
        kept_kernels=tuple(sorted(kept)),
        tolerance=tolerance,
        k_budget=k_budget,
        occupancy_warnings=tuple(warnings),
    )


def single_layer_output(mixing: Tensor4, pruned_expansion: Tensor4, probe: FeatureMap) -> FeatureMap:
    return conv(mixing, relu(conv(pruned_expansion, probe)))


def make_probes(
    height: int,
    width: int,
    channels: int,
    count: int,
    seed: SeedSpec,
    magnitude: float = 1.0,
) -> list[FeatureMap]:
    """Seeded uniform probes plus the two constant corner inputs at +-magnitude."""
    probes = [
        sample_uniform_map(height, width, channels, seed.substream(i), magnitude)
        for i in range(count)
    ]
    probes.append(FeatureMap(np.full((height, width, channels), magnitude)))
    probes.append(FeatureMap(np.full((height, width, channels), -magnitude)))
    return probes


def evaluate_network(
    kernels,
    fmap: FeatureMap,
    masks=None,
) -> FeatureMap:
    """Alternate convolution and ReLU; the final convolution stays linear.

    ``masks`` may be None or a sequence aligned with ``kernels`` whose entries
    are Mask4 or None; masked kernels are multiplied entrywise first.
    """
    kernels = list(kernels)
    if not kernels:
        raise ParameterError("need at least one kernel")
    if masks is not None and len(masks) != len(kernels):
        raise ShapeError("masks must align with kernels")
    x = fmap
    for i, kernel in enumerate(kernels):
        if masks is not None and masks[i] is not None:
            kernel = masks[i].apply(kernel)
        x = conv(kernel, x)
        if i + 1 < len(kernels):
            x = relu(x)
    return x


def probe_error(target_kernels, random_kernels, masks, probes) -> float:
    """Worst entrywise ``|f(p) - g(p)|`` over ``probes``.

    ``f`` is the target chain and ``g`` the random chain (expansion, mixing,
    ...) with ``masks[i]`` applied to the 1 x 1 expansion of target layer
    ``i``; the mixing kernels are used unmasked, since the mask already zeroes
    the channels they would read.
    """
    eval_masks = [m for mask in masks for m in (mask, None)]
    worst = 0.0
    for probe in probes:
        fx = evaluate_network(target_kernels, probe)
        gx = evaluate_network(random_kernels, probe, eval_masks)
        worst = max(worst, float(np.abs(fx.data - gx.data).max()))
    return worst


@dataclass(frozen=True)
class LayerSummary:
    layer: int
    tolerance: float
    k_budget: int
    kept_kernels: int
    total_kernels: int
    channel_solves: tuple[ChannelSolve, ...]
    occupancy_warnings: tuple[str, ...]

    @property
    def fully_successful(self) -> bool:
        return all(s.success for s in self.channel_solves)


@dataclass(frozen=True)
class PruneReport:
    """End-to-end record of a multi-layer pruning run."""

    layers: tuple[LayerSummary, ...]
    epsilon: float
    magnitude_bound: float
    spatial: int
    probe_count: int
    empirical_max_error: float
    theoretical_bound: float
    fully_successful: bool
    seed: SeedSpec

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "magnitude_bound": self.magnitude_bound,
            "spatial": self.spatial,
            "probe_count": self.probe_count,
            "empirical_max_error": self.empirical_max_error,
            "theoretical_bound": self.theoretical_bound,
            "fully_successful": self.fully_successful,
            "seed": {"master_seed": self.seed.master_seed, "stream_id": self.seed.stream_id},
            "layers": [
                {
                    "layer": s.layer,
                    "tolerance": s.tolerance,
                    "k_budget": s.k_budget,
                    "kept_kernels": s.kept_kernels,
                    "total_kernels": s.total_kernels,
                    "occupancy_warnings": list(s.occupancy_warnings),
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
                        for c in s.channel_solves
                    ],
                }
                for s in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PruneReport":
        layers = tuple(
            LayerSummary(
                layer=entry["layer"],
                tolerance=entry["tolerance"],
                k_budget=entry["k_budget"],
                kept_kernels=entry["kept_kernels"],
                total_kernels=entry["total_kernels"],
                channel_solves=tuple(
                    ChannelSolve(
                        channel=c["channel"],
                        sign=c["sign"],
                        pool=tuple(range(c["pool_size"])),  # pool ids are not persisted
                        selected=tuple(c["selected"]),
                        residual_inf=c["residual_inf"],
                        tolerance=c["tolerance"],
                        status=c["status"],
                    )
                    for c in entry["channel_solves"]
                ),
                occupancy_warnings=tuple(entry["occupancy_warnings"]),
            )
            for entry in payload["layers"]
        )
        return cls(
            layers=layers,
            epsilon=payload["epsilon"],
            magnitude_bound=payload["magnitude_bound"],
            spatial=payload["spatial"],
            probe_count=payload["probe_count"],
            empirical_max_error=payload["empirical_max_error"],
            theoretical_bound=payload["theoretical_bound"],
            fully_successful=payload["fully_successful"],
            seed=SeedSpec(payload["seed"]["master_seed"], payload["seed"]["stream_id"]),
        )


def composition_bound(epsilon: float, depth: int) -> float:
    """``(1 + eps/(2 ell))^ell - 1``: the unrolled per-layer budget."""
    return (1.0 + epsilon / (2.0 * depth)) ** depth - 1.0


def prune_network(
    random_kernels,
    target_kernels,
    params: PruneParams,
    seed: SeedSpec = SeedSpec(0, 0),
    spatial: int = 4,
) -> tuple[list[Mask4], PruneReport, list[LayerPruneResult]]:
    """Prune every odd random layer so the whole chain tracks the target chain.

    ``random_kernels`` holds 2*ell kernels (expansion, mixing, ...) and
    ``target_kernels`` the ell targets, each of L1 norm <= 1. Per-layer budget
    is ``eps / (2 ell)``. Probe inputs (seeded uniforms on ``(-M, M)`` plus the
    two constant corners at +-M, with M the magnitude bound) estimate the sup
    error; the algebraic per-layer bounds are the actual guarantee, and the
    reported bound is ``M * composition_bound(eps, ell)``. Partial failures
    are carried in the report.
    """
    targets = list(target_kernels)
    randoms = list(random_kernels)
    depth = len(targets)
    if depth < 1 or len(randoms) != 2 * depth:
        raise ParameterError("need 2 random kernels per target layer")
    layer_params = dataclasses.replace(params, epsilon=params.epsilon / (2.0 * depth))

    results: list[LayerPruneResult] = []
    for i in range(depth):
        results.append(
            prune_single_layer(
                randoms[2 * i + 1],
                randoms[2 * i],
                targets[i],
                layer_params,
                seed.substream(_STREAM_SOLVER + i),
            )
        )

    masks = [r.mask for r in results]
    c0 = targets[0].channels_in
    probes = make_probes(spatial, spatial, c0, params.probe_count,
                         seed.substream(_STREAM_PROBES), params.magnitude_bound)

    summaries = tuple(
        LayerSummary(
            layer=i + 1,
            tolerance=r.tolerance,
            k_budget=r.k_budget,
            kept_kernels=len(r.kept_kernels),
            total_kernels=r.mask.shape[3],
            channel_solves=r.channel_solves,
            occupancy_warnings=r.occupancy_warnings,
        )
        for i, r in enumerate(results)
    )
    report = PruneReport(
        layers=summaries,
        epsilon=params.epsilon,
        magnitude_bound=params.magnitude_bound,
        spatial=spatial,
        probe_count=params.probe_count,
        empirical_max_error=probe_error(targets, randoms, masks, probes),
        theoretical_bound=params.magnitude_bound * composition_bound(params.epsilon, depth),
        fully_successful=all(r.fully_successful for r in results),
        seed=seed,
    )
    return masks, report, results


# ---------------------------------------------------------------------------
# Bundle serialisation: kernels + masks + seeds + params in one file
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


def save_bundle(path, bundle: PrunedNetworkBundle) -> None:
    payload = {
        "format": _BUNDLE_FORMAT,
        "seed": {"master_seed": bundle.seed.master_seed, "stream_id": bundle.seed.stream_id},
        "spatial": bundle.spatial,
        "params": _params_to_payload(bundle.params),
        "random_kernels": [_tensor_to_payload(t) for t in bundle.random_kernels],
        "target_kernels": [_tensor_to_payload(t) for t in bundle.target_kernels],
        "masks": [base64.b64encode(mask_to_bytes(m)).decode("ascii") for m in bundle.masks],
        "report": bundle.report.to_dict() if bundle.report is not None else None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def load_bundle(path) -> PrunedNetworkBundle:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise ValueError(f"{path} is not a {_BUNDLE_FORMAT} file")
    report = payload.get("report")
    try:
        return PrunedNetworkBundle(
            random_kernels=tuple(_tensor_from_payload(t) for t in payload["random_kernels"]),
            target_kernels=tuple(_tensor_from_payload(t) for t in payload["target_kernels"]),
            masks=tuple(mask_from_bytes(base64.b64decode(m)) for m in payload["masks"]),
            params=_params_from_payload(payload["params"]),
            seed=SeedSpec(payload["seed"]["master_seed"], payload["seed"]["stream_id"]),
            spatial=int(payload["spatial"]),
            report=PruneReport.from_dict(report) if report is not None else None,
        )
    except KeyError as exc:
        raise ValueError(f"bundle {path} lacks key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"bundle {path} has a malformed field: {exc}") from exc


def bundle_probe_error(bundle: PrunedNetworkBundle) -> float:
    """Recompute the empirical probe error from stored kernels, masks and seed,
    with the probes :func:`prune_network` drew."""
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
