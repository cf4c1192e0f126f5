"""Span tracer for the benchmark's traced run.

The tracer replaces each public function of the seven package modules with a
timing wrapper, in every module namespace that binds it. The package imports
with ``from .solvers import search_subsets``, so ``pruning.search_subsets`` is
a separate binding from ``solvers.search_subsets``; patching only the
defining module would miss those calls. Function-local imports read the
defining module at call time, so that binding is patched as well.

Each call becomes a span ``(id, parent, item, name, start, end)`` kept in
memory. Self time is a span's duration minus the time covered by its direct
children; one thread runs everything, so children never overlap. Work counts
that the spans cannot see (subsets enumerated, multiply-accumulates, random
draws) are computed from each call's arguments by the hooks below and are
labelled "computed" in the metric table.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import os
import time

LAYERS = ("tensors", "sampling", "solvers", "masks", "pruning", "harness", "cli")

# Private sampling helpers that harness and solvers call directly; the Monte
# Carlo checks draw almost all of their randomness through them.
_EXTRA_NAMES = {"sampling": ("_normals", "_generator"), "cli": ("main",)}

# Work counts derived from call arguments rather than observed, and their rates.
COMPUTED = frozenset({
    "solvers.family_size", "solvers.subsets_per_s", "tensors.conv.macs",
    "tensors.conv.macs_per_s", "harness.draws", "harness.draws_per_s",
})

_CHECKS = (
    "most_probable_interval",
    "chi_squared_tails",
    "nsn_hit_lower_bound",
    "joint_upper_bound",
    "second_moment_identity",
    "intersection_tail",
)


class Tracer:
    """Collects spans and computed counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item: int | None = None
        self.counts: collections.Counter = collections.Counter()
        self.exhaustive: set[int] = set()  # span ids of exhaustive subset searches
        self._stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self._next = 0
        self._patched: list[tuple] = []

    # -- span recording -----------------------------------------------------

    def _open(self, name) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.item, name, start, end))

    def run_item(self, index, fn, *args):
        """Run one benchmark item under a root span named ``bench.item``."""
        self.item = index
        sid, parent = self._open("bench.item")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, "bench.item", start)
            self.item = None

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.item is None:  # input generation and checks are not traced
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, parent, name, start)
                if hook is not None:
                    hook(tracer, sid, args, kwargs, None, exc)
                raise
            tracer._close(sid, parent, name, start)
            if hook is not None:
                hook(tracer, sid, args, kwargs, result, None)
            return result

        return functools.wraps(fn)(wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("subsetprune")
        modules = {layer: importlib.import_module(f"subsetprune.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            names = [*getattr(module, "__all__", ()), *_EXTRA_NAMES.get(layer, ())]
            for fname in names:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, fn, _HOOKS.get(name))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)
        mask_cls = modules["masks"].Mask4
        apply = mask_cls.apply
        self._patched.append((mask_cls, "apply", apply))
        mask_cls.apply = self._wrap("masks.Mask4.apply", apply, None)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each ``name -> (value, unit)``."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        child = collections.defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = collections.Counter()
        entries = collections.Counter()  # calls entering a layer from outside it
        self_s = collections.defaultdict(float)
        total_s = collections.defaultdict(float)
        layer_self = collections.defaultdict(float)
        exhaustive_self = 0.0
        for sid, parent, _, name, start, end in self.spans:
            own = (end - start) - child[sid]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            layer_self[layer] += own
            if parent is None or names[parent].split(".", 1)[0] != layer:
                entries[layer] += 1
            if sid in self.exhaustive:
                exhaustive_self += own

        c = self.counts
        searches = calls["solvers.search_subsets"]
        conv_s = self_s["tensors.conv"]
        check_s = sum(total_s[f"harness.check_{check}"] for check in _CHECKS)
        out = {
            "solvers.search_subsets.calls": (searches, "count"),
            "solvers.search_subsets.self_s": (self_s["solvers.search_subsets"], "s"),
            "solvers.family_size": (c["family_size"], "count"),
            "solvers.subsets_per_s": (_rate(c["family_size"], exhaustive_self), "1/s"),
            "solvers.hit_ratio": (_rate(c["hits"], searches), "ratio"),
            "solvers.budget_errors": (c["budget_errors"], "count"),
            "solvers.inflated_sum_intervals.calls": (calls["solvers.inflated_sum_intervals"], "count"),
            "solvers.inflated_sum_intervals.self_s": (self_s["solvers.inflated_sum_intervals"], "s"),
            "solvers.intervals_out": (c["intervals_out"], "count"),
            "solvers.cover_targets.self_s": (self_s["solvers.cover_targets"], "s"),
            "tensors.conv.calls": (calls["tensors.conv"], "count"),
            "tensors.conv.self_s": (conv_s, "s"),
            "tensors.conv.macs": (c["macs"], "count"),
            "tensors.conv.macs_per_s": (_rate(c["macs"], conv_s), "1/s"),
            "tensors.other.self_s": (max(0.0, layer_self["tensors"] - conv_s), "s"),
        }
        for check in _CHECKS:
            out[f"harness.check.{check}.s"] = (total_s[f"harness.check_{check}"], "s")
        out.update({
            "harness.draws": (c["draws"], "count"),
            "harness.draws_per_s": (_rate(c["draws"], check_s), "1/s"),
            "sampling.calls": (entries["sampling"], "count"),
            "sampling.self_s": (layer_self["sampling"], "s"),
            "sampling.values": (c["sampled_values"], "count"),
            "harness.scan_rssp_phase.self_s": (self_s["harness.scan_rssp_phase"], "s"),
            "harness.scan_mrss_phase.self_s": (self_s["harness.scan_mrss_phase"], "s"),
            "harness.write_csv.s": (total_s["harness.write_csv"], "s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "cli.output_bytes": (c["cli_output_bytes"], "B"),
            "masks.calls": (entries["masks"], "count"),
            "masks.self_s": (layer_self["masks"], "s"),
            "masks.validate_structure.self_s": (self_s["masks.validate_structure"], "s"),
        })
        for fname in ("prune_single_layer", "prune_network", "evaluate_network",
                      "bundle_probe_error"):
            out[f"pruning.{fname}.self_s"] = (self_s[f"pruning.{fname}"], "s")
        out["pruning.save_bundle.s"] = (total_s["pruning.save_bundle"], "s")
        out["pruning.load_bundle.s"] = (total_s["pruning.load_bundle"], "s")
        out["pruning.bundle_bytes"] = (c["bundle_bytes"], "B")
        traced = sum(layer_self.values())
        for layer in (*LAYERS, "bench"):
            out[f"layer.{layer}.self_share"] = (_rate(layer_self[layer], traced), "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def span_records(self):
        for sid, parent, item, name, start, end in self.spans:
            yield {"id": sid, "parent": parent, "item": item, "name": name,
                   "start": start, "end": end}


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


# -- computed-count hooks ---------------------------------------------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _search_hook(tracer, sid, args, kwargs, result, error):
    if error is not None:
        if type(error).__name__ == "BudgetError":
            tracer.counts["budget_errors"] += 1
        return
    if result.solution is not None:
        tracer.counts["hits"] += 1
    params = _arg(args, kwargs, 2, "params")
    if params.strategy.value != "exhaustive":
        return
    vectors = _arg(args, kwargs, 0, "vectors")
    n = len(vectors)
    if params.mode.value == "exact":
        sizes = [params.k] if params.k <= n else []
    else:
        sizes = range(0, min(params.k, n) + 1)
    tracer.counts["family_size"] += sum(math.comb(n, j) for j in sizes)
    tracer.exhaustive.add(sid)


def _intervals_hook(tracer, sid, args, kwargs, result, error):
    if error is None:
        tracer.counts["intervals_out"] += len(result[0])


def _conv_hook(tracer, sid, args, kwargs, result, error):
    if error is not None:
        return
    kernel = _arg(args, kwargs, 0, "kernel")
    fmap = _arg(args, kwargs, 1, "fmap")
    rows, cols, c_in, c_out = kernel.shape
    height, width = fmap.height, fmap.width
    # terms that read a zero-padded position are never computed
    cells = sum(height - i for i in range(min(rows, height))) * sum(
        width - j for j in range(min(cols, width))
    )
    tracer.counts["macs"] += cells * c_in * c_out


def _sampling_hook(tracer, sid, args, kwargs, result, error):
    if error is not None:
        return
    if tracer._stack and tracer._stack[-1][1].startswith("sampling."):
        return  # only values leaving the layer are counted
    if hasattr(result, "directions"):  # NsnEnsemble: scalars and directions
        tracer.counts["sampled_values"] += result.scalars.size + result.directions.size
    elif hasattr(result, "shape"):  # FeatureMap, Tensor4 or a numpy array
        tracer.counts["sampled_values"] += math.prod(result.shape)


def _bundle_bytes_hook(tracer, sid, args, kwargs, result, error):
    path = _arg(args, kwargs, 0, "path")
    if error is None and os.path.exists(path):
        tracer.counts["bundle_bytes"] += os.path.getsize(path)


_PER_TRIAL = {
    "most_probable_interval": lambda a: 1,
    "chi_squared_tails": lambda a: a["d"],
    "nsn_hit_lower_bound": lambda a: a["k"] * (a["d"] + 1),
    "joint_upper_bound": lambda a: (a["k"] + a["j"]) * (a["d"] + 1),
    "second_moment_identity": lambda a: a["n"] * (a["d"] + 1),
    "intersection_tail": lambda a: a["n"],
}


def _check_hook(check):
    per_trial = _PER_TRIAL[check]

    def hook(tracer, sid, args, kwargs, result, error):
        if error is not None:
            return
        harness = importlib.import_module("subsetprune.harness")
        fn = getattr(harness, f"check_{check}")  # the signature follows __wrapped__
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        tracer.counts["draws"] += bound["trials"] * per_trial(bound)

    return hook


_HOOKS = {
    "solvers.search_subsets": _search_hook,
    "solvers.inflated_sum_intervals": _intervals_hook,
    "tensors.conv": _conv_hook,
    "pruning.save_bundle": _bundle_bytes_hook,
}
_HOOKS.update({f"harness.check_{check}": _check_hook(check) for check in _CHECKS})
for _name in ("standard_normals", "sample_uniform", "sample_uniform_map",
              "sample_normal_tensor", "sample_nsn", "sample_half_normal", "_normals"):
    _HOOKS[f"sampling.{_name}"] = _sampling_hook
