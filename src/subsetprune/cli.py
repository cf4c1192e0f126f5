"""Command line front end.

Subcommands
-----------
``lemma-check``   run every probability-bound check; exit 0 iff all pass
``rssp-scan``     1-D cover success rates over growing n (CSV)
``mrss-scan``     fixed-cardinality d-dimensional success rates (CSV)
``prune-one``     prune a single random layer against a seeded unit-L1 target
``prune-net``     prune a multi-layer random network; optionally save a bundle
``dump-report``   print a saved bundle's report and re-verify it

Global flags (per subcommand): ``--seed``, ``--out``, ``--config`` (JSON file
whose keys pre-fill any flag; explicit flags win), ``--trials`` on the Monte
Carlo commands (``lemma-check``, ``rssp-scan``, ``mrss-scan``) and
``--strategy`` where a solver is involved.

Exit codes: 0 success, 1 assertion/check failure, 2 usage or parameter error
(an unreadable or unwritable path included), 3 solver budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BudgetError, ParameterError, ShapeError, StructureError
from .harness import (
    check_chi_squared_tails,
    check_intersection_tail,
    check_joint_upper_bound,
    check_most_probable_interval,
    check_nsn_hit_lower_bound,
    check_second_moment_identity,
    scan_mrss_phase,
    scan_rssp_phase,
    write_csv,
)
from .masks import validate_structure
from .pruning import (
    NetworkSpec,
    PruneParams,
    bundle_probe_error,
    kept_channel_costs,
    load_bundle,
    prune_network,
    prune_random_layer,
    report_mismatch,
    save_bundle,
)
from .sampling import SeedSpec
from .solvers import CardinalityMode, Strategy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_STRATEGIES = {s.value: s for s in Strategy}
_MODES = {m.value: m for m in CardinalityMode}


def _add_common(parser: argparse.ArgumentParser, trials: bool = False,
                strategy: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=20240801, help="master seed (u64)")
    if trials:
        parser.add_argument("--trials", type=int, default=None, help="override trial counts")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config; keys pre-fill flags, explicit flags win")
    if strategy:
        parser.add_argument("--strategy", choices=sorted(_STRATEGIES), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetprune",
        description="Structured pruning of random networks via approximate subset sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemma-check", help="run all probability-bound checks")
    _add_common(p, trials=True)

    p = sub.add_parser("rssp-scan", help="1-D cover success rates over n")
    _add_common(p, trials=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--n-list", type=str, default="10,20,30,40,50,60")
    p.add_argument("--grid-size", type=int, default=41)

    p = sub.add_parser("mrss-scan", help="fixed-cardinality success rates over n")
    _add_common(p, trials=True, strategy=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n-list", type=str, default="10,15,20")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--target-radius", type=float, default=1.0)
    p.add_argument("--group-size", type=int, default=None)

    def add_prune_params(parser, default_epsilon):
        parser.add_argument("--epsilon", type=float, default=default_epsilon)
        parser.add_argument("--magnitude", type=float, default=1.0)
        parser.add_argument("--k-budget", type=int, default=None)
        parser.add_argument("--mode", choices=sorted(_MODES), default="at_most")
        parser.add_argument("--probes", type=int, default=32)
        parser.add_argument("--restarts", type=int, default=8)
        parser.add_argument("--max-iters", type=int, default=200)
        parser.add_argument("--enumeration-budget", type=int, default=None)

    p = sub.add_parser("prune-one", help="prune one random layer against a unit-L1 target")
    _add_common(p, strategy=True)
    add_prune_params(p, 0.25)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--c0", type=int, default=1)
    p.add_argument("--c1", type=int, default=1)
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--spatial", type=int, default=4)

    p = sub.add_parser("prune-net", help="prune a multi-layer random network")
    _add_common(p, strategy=True)
    add_prune_params(p, 0.5)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--spatial", type=int, default=4)
    p.add_argument("--channels", type=str, default="1,2,1")
    p.add_argument("--kernel-sizes", type=str, default="2,2")
    p.add_argument("--overparam", type=str, default="48,48")

    p = sub.add_parser("dump-report", help="print and re-verify a saved bundle")
    p.add_argument("--bundle", type=str, required=True)
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a JSON ``--config`` is turned into flags placed before the
    command line's own, so the parser checks its values and explicit flags win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    with open(args.config, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ParameterError("config must be a JSON object")
    tokens = []
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise ParameterError(f"unknown config key {key!r}")
        if value is not None:  # null keeps the default, which must itself be null
            tokens.append(f"--{attr.replace('_', '-')}={value}")
    from_config = parser.parse_args([args.command, *tokens])
    for key, value in payload.items():
        parsed = getattr(from_config, key.replace("-", "_"))
        if not isinstance(value, type(parsed)) and not (
            isinstance(parsed, float) and isinstance(value, int)
        ):
            raise ParameterError(
                f"config key {key!r} must be a JSON {type(parsed).__name__}, got {value!r}"
            )
    return parser.parse_args([args.command, *tokens, *argv[1:]])


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ParameterError(f"expected a comma-separated int list, got {text!r}") from exc


def _trials(args, default: int) -> int:
    """``--trials`` when given (0 included, which the checks reject), else ``default``."""
    return default if args.trials is None else args.trials


def _cmd_lemma_check(args) -> int:
    seed = SeedSpec(args.seed)
    hit_trials = _trials(args, 100_000)
    tail_trials = _trials(args, 1_000_000)
    results = []

    for z_shift in (0.0, 2.0):
        results.append(
            check_most_probable_interval(1.0, z_shift, 0.1, hit_trials, seed.substream(10))
        )
    for d in (1, 4, 16):
        for t in (0.5, 1.0, 2.0, 4.0):
            upper, lower = check_chi_squared_tails(
                d, t, tail_trials, seed.substream(100 + 10 * d + int(4 * t))
            )
            results.extend([upper, lower])
    for d in (1, 2, 3):
        results.append(
            check_nsn_hit_lower_bound(
                d, 64, 0.2, [0.0] * d, hit_trials, seed.substream(200 + d)
            )
        )
    for d in (1, 2):
        for j in (8, 32, 64):
            results.append(
                check_joint_upper_bound(
                    d, 64, j, 0.1, [0.0] * d, hit_trials, seed.substream(300 + 10 * d + j)
                )
            )
    second = check_second_moment_identity(
        6, 2, 1, 0.3, [0.0], _trials(args, 20_000), seed.substream(400)
    )
    intersection = check_intersection_tail(
        1296, 36, 3, tail_trials, seed.substream(500)
    )
    results.append(intersection)

    lines = [r.line() for r in results] + second.lines()
    for line in lines:
        print(line)
    ok = all(r.passed for r in results) and second.passed
    if args.out:
        rows = [
            {
                "name": r.name,
                "estimate": r.estimate,
                "std_error": r.std_error,
                "bound": r.bound,
                "direction": r.direction.value,
                "trials": r.trials,
                "verdict": r.verdict,
            }
            for r in results
        ]
        write_csv(args.out, rows)
        print(f"wrote {args.out}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _print_scan(rows: list[dict], out) -> int:
    """Print a scan's rates and Wilson bounds; write its CSV when ``out`` is set."""
    for row in rows:
        print(f"n={row['n']:>4} rate={row['rate']:.3f} "
              f"[{row['wilson_low']:.3f}, {row['wilson_high']:.3f}]")
    if out:
        write_csv(out, rows)
        print(f"wrote {out}")
    return EXIT_OK


def _strategy(args) -> Strategy:
    return _STRATEGIES[args.strategy] if args.strategy else Strategy.EXHAUSTIVE


def _cmd_rssp_scan(args) -> int:
    rows = scan_rssp_phase(
        args.epsilon,
        _int_list(args.n_list),
        args.grid_size,
        _trials(args, 200),
        SeedSpec(args.seed),
    )
    return _print_scan(rows, args.out)


def _cmd_mrss_scan(args) -> int:
    rows = scan_mrss_phase(
        args.d,
        args.k,
        _int_list(args.n_list),
        args.epsilon,
        _trials(args, 200),
        SeedSpec(args.seed),
        strategy=_strategy(args),
        target_radius=args.target_radius,
        group_size=args.group_size,
    )
    return _print_scan(rows, args.out)


def _prune_params(args) -> PruneParams:
    extra = {}
    if args.enumeration_budget is not None:
        extra["enumeration_budget"] = args.enumeration_budget
    return PruneParams(
        epsilon=args.epsilon,
        magnitude_bound=args.magnitude,
        k_budget=args.k_budget,
        mode=_MODES[args.mode],
        strategy=_strategy(args),
        probe_count=args.probes,
        restarts=args.restarts,
        max_iters=args.max_iters,
        **extra,
    )


def _cmd_prune_one(args) -> int:
    bundle = prune_random_layer(args.d, args.c0, args.c1, args.n, _prune_params(args),
                                SeedSpec(args.seed), args.spatial)
    report = bundle.report
    layer = report.layers[0]
    print(f"kept {len(layer.kept_kernels)} of {layer.mask.shape[3]} expansion kernels "
          f"(k budget {layer.k_budget}, per-entry tolerance {layer.tolerance:.6g})")
    for solve in layer.channel_solves:
        print(f"  channel {solve.channel} sign {solve.sign:+d}: {solve.status}, "
              f"residual {solve.residual_inf:.6g} (pool {len(solve.pool)})")
    for warning in layer.occupancy_warnings:
        print(f"  warning: {warning}")
    print(f"probe error {report.empirical_max_error:.6g} over {bundle.params.probe_count} "
          f"probes and the two corners (budget {report.theoretical_bound:.6g} when fully successful)")
    structure = validate_structure(bundle.masks[0])
    print(f"mask structure: {'valid' if structure.valid else 'INVALID: ' + structure.message}")
    if not structure.valid:
        return EXIT_CHECK_FAILED
    if args.out:
        save_bundle(args.out, bundle)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_prune_net(args) -> int:
    seed = SeedSpec(args.seed)
    spec = NetworkSpec(
        depth=args.depth,
        spatial=args.spatial,
        channels=tuple(_int_list(args.channels)),
        kernel_sizes=tuple(_int_list(args.kernel_sizes)),
        overparam=tuple(_int_list(args.overparam)),
    )
    bundle = prune_network(spec.sample_random_net(seed.substream(0)), spec.sample_targets(seed),
                           _prune_params(args), seed.substream(1), spec.spatial)
    report = bundle.report
    print(f"fully successful: {report.fully_successful}")
    print(f"empirical max probe error: {report.empirical_max_error:.6g}")
    print(f"composed bound when fully successful: {report.theoretical_bound:.6g}")
    for i, layer in enumerate(report.layers, 1):
        hits = sum(1 for s in layer.channel_solves if s.success)
        print(f"  layer {i}: kept {len(layer.kept_kernels)}/{layer.mask.shape[3]} "
              f"kernels, {hits}/{len(layer.channel_solves)} channel solves hit")
    for mask in bundle.masks:
        structure = validate_structure(mask)
        if not structure.valid:
            print(f"  INVALID mask structure: {structure.message}")
            return EXIT_CHECK_FAILED
    if args.out:
        save_bundle(args.out, bundle)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_dump_report(args) -> int:
    bundle = load_bundle(args.bundle)
    print(f"bundle: {len(bundle.target_kernels)} target layer(s), "
          f"{len(bundle.random_kernels)} random kernels, spatial {bundle.spatial}")
    print(f"params: epsilon {bundle.params.epsilon}, mode {bundle.params.mode.value}, "
          f"strategy {bundle.params.strategy.value}, probes {bundle.params.probe_count}")
    for i, mask in enumerate(bundle.masks):
        structure = validate_structure(mask)
        state = "valid" if structure.valid else f"INVALID ({structure.message})"
        print(f"mask {i}: ones {mask.ones_count()}/{mask.bits.size}, structure {state}")
        if not structure.valid:
            return EXIT_CHECK_FAILED
    for layer, (kept, total, dense, compact) in enumerate(kept_channel_costs(bundle), 1):
        print(f"layer {layer}: {kept}/{total} expansion kernels kept, multiply-adds per probe "
              f"{dense} dense, {compact} kept-channel")
    if bundle.report is not None:
        print(f"stored empirical error: {bundle.report.empirical_max_error:.6g}")
        recomputed = bundle_probe_error(bundle)
        print(f"recomputed empirical error: {recomputed:.6g}")
        if recomputed != bundle.report.empirical_max_error:
            print("MISMATCH: stored report does not reproduce from kernels+masks+seed")
            return EXIT_CHECK_FAILED
        mismatch = report_mismatch(bundle)
        if mismatch:
            print(f"MISMATCH: {mismatch}")
            return EXIT_CHECK_FAILED
    else:
        print("no stored report: probe error not re-verified, only mask structure checked")
    return EXIT_OK


_HANDLERS = {
    "lemma-check": _cmd_lemma_check,
    "rssp-scan": _cmd_rssp_scan,
    "mrss-scan": _cmd_mrss_scan,
    "prune-one": _cmd_prune_one,
    "prune-net": _cmd_prune_net,
    "dump-report": _cmd_dump_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`main` reuses: parsing leaves no state in it, and a
    build costs about 30 parses."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_parser(), argv)
        return _HANDLERS[args.command](args)
    except (ParameterError, ShapeError, StructureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
