#!/usr/bin/env python3
"""End-to-end demo: prune a depth-2 random network against seeded unit-L1
targets, print the per-channel solve outcomes, and save a reloadable bundle.

Usage: python3 scripts/prune_demo.py [bundle.json]
"""

import sys

from subsetprune import (NetworkSpec, PruneParams, SeedSpec, prune_network, save_bundle,
                         validate_structure)


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "prune_demo_bundle.json"
    seed = SeedSpec(20240801, 3)
    spec = NetworkSpec(
        depth=2, spatial=4, channels=(1, 2, 1), kernel_sizes=(2, 2), overparam=(48, 48)
    )
    params = PruneParams(epsilon=0.5, probe_count=64)

    bundle = prune_network(spec.sample_random_net(seed.substream(0)), spec.sample_targets(seed),
                           params, seed.substream(1), spec.spatial)
    report = bundle.report

    print(f"fully successful: {report.fully_successful}")
    print(f"empirical max probe error: {report.empirical_max_error:.6g}")
    print(f"composed bound (binding when fully successful): {report.theoretical_bound:.6g}")
    for summary in report.layers:
        print(f"layer {summary.layer}: kept {summary.kept_kernels}/{summary.total_kernels} "
              f"expansion kernels at per-entry tolerance {summary.tolerance:.6g}")
        for solve in summary.channel_solves:
            print(f"  channel {solve.channel} sign {solve.sign:+d}: {solve.status} "
                  f"(residual {solve.residual_inf:.6g}, pool {len(solve.pool)})")
    for i, mask in enumerate(bundle.masks):
        print(f"mask {i}: {validate_structure(mask).message}, ones {mask.ones_count()}")

    save_bundle(out, bundle)
    print(f"wrote {out} (inspect with: subsetprune dump-report --bundle {out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
