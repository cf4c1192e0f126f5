"""Seeded benchmark for subsetprune.

    python3 bench/run.py --workload prune-layer --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28   # every workload, both modes
    python3 bench/run.py --self-test                           # every output check must fire

Each run is one process driving a closed loop: one item at a time, in-process
calls into the package under ``src/``, no worker threads. Set-up (imports,
input generation from ``--seed`` and one warm-up item) is timed before the
loop starts; the loop then runs whole items until ``--seconds`` have passed.
Every item's outputs are checked, and an item counts as failed if it raises,
exits non-zero or fails a check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each item
twice, untraced and then with a timing wrapper on every public function of
each package module, and reports per-layer self times, computed work counts
and the tracing overhead. The last
line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, the machine
description and the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import time

_START = time.perf_counter()

# Pinned before numpy loads, so BLAS and OpenMP pools hold a single thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 5  # set-up runs per process; setup_s takes their median
RECORD_ITEMS = 3  # item digests kept per (workload, seed) by --record-digests
GATED = ("setup_s", "items_per_s", "peak_rss_mb")  # as in BENCHMARK.json
UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "item_ms.p50": "ms",
         "item_ms.p90": "ms", "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def machine_facts(np) -> dict:
    """The machine and environment a result was measured on."""
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__,
             "threads": {var: os.environ[var] for var in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            facts["cpu"] = next(line.split(":", 1)[1].strip()
                                for line in handle if line.startswith("model name"))
        with open("/proc/meminfo", encoding="utf-8") as handle:
            facts["ram_mb"] = int(handle.readline().split()[1]) // 1024
    except (OSError, StopIteration, ValueError, IndexError):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
        facts["simd"] = "+".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError, AttributeError):
        facts["blas"] = facts["simd"] = "unknown"
    return facts


def platform_key(facts) -> str:
    """Digests are bit-stable only on one platform: CPU features and numpy."""
    return f"{platform.machine()} numpy-{facts['numpy']} {facts['simd']}"


class Loop:
    """Runs, times and judges the items of one workload."""

    def __init__(self, workload, expected):
        self.wl = workload
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def judge(self, index, inputs, out) -> list[str]:
        errors = self.wl.check(inputs, out)
        digest = hashlib.sha256(self.wl.digest(out)).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            errors.append(f"digest {digest[:16]} differs from the same item's earlier run")
        if index < len(self.expected) and digest != self.expected[index]:
            errors.append(f"digest {digest[:16]} != recorded {self.expected[index][:16]}")
        return errors

    def count(self, index, errors) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"item {index}: {'; '.join(errors)}")

    def item(self, index, run=None) -> float:
        """Make, run (timed) and judge one item; returns the run time."""
        start = time.perf_counter()
        try:
            inputs = self.wl.make(index)
            start = time.perf_counter()
            out = run(index, self.wl.run, inputs) if run else self.wl.run(inputs)
            elapsed = time.perf_counter() - start
            errors = self.judge(index, inputs, out)
        except Exception as exc:  # an item that raises is a failed item; the loop goes on
            elapsed = time.perf_counter() - start
            errors = [f"raised {type(exc).__name__}: {exc}"]
        self.count(index, errors)
        return elapsed

    def timed(self, seconds, minimum=1) -> list[float]:
        """Items 1, 2, ... until ``seconds`` have passed; item 0 warmed up."""
        times = []
        start = time.perf_counter()
        while len(times) < minimum or time.perf_counter() - start < seconds:
            times.append(self.item(1 + len(times)))
        return times


def setup(cls, seed, workdir, expected):
    """Input generation plus the warm-up item, repeated; returns the loop and
    the median set-up time."""
    loop = Loop(None, expected)
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        loop.wl = cls(seed, workdir)
        loop.wl.prepare()
        try:
            inputs, out = loop.wl.warm_up()
            errors = None
        except Exception as exc:  # counted like a failed timed item
            errors = [f"warm-up raised {type(exc).__name__}: {exc}"]
        durations.append(time.perf_counter() - start)
        loop.count(0, errors if errors else loop.judge(0, inputs, out))
    return loop, statistics.median(durations)


def end_to_end(times, setup_s, loop) -> dict[str, float]:
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "items_per_s": len(times) / sum(times),
        "item_ms.p50": 1000.0 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(loop.failures) / loop.attempted,
    }
    if len(times) >= 100:  # at least ten items lie beyond the 90th percentile
        metrics["item_ms.p90"] = 1000.0 * statistics.quantiles(times, n=10)[-1]
    return metrics


def run_workload(args) -> int:
    import numpy as np

    import subsetprune  # noqa: F401
    import workloads
    from tracing import COMPUTED, Tracer

    import_s = time.perf_counter() - _START  # from the first line of this script
    facts = machine_facts(np)
    key = platform_key(facts)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = recorded.get(key, {}).get(args.workload, {}).get(str(args.seed), [])
    workdir = OUT / f"{args.workload}-seed{args.seed}-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, workdir, expected)
        setup_s += import_s
        if args.trace:
            # Each item runs untraced and then traced, so slow drift of the
            # machine affects both sides of the overhead alike.
            tracer = Tracer()
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                index = 1 + len(traced)
                untraced.append(loop.item(index))
                loop.wl.counts = tracer.counts
                tracer.install()
                try:
                    traced.append(loop.item(index, tracer.run_item))
                finally:
                    tracer.uninstall()
                    loop.wl.counts = collections.Counter()
            times = untraced + traced
            metrics = tracer.metrics()
            metrics["trace.items"] = (len(traced), "count")
            metrics["trace.untraced_wall_s"] = (sum(untraced), "s")
            metrics["trace.traced_wall_s"] = (sum(traced), "s")
            metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
            with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as handle:
                for record in tracer.span_records():
                    handle.write(json.dumps(record) + "\n")
        else:
            times = loop.timed(args.seconds, RECORD_ITEMS - 1 if args.record_digests else 1)
            metrics = {name: (value, UNITS[name])
                       for name, value in end_to_end(times, setup_s, loop).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items attempted {loop.attempted}  failed {len(loop.failures)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for note in loop.wl.notes:
        print(f"note: {note}")
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    if args.trace == 0 and "item_ms.p90" not in metrics:
        print(f"  item_ms.p90 undefined: {len(times)} timed items, 100 needed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}{'  (computed)' if name in COMPUTED else ''}")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "attempted": loop.attempted,
              "failures": loop.failures, "notes": loop.wl.notes, "digests": loop.digests,
              "item_s": times,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    if args.record_digests:
        first = [loop.digests[i] for i in range(RECORD_ITEMS)]
        recorded.setdefault(key, {}).setdefault(args.workload, {})[str(args.seed)] = first
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    shown = metrics if args.trace else {name: metrics[name] for name in GATED}
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads

    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            ok &= json.loads(lines[-1])["correct"]
            full = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            summary.setdefault(name, {"machine": full["machine"]})
            summary[name]["end_to_end" if trace == 0 else "per_layer"] = full["metrics"]
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": summary},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "workloads": list(summary)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the first item digests of this run in digests.json")
    parser.add_argument("--save", help="with --workload all: write every result to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt outputs and check that each check counts the item failed")
    args = parser.parse_args(argv)
    if not (SRC / "subsetprune" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.self_test:
        import selftest

        return selftest.main(Loop, OUT)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
