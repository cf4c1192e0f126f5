"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (``prepare`` and ``make``,
untimed), runs one item on them (``run``, timed) and checks the item's
outputs (``check``, untimed). ``digest`` returns the item's deterministic
output bytes, whose SHA-256 is compared with ``digests.json`` where that file
records the seed. Every call into the package goes through a module attribute
(``pruning.prune_single_layer``, ``cli.main``, ...), so the traced run's
wrappers see it.

Why each workload exists, and what it is expected to stress, is recorded in
``workloads.json`` beside this file.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import subsetprune.cli as cli
import subsetprune.pruning as pruning
import subsetprune.sampling as sampling
import subsetprune.tensors as tensors


def derived_seed(*parts) -> int:
    """A 63-bit seed from the benchmark seed and labels; stable across releases."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.counts: collections.Counter = collections.Counter()
        self.last_stdout = ""
        self.notes: list[str] = []  # printed with the result

    def prepare(self) -> None:
        """Input generation shared by every item of the run."""

    def make(self, index: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def warm_up(self):
        """The set-up item: item 0, checked like any other."""
        inputs = self.make(0)
        return inputs, self.run(inputs)

    def cli(self, argv: list[str], out_path: Path | None = None) -> int:
        """Run one CLI command in-process; stdout and stderr are captured."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        written = len(stdout.getvalue().encode()) + len(stderr.getvalue().encode())
        if out_path is not None and out_path.exists():
            written += out_path.stat().st_size
        self.counts["cli_output_bytes"] += written
        self.last_stdout = stdout.getvalue()
        return code


# ---------------------------------------------------------------------------
# prune-layer: criterion 10 at n = 96, one random pair, many targets
# ---------------------------------------------------------------------------


class PruneLayer(Workload):
    name = "prune-layer"
    N = 96
    POOL = 48  # each sign's pool; fixes the enumeration at sum_j<=5 C(48, j)
    EPSILON = 0.25
    MAGNITUDE = 1.0
    PROBES = 32

    def prepare(self) -> None:
        base = derived_seed(self.name, self.seed)
        n = self.N
        # The pair is redrawn until both sign pools hold exactly POOL kernels,
        # so every run scans the same number of subsets per solve.
        for attempt in range(100_000):
            expansion = sampling.sample_normal_tensor(
                (1, 1, 1, 2 * n), sampling.SeedSpec(base, 0).substream(attempt)
            )
            values = expansion.data[0, 0, 0]
            if (values[:n] > 0).sum() == self.POOL and (values[n:] < 0).sum() == self.POOL:
                break
        else:
            raise RuntimeError("no expansion kernel with the requested pool sizes")
        self.base = base
        self.expansion = expansion
        self.mixing = sampling.sample_normal_tensor((2, 2, 2 * n, 1), sampling.SeedSpec(base, 1))
        self.rows = np.transpose(self.mixing.data, (2, 0, 1, 3)).reshape(2 * n, -1)
        self.params = pruning.PruneParams(
            epsilon=self.EPSILON, magnitude_bound=self.MAGNITUDE, probe_count=self.PROBES
        )

    def make(self, index: int):
        raw = sampling.sample_normal_tensor((2, 2, 1, 1), sampling.SeedSpec(self.base, 2).substream(index))
        target = tensors.Tensor4(raw.data / tensors.norm_l1(raw))
        probes = pruning.make_probes(
            4, 4, 1, self.PROBES, sampling.SeedSpec(self.base, 3).substream(index), self.MAGNITUDE
        )
        return target, probes, sampling.SeedSpec(self.base, 4).substream(index)

    def run(self, inputs):
        target, probes, solver_seed = inputs
        result = pruning.prune_single_layer(
            self.mixing, self.expansion, target, self.params, solver_seed
        )
        worst = 0.0
        for probe in probes:
            fx = tensors.conv(target, probe)
            gx = pruning.single_layer_output(self.mixing, result.pruned_first, probe)
            worst = max(worst, float(np.abs(fx.data - gx.data).max()))
        return {"result": result, "probe_error": worst}

    def check(self, inputs, out) -> list[str]:
        target = inputs[0]
        result = out["result"]
        errors = []
        values = self.expansion.data[0, 0, 0]
        for solve in result.channel_solves:
            if len(solve.pool) != self.POOL:
                errors.append(f"sign {solve.sign:+d}: pool of {len(solve.pool)}, expected {self.POOL}")
            if not solve.success:
                continue
            # independent re-verification by direct subtraction
            achieved = np.zeros(self.rows.shape[1])
            for kernel in solve.selected:
                achieved = achieved + self.rows[kernel] * abs(values[kernel])
            flat = solve.sign * target.data[:, :, solve.channel, :].reshape(-1)
            residual = float(np.abs(achieved - flat).max())
            if residual > solve.tolerance + 1e-12:
                errors.append(
                    f"sign {solve.sign:+d}: hit recomputes to residual {residual!r} "
                    f"> tolerance {solve.tolerance!r}"
                )
        if all(s.success for s in result.channel_solves):
            bound = self.EPSILON * self.MAGNITUDE
            if out["probe_error"] > bound + 1e-9:
                errors.append(
                    f"fully successful layer with probe error {out['probe_error']!r} > eps*M {bound}"
                )
        return errors

    def digest(self, out) -> bytes:
        return "".join(
            f"{s.channel} {s.sign} {s.status} {list(s.selected)} {s.residual_inf!r}\n"
            for s in out["result"].channel_solves
        ).encode()


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _parse_csv(data: bytes, columns: list[str], what: str, errors: list[str]) -> list[dict]:
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        errors.append(f"{what}: unreadable CSV ({exc})")
        return []
    if not rows or rows[0] != columns:
        errors.append(f"{what}: header {rows[0] if rows else None} != {columns}")
        return []
    body = [dict(zip(columns, row)) for row in rows[1:]]
    if any(len(row) != len(columns) for row in rows[1:]):
        errors.append(f"{what}: a row has the wrong number of fields")
        return []
    return body


def _field(row, key, kind, what, errors):
    try:
        return kind(row[key])
    except ValueError:
        errors.append(f"{what}: {key}={row[key]!r} is not {kind.__name__}")
        return None


RATE_COLUMNS = ["n", "trials", "successes", "rate", "wilson_low", "wilson_high"]
SEED_COLUMNS = ["master_seed", "stream_id"]
MRSS_COLUMNS = RATE_COLUMNS + [
    "d", "k", "epsilon", "strategy", "target_radius", "group_size"] + SEED_COLUMNS
RSSP_COLUMNS = RATE_COLUMNS + ["epsilon", "grid_size"] + SEED_COLUMNS
LEMMA_COLUMNS = ["name", "estimate", "std_error", "bound", "direction", "trials", "verdict"]


def _check_rate_rows(rows, n_values, master, what, errors) -> dict[int, int]:
    """Schema of one scan CSV at the documented defaults; returns successes by n."""
    successes = {}
    if [r["n"] for r in rows] != [str(n) for n in n_values]:
        errors.append(f"{what}: n column {[r['n'] for r in rows]} != {list(n_values)}")
        return successes
    for row in rows:
        n = int(row["n"])
        trials = _field(row, "trials", int, what, errors)
        hits = _field(row, "successes", int, what, errors)
        rate = _field(row, "rate", float, what, errors)
        low = _field(row, "wilson_low", float, what, errors)
        high = _field(row, "wilson_high", float, what, errors)
        if None in (trials, hits, rate, low, high):
            continue
        if trials != 200 or not 0 <= hits <= trials:
            errors.append(f"{what} n={n}: successes {hits} of trials {trials}")
        elif rate != hits / trials or not 0.0 <= low <= rate <= high <= 1.0:
            errors.append(f"{what} n={n}: rate {rate!r} outside [{low!r}, {high!r}] "
                          f"or != {hits}/{trials}")
        if row["master_seed"] != str(master) or row["stream_id"] != "0":
            errors.append(f"{what} n={n}: seed echo {row['master_seed']}/{row['stream_id']}")
        successes[n] = hits
    return successes


_MRSS_ECHO = {"d": "2", "k": "3", "epsilon": "0.25", "target_radius": "1.0", "group_size": ""}


class PhaseScan(Workload):
    name = "phase-scan"
    # key: (argv, CSV columns, n values, parameter echo), all at the documented defaults
    SCANS = {
        "mrss": (["mrss-scan"], MRSS_COLUMNS, (10, 15, 20),
                 {**_MRSS_ECHO, "strategy": "exhaustive"}),
        "mrss_greedy": (["mrss-scan", "--strategy", "greedy_swap"], MRSS_COLUMNS, (10, 15, 20),
                        {**_MRSS_ECHO, "strategy": "greedy_swap"}),
        "rssp": (["rssp-scan"], RSSP_COLUMNS, (10, 20, 30, 40, 50, 60),
                 {"epsilon": "0.05", "grid_size": "41"}),
    }

    def make(self, index: int):
        return derived_seed(self.name, self.seed, index)

    def run(self, master):
        out = {"codes": {}, "csv": {}}
        for key, (argv, _, _, _) in self.SCANS.items():
            path = self.workdir / f"{key}.csv"
            out["codes"][key] = self.cli([*argv, "--seed", str(master), "--out", str(path)], path)
            out["csv"][key] = path.read_bytes() if out["codes"][key] == 0 else b""
        return out

    def check(self, master, out) -> list[str]:
        errors = [f"{key}: exit code {code}" for key, code in out["codes"].items() if code != 0]
        if errors:
            return errors
        found = {}
        for key, (_, columns, n_values, echo) in self.SCANS.items():
            rows = _parse_csv(out["csv"][key], columns, key, errors)
            found[key] = _check_rate_rows(rows, n_values, master, key, errors) if rows else {}
            for row in rows:
                if {k: row[k] for k in echo} != echo:
                    errors.append(f"{key} n={row['n']}: parameters are not the documented defaults")
        rssp = [found["rssp"][n] for n in sorted(found["rssp"])]
        if any(b < a for a, b in zip(rssp, rssp[1:])):
            errors.append(f"rssp: success counts {rssp} are not monotone in n")
        # the exhaustive search is exact, so it hits wherever the local search does
        for n, greedy in found["mrss_greedy"].items():
            if n in found["mrss"] and greedy > found["mrss"][n]:
                errors.append(f"mrss n={n}: greedy {greedy} hits > exhaustive {found['mrss'][n]}")
        return errors

    def digest(self, out) -> bytes:
        return b"".join(out["csv"][key] for key in self.SCANS)


class PruneNet(Workload):
    name = "prune-net"
    PROBES = 254  # criterion 11's probe count; the two corner probes come on top

    def make(self, index: int):
        return derived_seed(self.name, self.seed, index)

    def run(self, master):
        path = self.workdir / "net.json"
        out = {"prune": self.cli(["prune-net", "--seed", str(master), "--probes",
                                  str(self.PROBES), "--out", str(path)], path)}
        out["bundle"] = path.read_bytes() if out["prune"] == 0 else b""
        out["dump"] = self.dump_report(path) if out["prune"] == 0 else None
        return out

    def dump_report(self, path: Path) -> int:
        """``dump-report`` re-validates the masks and recomputes the probe error."""
        return self.cli(["dump-report", "--bundle", str(path)])

    def check(self, master, out) -> list[str]:
        errors = []
        if out["prune"] != 0:
            return [f"prune-net: exit code {out['prune']}"]
        if out["dump"] != 0:
            errors.append(f"dump-report: exit code {out['dump']} (stored report does not reproduce)")
        try:
            bundle = json.loads(out["bundle"])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return errors + [f"bundle is not JSON ({exc})"]
        report = bundle.get("report") or {}
        if report.get("probe_count") != self.PROBES or len(bundle.get("masks", ())) != 2:
            errors.append("bundle does not describe a depth-2 net probed at 254 points")
        return errors

    def digest(self, out) -> bytes:
        return out["bundle"]


class LemmaCheck(Workload):
    name = "lemma-check"
    # Overrides all three default trial counts. 12945 is the intersection-tail
    # block size (2^24 // 1296), so every check runs exactly one full block.
    TRIALS = 12945
    CANDIDATES = 3

    def warm_up(self):
        # Every item of a run repeats one master seed. At three standard errors
        # the two exact moment identities each raise a false FAIL on about
        # 0.3% of seeds, so the warm-up takes the first of a few seeded
        # candidates that passes; a defect that fails every seed still fails.
        for attempt in range(self.CANDIDATES):
            self.master = derived_seed(self.name, self.seed, attempt)
            inputs = self.make(0)
            out = self.run(inputs)
            if out["code"] == 0:
                break
            self.notes.append(f"master seed {self.master} exited {out['code']} at warm-up")
        return inputs, out

    def make(self, index: int):
        return self.master

    def run(self, master):
        path = self.workdir / "lemma.csv"
        code = self.cli(["lemma-check", "--seed", str(master), "--trials", str(self.TRIALS),
                         "--out", str(path)], path)
        return {"code": code, "csv": path.read_bytes() if path.exists() else b"",
                "stdout": self.last_stdout}

    def check(self, master, out) -> list[str]:
        if out["code"] != 0:
            return [f"lemma-check: exit code {out['code']}"]
        errors = []
        rows = _parse_csv(out["csv"], LEMMA_COLUMNS, "lemma-check", errors)
        if rows and len(rows) != 36:
            errors.append(f"lemma-check: {len(rows)} result rows, expected 36")
        for row in rows:
            if row["verdict"] != "pass" or row["direction"] not in ("lower", "upper"):
                errors.append(f"lemma-check: {row['name']}: {row['verdict']} ({row['direction']})")
            if row["trials"] != str(self.TRIALS):
                errors.append(f"lemma-check: {row['name']}: trials {row['trials']}")
            if not all(math.isfinite(float(row[k])) for k in ("estimate", "std_error", "bound")):
                errors.append(f"lemma-check: {row['name']}: non-finite value")
        if not out["stdout"].rstrip().endswith("all checks passed"):
            errors.append("lemma-check: missing 'all checks passed'")
        return errors

    def digest(self, out) -> bytes:
        return out["csv"]


WORKLOADS = {cls.name: cls for cls in (PruneLayer, PhaseScan, PruneNet, LemmaCheck)}

