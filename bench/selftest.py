"""Shows that every output check of the benchmark can fail.

For each workload one clean item is run and must pass. Then each case either
corrupts one byte or one value of that item's outputs, or makes the item
raise or exit non-zero, and the item must be counted as failed with the
expected check named in its failure message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil

import numpy as np

import workloads as w

SEED = 1
# lemma-check --trials 12945 prints a FAIL line for this master seed: one of
# the moment identities lands beyond three standard errors.
FALSE_ALARM_MASTER = 181


def _replace_once(data: bytes, old: bytes, new: bytes) -> bytes:
    pos = data.index(old)
    return data[:pos] + new + data[pos + len(old):]


def _solve_changed(out, position, **changes):
    result = out["result"]
    solves = list(result.channel_solves)
    solves[position] = dataclasses.replace(solves[position], **changes)
    return {**out, "result": dataclasses.replace(result, channel_solves=tuple(solves))}


def _csv_rows_edited(data: bytes, edit) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    rows = [line.rstrip("\r\n").split(",") for line in lines[1:]]
    edit(header, rows)
    return (lines[0] + "".join(",".join(row) + "\r\n" for row in rows)).encode()


def _swap_rate_fields(header, rows):
    for key in ("successes", "rate", "wilson_low", "wilson_high"):
        col = header.index(key)
        rows[0][col], rows[-1][col] = rows[-1][col], rows[0][col]


def _zero_successes(header, rows):
    for row in rows:
        row[header.index("successes")] = "0"
        row[header.index("rate")] = "0.0"
        row[header.index("wilson_low")] = "0.0"


def _nudge_wilson_high(header, rows):
    col = header.index("wilson_high")
    value = rows[0][col]
    rows[0][col] = value[:-1] + ("1" if value[-1] != "1" else "2")


def prune_layer_cases(wl, inputs, out):
    first_miss = next(i for i, s in enumerate(out["result"].channel_solves) if not s.success)
    residual = out["result"].channel_solves[0].residual_inf
    yield "residual of one solve moved by one ulp", "digest", lambda: (
        inputs, _solve_changed(out, 0, residual_inf=float(np.nextafter(residual, np.inf))))
    pool = out["result"].channel_solves[0].pool
    yield "one kernel dropped from a pool", "pool of 47", lambda: (
        inputs, _solve_changed(out, 0, pool=pool[:-1]))
    yield "a missed solve reported as a hit", "hit recomputes", lambda: (
        inputs, _solve_changed(out, first_miss, status="hit"))

    def claimed_success():
        bad = out
        for position in range(len(out["result"].channel_solves)):
            bad = _solve_changed(bad, position, status="hit")
        return inputs, {**bad, "probe_error": 1.0}

    yield "fully successful layer with probe error above eps*M", "probe error", claimed_success

    def wrong_shape(index):
        _, probes, solver_seed = type(wl).make(wl, index)
        return w.tensors.Tensor4(np.full((3, 3, 1, 1), 1.0 / 9.0)), probes, solver_seed

    yield "the item raises (target of the wrong shape)", "raised ShapeError", wrong_shape


def phase_scan_cases(wl, inputs, out):
    def csv_changed(key, data):
        return inputs, {**out, "csv": {**out["csv"], key: data}}

    def rssp_edited(edit):
        return csv_changed("rssp", _csv_rows_edited(out["csv"]["rssp"], edit))

    yield "an rssp rate that is not successes/trials", "outside", lambda: rssp_edited(
        lambda header, rows: rows[0].__setitem__(header.index("rate"), "0.123"))
    yield "the last rssp row missing", "n column", lambda: rssp_edited(
        lambda header, rows: rows.pop())
    yield "one byte of the rssp epsilon echo", "documented defaults", lambda: csv_changed(
        "rssp", _replace_once(out["csv"]["rssp"], b",0.05,41,", b",0.06,41,"))
    yield "an rssp master seed echo", "seed echo", lambda: rssp_edited(
        lambda header, rows: rows[0].__setitem__(header.index("master_seed"), "7"))
    yield "one header byte of the rssp CSV", "header", lambda: csv_changed(
        "rssp", _replace_once(out["csv"]["rssp"], b"wilson_low", b"wilson_lox"))
    yield "rssp success counts falling with n", "not monotone", lambda: csv_changed(
        "rssp", _csv_rows_edited(out["csv"]["rssp"], _swap_rate_fields))
    yield "exhaustive mrss hits below greedy", "greedy", lambda: csv_changed(
        "mrss", _csv_rows_edited(out["csv"]["mrss"], _zero_successes))
    yield "one digit of an mrss Wilson bound", "digest", lambda: csv_changed(
        "mrss", _csv_rows_edited(out["csv"]["mrss"], _nudge_wilson_high))

    def bad_flag(index):
        wl.SCANS = {**type(wl).SCANS}
        wl.SCANS["mrss"] = (["mrss-scan", "--n-list", "2"], *wl.SCANS["mrss"][1:])
        return type(wl).make(wl, index)

    yield "mrss-scan exits 2 (n below k)", "exit code 2", bad_flag


def prune_net_cases(wl, inputs, out):
    path = wl.workdir / "net.json"

    def stored_error_byte():
        key = b'"empirical_max_error": '
        start = out["bundle"].index(key) + len(key)
        digit = out["bundle"][start + 3:start + 4]
        bad = out["bundle"][:start + 3] + (b"1" if digit != b"1" else b"2") + out["bundle"][start + 4:]
        path.write_bytes(bad)
        return inputs, {**out, "bundle": bad, "dump": wl.dump_report(path)}

    yield "one byte of the stored probe error", "dump-report: exit code 1", stored_error_byte

    yield "the bundle's probe count", "probed at 254", lambda: (
        inputs, {**out, "bundle": out["bundle"].replace(b'"probe_count": 254', b'"probe_count": 253')})
    yield "the bundle's first byte", "not JSON", lambda: (
        inputs, {**out, "bundle": b"x" + out["bundle"][1:]})

    def kernel_byte():
        bad = _replace_once(out["bundle"], b'"data": [', b'"data":[')
        return inputs, {**out, "bundle": bad}

    yield "one byte of the bundle's kernel data", "digest", kernel_byte

    def budget_exceeded(index):
        cli = wl.cli
        wl.cli = lambda argv, out_path=None: cli(
            argv + ["--enumeration-budget", "1"] if argv[0] == "prune-net" else argv, out_path)
        return type(wl).make(wl, index)

    yield "prune-net exits 3 (enumeration budget)", "exit code 3", budget_exceeded


def lemma_check_cases(wl, inputs, out):
    def csv_changed(data):
        return inputs, {**out, "csv": data}

    yield "one byte of a verdict", "pbss", lambda: csv_changed(
        _replace_once(out["csv"], b",pass", b",pbss"))
    yield "one byte of a trial count", "trials 12946", lambda: csv_changed(
        _replace_once(out["csv"], b",12945,", b",12946,"))
    yield "the last result row missing", "35 result rows", lambda: csv_changed(
        b"".join(out["csv"].splitlines(keepends=True)[:-1]))
    yield "the closing line of stdout", "missing", lambda: (
        inputs, {**out, "stdout": out["stdout"].replace("all checks passed", "all checks passeD")})

    def false_alarm(index):
        wl.master = FALSE_ALARM_MASTER
        return type(wl).make(wl, index)

    yield "a master seed whose run prints a FAIL line", "exit code 1", false_alarm


CASES = {
    "prune-layer": prune_layer_cases,
    "phase-scan": phase_scan_cases,
    "prune-net": prune_net_cases,
    "lemma-check": lemma_check_cases,
}


def main(loop_cls, out_dir) -> int:
    workdir = out_dir / "selftest-work"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = 0
    try:
        for name, cls in w.WORKLOADS.items():
            wl = cls(SEED, workdir)
            wl.prepare()
            inputs, out = wl.warm_up()
            clean = hashlib.sha256(wl.digest(out)).hexdigest()
            loop = loop_cls(wl, [clean])
            errors = loop.judge(0, inputs, out)
            print(f"self-test {name}: clean item {'passes' if not errors else errors}")
            problems += bool(errors)
            for label, expected, corrupt in CASES[name](wl, inputs, out):
                before = len(loop.failures)
                if corrupt.__code__.co_argcount:  # a different item is made and run
                    wl.make = corrupt
                    loop.item(0)
                    del wl.make
                else:
                    loop.count(0, loop.judge(0, *corrupt()))
                failed = loop.failures[before:]
                caught = bool(failed) and expected in failed[0]
                problems += not caught
                print(f"self-test {name}: {label}: "
                      f"{'counted failed' if caught else 'NOT DETECTED'}"
                      f"{' (' + failed[0][:160] + ')' if failed else ''}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {'all checks fire' if not problems else f'{problems} problem(s)'}")
    return 1 if problems else 0
