"""CLI surface: subcommands, exit codes, CSV determinism, bundle round trips."""

import base64
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from subsetprune import cli, harness, pruning, sampling
from subsetprune.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from subsetprune.masks import StructureReport, channel_blocked_mask
from subsetprune.pruning import PrunedNetworkBundle, PruneParams, save_bundle
from subsetprune.sampling import SeedSpec, sample_normal_tensor
from subsetprune.tensors import Tensor4


def test_lemma_check_small_trials(capsys, tmp_path):
    out = tmp_path / "checks.csv"
    code = main(["lemma-check", "--trials", "4000", "--seed", "7", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all checks passed" in captured
    header = out.read_text().splitlines()[0]
    assert header == "name,estimate,std_error,bound,direction,trials,verdict"


def test_rssp_scan_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["rssp-scan", "--epsilon", "0.2", "--n-list", "5,10", "--grid-size", "11",
            "--trials", "25", "--seed", "99"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("golden,flags", [
    ("rssp-seed5.csv", []),  # the defaults: four batches of up to 52 trials
    ("rssp-eps0.01-seed5.csv", ["--epsilon", "0.01"]),  # 20 batches of 10
    # 20,001 intervals a trial at worst: 20 batches of three trials
    ("rssp-eps0.002-seed5.csv", ["--epsilon", "0.002", "--n-list", "10,20,40",
                                 "--grid-size", "201", "--trials", "60"]),
])
def test_rssp_scan_csv_bytes_are_pinned(tmp_path, golden, flags):
    # the CSVs were written by the lexsort-and-rank cover fold that the merge
    # replaced; CI compares the last one with the installed CLI's output too
    out = tmp_path / golden
    assert main(["rssp-scan", *flags, "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_mrss_scan_runs(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["mrss-scan", "--d", "1", "--k", "2", "--n-list", "4,8",
                 "--epsilon", "0.2", "--trials", "20", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,trials,successes,rate")
    assert len(lines) == 3


def test_mrss_scan_budget_exceeded():
    code = main(["mrss-scan", "--d", "1", "--k", "20", "--n-list", "60",
                 "--epsilon", "0.2", "--trials", "1", "--seed", "5"])
    assert code == EXIT_BUDGET


def test_mrss_scan_budget_checked_for_every_n(capsys):
    # every trial hits at n = 10, yet C(400, 3) is over the default budget
    code = main(["mrss-scan", "--d", "1", "--k", "3", "--n-list", "10,400",
                 "--epsilon", "100", "--trials", "2"])
    assert code == EXIT_BUDGET
    assert "of 400 vectors exceed the enumeration budget" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    # 2^28 intervals a trial is over the default budget
    (["--epsilon", "1e-9", "--n-list", "28"],
     "the cover of n=28 values at epsilon=1e-09 may hold 268435456 intervals (6442450944 bytes)"
     " a trial, over the budget of 5000000 intervals"),
    # 10^11 grid points would be 800 GB of float64
    (["--grid-size", "100000000000"],
     "a grid of 100000000000 points (800000000000 bytes) is over the budget of 5000000 points"),
], ids=["cover", "grid"])
def test_rssp_scan_budget_checked_before_drawing(monkeypatch, capsys, flags, message):
    # the scan must not draw
    def no_draws(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(harness, "_uniforms", no_draws)
    code = main(["rssp-scan", *flags, "--trials", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert err == f"budget error: {message}\n"


def test_grouped_mrss_scan_budget_checked_before_drawing(monkeypatch, capsys):
    # C(100, 5) 5-subsets of the one group of 100 are over the default budget
    def no_draws(*args):
        raise AssertionError("drew a batch")

    monkeypatch.setattr(harness, "_mrss_draws", no_draws)
    code = main(["mrss-scan", "--k", "5", "--group-size", "100", "--n-list", "100"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert err.startswith("budget error: 75287520 5-subsets of 100 vectors exceed")


@pytest.mark.parametrize("radius", ["-1", "nan"])
def test_mrss_scan_rejects_bad_target_radius(radius, capsys):
    code = main(["mrss-scan", "--d", "1", "--k", "2", "--n-list", "4", "--trials", "2",
                 "--target-radius", radius])
    assert code == EXIT_USAGE
    assert "target_radius must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lemma-check", "rssp-scan", "mrss-scan"])
def test_zero_trials_rejected(command, capsys):
    assert main([command, "--trials", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["prune-one", "prune-net"])
def test_trials_is_not_a_prune_flag(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--trials", "5"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --trials" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--k", "5", "--n-list", "2"], "every n must be >= 5"),
    (["--k", "3", "--group-size", "8", "--n-list", "9"], "group_size must be >= k^2"),
], ids=["n-below-k", "group-below-k-squared"])
def test_parameter_error_exit_code(capsys, flags, message):
    code = main(["mrss-scan", "--d", "1", *flags, "--epsilon", "0.2", "--trials", "5"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: " + message)


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["mrss-scan", "prune-one", "prune-net"])
def test_strategy_mitm_is_not_a_choice(command, capsys):
    # meet-in-the-middle is 1-D only and every one of these commands is d-dimensional
    with pytest.raises(SystemExit) as err:
        main([command, "--strategy", "mitm"])
    assert err.value.code == EXIT_USAGE
    assert "invalid choice: 'mitm'" in capsys.readouterr().err


def test_prune_one_and_bundle(capsys, tmp_path):
    bundle = tmp_path / "layer.json"
    code = main(["prune-one", "--d", "1", "--c0", "1", "--c1", "1", "--n", "32",
                 "--epsilon", "0.25", "--seed", "11", "--out", str(bundle)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "probe error" in text and "mask structure: valid" in text
    assert bundle.exists()


@pytest.mark.parametrize("command,prefix", [
    # C(101, <= 5) = 83,463,472 subsets of the first pool are over the default budget
    (["prune-one", "--n", "200", "--k-budget", "5"], "channel 0 sign +1, pool of 101: "),
    # 2,952 subsets of the first layer's first pool of 26 are over a budget of 100
    (["prune-net", "--enumeration-budget", "100"], "layer 1: channel 0 sign +1, pool of 26: "),
], ids=["prune-one", "prune-net"])
def test_prune_budget_errors_name_their_solve(command, prefix, capsys, tmp_path):
    code = main([*command, "--out", str(tmp_path / "bundle.json")])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert err.startswith("budget error: " + prefix) and err.count("\n") == 1
    assert "exceed the enumeration budget" in err and "Traceback" not in err
    assert not (tmp_path / "bundle.json").exists()


@pytest.mark.parametrize("magnitude", ["inf", "1e308"])
@pytest.mark.parametrize("command", ["prune-one", "prune-net"])
def test_unrepresentable_magnitude_rejected_up_front(command, magnitude, capsys):
    # 2 * M must be finite for the probes on (-M, M)
    assert main([command, "--magnitude", magnitude, "--probes", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: magnitude bound {float(magnitude)!r}")


def test_prune_one_invalid_mask_fails_before_writing(capsys, tmp_path, monkeypatch):
    def invalid(mask):
        return StructureReport(False, mask.kind, ((0, 0, 0, 0),), "planted violation")

    monkeypatch.setattr(cli, "validate_structure", invalid)
    bundle = tmp_path / "layer.json"
    code = main(["prune-one", "--n", "16", "--seed", "3", "--out", str(bundle)])
    assert code == EXIT_CHECK_FAILED
    assert "mask structure: INVALID: planted violation" in capsys.readouterr().out
    assert not bundle.exists()


def test_prune_one_bundle_reverifies(capsys, tmp_path):
    bundle = tmp_path / "layer.json"
    assert main(["prune-one", "--n", "16", "--seed", "3", "--out", str(bundle)]) == EXIT_OK
    printed = re.search(r"probe error (\S+)", capsys.readouterr().out).group(1)
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"recomputed empirical error: {printed}\n" in out
    assert "MISMATCH" not in out

    payload = json.loads(bundle.read_text())
    payload["target_kernels"][0]["data"][0] += 0.5
    bundle.write_text(json.dumps(payload))
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_CHECK_FAILED
    assert "MISMATCH" in capsys.readouterr().out


def test_dump_report_prints_kept_channel_costs(capsys, tmp_path):
    bundle = tmp_path / "layer.json"
    assert main(["prune-one", "--n", "16", "--seed", "3", "--out", str(bundle)]) == EXIT_OK
    capsys.readouterr()
    kept = json.loads(bundle.read_text())["report"]["layers"][0]["kept_kernels"]
    assert 0 < kept < 32
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    # per expansion kernel: 16 map cells x (1 expansion entry + 2 x 2 x 1 mixing entries)
    per_kernel = 16 * (1 + 4)
    assert (f"layer 1: {kept}/32 expansion kernels kept, multiply-adds per probe "
            f"{32 * per_kernel} dense, {kept * per_kernel} kept-channel\n") in capsys.readouterr().out


def test_dump_report_on_bundle_without_report(capsys, tmp_path):
    bundle = tmp_path / "layer.json"
    kernels = tuple(sample_normal_tensor(shape, SeedSpec(3, i))
                    for i, shape in enumerate([(1, 1, 1, 4), (1, 1, 4, 1)]))
    save_bundle(bundle, PrunedNetworkBundle(
        random_kernels=kernels,
        target_kernels=(Tensor4(np.full((1, 1, 1, 1), 0.5)),),
        masks=(channel_blocked_mask(1, 1, 4),),
        params=PruneParams(epsilon=0.25),
        seed=SeedSpec(3),
        spatial=2,
    ))
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "probe error not re-verified, only mask structure checked" in out
    assert "recomputed empirical error" not in out


def test_prune_net_dump_report_round_trip(capsys, tmp_path):
    bundle = tmp_path / "net.json"
    code = main(["prune-net", "--depth", "2", "--spatial", "4", "--channels", "1,2,1",
                 "--kernel-sizes", "2,2", "--overparam", "12,12", "--epsilon", "0.5",
                 "--probes", "8", "--seed", "21", "--out", str(bundle)])
    assert code == EXIT_OK
    capsys.readouterr()
    code = main(["dump-report", "--bundle", str(bundle)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "recomputed empirical error" in out
    assert "MISMATCH" not in out


def _claim_all_hits(payload):
    """The tampering that makes a failed run look fully successful."""
    report = payload["report"]
    report["fully_successful"] = True
    report["theoretical_bound"] = 99.0
    for layer in report["layers"]:
        for solve in layer["channel_solves"]:
            solve["status"] = "hit"
    return payload


def _claim_full_success(payload):
    payload["report"]["fully_successful"] = True
    return payload


def _empty_layers(payload):
    payload["report"]["layers"] = []
    return payload


def _drop_last_layer(payload):
    payload["report"]["layers"].pop()
    return payload


def _demote_first_solve(payload):
    solve = next(s for layer in payload["report"]["layers"] for s in layer["channel_solves"]
                 if s["status"] != "hit")
    solve["residual_inf"] = solve["tolerance"]  # now within tolerance but not marked a hit
    return payload


def _edit(*path, value=None, change=None):
    """A tampering that sets or changes one value of the stored report."""
    def tamper(payload):
        *parents, last = path
        holder = payload["report"]
        for step in parents:
            holder = holder[step]
        holder[last] = change(holder[last]) if change else value
        return payload
    return tamper


def _drop_a_selected_kernel(payload):
    solve = next(s for layer in payload["report"]["layers"] for s in layer["channel_solves"]
                 if s["selected"])
    solve["selected"].pop()
    return payload


_SOLVE = ("layers", 0, "channel_solves", 0)
_REPORT_EDITS = {
    "epsilon": _edit("epsilon", value=0.25),
    "probe-count": _edit("probe_count", change=lambda v: v + 1),
    "seed": _edit("seed", "master_seed", change=lambda v: v + 1),
    "spatial": _edit("spatial", change=lambda v: v + 1),
    "magnitude-bound": _edit("magnitude_bound", value=2.0),
    "layer-number": _edit("layers", 0, "layer", value=2),
    "kept-kernels": _edit("layers", 0, "kept_kernels", change=lambda v: v + 1),
    "total-kernels": _edit("layers", 0, "total_kernels", change=lambda v: v + 1),
    "warnings": _edit("layers", 0, "occupancy_warnings", change=lambda v: [*v, "planted"]),
    "pool-size": _edit(*_SOLVE, "pool_size", change=lambda v: v + 1),
    "selected": _drop_a_selected_kernel,
    "foreign-kernel": _edit(*_SOLVE, "selected", value=[9999]),
    "residual": _edit("layers", 1, "channel_solves", 0, "residual_inf", change=lambda v: v / 2),
    "solve-tolerance": _edit(*_SOLVE, "tolerance", change=lambda v: v * 2),
    "sign": _edit(*_SOLVE, "sign", change=lambda v: -v),
    "dropped-solve": _edit("layers", 1, "channel_solves", change=lambda v: v[:-1]),
}


_FAILED_NET = ["prune-net", "--overparam", "8,8", "--probes", "4", "--seed", "2"]


def test_failed_net_bundle_is_honestly_unsuccessful(capsys, tmp_path):
    bundle = tmp_path / "net.json"
    assert main([*_FAILED_NET, "--out", str(bundle)]) == EXIT_OK
    report = json.loads(bundle.read_text())["report"]
    statuses = {s["status"] for layer in report["layers"] for s in layer["channel_solves"]}
    assert report["fully_successful"] is False and "hit" not in statuses
    capsys.readouterr()
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    assert "MISMATCH" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "tamper",
    [_claim_all_hits, _claim_full_success, _empty_layers, _drop_last_layer, _demote_first_solve,
     *_REPORT_EDITS.values()],
    ids=["all-hits", "full-success", "no-layers", "missing-layer", "unmarked-hit",
         *_REPORT_EDITS],
)
def test_dump_report_rejects_contradicted_claims(capsys, tmp_path, tamper):
    bundle = tmp_path / "net.json"
    assert main([*_FAILED_NET, "--out", str(bundle)]) == EXIT_OK
    bundle.write_text(json.dumps(tamper(json.loads(bundle.read_text()))))
    capsys.readouterr()
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_CHECK_FAILED
    assert "MISMATCH" in capsys.readouterr().out


def test_dump_report_reads_the_bound_unchecked(capsys, tmp_path):
    # a v1 bundle does not say which command wrote it, so its bound is not re-derived
    bundle = tmp_path / "net.json"
    assert main([*_FAILED_NET, "--out", str(bundle)]) == EXIT_OK
    bundle.write_text(json.dumps(_edit("theoretical_bound", value=99.0)(
        json.loads(bundle.read_text()))))
    capsys.readouterr()
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    assert "MISMATCH" not in capsys.readouterr().out


def test_dump_report_missing_file():
    assert main(["dump-report", "--bundle", "/nonexistent/bundle.json"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["rssp-scan", "--n-list", "2", "--trials", "2", "--out", "{dir}"],
    ["dump-report", "--bundle", "{dir}"],
    ["rssp-scan", "--config", "{dir}"],
], ids=["out", "bundle", "config"])
def test_directory_as_path_is_a_usage_error(argv, capsys, tmp_path):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_config_file_prefills_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.2, "n_list": "4,8", "grid_size": 11,
                                  "trials": 10, "seed": 42}))
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(["rssp-scan", "--config", str(config), "--out", str(out1)]) == EXIT_OK
    assert main(["rssp-scan", "--epsilon", "0.2", "--n-list", "4,8", "--grid-size", "11",
                 "--trials", "10", "--seed", "42", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nonsense": 1}))
    assert main(["rssp-scan", "--config", str(config)]) == EXIT_USAGE


def test_config_explicit_flag_wins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.01, "n_list": "4", "grid_size": 5,
                                  "trials": 5, "seed": 1}))
    code = main(["rssp-scan", "--config", str(config), "--epsilon", "2.0"])
    assert code == EXIT_OK
    # with the override the empty subset alone covers the whole grid
    assert "rate=1.000" in capsys.readouterr().out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # a usage error, a good run, a config run and a flags-only run in one
    # process each give what a call with a freshly built parser gives
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.2, "n_list": "4,8", "grid_size": 11,
                                  "trials": 10, "seed": 42}))
    calls = [["rssp-scan", "--grid-size", "x"],
             ["mrss-scan", "--d", "1", "--k", "2", "--n-list", "4,8", "--trials", "6"],
             ["rssp-scan", "--config", str(config)],
             ["rssp-scan", "--epsilon", "0.3", "--n-list", "5", "--trials", "4"]]

    def run(argv, out):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

    cli._parser()  # built before the first call, as after any earlier one
    shared = [run(argv, tmp_path / f"shared{i}.csv") for i, argv in enumerate(calls)]
    fresh = []
    for i, argv in enumerate(calls):
        cli._parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}.csv"))
    assert [result[0] for result in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
    for (code, (out, err), data), (fresh_code, (fresh_out, fresh_err), fresh_data) in zip(
        shared, fresh
    ):
        assert code == fresh_code and err == fresh_err and data == fresh_data
        assert out.replace("shared", "fresh") == fresh_out
    assert all(data for _, _, data in shared[1:])


def _drop_k_budget(payload):
    del payload["report"]["layers"][0]["k_budget"]
    return payload


def _drop_pool_size(payload):
    del payload["report"]["layers"][0]["channel_solves"][0]["pool_size"]
    return payload


def _null_spatial(payload):
    payload["spatial"] = None
    return payload


def _no_targets(payload):
    payload["target_kernels"] = []
    return payload


def _short_mask_blob(payload):
    payload["masks"][0] = base64.b64encode(b"SPM1\x01").decode("ascii")
    return payload


_SMALL_NET = ["prune-net", "--depth", "2", "--spatial", "4", "--channels", "1,2,1",
              "--kernel-sizes", "2,2", "--overparam", "12,12", "--epsilon", "0.5",
              "--probes", "8", "--seed", "21"]


@pytest.mark.parametrize(
    "corrupt, message",
    [(_drop_k_budget, "lacks key 'k_budget'"), (_drop_pool_size, ""),
     (_edit("layers", 0, "note", value="planted"), ""), (_null_spatial, "malformed field"),
     (_edit("layers", 0, "tolerance", value="0.1"), ""), (lambda payload: [payload], ""),
     (_no_targets, ""), (_short_mask_blob, ""),
     (_edit("layers", 0, "tolerance", value="abc"), "malformed field: tolerance: "),
     (_edit("empirical_max_error", value="abc"), "malformed field: empirical_max_error: ")],
    ids=["missing-key", "missing-derived-key", "unknown-key", "wrong-type", "wrong-read-type",
         "not-an-object", "no-targets", "short-mask-blob", "unconvertible-value",
         "unconvertible-error"],
)
def test_dump_report_malformed_bundle(capsys, tmp_path, corrupt, message):
    bundle = tmp_path / "net.json"
    assert main([*_SMALL_NET, "--out", str(bundle)]) == EXIT_OK
    bundle.write_text(json.dumps(corrupt(json.loads(bundle.read_text()))))
    capsys.readouterr()
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message:  # the bundle and the key are named
        assert err.startswith(f"error: bundle {bundle} ") and message in err


def test_dump_report_reads_its_bundle_once(capsys, monkeypatch, tmp_path):
    bundle = tmp_path / "net.json"
    assert main([*_SMALL_NET, "--out", str(bundle)]) == EXIT_OK
    reads, read = [], pruning._read_bundle
    monkeypatch.setattr(pruning, "_read_bundle", lambda path: reads.append(path) or read(path))
    assert main(["dump-report", "--bundle", str(bundle)]) == EXIT_OK
    assert "MISMATCH" not in capsys.readouterr().out
    assert reads == [str(bundle)]


def test_config_value_of_wrong_type_rejected(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": "7"}))
    assert main(["rssp-scan", "--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config key 'trials'")


def test_config_abbreviated_flag_wins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.01, "n_list": "4", "grid_size": 5,
                                  "trials": 5, "seed": 1}))
    assert main(["rssp-scan", "--config", str(config), "--eps", "2.0"]) == EXIT_OK
    assert "rate=1.000" in capsys.readouterr().out


def test_config_null_keeps_a_null_default_only(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group_size": None, "n_list": "4", "trials": 3}))
    assert main(["mrss-scan", "--config", str(config), "--d", "1", "--k", "1"]) == EXIT_OK
    config.write_text(json.dumps({"epsilon": None}))
    assert main(["rssp-scan", "--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config key 'epsilon'")


def test_every_command_builds_one_philox_per_thread(monkeypatch, tmp_path, capsys):
    # every draw rewinds the thread's one Philox to its stream, so a fresh
    # thread builds exactly one for all of these commands, and so does each
    # worker of the pool that lemma-check's large draws start here
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **kw: built.append(
        threading.get_ident()) or philox(*a, **kw))
    monkeypatch.setattr(sampling, "_WORKERS", 3)
    monkeypatch.setattr(sampling, "_POOL", None)
    net, one = str(tmp_path / "b.json"), str(tmp_path / "one.json")
    scan = ["--n-list", "9,18", "--trials", "12", "--out", str(tmp_path / "scan.csv")]
    commands = [
        ["lemma-check", "--trials", "16500", "--out", str(tmp_path / "lemma.csv")],  # 2 blocks
        ["rssp-scan", "--trials", "30", "--out", str(tmp_path / "rssp.csv")],
        ["mrss-scan", *scan],
        ["mrss-scan", "--strategy", "greedy_swap", *scan],
        ["mrss-scan", "--group-size", "9", *scan],
        ["prune-one", "--out", one],
        ["prune-net", "--probes", "8", "--out", net],
        ["dump-report", "--bundle", net],
    ]
    codes = []
    thread = threading.Thread(target=lambda: codes.extend(main(argv) for argv in commands))
    thread.start()
    thread.join(timeout=600)
    capsys.readouterr()
    assert not thread.is_alive()
    assert codes == [EXIT_OK] * len(commands)
    pool = sampling._POOL
    assert pool is not None
    pool.shutdown()
    assert sorted(set(built)) == sorted(built)
    assert thread.ident in built
    assert 2 <= len(built) <= 1 + pool._max_workers
