import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
from pathlib import Path

import pytest

from pqchainlab import bench, claims, cli, pki
from pqchainlab.bench import write_rows
from pqchainlab.cli import (
    EXIT_CRYPTO,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_TRANSPORT,
    EXIT_USAGE,
    build_parser,
    fixture_path,
    main,
)
from pqchainlab.config import BASELINE_ID, load_config
from pqchainlab.crypto.backend import CryptoError, issuance_backend
from pqchainlab.scenario import find_scenario


def test_cli_surface():
    """Each command's option strings: a flag added or removed shows in this test's diff."""
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
               for name, p in commands.items()}
    assert surface == {
        "provision": ["--select", "--campaign", "--seed", "--out", "--jobs", "--now"],
        "bench": ["--select", "--campaign", "--pki", "--out", "--runs", "--warmup", "--policy", "--now"],
        "analyze": ["--input", "--fixture", "--out", "--config", "--baseline"],
        "reproduce": ["--out", "--fixture-only", "--runs", "--warmup", "--seed", "--now"],
    }


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["provision", "--campaign", "Z"])
    assert err.value.code == EXIT_USAGE
    # `analyze` writes summary.txt; there is no `report` command
    with pytest.raises(SystemExit) as err:
        main(["report", "--fixture", "paper"])
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage: pqchainlab ")
    # an id that names no scenario is printed without extra quotes
    assert main(["provision", "--select", "bogus_id", "--out", str(tmp_path / "p")]) == EXIT_USAGE
    expected = "error: scenario 'bogus_id' not present in input"
    assert expected in capsys.readouterr().err.splitlines()
    # `--select` names at least one id; with none it does not fall back to all 17
    with pytest.raises(SystemExit) as err:
        main(["provision", "--select", "--out", str(tmp_path / "none")])
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: argument --select: expected at least one argument\n")
    assert not (tmp_path / "none").exists()
    # a repeated `--select` keeps the ids of each
    ids = ["x25519__leaf_mldsa65", "mlkem768__ml_root__ml_leaf", "x25519__ml_root__ml_leaf"]
    args = build_parser().parse_args(["provision", "--select", *ids[:2], "--select", ids[2]])
    assert args.select == ids


@pytest.mark.parametrize(
    "counts, message",
    [
        (["--runs", "0"], "--runs: must be at least 1, not 0"),
        (["--runs", "5/0"], "--runs: must be at least 1, not 0"),
        (["--runs", "-1"], "--runs: must be at least 1, not -1"),
        (["--runs", "2", "--warmup", "-1"], "--warmup: must be at least 0, not -1"),
        (["--warmup", "x"], "--warmup: not an integer: 'x'"),
    ],
    ids=["runs_0", "heavy_0", "runs_negative", "warmup_negative", "warmup_not_integer"],
)
@pytest.mark.parametrize("command", ["bench", "reproduce"])
def test_out_of_range_counts_are_usage_errors(capsys, command, counts, message):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, *counts])
    assert err.value.code == EXIT_USAGE
    usage, error = capsys.readouterr().err.split("\nerror: ")
    assert usage.startswith(f"usage: pqchainlab {command} ")
    assert error == f"argument {message}\n"


@pytest.mark.parametrize("jobs, message", [("0", "must be at least 1, not 0"),
                                           ("-3", "must be at least 1, not -3"),
                                           ("x", "not an integer: 'x'")])
def test_out_of_range_jobs_is_a_usage_error(capsys, jobs, message):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["provision", "--jobs", jobs])
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"\nerror: argument --jobs: {message}\n")


@pytest.mark.parametrize("command", ["provision", "bench"])
def test_select_and_campaign_are_exclusive(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--campaign", "D", "--select", "x25519__leaf_mldsa65", "--out", str(tmp_path / "o")])
    assert err.value.code == EXIT_USAGE
    assert "error: argument --select: not allowed with argument --campaign" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "selection",
    [
        ["--select", "x25519__leaf_mldsa65", "x25519__leaf_mldsa65"],
        ["--select", "x25519__ml_root__ml_leaf", "x25519__leaf_mldsa65"],  # one hierarchy
        ["--select", "x25519__leaf_mldsa65", "--select", "x25519__leaf_mldsa65"],
    ],
    ids=["same_id", "two_spellings", "repeated_option"],
)
@pytest.mark.parametrize("command", ["provision", "bench"])
def test_selecting_a_scenario_twice_is_a_usage_error(tmp_path, capsys, command, selection):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        main([command, *selection, "--out", str(out)])
    assert err.value.code == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: scenario 'x25519__leaf_mldsa65' is selected twice"
    assert not out.exists()


def test_provision_and_bench_small(tmp_path):
    pki_dir = tmp_path / "pki"
    ids = [
        "x25519mlkem768__ml_root__ml_int__ml_leaf",
        "x25519mlkem768__ml_root__ml_leaf",
    ]
    assert main(["provision", "--select", *ids, "--out", str(pki_dir), "--seed", "0abc"]) == EXIT_OK
    for sid in ids:
        hierarchy = pki.load_hierarchy(pki_dir / sid)
        policy = pki.ServedChainPolicy.FULL_CHAIN
        chain = pki.served_chain(hierarchy, policy)
        pki.validate_chain(chain, pki.client_trust_store(hierarchy, policy), pki.DEFAULT_NOW)
    assert (pki_dir / "manifest.json").exists()
    assert not (pki_dir / ids[1] / "int.cert").exists()

    # identical seed -> identical bytes
    pki_dir2 = tmp_path / "pki2"
    assert main(["provision", "--select", ids[0], "--out", str(pki_dir2), "--seed", "0abc"]) == EXIT_OK
    for name in ("root.cert", "int.cert", "leaf.cert"):
        assert (pki_dir / ids[0] / name).read_bytes() == (pki_dir2 / ids[0] / name).read_bytes()

    results = tmp_path / "results"
    argv = ["bench", "--select", ids[0], "--pki", str(pki_dir), "--out", str(results)]
    assert main([*argv, "--runs", "5", "--warmup", "1"]) == EXIT_OK
    samples = (results / f"{ids[0]}.jsonl").read_text().splitlines()
    assert len(samples) == 5
    assert (results / "master_summary.csv").exists()
    # the results manifest records the seed and the issuance backend that
    # provisioned the PKI, the host's steal time over the run and the
    # conditions of the measurement
    manifest = json.loads((results / "manifest.json").read_text())
    assert manifest["seed_hex"] == "0abc"
    provisioned = json.loads((pki_dir / "manifest.json").read_text())
    assert manifest["issuance_backend"] == provisioned["issuance_backend"] == issuance_backend()
    assert manifest["host"]["platform"] == provisioned["host"]["platform"] == platform.platform()
    assert 0.0 <= manifest["host_steal_share"] < 1.0
    assert manifest["thread_clock_tick_ms"] == bench.thread_clock_tick_ms()
    assert (manifest["runs"], manifest["runs_heavy"], manifest["warmup"]) == ([5], [], [1])
    assert manifest["policy"] == "mirror"
    # each manifest's keys, in order: a key added or removed shows in this test's diff
    assert list(provisioned) == ["tool", "version", "seed_hex", "issuance_epoch", "issuance_backend",
                                 "scenario_ids", "created_unix", "host"]
    assert list(manifest) == ["tool", "version", "seed_hex", "issuance_epoch", "issuance_backend",
                              "policy", "validated_at", "host_steal_share", "thread_clock_tick_ms",
                              "runs", "runs_heavy", "warmup", "scenario_ids", "created_unix", "host"]


@pytest.mark.parametrize("text, reason", [("{bad", "Expecting property name"), ("[]", "not a JSON object"),
                                          (None, None)], ids=["not_json", "not_an_object", "missing"])
def test_pki_manifest_is_read_before_any_handshake(tmp_path, capsys, text, reason):
    """A PKI manifest that is not a JSON object stops `bench` as a corrupt certificate
    does, before anything is measured; a missing one records its fields as null."""
    sid = "x25519mlkem768__ml_root__ml_leaf"
    pki_dir, results = tmp_path / "pki", tmp_path / "results"
    assert main(["provision", "--select", sid, "--out", str(pki_dir)]) == EXIT_OK
    manifest = pki_dir / "manifest.json"
    if text is None:
        manifest.unlink()
    else:
        manifest.write_text(text)
    capsys.readouterr()
    argv = ["bench", "--select", sid, "--pki", str(pki_dir), "--out", str(results)]
    code = main([*argv, "--runs", "1", "--warmup", "0"])
    if text is None:
        assert code == EXIT_OK
        recorded = json.loads((results / "manifest.json").read_text())
        assert [recorded[k] for k in ("seed_hex", "issuance_epoch", "issuance_backend")] == [None] * 3
        return
    assert code == EXIT_CRYPTO
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {manifest}: ") and reason in line, line
    assert not results.exists()


def test_bench_full_policy_depth3_serves_three(tmp_path):
    sid = "x25519mlkem768__ml_root__ml_int__ml_leaf"
    pki_dir, results = tmp_path / "pki", tmp_path / "results"
    assert main(["provision", "--select", sid, "--out", str(pki_dir)]) == EXIT_OK
    argv = ["bench", "--select", sid, "--pki", str(pki_dir), "--out", str(results)]
    assert main([*argv, "--runs", "3", "--warmup", "0", "--policy", "full"]) == EXIT_OK
    sample = json.loads((results / f"{sid}.jsonl").read_text().splitlines()[0])
    assert sample["chain_len_unique"] == 3
    assert json.loads((results / "manifest.json").read_text())["policy"] == "full"


def test_results_manifest_keeps_issuance_epoch_apart_from_validation_time(tmp_path):
    sid = "x25519mlkem768__ml_root__ml_leaf"
    pki_dir, results = tmp_path / "pki", tmp_path / "results"
    assert main(["provision", "--select", sid, "--out", str(pki_dir)]) == EXIT_OK
    argv = ["bench", "--select", sid, "--pki", str(pki_dir), "--out", str(results)]
    assert main([*argv, "--runs", "1", "--warmup", "0", "--now", "1770000000"]) == EXIT_OK
    manifest = json.loads((results / "manifest.json").read_text())
    assert manifest["issuance_epoch"] == 1767225600
    assert manifest["validated_at"] == 1770000000


@pytest.mark.parametrize("runs, counts", [("7", (7, None)), ("7/2", (7, 2))])
def test_runs_means_the_same_to_bench_and_reproduce(runs, counts):
    argv = ["--runs", runs, "--warmup", "1", "--now", "1800000000"]
    bench_cfg, reproduce_cfg = [
        cli._bench_config(build_parser().parse_args([command, *argv])) for command in ("bench", "reproduce")
    ]
    assert bench_cfg == reproduce_cfg
    assert (bench_cfg.runs, bench_cfg.runs_heavy, bench_cfg.now) == (*counts, 1800000000)


def test_bench_default_counts(matrix):
    cfg = cli._bench_config(build_parser().parse_args(["bench"]))
    assert {bench._runs_for(s, cfg) for s in matrix} == {("runs", 10000), ("runs_heavy", 300)}
    assert cfg.warmup == 20


MIXED = [
    "x25519mlkem768__ml_root__ml_int__ml_leaf",
    "x25519__leaf_mldsa65",
    "x25519mlkem768__ml_root__slh_leaf",
    "mlkem768__ml_root__ml_leaf",
    "x25519mlkem768__ml_root__ml_leaf",
]


def test_provision_bytes_and_output_do_not_depend_on_jobs(tmp_path, capsys):
    trees = {}
    for jobs in ("1", "2", "5"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["provision", "--select", *MIXED, "--out", str(out), "--jobs", jobs]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"provisioned {sid}" for sid in MIXED]
        files = sorted(out.glob("*/*.*"))
        assert {f.suffix for f in files} == {".cert", ".key"}
        trees[jobs] = {str(f.relative_to(out)): f.read_bytes() for f in files}
    # a .cert and a .key per position: one depth-3 and four depth-2 hierarchies
    assert len(trees["1"]) == 2 * (3 + 2 + 2 + 2 + 2)
    assert trees["1"] == trees["2"] == trees["5"]


def test_provision_falls_back_to_python_when_libcrypto_is_missing(tmp_path, libcrypto_env):
    ids = ["x25519mlkem768__ml_root__slh_leaf", "mlkem768__ml_root__ml_leaf"]
    trees, backends = [], []
    for name in ("default", "missing"):
        if name == "missing":
            libcrypto_env(str(tmp_path / "missing" / "libcrypto.so.3"))
        out = tmp_path / name
        assert main(["provision", "--select", *ids, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        trees.append({str(f.relative_to(out)): f.read_bytes() for f in out.glob("*/*.*")})
        backends.append(json.loads((out / "manifest.json").read_text())["issuance_backend"])
    assert len(trees[0]) == 8 and trees[0] == trees[1]
    assert backends[1] == {"name": "python", "library": None, "openssl_version": None}


@pytest.mark.parametrize("forked", [True, False])
def test_provision_worker_failure(tmp_path, monkeypatch, capfd, forked):
    # Two hierarchies of equal cost: the first goes to this process's
    # share, the second to the forked child's.
    ids = ["x25519mlkem768__ml_root__ml_leaf", "mlkem768__ml_root__ml_leaf"]
    failing = ids[1] if forked else ids[0]
    build = pki.build_hierarchy

    def build_or_fail(scenario, seed, now=pki.DEFAULT_NOW):
        (tmp_path / f"{scenario.display_id}.pid").write_text(str(os.getpid()))
        if scenario.display_id == failing:
            raise CryptoError(f"refused to issue {failing}")
        return build(scenario, seed, now=now)

    monkeypatch.setattr(pki, "build_hierarchy", build_or_fail)
    for jobs in ("2", "1"):
        out = tmp_path / f"pki{jobs}"
        code = main(["provision", "--select", *ids, "--out", str(out), "--jobs", jobs])
        assert code == EXIT_CRYPTO
        captured = capfd.readouterr()
        assert f"error: refused to issue {failing}" in captured.err
        assert "provisioned" not in captured.out
        assert not (out / "manifest.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        ran_here = (tmp_path / f"{failing}.pid").read_text() == str(os.getpid())
        assert ran_here is (jobs == "1" or not forked)


def test_analyze_fixture(tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--fixture", "paper", "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("*.csv"))) == 12
    # the CSVs are pinned by test_analysis_tables_match_golden_digest; the plots here
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.svg")} == {
        "latency_by_scenario.svg":
            "d1d954070c8dadd7153c6e82598514a423a97d2c7c44f80cf1623a281f7b16e3",
        "client_vs_server_taskclock.svg":
            "1aeef130df68081c1e751709508b179e018a04c6ff8a5262bfd9718d41fb4e0a",
        "infrastructure_multiplier.svg":
            "8cf8d3667fab042ea7b0b39b592b60bb62b1b025be66c2f3427cbd826d47ca53",
    }

    # byte-stable rerun
    out2 = tmp_path / "analysis2"
    assert main(["analyze", "--fixture", "paper", "--out", str(out2)]) == EXIT_OK
    for path in sorted(out.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_analyze_partial_input_with_explicit_baseline(tmp_path, fixture_rows):
    """A two-scenario results file analyzes fine once a baseline is named;
    inapplicable pairings degrade to warnings."""
    keep = {"x25519__leaf_mldsa65", "x25519__leaf_slhdsashake192s"}
    partial = tmp_path / "partial.csv"
    write_rows([r for r in fixture_rows if r.scenario_id in keep], partial)

    out = tmp_path / "analysis"
    argv = ["analyze", "--input", str(partial), "--out", str(out), "--baseline", "x25519__leaf_mldsa65"]
    assert main(argv) == EXIT_OK
    with open(out / "campaignA_pairs.csv", newline="") as f:
        (pair,) = csv.DictReader(f)
    assert pair["tls_group"] == "x25519"
    published = {f.name: f for f in claims.FIXTURE}["campaign A classical ratio"]
    assert published.admits(float(pair["latency_ratio"]))
    assert (out / "capacity.csv").read_text().count("\n") == 3  # header + 2 rows

    # without a usable baseline the command refuses clearly
    assert main(["analyze", "--input", str(partial), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_report_honours_baseline(tmp_path):
    other = "x25519mlkem768__slh_root__ml_int__ml_leaf"
    out = {name: tmp_path / name for name in ("default", "other")}
    assert main(["analyze", "--fixture", "paper", "--out", str(out["default"])]) == EXIT_OK
    argv = ["analyze", "--fixture", "paper", "--out", str(out["other"]), "--baseline", other]
    assert main(argv) == EXIT_OK
    for name in ("strategy_matrix.csv", "capacity.csv", "summary.txt"):
        assert (out["default"] / name).read_text() != (out["other"] / name).read_text()
    argv[4:] = [str(tmp_path / "x"), "--baseline", "x25519__slh_root__slh_int__slh_leaf"]
    assert main(argv) == EXIT_USAGE
    # a baseline outside campaign B normalizes the strategy matrix's 6 campaign-B rows
    argv[4:] = [str(tmp_path / "a"), "--baseline", "x25519__leaf_mldsa65"]
    assert main(argv) == EXIT_OK
    assert len((tmp_path / "a" / "strategy_matrix.csv").read_text().splitlines()) == 1 + 6


def test_analyze_missing_baseline(tmp_path):
    argv = ["analyze", "--fixture", "paper", "--out", str(tmp_path / "x")]
    assert main([*argv, "--baseline", "x25519__slh_root__slh_int__slh_leaf"]) == EXIT_USAGE


def test_analyze_bad_config_is_a_usage_error(tmp_path, capsys):
    argv = ["analyze", "--fixture", "paper", "--out", str(tmp_path / "x")]
    for key, value in (("bogus", "1"), ("price_per_cpu_hour", "abc"), ("price_per_cpu_hour", "0"),
                       ("service_class.medium_api", "many"), ("price_per_cpu_hour", "nan"),
                       ("plausibility.reasonable_max", "nan"),
                       ("counterexample_min_latency_ratio", "inf"),
                       ("counterexample_top_k", "-3"), ("counterexample_top_k", "0"),
                       ("regime.client_skewed_ratio", "20"), ("plausibility.reasonable_max", "30"),
                       ("service_class.neg", "-5"), ("service_class.", "7")):
        config = tmp_path / "analysis.cfg"
        config.write_text(f"{key} = {value}\n")
        assert main([*argv, "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert f"{key}: " in err, err
    # a key given twice is refused instead of the last line winning
    for key in ("price_per_cpu_hour", "service_class.x"):
        config.write_text(f"{key} = 1\n{key} = 2\n")
        assert main([*argv, "--config", str(config)]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: --config {config}: {key}: given twice", line
    assert main([*argv, "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_fractional_service_class_is_a_usage_error(tmp_path, capsys):
    """A service class counts whole handshakes per day: ``1e6`` loads, 100.5 and ``inf`` are
    usage errors naming the key instead of loading truncated (or crashing)."""
    config = tmp_path / "analysis.cfg"
    config.write_text("service_class.small_internal = 1e6\n")
    assert load_config(config).service_classes["small_internal"] == 1_000_000
    argv = ["analyze", "--fixture", "paper", "--out", str(tmp_path / "x"), "--config", str(config)]
    for value in ("100.5", "inf"):
        config.write_text(f"service_class.small_internal = {value}\n")
        assert main(argv) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"error: --config {config}: service_class.small_internal: "
                        f"must be a whole number, not {value}"), line
        assert not (tmp_path / "x").exists()


def test_analyze_missing_input_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["analyze", "--input", str(missing), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: --input {missing}: "), line


def _analyze_changed_fixture(tmp_path, scenario_id, **changes) -> int:
    """``analyze`` over the reference rows with ``changes`` to one row, into ``tmp_path/out``."""
    rows = bench.read_master_summary(fixture_path())
    path = tmp_path / "changed.csv"
    write_rows([dataclasses.replace(r, **changes) if r.scenario_id == scenario_id else r
                for r in rows], path)
    return main(["analyze", "--input", str(path), "--out", str(tmp_path / "out")])


def test_analyze_zero_client_clock(tmp_path):
    """A client below the CPU clock's tick reads 0, as ``bench.aggregate`` writes it."""
    code = _analyze_changed_fixture(tmp_path, "x25519__leaf_mldsa65", client_task_ms=0.0,
                                    client_over_elapsed=0.0, srv_cli_ratio=math.inf)
    assert code == EXIT_OK
    with open(tmp_path / "out" / "campaignA_pairs.csv", newline="") as f:
        pairs = {p["tls_group"]: p for p in csv.DictReader(f)}
    assert pairs["x25519"]["client_taskclock_ratio"] == "inf"
    assert pairs["x25519mlkem768"]["client_taskclock_ratio"] != "inf"


def test_analyze_non_positive_server_clock_is_a_schema_error(tmp_path, capsys):
    """A server clock, mean latency or bytes read that is not positive, on the baseline
    row or another, exits 4 with one line and writes nothing."""
    other, base = "mlkem768__ml_root__ml_leaf", BASELINE_ID
    for sid, changes, what in [
        (other, {"server_task_ms": 0.0}, "server task clock 0.0 ms"),
        (other, {"mean_ms": 0.0}, "mean latency 0.0 ms"),
        (other, {"mean_ms": -1.0}, "mean latency -1.0 ms"),
        (base, {"mean_ms": 0.0}, "mean latency 0.0 ms"),
        (base, {"bytes_read": 0.0}, "bytes read 0.0"),
    ]:
        assert _analyze_changed_fixture(tmp_path, sid, **changes) == EXIT_SCHEMA, changes
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {sid}: {what} is not positive"
        assert not (tmp_path / "out").exists()


def test_analyze_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("scenario_id,mean_ms\na,1\n")
    assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    capsys.readouterr()
    bad.write_text(fixture_path().read_text().replace("\nmlkem768__ml_root__ml_leaf,",
                                                      "\nnot_a_scenario,"))
    assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {bad}: malformed scenario id 'not_a_scenario'", line
    assert not (tmp_path / "out").exists()
    # NaN in any float cell, as in a column that no positivity check reads, and inf in any
    # but srv_cli_ratio, where a zero client clock puts it (test_analyze_zero_client_clock)
    for sid, column, value, cell in [
        ("x25519__leaf_mldsa65", "client_task_ms", math.nan, "NaN"),
        ("x25519__leaf_mldsa65", "p95_ms", math.nan, "NaN"),
        ("mlkem768__ml_root__ml_leaf", "mean_ms", math.nan, "NaN"),
        ("x25519__leaf_mldsa65", "mean_ms", math.inf, "inf"),
        ("x25519__leaf_mldsa65", "server_task_ms", math.inf, "inf"),
        ("x25519__leaf_mldsa65", "client_task_ms", math.inf, "inf"),
        ("x25519__leaf_mldsa65", "bytes_read", math.inf, "inf"),
        ("mlkem768__ml_root__ml_leaf", "p95_ms", math.inf, "inf"),
        ("x25519__leaf_mldsa65", "srv_cli_ratio", -math.inf, "-inf"),
    ]:
        assert _analyze_changed_fixture(tmp_path, sid, **{column: value}) == EXIT_SCHEMA
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'changed.csv'}: {sid}: {column} is {cell}", line
        assert not (tmp_path / "out").exists()
    # an int cell must be integral: a fractional count is not truncated, a NaN is named
    for column, value, cell in [("n_runs", 2.7, "2.7000"), ("depth", math.nan, "nan")]:
        sid = "x25519__leaf_mldsa65"
        assert _analyze_changed_fixture(tmp_path, sid, **{column: value}) == EXIT_SCHEMA
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'changed.csv'}: {sid}: {column} {cell} is not an integer", line
        assert not (tmp_path / "out").exists()


def test_analyze_requires_input(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--out", str(tmp_path / "o")])
    assert err.value.code == EXIT_USAGE


def test_report_writes_summary(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", "--fixture", "paper", "--out", str(out)]) == EXIT_OK
    text = (out / "summary.txt").read_text()
    assert "x25519mlkem768__ml_root__ml_int__ml_leaf" in text
    assert "rank 4" in text


def test_reproduce_fixture_only(tmp_path, capsys):
    assert main(["reproduce", "--fixture-only", "--out", str(tmp_path / "r")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  campaign A classical ratio" in out and "PASS  campaign A hybrid ratio" in out
    assert out.count("\nPASS  ") == len(claims.FIXTURE)
    assert "FAIL" not in out


def test_reproduce_live_stage_on_two_scenarios(tmp_path, monkeypatch, capfd, matrix):
    """The live stage over a matrix cut to two all-ML scenarios: both are measured into
    a results tree like bench's, claims that need other rows fail without a traceback."""
    ids = ["x25519mlkem768__ml_root__ml_int__ml_leaf", "x25519mlkem768__ml_root__ml_leaf"]
    monkeypatch.setattr(cli, "enumerate_matrix", lambda: [find_scenario(matrix, i) for i in ids])
    out = tmp_path / "r"
    argv = ["reproduce", "--out", str(out), "--runs", "5", "--warmup", "1", "--seed", "0abc"]
    assert main(argv) == EXIT_TRANSPORT
    captured = capfd.readouterr()
    results = out / "results"
    assert sorted(p.name for p in results.glob("*.jsonl")) == sorted(f"{i}.jsonl" for i in ids)
    manifest = json.loads((results / "manifest.json").read_text())
    assert manifest["seed_hex"] == "0abc"
    assert {"issuance_backend", "host_steal_share"} <= manifest.keys()
    for name in ("regime separation", "decomposition coverage", "upper layer bound", "effective exposure"):
        assert f"FAIL  {name}: " in captured.out, name
    assert "PASS  re-provision byte identity" in captured.out
    assert captured.out.splitlines()[-1] == "FAIL"
    assert "Traceback" not in captured.out + captured.err

    # the spot-check compares the files that were measured: a probe provisioned
    # from another seed fails it
    write = pki.write_hierarchy

    def write_probe_from_another_seed(h, directory):
        if Path(directory) == out / "pki" / ids[0]:
            h = pki.build_hierarchy(find_scenario(matrix, ids[0]), b"another seed")
        write(h, directory)

    monkeypatch.setattr(pki, "write_hierarchy", write_probe_from_another_seed)
    assert main(argv) == EXIT_TRANSPORT
    assert "FAIL  re-provision byte identity" in capfd.readouterr().out


def test_fixture_ships_with_package():
    assert fixture_path().exists()


def test_env_var_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # restores the cwd that main() changes
    monkeypatch.setenv("PQCHAINLAB_DIR", str(tmp_path / "work"))
    assert main(["analyze", "--fixture", "paper"]) == EXIT_OK
    assert (tmp_path / "work" / "analysis" / "summary.txt").exists()


def test_env_var_working_directory_that_is_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").write_text("")
    monkeypatch.setenv("PQCHAINLAB_DIR", str(tmp_path / "work"))
    assert main(["analyze", "--fixture", "paper"]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: PQCHAINLAB_DIR {tmp_path / 'work'}: "), line
    assert not (tmp_path / "analysis").exists()


def _mismatched_key(blob):
    blob = bytearray(blob)
    blob[10] ^= 0xFF  # the key no longer matches the certificate
    return bytes(blob)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("leaf.key", _mismatched_key),
        ("leaf.cert", lambda blob: blob[:100]),
        ("leaf.key", lambda blob: blob[:1]),
        ("leaf.key", lambda blob: (3).to_bytes(2, "big") + blob[2:]),  # unknown algorithm id
        ("leaf.cert", lambda blob: blob[:4] + b"\x02" + blob[5:]),  # version byte after the TBS length
    ],
    ids=["mismatched_key", "cut_certificate", "one_byte_key", "unknown_key_algorithm", "version_2_certificate"],
)
def test_crypto_error_exit_code(tmp_path, capsys, name, corrupt):
    sid = "x25519mlkem768__ml_root__ml_leaf"
    pki_dir = tmp_path / "pki"
    main(["provision", "--select", sid, "--out", str(pki_dir)])
    path = pki_dir / sid / name
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    code = main(
        ["bench", "--select", sid, "--pki", str(pki_dir), "--out", str(tmp_path / "r"), "--runs", "1", "--warmup", "0"]
    )
    assert code == EXIT_CRYPTO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
