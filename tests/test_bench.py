import dataclasses
import importlib.util
import json
import math
import os
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqchainlab import bench, handshake as hs, pki
from pqchainlab.bench import (
    BenchConfig,
    HandshakeSample,
    RunAggregate,
    ScenarioFailed,
    aggregate,
    percentile_nearest_rank,
    read_master_summary,
    read_samples,
    write_rows,
    write_samples,
)
from pqchainlab.crypto import backend, mldsa, slhdsa
from pqchainlab.scenario import find_scenario



def _sample(i, elapsed, client=0.5, server=1.0):
    return HandshakeSample(
        run_index=i,
        elapsed_ms=elapsed,
        bytes_read=100,
        bytes_written=50,
        chain_len_unique=2,
        chain_bytes_unique=10,
        served_chain_der_bytes=19,
        client_cpu_ms=client,
        server_cpu_ms=server,
    )


def test_p95_nearest_rank_oracle():
    values = [float(v) for v in range(1, 101)]
    assert percentile_nearest_rank(values, 0.95) == 95.0


def test_p95_single_sample():
    assert percentile_nearest_rank([42.0], 0.95) == 42.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=100)
def test_p95_matches_bruteforce_definition(values):
    got = percentile_nearest_rank(values, 0.95)
    ordered = sorted(values)
    assert got == ordered[math.ceil(0.95 * len(ordered)) - 1]
    assert min(values) <= got <= max(values)


@given(st.permutations(list(range(20))))
def test_aggregate_permutation_invariant(matrix, order):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    base = [_sample(i, float(i + 1)) for i in range(20)]
    shuffled = [base[i] for i in order]
    a, b = aggregate(s, base), aggregate(s, shuffled)
    assert a.mean_ms == b.mean_ms and a.p95_ms == b.p95_ms


def test_aggregate_ratios(matrix):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    agg = aggregate(s, [_sample(0, 2.0, 0.5, 1.0), _sample(1, 2.0, 0.5, 1.0)])
    assert agg.srv_cli_ratio == 2.0
    assert agg.client_over_elapsed == 0.25
    assert agg.server_over_elapsed == 0.5
    assert agg.mean_ms == agg.p95_ms == 2.0


def test_aggregate_zero_client_cpu_is_server_everything(matrix):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    agg = aggregate(s, [_sample(0, 100.0, 0.0, 90.0)])
    assert math.isinf(agg.srv_cli_ratio)


def test_aggregate_empty_errors(matrix):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    with pytest.raises(ValueError):
        aggregate(s, [])


def test_aggregate_carries_one_chain_observation(matrix):
    """The chain observation is each sample's, and one that varies fails the scenario."""
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    agg = aggregate(s, [_sample(0, 2.0), _sample(1, 2.0)])
    assert (agg.chain_len_unique, agg.chain_bytes_unique, agg.served_chain_der_bytes) == (2, 10, 19)
    for field in ("chain_len_unique", "chain_bytes_unique", "served_chain_der_bytes"):
        varied = dataclasses.replace(_sample(1, 2.0), **{field: 99})
        with pytest.raises(ScenarioFailed, match="chain observations varied across runs"):
            aggregate(s, [_sample(0, 2.0), varied])


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory, matrix, ml_d3_hierarchy):
    s, h = ml_d3_hierarchy
    root = tmp_path_factory.mktemp("bench")
    pki.write_hierarchy(h, root / s.display_id)
    samples = bench.run_scenario(s, root, BenchConfig(runs=10, warmup=2))
    return s, samples


def test_run_scenario_counts_and_order(mini_run):
    _, samples = mini_run
    assert len(samples) == 10
    assert [x.run_index for x in samples] == list(range(10))
    assert all(x.chain_len_unique == 2 for x in samples)


def test_run_scenario_byte_determinism(mini_run):
    _, samples = mini_run
    assert len({x.bytes_read for x in samples}) == 1
    assert len({x.bytes_written for x in samples}) == 1
    assert len({x.served_chain_der_bytes for x in samples}) == 1


def test_run_scenario_single_run(tmp_path, ml_d2_hierarchy):
    s, h = ml_d2_hierarchy
    pki.write_hierarchy(h, tmp_path / s.display_id)
    samples = bench.run_scenario(s, tmp_path, BenchConfig(runs=1, warmup=0))
    assert len(samples) == 1


@pytest.mark.parametrize(
    "owner, attr, error",
    [
        # the forked server fails before it accepts a connection
        (hs, "run_server", RuntimeError("server refused to serve")),
        # the data connection, the first one run_scenario opens, is refused
        (socket, "create_connection", ConnectionRefusedError("data connection refused")),
    ],
)
def test_run_scenario_reaps_its_server(tmp_path, ml_d2_hierarchy, monkeypatch, owner, attr, error):
    s, h = ml_d2_hierarchy
    pki.write_hierarchy(h, tmp_path / s.display_id)

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, attr, fail)
    with pytest.raises((ScenarioFailed, OSError)):
        bench.run_scenario(s, tmp_path, BenchConfig(runs=3, warmup=0))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_scenario_unprovisioned(tmp_path, matrix):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    with pytest.raises(ScenarioFailed):
        bench.run_scenario(s, tmp_path, BenchConfig(runs=1, warmup=0))


def test_sample_roundtrip(tmp_path, mini_run):
    _, samples = mini_run
    path = tmp_path / "samples.jsonl"
    write_samples(samples, path)
    assert read_samples(path) == samples


def test_sample_file_keys(tmp_path, mini_run):
    """Each ``.jsonl`` line holds the sample's fields in this order."""
    _, samples = mini_run
    write_samples(samples, tmp_path / "samples.jsonl")
    first = json.loads((tmp_path / "samples.jsonl").read_text().splitlines()[0])
    assert list(first) == [
        "run_index", "elapsed_ms", "bytes_read", "bytes_written", "chain_len_unique",
        "chain_bytes_unique", "served_chain_der_bytes", "client_cpu_ms", "server_cpu_ms",
    ]


def test_master_summary_roundtrip(tmp_path, mini_run):
    s, samples = mini_run
    agg = aggregate(s, samples)
    path = tmp_path / "master_summary.csv"
    write_rows([agg], path)
    (loaded,) = read_master_summary(path)
    assert loaded.scenario_id == agg.scenario_id
    assert loaded.n_runs == agg.n_runs
    assert loaded.chain_bytes_unique == agg.chain_bytes_unique
    for field in ("mean_ms", "p95_ms", "bytes_read", "srv_cli_ratio"):
        assert getattr(loaded, field) == pytest.approx(getattr(agg, field), abs=1e-4)


def test_master_summary_header_superset(tmp_path, mini_run):
    s, samples = mini_run
    write_rows([aggregate(s, samples)], tmp_path / "m.csv")
    header = (tmp_path / "m.csv").read_text().splitlines()[0].split(",")
    required = {
        "scenario_id",
        "kex_mode",
        "depth",
        "mean_ms",
        "p95_ms",
        "bytes_read",
        "server_task_ms",
        "srv_cli_ratio",
    }
    assert required <= set(header)


def test_cpu_sanity_against_clock_tick(mini_run):
    _, samples = mini_run
    tick = bench.thread_clock_tick_ms()
    for sample in samples:
        assert sample.client_cpu_ms <= sample.elapsed_ms * 1.05 + tick
        assert sample.client_cpu_ms >= 0 and sample.server_cpu_ms >= 0


def test_tracer_targets_are_attributes_of_their_owners():
    """Every name perfbench's tracer wraps is where ``Tracer.install`` looks it
    up: in its module's or class's own ``__dict__``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"slhdsa": slhdsa, "mldsa": mldsa, "backend": backend, "pki": pki, "handshake": hs}
    missing = []
    for module_key, cls, attr, _, _ in tracing.TARGETS:
        owner = modules[module_key] if cls is None else vars(modules[module_key])[cls]
        if attr not in vars(owner):
            missing.append(tracing.span_name(module_key, cls, attr))
    assert not missing, missing
