"""Acceptance suite.

Criterion 1 replays the full analytics pipeline over the shipped
reference table and must reproduce the published figures at their
stated tolerances.  Criteria 2-8 are live properties: absolute numbers
are hardware-dependent, so the gates check regime separations,
directions and determinism rather than published values.  Each test
prints one PASS line; run with ``pytest tests/test_acceptance.py -v``.

The live portion provisions all 17 hierarchies and runs a reduced
campaign (400 runs for fast scenarios, 5 for SLH-leaf ones); expect
several minutes of SLH-DSA signing time.
"""

import random

import pytest

import conftest

from pqchainlab import analytics as an
from pqchainlab import bench, handshake as hs, pki
from pqchainlab.cli import EXIT_OK, fixture_path, main
from pqchainlab.config import AnalysisConfig
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import SigFamily, enumerate_matrix, find_scenario, parse_scenario_id

SEED = bytes.fromhex("5eed" * 16)
CFG = AnalysisConfig()

FAST_RUNS = 400
HEAVY_RUNS = 5
WARMUP = 2


def _ok(criterion: str, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)  # re-emitted in the terminal summary


def rel(got, want, tol):
    assert want != 0
    assert abs(got - want) / abs(want) <= tol, f"got {got}, want {want} (±{tol:%})"


# --- criterion 1: fixture-oracle suite ------------------------------------


@pytest.fixture(scope="module")
def fixture_rows():
    return an.load_summary(fixture_path())


def test_criterion_1_fixture_oracle(fixture_rows):
    rows = fixture_rows

    pairs = {p.tls_group: p for p in an.campaign_a_pairs(rows)}
    rel(pairs["x25519"].latency_ratio, 2127.865, 0.005)
    rel(pairs["x25519mlkem768"].latency_ratio, 1682.137, 0.005)

    norm = {n.scenario_id: n for n in an.normalize_to_baseline(rows, CFG.baseline_id)}
    rel(norm["x25519mlkem768__slh_root__ml_int__ml_leaf"].latency_relative_to_baseline, 2.64, 0.005)
    rel(norm["x25519mlkem768__ml_root__ml_int__slh_leaf"].latency_relative_to_baseline, 1733.49, 0.005)
    rel(norm["x25519mlkem768__slh_root__slh_int__slh_leaf"].latency_relative_to_baseline, 1741.18, 0.005)

    depth = {d.pair_label: d for d in an.depth_pairs(rows)}
    rel(depth["SLH root + ML leaf"].latency_ratio, 0.6318, 0.005)
    rel(depth["ML/ML"].latency_ratio, 0.9997, 0.005)

    kex = {(k.comparison_type, k.family_label): k for k in an.kex_pairs(rows)}
    rel(kex[("classical_vs_hybrid", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 1.2210, 0.005)
    rel(kex[("classical_vs_hybrid", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9652, 0.005)
    rel(kex[("hybrid_vs_pure_pqc", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 0.8220, 0.005)
    rel(kex[("hybrid_vs_pure_pqc", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9984, 0.005)

    c_all = an.correlations(rows, "all_scenarios", "bytes_read")
    c_non = an.correlations(rows, "non_leaf_slh", "bytes_read")
    c_slh = an.correlations(rows, "leaf_slh_only", "bytes_read")
    assert abs(c_all.pearson_r - 0.7493) <= 0.002
    assert abs(c_all.spearman_rho - 0.8503) <= 0.002
    assert abs(c_non.pearson_r - 0.9937) <= 0.002
    assert abs(c_slh.pearson_r - 0.3518) <= 0.002

    top = an.counterexamples(rows, "bytes_read", 1)[0]
    rel(top.latency_ratio_higher_over_lower, 416.5316, 0.005)

    placement = {p.placement_class: p for p in an.placement_summary(rows, CFG.baseline_id)}
    rel(placement["all_ml"].mean_elapsed_ms, 0.763, 0.005)
    rel(placement["root_slh_leaf_not_slh"].mean_elapsed_ms, 2.464, 0.005)
    rel(placement["intermediate_slh_any"].mean_elapsed_ms, 1407.253, 0.005)
    rel(placement["leaf_slh"].mean_elapsed_ms, 1413.171, 0.005)

    capacity = {c.scenario_id: c for c in an.capacity_model(rows, CFG.baseline_id)}
    rel(capacity[CFG.baseline_id].handshakes_per_core_second, 1779.68, 0.001)
    rel(capacity[CFG.baseline_id].handshakes_per_vcpu_hour, 6406856.76, 0.001)
    rel(capacity["mlkem768__ml_root__ml_leaf"].capacity_retained_vs_baseline, 1.0906, 0.001)
    rel(capacity["mlkem768__ml_root__ml_leaf"].infrastructure_multiplier_needed, 0.9169, 0.001)

    eco = {e.scenario_id: e for e in an.economic_model(rows, CFG)}
    rel(eco[CFG.baseline_id].cpu_hours_per_million, 0.1561, 0.005)
    rel(eco[CFG.baseline_id].cost_per_million, 0.006243, 0.005)
    rel(eco["x25519__leaf_slhdsashake192s"].cost_per_million, 16.2476, 0.005)
    rel(eco["x25519__leaf_slhdsashake192s"].cost_multiplier_vs_baseline, 2602.40, 0.005)

    svc = {
        (s.service_class, s.conceptual_economic_class): s
        for s in an.service_class_table(list(eco.values()), CFG)
    }
    rel(svc[("high_volume_frontend", "all_ml")].mean_monthly_cost, 18.87, 0.005)
    rel(svc[("medium_api", "leaf_slh")].median_monthly_cost, 4683.01, 0.005)
    rel(svc[("high_volume_frontend", "leaf_slh")].median_monthly_cost, 46830.11, 0.005)

    server_bound = {
        "mlkem768__slh_root__slh_leaf", "x25519__leaf_slhdsashake192s",
        "x25519mlkem768__leaf_slhdsashake192s", "x25519mlkem768__ml_root__ml_int__slh_leaf",
        "x25519mlkem768__ml_root__slh_int__slh_leaf", "x25519mlkem768__ml_root__slh_leaf",
        "x25519mlkem768__slh_root__ml_int__slh_leaf", "x25519mlkem768__slh_root__slh_int__slh_leaf",
        "x25519mlkem768__slh_root__slh_leaf",
    }
    client_skewed = {"mlkem768__slh_root__ml_int__ml_leaf", "x25519mlkem768__slh_root__ml_int__ml_leaf"}
    for row in rows:
        expected = (
            "overwhelmingly_server_bound" if row.scenario_id in server_bound
            else "client_skewed" if row.scenario_id in client_skewed
            else "balanced"
        )
        assert an.regime_label(row).value == expected, row.scenario_id

    campaign_b = [r for r in rows if r.campaign == "B"]
    ranking = an.plausibility_rank(campaign_b, an.normalize_to_baseline(campaign_b, CFG.baseline_id), CFG)
    assert [p.plausibility_rank for p in ranking] == [1, 2, 4, 4, 4, 4]
    assert ranking[0].operational_plausibility == "Reasonable"
    assert ranking[1].operational_plausibility == "Penalized but plausible"
    assert all(p.operational_plausibility == "Unsuitable for interactive TLS front-end" for p in ranking[2:])

    _ok("1 fixture-oracle", "all published figures reproduced at stated tolerances")


# --- live fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def matrix17():
    return enumerate_matrix()


@pytest.fixture(scope="module")
def pki_all(tmp_path_factory):
    """Provision all 17 hierarchies once (heaviest fixture of the suite)."""
    root = tmp_path_factory.mktemp("pki_all")
    assert main(["provision", "--out", str(root), "--seed", SEED.hex(), "--jobs", "2"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def live_sweep(pki_all, matrix17):
    """One reduced campaign over the whole matrix under MIRROR serving."""
    cfg = bench.BenchConfig(runs=FAST_RUNS, runs_heavy=HEAVY_RUNS, warmup=WARMUP)
    aggregates = {}
    samples = {}
    for scenario in matrix17:
        runs = bench.run_scenario(scenario, pki_all, cfg)
        samples[scenario.display_id] = runs
        aggregates[scenario.display_id] = bench.aggregate(scenario, runs)
    return aggregates, samples


@pytest.mark.slow
def test_criterion_2_regime_separation(live_sweep):
    aggregates, _ = live_sweep
    pairs = an.campaign_a_pairs(list(aggregates.values()))
    assert len(pairs) == 2
    for pair in pairs:
        assert pair.latency_ratio >= 100, (
            f"{pair.tls_group}: SLH/ML mean latency ratio {pair.latency_ratio:.1f} < 100"
        )
    _ok(
        "2 regime-separation",
        "; ".join(f"{p.tls_group} SLH/ML={p.latency_ratio:.0f}x" for p in pairs),
    )


@pytest.mark.slow
def test_criterion_3_server_bound_decomposition(live_sweep):
    aggregates, _ = live_sweep
    checked_slh = checked_ml = 0
    for sid, agg in aggregates.items():
        placement = parse_scenario_id(sid)[1]
        if placement.leaf is SigFamily.SLH_DSA_SHAKE_192S:
            assert agg.server_over_elapsed >= 0.9, f"{sid}: srv/elapsed {agg.server_over_elapsed:.3f}"
            assert agg.srv_cli_ratio >= 10, f"{sid}: srv/cli {agg.srv_cli_ratio:.2f}"
            checked_slh += 1
        elif all(f is SigFamily.ML_DSA_65 for f in placement.families()):
            assert 0.5 <= agg.srv_cli_ratio <= 2.0, f"{sid}: srv/cli {agg.srv_cli_ratio:.3f}"
            checked_ml += 1
    assert checked_slh == 9 and checked_ml == 5
    _ok("3 server-bound-decomposition", f"{checked_slh} SLH-leaf + {checked_ml} all-ML scenarios in regime")


@pytest.mark.slow
def test_criterion_4_upper_layer_bound(live_sweep):
    aggregates, _ = live_sweep
    upper = aggregates["x25519mlkem768__slh_root__ml_int__ml_leaf"]
    base = aggregates["x25519mlkem768__ml_root__ml_int__ml_leaf"]
    ratio = upper.mean_ms / base.mean_ms
    assert ratio <= 20, f"upper-layer latency multiplier {ratio:.2f} > 20"
    _ok("4 upper-layer-bound", f"slh_root__ml_int__ml_leaf at {ratio:.2f}x baseline")


@pytest.mark.slow
def test_criterion_5_effective_exposure_direction(live_sweep):
    aggregates, _ = live_sweep
    d2 = aggregates["x25519mlkem768__slh_root__ml_leaf"]
    d3 = aggregates["x25519mlkem768__slh_root__ml_int__ml_leaf"]
    assert d3.bytes_read < d2.bytes_read
    assert d3.mean_ms < d2.mean_ms
    assert all(a.chain_len_unique == 2 for a in aggregates.values())
    _ok(
        "5 effective-exposure",
        f"depth 3 reads {d2.bytes_read - d3.bytes_read:.0f} fewer bytes at "
        f"{d3.mean_ms / d2.mean_ms:.3f}x the depth-2 latency; chain_len_unique == 2 everywhere",
    )


@pytest.mark.slow
def test_criterion_6_transport_crypto_dissociation(live_sweep):
    aggregates, _ = live_sweep
    found = an.counterexamples(list(aggregates.values()), "bytes_read", top_k=3, min_latency_ratio=50.0)
    assert found, "no pair with more bytes and >= 50x lower latency"
    top = found[0]
    _ok(
        "6 dissociation",
        f"{top.scenario_more_bytes_lower_latency} reads {top.bytes_diff:.0f} more bytes yet is "
        f"{top.latency_ratio_higher_over_lower:.0f}x faster than {top.scenario_less_bytes_higher_latency}",
    )


# --- criterion 7: handshake correctness -------------------------------------


def _handshake_worker(args):
    scenario, policy, root = args
    hierarchy = pki.load_hierarchy(root / scenario.display_id)
    client, server, _ = conftest.run_handshake(hierarchy, scenario.kex, policy)
    return client.secrets.master_secret, server.secrets.master_secret, server.client_finished_ok


@pytest.mark.slow
def test_criterion_7_handshake_correctness(pki_all, matrix17):
    from concurrent.futures import ProcessPoolExecutor

    # Each SLH-leaf handshake signs for seconds; two workers share them.
    cases = [(scenario, policy, pki_all) for scenario in matrix17 for policy in ServedChainPolicy]
    completed = 0
    with ProcessPoolExecutor(max_workers=2) as pool:
        for (scenario, policy, _), (client_master, server_master, finished_ok) in zip(
            cases, pool.map(_handshake_worker, cases)
        ):
            assert client_master == server_master, (scenario.display_id, policy)
            assert finished_ok
            completed += 1
    assert completed == 17 * 3

    # single-byte tampering of Certificate / CertificateVerify, randomized offsets
    fast = find_scenario(matrix17, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    hierarchy = pki.load_hierarchy(pki_all / fast.display_id)
    rng = random.Random(0xC0FFEE)
    rejected = 0
    for msg_type in (hs.MSG_CERTIFICATE, hs.MSG_CERT_VERIFY):
        for _ in range(10):
            offset_holder = {}

            def tamper(t, body, _mt=msg_type, _oh=offset_holder):
                if t == _mt:
                    mutated = bytearray(body)
                    index = rng.randrange(len(mutated))
                    _oh["offset"] = index
                    mutated[index] ^= 1 << rng.randrange(8)
                    return bytes(mutated)
                return body

            with pytest.raises(hs.HandshakeError):
                conftest.run_handshake(hierarchy, fast.kex, ServedChainPolicy.MIRROR, tamper)
            rejected += 1
    assert rejected == 20
    _ok("7 handshake-correctness", f"{completed} untampered handshakes OK, {rejected}/20 tampers rejected")


@pytest.mark.slow
def test_criterion_8_determinism(pki_all, matrix17, live_sweep, tmp_path):
    # byte-identical re-provisioning, including an SLH-signed hierarchy
    for sid in ("x25519mlkem768__ml_root__ml_int__ml_leaf", "x25519mlkem768__slh_root__ml_leaf"):
        scenario = find_scenario(matrix17, sid)
        rebuilt = pki.build_hierarchy(scenario, SEED)
        pki.write_hierarchy(rebuilt, tmp_path / sid)
        for item in sorted((pki_all / sid).iterdir()):
            assert (tmp_path / sid / item.name).read_bytes() == item.read_bytes(), (sid, item.name)

    # transport byte-constancy across every scenario of the sweep
    _, samples = live_sweep
    for sid, runs in samples.items():
        assert len({s.bytes_read for s in runs}) == 1, sid
        assert len({s.bytes_written for s in runs}) == 1, sid
    _ok("8 determinism", "re-provisioned bytes identical; bytes_read constant per scenario")
