"""Acceptance suite.

Criterion 1 replays the full analytics pipeline over the shipped
reference table and must reproduce the published figures at their
stated tolerances.  Criteria 2-8 are live properties: absolute numbers
are hardware-dependent, so the gates check regime separations,
directions and determinism rather than published values.  Criteria 2-6
and criterion 1's campaign-A ratios assert the checks that ``pqchainlab
reproduce`` prints, from ``pqchainlab.claims``.  Each test prints one
PASS line; run with ``pytest tests/test_acceptance.py -v``.

The live portion provisions all 17 hierarchies and runs a reduced
campaign (400 runs for fast scenarios, 5 for SLH-leaf ones); expect
several minutes of SLH-DSA signing time.
"""

import dataclasses
import random

import pytest

import conftest
from conftest import PUBLISHED_REGIMES, rel

from pqchainlab import analytics as an
from pqchainlab import bench, claims, handshake as hs, pki
from pqchainlab.cli import EXIT_OK, main
from pqchainlab.config import AnalysisConfig
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import find_scenario

SEED = bytes.fromhex("5eed" * 16)
CFG = AnalysisConfig()

FAST_RUNS = 400
HEAVY_RUNS = 5
WARMUP = 2


def _ok(criterion: str, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)  # re-emitted in the terminal summary


# --- criterion 1: fixture-oracle suite ------------------------------------


def test_criterion_1_fixture_oracle(fixture_rows):
    rows = fixture_rows

    assert all(check.passed for check in claims.evaluate(claims.FIXTURE, rows))

    norm = {n.scenario_id: n for n in an.normalize_to_baseline(rows, CFG.baseline_id)}
    assert rel(norm["x25519mlkem768__slh_root__ml_int__ml_leaf"].latency_relative_to_baseline, 2.64)
    assert rel(norm["x25519mlkem768__ml_root__ml_int__slh_leaf"].latency_relative_to_baseline, 1733.49)
    assert rel(norm["x25519mlkem768__slh_root__slh_int__slh_leaf"].latency_relative_to_baseline, 1741.18)

    depth = {d.pair_label: d for d in an.depth_pairs(rows)}
    assert rel(depth["SLH root + ML leaf"].latency_ratio, 0.6318)
    assert rel(depth["ML/ML"].latency_ratio, 0.9997)

    kex = {(k.comparison_type, k.family_label): k for k in an.kex_pairs(rows)}
    assert rel(kex[("classical_vs_hybrid", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 1.2210)
    assert rel(kex[("classical_vs_hybrid", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9652)
    assert rel(kex[("hybrid_vs_pure_pqc", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 0.8220)
    assert rel(kex[("hybrid_vs_pure_pqc", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9984)

    c_all = an.correlations(rows, "all_scenarios", "bytes_read")
    c_non = an.correlations(rows, "non_leaf_slh", "bytes_read")
    c_slh = an.correlations(rows, "leaf_slh_only", "bytes_read")
    assert abs(c_all.pearson_r - 0.7493) <= 0.002
    assert abs(c_all.spearman_rho - 0.8503) <= 0.002
    assert abs(c_non.pearson_r - 0.9937) <= 0.002
    assert abs(c_slh.pearson_r - 0.3518) <= 0.002

    top = an.counterexamples(rows, "bytes_read", 1)[0]
    assert rel(top.latency_ratio_higher_over_lower, 416.5316)

    placement = {p.placement_class: p for p in an.placement_summary(rows, CFG.baseline_id)}
    assert rel(placement["all_ml"].mean_elapsed_ms, 0.763)
    assert rel(placement["root_slh_leaf_not_slh"].mean_elapsed_ms, 2.464)
    assert rel(placement["intermediate_slh_any"].mean_elapsed_ms, 1407.253)
    assert rel(placement["leaf_slh"].mean_elapsed_ms, 1413.171)

    capacity = {c.scenario_id: c for c in an.capacity_model(rows, CFG.baseline_id)}
    assert rel(capacity[CFG.baseline_id].handshakes_per_core_second, 1779.68, 0.001)
    assert rel(capacity[CFG.baseline_id].handshakes_per_vcpu_hour, 6406856.76, 0.001)
    assert rel(capacity["mlkem768__ml_root__ml_leaf"].capacity_retained_vs_baseline, 1.0906, 0.001)
    assert rel(capacity["mlkem768__ml_root__ml_leaf"].infrastructure_multiplier_needed, 0.9169, 0.001)

    eco = {e.scenario_id: e for e in an.economic_model(rows, CFG)}
    assert rel(eco[CFG.baseline_id].cpu_hours_per_million, 0.1561)
    assert rel(eco[CFG.baseline_id].cost_per_million, 0.006243)
    assert rel(eco["x25519__leaf_slhdsashake192s"].cost_per_million, 16.2476)
    assert rel(eco["x25519__leaf_slhdsashake192s"].cost_multiplier_vs_baseline, 2602.40)

    svc = {
        (s.service_class, s.conceptual_economic_class): s
        for s in an.service_class_table(list(eco.values()), CFG)
    }
    assert rel(svc[("high_volume_frontend", "all_ml")].mean_monthly_cost, 18.87)
    assert rel(svc[("medium_api", "leaf_slh")].median_monthly_cost, 4683.01)
    assert rel(svc[("high_volume_frontend", "leaf_slh")].median_monthly_cost, 46830.11)

    for row in rows:
        assert an.regime_label(row).value == PUBLISHED_REGIMES.get(row.scenario_id, "balanced"), row.scenario_id

    campaign_b = [r for r in rows if r.campaign == "B"]
    ranking = an.plausibility_rank(campaign_b, an.normalize_to_baseline(campaign_b, CFG.baseline_id), CFG)
    assert [p.plausibility_rank for p in ranking] == [1, 2, 4, 4, 4, 4]
    assert ranking[0].operational_plausibility == "Reasonable"
    assert ranking[1].operational_plausibility == "Penalized but plausible"
    assert all(p.operational_plausibility == "Unsuitable for interactive TLS front-end" for p in ranking[2:])

    _ok("1 fixture-oracle", "all published figures reproduced at stated tolerances")


@pytest.mark.parametrize(
    "scenario_id, changes, failing",
    [
        (None, {}, set()),
        ("x25519__leaf_slhdsashake192s", None, {"regime separation", "decomposition coverage"}),
        ("x25519__leaf_slhdsashake192s", {"server_over_elapsed": 0.89}, {"server-bound"}),
        ("x25519mlkem768__slh_root__ml_int__ml_leaf", None, {"upper layer bound", "effective exposure"}),
    ],
    ids=["reference-table", "no-classical-slh-leaf", "srv-elapsed-0.89", "no-slh-root-depth-3"],
)
def test_live_claims_over_reference_rows(fixture_rows, scenario_id, changes, failing):
    """Every live check passes on the reference rows.  Dropping a row (``changes`` None)
    or changing one fails exactly the ``failing`` checks, never raises."""
    rows = [
        dataclasses.replace(r, **changes) if r.scenario_id == scenario_id else r
        for r in fixture_rows
        if changes is not None or r.scenario_id != scenario_id
    ]
    assert {c.name for c in claims.evaluate(claims.LIVE, rows) if not c.passed} == failing


# --- live fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def pki_all(tmp_path_factory):
    """Provision all 17 hierarchies once (heaviest fixture of the suite)."""
    root = tmp_path_factory.mktemp("pki_all")
    assert main(["provision", "--out", str(root), "--seed", SEED.hex(), "--jobs", "2"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def live_sweep(pki_all, matrix):
    """One reduced campaign over the whole matrix under MIRROR serving: aggregates and
    samples by scenario id, and the host steal share over the sweep."""
    cfg = bench.BenchConfig(runs=FAST_RUNS, runs_heavy=HEAVY_RUNS, warmup=WARMUP)
    return bench.run_campaign(matrix, pki_all, cfg)


def _assert_claim(criterion: str, claim, live_sweep) -> None:
    aggregates, _, steal = live_sweep
    checks = claims.evaluate([claim], list(aggregates.values()))
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, f"{'; '.join(failed)} (host steal share over the sweep: {steal})"
    _ok(criterion, "; ".join(c.detail for c in checks))


@pytest.mark.slow
def test_criterion_2_regime_separation(live_sweep):
    _assert_claim("2 regime-separation", claims.regime_separation, live_sweep)


@pytest.mark.slow
def test_criterion_3_server_bound_decomposition(live_sweep):
    _assert_claim("3 server-bound-decomposition", claims.server_bound_decomposition, live_sweep)


@pytest.mark.slow
def test_criterion_4_upper_layer_bound(live_sweep):
    _assert_claim("4 upper-layer-bound", claims.upper_layer_bound, live_sweep)


@pytest.mark.slow
def test_criterion_5_effective_exposure_direction(live_sweep):
    _assert_claim("5 effective-exposure", claims.effective_exposure, live_sweep)


@pytest.mark.slow
def test_criterion_6_transport_crypto_dissociation(live_sweep):
    _assert_claim("6 dissociation", claims.transport_crypto_dissociation, live_sweep)


# --- criterion 7: handshake correctness -------------------------------------


def _handshake_worker(args):
    scenario, policy, root = args
    hierarchy = pki.load_hierarchy(root / scenario.display_id)
    client, server, _ = conftest.run_handshake(hierarchy, scenario.kex, policy)
    return client.secrets.master_secret, server.secrets.master_secret, server.client_finished_ok


@pytest.mark.slow
def test_criterion_7_handshake_correctness(pki_all, matrix):
    from concurrent.futures import ProcessPoolExecutor

    # Each SLH-leaf handshake signs for seconds; two workers share them.
    cases = [(scenario, policy, pki_all) for scenario in matrix for policy in ServedChainPolicy]
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
    fast = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
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
def test_criterion_8_determinism(pki_all, matrix, live_sweep, tmp_path):
    # byte-identical re-provisioning, including an SLH-signed hierarchy
    for sid in ("x25519mlkem768__ml_root__ml_int__ml_leaf", "x25519mlkem768__slh_root__ml_leaf"):
        scenario = find_scenario(matrix, sid)
        rebuilt = pki.build_hierarchy(scenario, SEED)
        pki.write_hierarchy(rebuilt, tmp_path / sid)
        for item in sorted((pki_all / sid).iterdir()):
            assert (tmp_path / sid / item.name).read_bytes() == item.read_bytes(), (sid, item.name)

    # transport byte-constancy across every scenario of the sweep
    _, samples, _ = live_sweep
    for sid, runs in samples.items():
        assert len({s.bytes_read for s in runs}) == 1, sid
        assert len({s.bytes_written for s in runs}) == 1, sid
    _ok("8 determinism", "re-provisioned bytes identical; bytes_read constant per scenario")
