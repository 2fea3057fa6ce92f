"""Acceptance suite.

Criterion 1 replays the full analytics pipeline over the shipped
reference table and must reproduce every published figure at its
stated tolerance.  Criteria 2-8 are live properties: absolute numbers
are hardware-dependent, so the gates check regime separations,
directions and determinism rather than published values.  Criteria 1-6
assert the checks that ``pqchainlab reproduce`` prints, from
``pqchainlab.claims``.  Each test prints one PASS line; run with
``pytest tests/test_acceptance.py -v``.

The live portion provisions all 17 hierarchies and runs a reduced
campaign (400 runs for fast scenarios, 5 for SLH-leaf ones); expect
several minutes of SLH-DSA signing time.
"""

import dataclasses
import random

import pytest

import conftest

from pqchainlab import bench, claims, cli, handshake as hs, pki
from pqchainlab.cli import EXIT_OK, EXIT_TRANSPORT, main
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import find_scenario

SEED = bytes.fromhex("5eed" * 16)

FAST_RUNS = 400
HEAVY_RUNS = 5
WARMUP = 2


def _ok(criterion: str, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)  # re-emitted in the terminal summary


# --- criterion 1: fixture-oracle suite ------------------------------------


def test_criterion_1_fixture_oracle(fixture_rows):
    checks = claims.evaluate(claims.FIXTURE, fixture_rows)
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, "; ".join(failed)
    _ok("1 fixture-oracle", f"all {len(checks)} published figures reproduced at stated tolerances")


def _perturbed(rows, scenario_id, changes):
    """``rows`` without the ``scenario_id`` row (``changes`` None) or with ``changes`` to it."""
    return [
        dataclasses.replace(r, **changes) if r.scenario_id == scenario_id else r
        for r in rows
        if changes is not None or r.scenario_id != scenario_id
    ]


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
    rows = _perturbed(fixture_rows, scenario_id, changes)
    assert {c.name for c in claims.evaluate(claims.LIVE, rows) if not c.passed} == failing


def test_effective_exposure_detail_shows_each_side(fixture_rows):
    """Criterion 5's detail prints both rows' client and server task clocks: in the
    reference rows depth 3 wins on the server, while the clients cost the same."""
    direction, _ = claims.effective_exposure(fixture_rows)
    assert direction.passed
    assert "d2 client 1.92 / server 1.91 ms" in direction.detail, direction.detail
    assert "d3 client 1.93 / server 0.67 ms" in direction.detail, direction.detail


@pytest.mark.parametrize(
    "scenario_id, latency_factor, failing",
    [
        # its KEX pair, its regime, and the counts and correlations of its sets
        ("mlkem768__slh_root__slh_leaf", None, {
            "placement_summary[leaf_slh].n_scenarios",
            "kex_pairs[hybrid_vs_pure_pqc, SLH root / SLH leaf (depth 2)].latency_ratio_to_over_from",
            "correlations[all_scenarios, bytes_read].n_scenarios",
            "correlations[leaf_slh_only, bytes_read].n_scenarios",
            "correlations[all_scenarios, bytes_read].pearson_r",
            "correlations[all_scenarios, bytes_read].spearman_rho",
            "correlations[leaf_slh_only, bytes_read].pearson_r",
            "correlations[leaf_slh_only, bytes_read].spearman_rho",
            "correlations[all_scenarios, chain_bytes_unique].pearson_r",
            "correlations[all_scenarios, chain_bytes_unique].spearman_rho",
            "decomposition[mlkem768__slh_root__slh_leaf].qualitative_perf_regime",
        }),
        # the slowest row, slower still: what reads its latency, bar ranks and medians
        ("x25519__leaf_slhdsashake192s", 10, {
            "campaign A classical ratio",
            "placement_summary[leaf_slh].mean_elapsed_ms",
            "kex_pairs[classical_vs_hybrid, SLH root / SLH leaf (depth 2)].latency_ratio_to_over_from",
            "correlations[all_scenarios, bytes_read].pearson_r",
            "correlations[leaf_slh_only, bytes_read].pearson_r",
            "correlations[all_scenarios, chain_bytes_unique].pearson_r",
        }),
    ],
    ids=["no-pure-pqc-slh-pair", "classical-slh-leaf-10x"],
)
def test_published_figures_over_perturbed_rows(
    fixture_rows, tmp_path, monkeypatch, capsys, scenario_id, latency_factor, failing
):
    """Exactly the figures that a dropped row (``latency_factor`` None) or a slower one
    moves fail, in ``evaluate`` and in ``reproduce --fixture-only``, which exits 3
    without a traceback."""
    row = {r.scenario_id: r for r in fixture_rows}[scenario_id]
    changes = None if latency_factor is None else {"mean_ms": latency_factor * row.mean_ms}
    rows = _perturbed(fixture_rows, scenario_id, changes)
    assert {c.name for c in claims.evaluate(claims.FIXTURE, rows) if not c.passed} == failing

    path = tmp_path / "perturbed.csv"
    bench.write_rows(rows, path)
    monkeypatch.setattr(cli, "fixture_path", lambda: path)
    assert main(["reproduce", "--fixture-only", "--out", str(tmp_path / "r")]) == EXIT_TRANSPORT
    out, err = capsys.readouterr()
    assert out.count("\nFAIL  ") == len(failing)
    assert "Traceback" not in out + err


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
    return client.secrets.master_secret, server.master_secret


@pytest.mark.slow
def test_criterion_7_handshake_correctness(pki_all, matrix):
    from concurrent.futures import ProcessPoolExecutor

    # Each SLH-leaf handshake signs for seconds; two workers share them.
    cases = [(scenario, policy, pki_all) for scenario in matrix for policy in ServedChainPolicy]
    completed = 0
    with ProcessPoolExecutor(max_workers=2) as pool:
        for (scenario, policy, _), (client_master, server_master) in zip(
            cases, pool.map(_handshake_worker, cases)
        ):
            assert client_master == server_master, (scenario.display_id, policy)
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
