import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PUBLISHED_REGIMES, rel

from pqchainlab import analytics as an
from pqchainlab import claims
from pqchainlab.bench import SchemaError, read_master_summary
from pqchainlab.config import AnalysisConfig, load_config


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig()


class TestLoad:
    def test_fixture_loads_17(self, fixture_rows):
        assert len(fixture_rows) == 17

    def test_schema_error_on_missing_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("scenario_id,mean_ms\nfoo,1.0\n")
        with pytest.raises(SchemaError):
            read_master_summary(bad)


class TestNormalize:
    def test_baseline_maps_to_one(self, fixture_rows, cfg):
        rows = {n.scenario_id: n for n in an.normalize_to_baseline(fixture_rows, cfg.baseline_id)}
        base = rows[cfg.baseline_id]
        assert base.latency_relative_to_baseline == 1.0
        assert base.bytes_read_relative_to_baseline == 1.0
        assert base.server_cpu_relative_to_baseline == 1.0

    def test_published_strategy_matrix_values(self, fixture_rows, cfg):
        rows = {n.scenario_id: n for n in an.normalize_to_baseline(fixture_rows, cfg.baseline_id)}
        assert rel(rows["x25519mlkem768__slh_root__ml_int__ml_leaf"].latency_relative_to_baseline, 2.64)
        assert rel(rows["x25519mlkem768__ml_root__ml_int__slh_leaf"].latency_relative_to_baseline, 1733.49)
        assert rel(rows["x25519mlkem768__slh_root__slh_int__slh_leaf"].latency_relative_to_baseline, 1741.18)
        assert rel(rows["x25519mlkem768__ml_root__ml_int__slh_leaf"].server_cpu_relative_to_baseline, 2493.64)
        assert rel(rows["x25519mlkem768__slh_root__ml_int__ml_leaf"].bytes_read_relative_to_baseline, 1.81)

    def test_missing_baseline_raises(self, fixture_rows):
        with pytest.raises(KeyError):
            an.normalize_to_baseline(fixture_rows, "x25519__slh_root__ml_int__ml_leaf")


class TestCampaignA:
    def test_published_ratios(self, fixture_rows):
        pairs = {p.tls_group: p for p in an.campaign_a_pairs(fixture_rows)}
        classical, hybrid = pairs["x25519"], pairs["x25519mlkem768"]
        for group, published in claims.PUBLISHED_CAMPAIGN_A.items():
            assert rel(pairs[group].latency_ratio, published, claims.PUBLISHED_TOLERANCE)
        assert rel(hybrid.bytes_read_ratio, 3.187)
        assert rel(classical.bytes_read_ratio, 3.347)
        assert rel(classical.server_taskclock_ratio, 2765.628)
        assert rel(hybrid.server_taskclock_ratio, 2265.961)
        assert rel(classical.client_taskclock_ratio, 6.107)
        assert rel(hybrid.client_taskclock_ratio, 5.303)

    def test_missing_pair_raises(self, fixture_rows):
        without_slh = [
            r for r in fixture_rows if r.scenario_id != "x25519__leaf_slhdsashake192s"
        ]
        with pytest.raises(KeyError):
            an.campaign_a_pairs(without_slh)


class TestPlacementSummary:
    def test_published_class_stats(self, fixture_rows, cfg):
        table = {p.placement_class: p for p in an.placement_summary(fixture_rows, cfg.baseline_id)}
        assert table["all_ml"].n_scenarios == 5
        assert table["root_slh_leaf_not_slh"].n_scenarios == 3
        assert table["intermediate_slh_any"].n_scenarios == 2
        assert table["leaf_slh"].n_scenarios == 9
        assert rel(table["all_ml"].mean_elapsed_ms, 0.763)
        assert rel(table["root_slh_leaf_not_slh"].mean_elapsed_ms, 2.464)
        assert rel(table["intermediate_slh_any"].mean_elapsed_ms, 1407.253)
        assert rel(table["leaf_slh"].mean_elapsed_ms, 1413.171)
        assert rel(table["leaf_slh"].median_elapsed_ms, 1406.283)
        assert rel(table["leaf_slh"].mean_server_cpu_vs_baseline, 2510.849)
        assert rel(table["root_slh_leaf_not_slh"].mean_latency_vs_baseline, 3.046)
        assert rel(table["all_ml"].mean_server_over_elapsed, 0.744)
        assert rel(table["leaf_slh"].mean_client_over_elapsed, 0.002, tol=0.15)

    def test_single_class_mean_equals_global(self, fixture_rows, cfg):
        all_ml_rows = [
            r
            for r in fixture_rows
            if r.placement_class.all_ml
        ]
        base_id = "x25519mlkem768__ml_root__ml_int__ml_leaf"
        table = an.placement_summary(all_ml_rows, base_id)
        assert len(table) == 1
        global_mean = sum(r.mean_ms for r in all_ml_rows) / len(all_ml_rows)
        assert table[0].mean_elapsed_ms == pytest.approx(global_mean)


class TestDepthPairs:
    def test_published_values(self, fixture_rows):
        pairs = {d.pair_label: d for d in an.depth_pairs(fixture_rows)}
        assert len(pairs) == 6
        slh_root = pairs["SLH root + ML leaf"]
        assert rel(slh_root.latency_ratio, 0.6318)
        assert slh_root.delta_bytes_read == pytest.approx(-11015, rel=0.005)
        assert slh_root.delta_chain_bytes_unique == -10993
        assert rel(slh_root.server_taskclock_ratio, 0.3485)
        ml = pairs["ML/ML"]
        assert rel(ml.latency_ratio, 0.9997)
        assert ml.delta_bytes_read == pytest.approx(16, rel=0.005)
        assert rel(pairs["SLH/SLH (ML intermediate)"].latency_ratio, 0.9968)
        assert rel(pairs["SLH/SLH (SLH intermediate)"].latency_ratio, 1.0007)

    def test_identical_rows_give_unit_ratio(self, fixture_rows):
        index = {r.scenario_id: r for r in fixture_rows}
        d2 = index["x25519mlkem768__ml_root__ml_leaf"]
        clone = dataclasses.replace(d2, scenario_id="x25519mlkem768__ml_root__ml_int__ml_leaf")
        pairs = an.depth_pairs([d2, clone])
        assert pairs[0].latency_ratio == 1.0
        assert pairs[0].delta_elapsed_ms == 0.0
        assert pairs[0].delta_bytes_read == 0.0

    def test_missing_member_skipped_with_warning(self, fixture_rows):
        rows = [r for r in fixture_rows if r.scenario_id != "x25519mlkem768__slh_root__ml_leaf"]
        warnings = []
        pairs = an.depth_pairs(rows, warn=warnings.append)
        assert len(pairs) == 5
        assert any("SLH root + ML leaf" in w for w in warnings)


class TestKexPairs:
    def test_published_values(self, fixture_rows):
        rows = {(k.comparison_type, k.family_label): k for k in an.kex_pairs(fixture_rows)}
        assert len(rows) == 5
        assert rel(rows[("classical_vs_hybrid", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 1.2210)
        assert rel(rows[("classical_vs_hybrid", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9652)
        assert rel(rows[("hybrid_vs_pure_pqc", "ML root / ML leaf (depth 2)")].latency_ratio_to_over_from, 0.8220)
        assert rel(rows[("hybrid_vs_pure_pqc", "SLH root / SLH leaf (depth 2)")].latency_ratio_to_over_from, 0.9984)
        assert rel(rows[("hybrid_vs_pure_pqc", "SLH root / ML int / ML leaf (depth 3)")].latency_ratio_to_over_from, 0.8833)
        assert rel(rows[("classical_vs_hybrid", "ML root / ML leaf (depth 2)")].bytes_read_ratio_to_over_from, 1.0730)
        assert rel(rows[("hybrid_vs_pure_pqc", "SLH root / ML int / ML leaf (depth 3)")].server_task_ratio_to_over_from, 0.7903)

    def test_same_row_both_slots_gives_unit(self, fixture_rows):
        index = {r.scenario_id: r for r in fixture_rows}
        src = index["x25519__leaf_mldsa65"]
        clone = dataclasses.replace(src, scenario_id="x25519mlkem768__leaf_mldsa65")
        rows = an.kex_pairs([src, clone], warn=lambda _m: None)
        assert rows[0].latency_ratio_to_over_from == 1.0


class TestCorrelations:
    def test_published_bytes_read_correlations(self, fixture_rows):
        c_all = an.correlations(fixture_rows, "all_scenarios", "bytes_read")
        assert c_all.n_scenarios == 17
        assert abs(c_all.pearson_r - 0.7493) <= 0.002
        assert abs(c_all.spearman_rho - 0.8503) <= 0.002
        c_non = an.correlations(fixture_rows, "non_leaf_slh", "bytes_read")
        assert c_non.n_scenarios == 8
        assert abs(c_non.pearson_r - 0.9937) <= 0.002
        assert abs(c_non.spearman_rho - 0.8982) <= 0.002
        c_slh = an.correlations(fixture_rows, "leaf_slh_only", "bytes_read")
        assert c_slh.n_scenarios == 9
        assert abs(c_slh.pearson_r - 0.3518) <= 0.002
        assert abs(c_slh.spearman_rho - 0.5523) <= 0.002

    def test_chain_bytes_correlations_close_to_published(self, fixture_rows):
        # chain-size column mixes published and reconstructed values, so the
        # comparison is held to a looser band than the bytes-read one
        c_all = an.correlations(fixture_rows, "all_scenarios", "chain_bytes_unique")
        assert abs(c_all.pearson_r - 0.3943) <= 0.005
        assert abs(c_all.spearman_rho - 0.5227) <= 0.005
        c_non = an.correlations(fixture_rows, "non_leaf_slh", "chain_bytes_unique")
        assert abs(c_non.pearson_r - 0.9933) <= 0.005

    def test_agrees_with_scipy(self, fixture_rows):
        xs = [r.bytes_read for r in fixture_rows]
        ys = [r.mean_ms for r in fixture_rows]
        assert an.pearson(xs, ys) == pytest.approx(scipy.stats.pearsonr(xs, ys)[0], abs=1e-12)
        assert an.spearman(xs, ys) == pytest.approx(scipy.stats.spearmanr(xs, ys)[0], abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=3,
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_random_data_agrees_with_scipy(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        assert an.pearson(xs, ys) == pytest.approx(scipy.stats.pearsonr(xs, ys)[0], abs=1e-9)
        assert an.spearman(xs, ys) == pytest.approx(scipy.stats.spearmanr(xs, ys)[0], abs=1e-9)

    def test_perfect_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 6.0, 8.0]
        assert an.pearson(xs, ys) == pytest.approx(1.0)
        assert an.spearman(xs, ys) == pytest.approx(1.0)

    def test_degenerate_variance_errors(self):
        with pytest.raises(ValueError):
            an.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            an.pearson([1.0, 2.0], [1.0, 2.0])

    @given(
        st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=4, max_size=30, unique=True),
        st.sampled_from([lambda v: 3 * v + 7, lambda v: v**3, lambda v: math.exp(v / 1e4)]),
    )
    @settings(max_examples=40)
    def test_spearman_monotone_invariant(self, xs, transform):
        # integer inputs keep the transforms strictly monotone after rounding
        ys = list(range(len(xs)))
        before = an.spearman([float(v) for v in xs], ys)
        after = an.spearman([transform(v) for v in xs], ys)
        assert before == pytest.approx(after, abs=1e-9)


class TestCounterexamples:
    def test_published_rank1(self, fixture_rows):
        rows = an.counterexamples(fixture_rows, "bytes_read", 5)
        top = rows[0]
        assert top.scenario_more_bytes_lower_latency == "x25519mlkem768__slh_root__ml_leaf"
        assert top.scenario_less_bytes_higher_latency == "x25519mlkem768__ml_root__slh_leaf"
        assert top.more_bytes_value == pytest.approx(39962)
        assert top.less_bytes_value == pytest.approx(26999)
        assert rel(top.latency_ratio_higher_over_lower, 416.5316)
        assert [r.rank for r in rows] == [1, 2, 3, 4, 5]
        diffs = [r.bytes_diff for r in rows]
        assert diffs == sorted(diffs, reverse=True)

    def test_published_chain_bytes_rank1(self, fixture_rows):
        rows = an.counterexamples(fixture_rows, "chain_bytes_unique", 5)
        assert rows[0].more_bytes_value == 35047
        assert rows[0].less_bytes_value == 9214
        assert rows[0].bytes_diff == 25833

    def test_monotone_dataset_empty(self, fixture_rows):
        index = {r.scenario_id: r for r in fixture_rows}
        rows = [
            dataclasses.replace(
                index["x25519mlkem768__ml_root__ml_leaf"],
                scenario_id=f"x25519mlkem768__ml_root__ml_leaf",
                bytes_read=1000.0 * (i + 1),
                mean_ms=float(i + 1),
            )
            for i in range(5)
        ]
        assert an.counterexamples(rows, "bytes_read") == []


class TestRegimes:
    def test_all_17_published_labels(self, fixture_rows):
        for row in fixture_rows:
            assert an.regime_label(row).value == PUBLISHED_REGIMES.get(row.scenario_id, "balanced"), row.scenario_id

    def test_decomposition_table_shape(self, fixture_rows):
        table = an.decomposition_table(fixture_rows)
        assert len(table) == 17
        assert [t.scenario_id for t in table] == sorted(t.scenario_id for t in table)


class TestCapacity:
    def test_published_values(self, fixture_rows, cfg):
        rows = {c.scenario_id: c for c in an.capacity_model(fixture_rows, cfg.baseline_id)}
        base = rows[cfg.baseline_id]
        assert base.handshakes_per_core_second == pytest.approx(1779.68, rel=0.001)
        assert base.handshakes_per_vcpu_hour == pytest.approx(6406856.76, rel=0.001)
        pure = rows["mlkem768__ml_root__ml_leaf"]
        assert pure.capacity_retained_vs_baseline == pytest.approx(1.0906, rel=0.001)
        assert pure.infrastructure_multiplier_needed == pytest.approx(0.9169, rel=0.001)
        multipliers = sorted(
            c.infrastructure_multiplier_needed
            for c in rows.values()
            if c.conceptual_perf_group == "leaf_slh"
        )
        assert multipliers[len(multipliers) // 2] == pytest.approx(2500.28, rel=0.005)

    def test_retained_times_multiplier_is_one(self, fixture_rows, cfg):
        for row in an.capacity_model(fixture_rows, cfg.baseline_id):
            product = row.capacity_retained_vs_baseline * row.infrastructure_multiplier_needed
            assert product == pytest.approx(1.0, abs=1e-12)

    def test_vcpu_hour_is_3600x(self, fixture_rows, cfg):
        for row in an.capacity_model(fixture_rows, cfg.baseline_id):
            assert row.handshakes_per_vcpu_hour == pytest.approx(
                3600 * row.handshakes_per_core_second
            )


class TestEconomics:
    def test_published_values(self, fixture_rows, cfg):
        rows = {e.scenario_id: e for e in an.economic_model(fixture_rows, cfg)}
        base = rows[cfg.baseline_id]
        assert rel(base.cpu_hours_per_million, 0.1561)
        assert rel(base.cost_per_million, 0.006243)
        worst = rows["x25519__leaf_slhdsashake192s"]
        assert rel(worst.cost_per_million, 16.2476)
        assert rel(worst.cost_multiplier_vs_baseline, 2602.40)
        assert rel(rows["x25519mlkem768__slh_root__ml_int__ml_leaf"].cost_per_million, 0.0074, tol=0.01)

    def test_unit_identities(self, fixture_rows, cfg):
        for row in an.economic_model(fixture_rows, cfg):
            assert row.cpu_hours_per_million == pytest.approx(
                row.server_cpu_seconds_per_handshake * 1e6 / 3600
            )
            assert row.cost_per_million == pytest.approx(
                row.cpu_hours_per_million * cfg.price_per_cpu_hour
            )

    def test_published_service_class_figures(self, fixture_rows, cfg):
        eco = an.economic_model(fixture_rows, cfg)
        table = {
            (s.service_class, s.conceptual_economic_class): s
            for s in an.service_class_table(eco, cfg)
        }
        assert rel(table[("high_volume_frontend", "all_ml")].mean_monthly_cost, 18.87)
        assert rel(table[("medium_api", "leaf_slh")].median_monthly_cost, 4683.01)
        assert rel(table[("high_volume_frontend", "leaf_slh")].median_monthly_cost, 46830.11)
        assert rel(table[("high_volume_frontend", "leaf_slh")].mean_monthly_cost, 47028.03)
        assert rel(table[("small_internal", "leaf_slh")].median_extra_monthly_cost, 46.8114)
        assert rel(table[("high_volume_frontend", "leaf_slh")].mean_annual_cost, 572174.36)

    def test_monthly_is_30x_daily(self, fixture_rows, cfg):
        eco = an.economic_model(fixture_rows, cfg)
        for row in an.service_class_table(eco, cfg):
            assert row.mean_monthly_cost == pytest.approx(30 * row.mean_daily_cost)
            assert row.mean_annual_cost == pytest.approx(365 * row.mean_daily_cost)

    def test_bad_price_rejected(self, fixture_rows):
        with pytest.raises(ValueError):
            an.economic_model(fixture_rows, dataclasses.replace(AnalysisConfig(), price_per_cpu_hour=0))


class TestPlausibility:
    def _campaign_b(self, fixture_rows):
        return [r for r in fixture_rows if r.campaign == "B"]

    def test_published_ranking(self, fixture_rows, cfg):
        rows = self._campaign_b(fixture_rows)
        ranking = an.plausibility_rank(rows, an.normalize_to_baseline(rows, cfg.baseline_id), cfg)
        assert [p.plausibility_rank for p in ranking] == [1, 2, 4, 4, 4, 4]
        assert ranking[0].scenario_id == cfg.baseline_id
        assert ranking[0].operational_plausibility == "Reasonable"
        assert ranking[1].scenario_id == "x25519mlkem768__slh_root__ml_int__ml_leaf"
        assert ranking[1].operational_plausibility == "Penalized but plausible"
        assert all(
            p.operational_plausibility == "Unsuitable for interactive TLS front-end"
            for p in ranking[2:]
        )

    def test_scale_invariance(self, fixture_rows, cfg):
        rows = self._campaign_b(fixture_rows)
        scaled = [dataclasses.replace(r, mean_ms=r.mean_ms * 37.5) for r in rows]
        before = an.plausibility_rank(rows, an.normalize_to_baseline(rows, cfg.baseline_id), cfg)
        after = an.plausibility_rank(scaled, an.normalize_to_baseline(scaled, cfg.baseline_id), cfg)
        assert [p.scenario_id for p in before] == [p.scenario_id for p in after]
        assert [p.operational_plausibility for p in before] == [
            p.operational_plausibility for p in after
        ]

    def test_counterexample_scale_invariance(self, fixture_rows):
        before = an.counterexamples(fixture_rows, "bytes_read", 10)
        scaled = [dataclasses.replace(r, mean_ms=r.mean_ms * 4.2) for r in fixture_rows]
        after = an.counterexamples(scaled, "bytes_read", 10)
        pair = lambda r: (r.scenario_more_bytes_lower_latency, r.scenario_less_bytes_higher_latency)
        assert {pair(r) for r in before} == {pair(r) for r in after}

    def test_operationally_problematic_band(self, cfg):
        assert an.plausibility_label(100.0, cfg) is an.PlausibilityLabel.OPERATIONALLY_PROBLEMATIC
        assert an.plausibility_label(1.0, cfg) is an.PlausibilityLabel.REASONABLE
        assert an.plausibility_label(20.0, cfg) is an.PlausibilityLabel.PENALIZED_BUT_PLAUSIBLE
        assert an.plausibility_label(1e6, cfg) is an.PlausibilityLabel.UNSUITABLE


class TestConfig:
    def test_defaults_roundtrip(self, tmp_path):
        cfg = load_config(None)
        assert cfg.price_per_cpu_hour == 0.04
        assert cfg.service_classes["medium_api"] == 10_000_000

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "analysis.cfg"
        path.write_text(
            "# comment\n"
            "price_per_cpu_hour = 0.08\n"
            "service_class.medium_api = 5000000\n"
            "plausibility.reasonable_max = 2.0\n"
        )
        cfg = load_config(path)
        assert cfg.price_per_cpu_hour == 0.08
        assert cfg.service_classes["medium_api"] == 5_000_000
        assert cfg.plausibility_reasonable_max == 2.0
        assert cfg.service_classes["small_internal"] == 100_000  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # field names that config files do not spell as keys are unknown too
        for line in ("nonsense = 1", "regime_server_bound_ratio = 3", "service_classes = 1"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown config key"):
                load_config(path)


def test_run_all_writes_every_table(tmp_path, fixture_rows, cfg):
    results = an.run_all(fixture_rows, tmp_path, cfg)
    expected = {
        "campaignA_pairs",
        "strategy_matrix",
        "placement_summary",
        "depth_pairs",
        "kex_pairs",
        "correlations",
        "counterexamples",
        "decomposition",
        "capacity",
        "economics",
        "service_classes",
        "plausibility",
    }
    assert set(results) == expected
    for name in expected:
        assert (tmp_path / f"{name}.csv").exists()


# SHA-256 over the 12 CSVs that run_all writes from the reference rows, under
# the default baseline and then under the classical ML-DSA one.
GOLDEN_TABLES_SHA256 = "7a0f1df68564e2549d0d5b49097d5f908644ac57f0fae5ad4a2b607ca2c2d8c1"


def test_analysis_tables_match_golden_digest(tmp_path, fixture_rows, cfg):
    digest = hashlib.sha256()
    for baseline in (cfg.baseline_id, "x25519__leaf_mldsa65"):
        out = tmp_path / baseline
        an.run_all(fixture_rows, out, dataclasses.replace(cfg, baseline_id=baseline))
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == 12
        for path in paths:
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_TABLES_SHA256


def test_pairings_and_claims_ignore_row_order(fixture_rows):
    """An exact id wins over another row of the same hierarchy wherever the rows put it."""
    backwards = fixture_rows[::-1]
    assert an.depth_pairs(backwards) == an.depth_pairs(fixture_rows)
    assert an.kex_pairs(backwards) == an.kex_pairs(fixture_rows)
    assert an.campaign_a_pairs(backwards) == an.campaign_a_pairs(fixture_rows)
    live = [sorted(claims.evaluate(claims.LIVE, rows)) for rows in (fixture_rows, backwards)]
    assert live[0] == live[1]
