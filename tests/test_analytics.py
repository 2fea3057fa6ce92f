import dataclasses
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pqchainlab import analytics as an
from pqchainlab import claims
from pqchainlab.bench import SchemaError, read_master_summary
from pqchainlab.config import AnalysisConfig, load_config

from conftest import subprocess_env


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig()


@pytest.fixture(scope="module")
def tables(fixture_rows, cfg):
    """Every table of the reference rows under the default configuration."""
    return an.compute_tables(fixture_rows, cfg)


def _unreproduced(rows, table, metric=None):
    """The failed checks of ``claims.FIXTURE``'s figures in ``table`` (in rows keyed by
    ``metric`` only, when given)."""
    figures = [f for f in claims.FIXTURE if f.table == table and (metric is None or metric in f.row)]
    assert figures
    return [f"{c.name}: {c.detail}" for c in claims.evaluate(figures, rows) if not c.passed]


def _published(table, metric=None):
    """A test method: the reference rows reproduce what :func:`_unreproduced` selects."""

    def test(self, fixture_rows):
        assert not _unreproduced(fixture_rows, table, metric)

    return test


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

    test_published_strategy_matrix_values = _published("strategy_matrix")

    def test_missing_baseline_raises(self, fixture_rows):
        with pytest.raises(KeyError):
            an.normalize_to_baseline(fixture_rows, "x25519__slh_root__ml_int__ml_leaf")


class TestCampaignA:
    test_published_ratios = _published("campaignA_pairs")


class TestPlacementSummary:
    test_published_class_stats = _published("placement_summary")

    def test_single_class_mean_equals_global(self, fixture_rows, cfg):
        all_ml_rows = [
            r
            for r in fixture_rows
            if r.placement_class.all_ml
        ]
        base_id = "x25519mlkem768__ml_root__ml_int__ml_leaf"
        table = an.placement_summary(all_ml_rows, an.normalize_to_baseline(all_ml_rows, base_id))
        assert len(table) == 1
        global_mean = sum(r.mean_ms for r in all_ml_rows) / len(all_ml_rows)
        assert table[0].mean_elapsed_ms == pytest.approx(global_mean)


class TestDepthPairs:
    def test_published_values(self, fixture_rows):
        assert len(an.depth_pairs(fixture_rows)) == 6
        assert not _unreproduced(fixture_rows, "depth_pairs")

    def test_identical_rows_give_unit_ratio(self, fixture_rows):
        index = {r.scenario_id: r for r in fixture_rows}
        d2 = index["x25519mlkem768__ml_root__ml_leaf"]
        clone = dataclasses.replace(d2, scenario_id="x25519mlkem768__ml_root__ml_int__ml_leaf")
        pairs = an.depth_pairs([d2, clone])
        assert pairs[0].latency_ratio == 1.0
        assert pairs[0].delta_elapsed_ms == 0.0
        assert pairs[0].delta_bytes_read == 0.0


class TestKexPairs:
    def test_published_values(self, fixture_rows):
        assert len(an.kex_pairs(fixture_rows)) == 5
        assert not _unreproduced(fixture_rows, "kex_pairs")

    def test_same_row_both_slots_gives_unit(self, fixture_rows):
        index = {r.scenario_id: r for r in fixture_rows}
        src = index["x25519__leaf_mldsa65"]
        clone = dataclasses.replace(src, scenario_id="x25519mlkem768__leaf_mldsa65")
        rows = an.kex_pairs([src, clone], warn=lambda _m: None)
        assert rows[0].latency_ratio_to_over_from == 1.0


@pytest.mark.parametrize("table, missing, dropped, warning", [
    (an.campaign_a_pairs, "x25519__leaf_slhdsashake192s", 0,
     "campaign A pair 'x25519' skipped: missing member"),
    (an.depth_pairs, "x25519mlkem768__slh_root__ml_leaf", 1,
     "depth pair 'SLH root + ML leaf' skipped: missing member"),
    (an.kex_pairs, "x25519__leaf_mldsa65", 0,
     "kex pair 'ML root / ML leaf (depth 2)' (classical_vs_hybrid) skipped: missing member"),
], ids=["campaignA_pairs", "depth_pairs", "kex_pairs"])
def test_missing_member_skipped_with_warning(fixture_rows, table, missing, dropped, warning):
    """A pair whose member is absent is warned about and skipped; every other pair is kept
    as it is in the full table."""
    warnings = []
    pairs = table([r for r in fixture_rows if r.scenario_id != missing], warn=warnings.append)
    assert warnings == [warning]
    full = table(fixture_rows)
    assert pairs == full[:dropped] + full[dropped + 1:]


class TestCorrelations:
    test_published_bytes_read_correlations = _published("correlations", "bytes_read")

    test_chain_bytes_correlations_close_to_published = _published("correlations", "chain_bytes_unique")

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
        assert not _unreproduced(fixture_rows, "counterexamples", "bytes_read")
        rows = an.counterexamples(fixture_rows, "bytes_read", 5)
        assert [r.rank for r in rows] == [1, 2, 3, 4, 5]
        diffs = [r.bytes_diff for r in rows]
        assert diffs == sorted(diffs, reverse=True)

    test_published_chain_bytes_rank1 = _published("counterexamples", "chain_bytes_unique")

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
    test_all_17_published_labels = _published("decomposition")

    def test_decomposition_table_shape(self, fixture_rows):
        table = an.decomposition_table(fixture_rows)
        assert len(table) == 17
        assert [t.scenario_id for t in table] == sorted(t.scenario_id for t in table)


class TestCapacity:
    def test_published_values(self, fixture_rows, tables):
        assert not _unreproduced(fixture_rows, "capacity")
        # the median leaf-SLH multiplier is published but is no single cell
        multipliers = sorted(
            c.infrastructure_multiplier_needed
            for c in tables["capacity"]
            if c.conceptual_perf_group == "leaf_slh"
        )
        assert multipliers[len(multipliers) // 2] == pytest.approx(2500.28, rel=0.005)

    def test_retained_times_multiplier_is_one(self, tables):
        for row in tables["capacity"]:
            product = row.capacity_retained_vs_baseline * row.infrastructure_multiplier_needed
            assert product == pytest.approx(1.0, abs=1e-12)

    def test_vcpu_hour_is_3600x(self, tables):
        for row in tables["capacity"]:
            assert row.handshakes_per_vcpu_hour == pytest.approx(
                3600 * row.handshakes_per_core_second
            )


class TestEconomics:
    test_published_values = _published("economics")

    def test_unit_identities(self, tables, cfg):
        for row in tables["economics"]:
            assert row.cpu_hours_per_million == pytest.approx(
                row.server_cpu_seconds_per_handshake * 1e6 / 3600
            )
            assert row.cost_per_million == pytest.approx(
                row.cpu_hours_per_million * cfg.price_per_cpu_hour
            )

    test_published_service_class_figures = _published("service_classes")

    def test_monthly_is_30x_daily(self, tables):
        for row in tables["service_classes"]:
            assert row.mean_monthly_cost == pytest.approx(30 * row.mean_daily_cost)
            assert row.mean_annual_cost == pytest.approx(365 * row.mean_daily_cost)

    def test_bad_price_rejected(self, tmp_path):
        # the configuration refuses a price that is not positive, so no table sees one
        for price in (0, -0.04):
            with pytest.raises(ValueError, match="price_per_cpu_hour: must be positive"):
                AnalysisConfig(price_per_cpu_hour=price)
        path = tmp_path / "analysis.cfg"
        path.write_text("price_per_cpu_hour = 0\n")
        with pytest.raises(ValueError, match="price_per_cpu_hour: must be positive"):
            load_config(path)


class TestPlausibility:
    def _campaign_b(self, fixture_rows):
        return [r for r in fixture_rows if r.campaign == "B"]

    def test_published_ranking(self, fixture_rows, cfg):
        assert not _unreproduced(fixture_rows, "plausibility")
        rows = self._campaign_b(fixture_rows)
        ranking = an.plausibility_rank(rows, an.normalize_to_baseline(rows, cfg.baseline_id), cfg)
        assert len(ranking) == 6
        latency = [p.latency_relative_to_baseline for p in ranking]
        assert latency == sorted(latency)

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
    assert set(results) == set(claims.ROW_KEYS)
    for name in results:
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


def test_declared_column_types_match_values(tables):
    """Each field's declared type is its values' type in every table: ``write_rows``
    formats by value, so the golden digest cannot see a wrong declaration."""
    assert len(tables) == 12
    for name, table in tables.items():
        assert table, name
        for row in table:
            for field in dataclasses.fields(row):
                assert field.type == type(getattr(row, field.name)).__name__, (name, field.name)


@pytest.mark.parametrize("demo, expected", [
    ("02_single_handshake.py", "server verified ClientFinished"),
    ("04_reference_tables.py", "leaf-only contrast (campaign A)"),
], ids=["02_single_handshake", "04_reference_tables"])
def test_reference_tables_demo_runs(demo, expected):
    demo = Path(__file__).resolve().parents[1] / "demos" / demo
    out = subprocess.run([sys.executable, str(demo)], env=subprocess_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert expected in out.stdout


def test_pairings_and_claims_ignore_row_order(fixture_rows):
    """An exact id wins over another row of the same hierarchy wherever the rows put it."""
    backwards = fixture_rows[::-1]
    assert an.depth_pairs(backwards) == an.depth_pairs(fixture_rows)
    assert an.kex_pairs(backwards) == an.kex_pairs(fixture_rows)
    assert an.campaign_a_pairs(backwards) == an.campaign_a_pairs(fixture_rows)
    live = [sorted(claims.evaluate(claims.LIVE, rows)) for rows in (fixture_rows, backwards)]
    assert live[0] == live[1]
    assert all(check.passed for check in claims.evaluate(claims.FIXTURE, backwards))
