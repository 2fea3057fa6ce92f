"""Derived analyses over master-summary rows.

Every operation here is a pure function of the summary rows (live bench
output or the shipped reference transcription): baseline normalization,
the leaf-only campaign pairing, placement-class summaries, depth and KEX
pairings, transport-versus-latency correlations, counterexample mining,
regime labels, the capacity model, the economic model and the
plausibility ranking.  Decoupling analysis from measurement is what makes
table-exact regression tests possible on fixture data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, make_dataclass
from statistics import fmean, median
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .bench import RunAggregate, SchemaError, ratio, write_rows
from .config import AnalysisConfig
from .scenario import (
    Placement,
    PlacementClass,
    SigFamily,
    conceptual_perf_group,
    resolve_id,
)


# --- row tables ------------------------------------------------------------------


def _row_table(name: str, columns):
    """A frozen row type ``name`` with one field per ``(field, type, value)`` column, and
    the maker that builds one row from a context, each field from ``value(*context)``.
    Types are spelled as strings, as ``from __future__ import annotations`` spells a
    ``@dataclass``'s, so the fields read the same to ``dataclasses.fields``."""
    row_type = make_dataclass(name, [(field, type_) for field, type_, _ in columns],
                              frozen=True, namespace={"__module__": __name__})

    def make(*context):
        return row_type(*(value(*context) for _, _, value in columns))

    return row_type, make


# A per-scenario table's context starts with the scenario's row and, where the table has
# one, the record derived from that row: its baseline ratios or its capacity row.
def _row(attr: str):
    return lambda row, *_: getattr(row, attr)


def _derived(attr: str):
    return lambda row, derived, *_: getattr(derived, attr)


# --- normalization -------------------------------------------------------


def slh_position_class(placement: Placement) -> str:
    positions = [
        "intermediate" if name == "int" else name
        for name, family in placement.positions()
        if family is SigFamily.SLH_DSA_SHAKE_192S
    ]
    return "_and_".join(positions) if positions else "no_slh"


def hierarchy_label(placement: Placement) -> str:
    return " / ".join(f"{family.token.upper()} {name}" for name, family in placement.positions())


def _over_baseline(attr: str):
    return lambda row, base: getattr(row, attr) / getattr(base, attr)


# A row's latency, bytes read and server CPU over the baseline row's, from the row and the
# baseline row.
NormalizedRow, _normalized_row = _row_table("NormalizedRow", [
    ("scenario_id", "str", _row("scenario_id")),
    ("slh_position_class", "str", lambda row, base: slh_position_class(row.placement)),
    ("latency_relative_to_baseline", "float", _over_baseline("mean_ms")),
    ("bytes_read_relative_to_baseline", "float", _over_baseline("bytes_read")),
    ("server_cpu_relative_to_baseline", "float", _over_baseline("server_task_ms")),
])


def normalize_to_baseline(
    rows: Sequence[RunAggregate], baseline_id: str
) -> list[NormalizedRow]:
    """Each row's latency, bytes read and server CPU over the baseline row's, in input
    order: the one place that resolves the baseline and divides by it.

    Every row's server task clock, mean latency and bytes read must be positive, since
    the ratios, capacity and cost divide by them and the plots take their logarithm; a
    row with one that is not, NaN included, is a :class:`SchemaError`.
    """
    base = resolve_id(rows, baseline_id)
    for row in rows:
        for value, what in ((row.server_task_ms, "server task clock {} ms"),
                            (row.mean_ms, "mean latency {} ms"),
                            (row.bytes_read, "bytes read {}")):
            if not value > 0:
                raise SchemaError(f"{row.scenario_id}: {what.format(value)} is not positive")
    return [_normalized_row(row, base) for row in rows]


# --- placement summary ------------------------------------------------------


PLACEMENT_CLASSES = tuple(f.name for f in fields(PlacementClass))


# A placement class's context is its name, its scenarios' rows (``members``) and their
# baseline ratios.
def _members(stat, attr: str):
    return lambda class_name, members, ratios: stat([getattr(m, attr) for m in members])


def _ratios(stat, attr: str):
    return lambda class_name, members, ratios: stat([getattr(n, attr) for n in ratios])


# Per-class statistics of latency, task clocks and the baseline ratios.
PlacementSummaryRow, _placement_summary_row = _row_table("PlacementSummaryRow", [
    ("placement_class", "str", lambda class_name, members, ratios: class_name),
    ("n_scenarios", "int", lambda class_name, members, ratios: len(members)),
    ("mean_elapsed_ms", "float", _members(fmean, "mean_ms")),
    ("median_elapsed_ms", "float", _members(median, "mean_ms")),
    ("min_elapsed_ms", "float", _members(min, "mean_ms")),
    ("max_elapsed_ms", "float", _members(max, "mean_ms")),
    ("mean_latency_vs_baseline", "float", _ratios(fmean, "latency_relative_to_baseline")),
    ("median_latency_vs_baseline", "float", _ratios(median, "latency_relative_to_baseline")),
    ("mean_bytes_vs_baseline", "float", _ratios(fmean, "bytes_read_relative_to_baseline")),
    ("mean_server_cpu_vs_baseline", "float", _ratios(fmean, "server_cpu_relative_to_baseline")),
    ("mean_server_over_elapsed", "float", _members(fmean, "server_over_elapsed")),
    ("mean_client_over_elapsed", "float", _members(fmean, "client_over_elapsed")),
])


def placement_summary(
    rows: Sequence[RunAggregate], normalized: Sequence[NormalizedRow]
) -> list[PlacementSummaryRow]:
    """Per-class statistics of ``rows`` and their baseline ratios (``normalized[i]`` is
    ``rows[i]``'s); a scenario contributes to every class it flags."""
    out = []
    for class_name in PLACEMENT_CLASSES:
        pairs = [(m, n) for m, n in zip(rows, normalized) if getattr(m.placement_class, class_name)]
        if pairs:
            out.append(_placement_summary_row(class_name, *zip(*pairs)))
    return out


# --- campaign A, depth and KEX pairs --------------------------------------------


def _resolved_pairs(
    rows: Sequence[RunAggregate], pair_map, warn: Callable[[str], None], describe
) -> Iterator[tuple]:
    """``(labels, first, second)`` per map entry ``(*labels, first_id, second_id)``
    whose members both resolve; a pair with a missing member is warned about and skipped."""
    for *labels, first_id, second_id in pair_map:
        try:
            yield labels, resolve_id(rows, first_id), resolve_id(rows, second_id)
        except KeyError:
            warn(f"{describe(*labels)} skipped: missing member")


# A pair column's value is a function of the pair's labels and its first and second member;
# a ratio is the second's value over the first's and a delta the second's minus the first's.
def _first(attr: str):
    return lambda labels, first, second: getattr(first, attr)


def _second(attr: str):
    return lambda labels, first, second: getattr(second, attr)


def _ratio(attr: str):
    return lambda labels, first, second: ratio(getattr(second, attr), getattr(first, attr))


def _delta(attr: str):
    return lambda labels, first, second: getattr(second, attr) - getattr(first, attr)


def _label(index: int):
    return lambda labels, first, second: labels[index]


def _pair_table(name: str, pair_map, columns, describe):
    """The row type that :func:`_row_table` makes of ``columns``, and the table function
    ``(rows, warn=…)`` that fills one row per pair of ``pair_map`` whose members both
    resolve, each field from ``value(labels, first, second)``."""
    row_type, make = _row_table(name, columns)

    def table(rows: Sequence[RunAggregate], warn: Callable[[str], None] = lambda _m: None) -> list:
        """One row per pair of the map whose members both resolve; ``warn`` gets one line
        per pair skipped."""
        return [make(*pair) for pair in _resolved_pairs(rows, pair_map, warn, describe)]

    return row_type, table


CAMPAIGN_A_PAIR_MAP = [
    ("x25519", "x25519__leaf_mldsa65", "x25519__leaf_slhdsashake192s"),
    ("x25519mlkem768", "x25519mlkem768__leaf_mldsa65", "x25519mlkem768__leaf_slhdsashake192s"),
]

# SLH/ML ratios for the leaf-only contrast, per KEX mode.
LeafPairRow, campaign_a_pairs = _pair_table("LeafPairRow", CAMPAIGN_A_PAIR_MAP, [
    ("kex_mode", "str", _first("kex_mode")),
    ("tls_group", "str", _label(0)),
    ("ml_elapsed_ms", "float", _first("mean_ms")),
    ("slh_elapsed_ms", "float", _second("mean_ms")),
    ("latency_ratio", "float", _ratio("mean_ms")),
    ("ml_bytes_read", "float", _first("bytes_read")),
    ("slh_bytes_read", "float", _second("bytes_read")),
    ("bytes_read_ratio", "float", _ratio("bytes_read")),
    ("ml_server_task_ms", "float", _first("server_task_ms")),
    ("slh_server_task_ms", "float", _second("server_task_ms")),
    ("server_taskclock_ratio", "float", _ratio("server_task_ms")),
    ("ml_client_task_ms", "float", _first("client_task_ms")),
    ("slh_client_task_ms", "float", _second("client_task_ms")),
    ("client_taskclock_ratio", "float", _ratio("client_task_ms")),
], lambda group: f"campaign A pair {group!r}")


DEPTH_PAIR_MAP = [
    ("ML/ML", "x25519mlkem768__ml_root__ml_leaf", "x25519mlkem768__ml_root__ml_int__ml_leaf"),
    (
        "SLH root + ML leaf",
        "x25519mlkem768__slh_root__ml_leaf",
        "x25519mlkem768__slh_root__ml_int__ml_leaf",
    ),
    (
        "ML root + SLH leaf (ML intermediate)",
        "x25519mlkem768__ml_root__slh_leaf",
        "x25519mlkem768__ml_root__ml_int__slh_leaf",
    ),
    (
        "ML root + SLH leaf (SLH intermediate)",
        "x25519mlkem768__ml_root__slh_leaf",
        "x25519mlkem768__ml_root__slh_int__slh_leaf",
    ),
    (
        "SLH/SLH (ML intermediate)",
        "x25519mlkem768__slh_root__slh_leaf",
        "x25519mlkem768__slh_root__ml_int__slh_leaf",
    ),
    (
        "SLH/SLH (SLH intermediate)",
        "x25519mlkem768__slh_root__slh_leaf",
        "x25519mlkem768__slh_root__slh_int__slh_leaf",
    ),
]

# Depth-2 vs depth-3 contrasts over the fixed comparable-family map.
DepthPairRow, depth_pairs = _pair_table("DepthPairRow", DEPTH_PAIR_MAP, [
    ("pair_label", "str", _label(0)),
    ("depth2_id", "str", _first("scenario_id")),
    ("depth3_id", "str", _second("scenario_id")),
    ("depth2_elapsed_ms", "float", _first("mean_ms")),
    ("depth3_elapsed_ms", "float", _second("mean_ms")),
    ("delta_elapsed_ms", "float", _delta("mean_ms")),
    ("latency_ratio", "float", _ratio("mean_ms")),
    ("delta_bytes_read", "float", _delta("bytes_read")),
    ("delta_chain_bytes_unique", "int", _delta("chain_bytes_unique")),
    ("delta_server_task_ms", "float", _delta("server_task_ms")),
    ("server_taskclock_ratio", "float", _ratio("server_task_ms")),
], lambda label: f"depth pair {label!r}")


KEX_PAIR_MAP = [
    (
        "classical_vs_hybrid",
        "ML root / ML leaf (depth 2)",
        "x25519__leaf_mldsa65",
        "x25519mlkem768__leaf_mldsa65",
    ),
    (
        "classical_vs_hybrid",
        "SLH root / SLH leaf (depth 2)",
        "x25519__leaf_slhdsashake192s",
        "x25519mlkem768__leaf_slhdsashake192s",
    ),
    (
        "hybrid_vs_pure_pqc",
        "ML root / ML leaf (depth 2)",
        "x25519mlkem768__ml_root__ml_leaf",
        "mlkem768__ml_root__ml_leaf",
    ),
    (
        "hybrid_vs_pure_pqc",
        "SLH root / ML int / ML leaf (depth 3)",
        "x25519mlkem768__slh_root__ml_int__ml_leaf",
        "mlkem768__slh_root__ml_int__ml_leaf",
    ),
    (
        "hybrid_vs_pure_pqc",
        "SLH root / SLH leaf (depth 2)",
        "x25519mlkem768__slh_root__slh_leaf",
        "mlkem768__slh_root__slh_leaf",
    ),
]

# Classical->hybrid and hybrid->pure contrasts on comparable chains.
KexPairRow, kex_pairs = _pair_table("KexPairRow", KEX_PAIR_MAP, [
    ("comparison_type", "str", _label(0)),
    ("family_label", "str", _label(1)),
    ("from_kex_mode", "str", _first("kex_mode")),
    ("to_kex_mode", "str", _second("kex_mode")),
    ("leaf_family", "str", lambda labels, first, second: first.placement.leaf.value),
    ("depth", "int", _first("depth")),
    ("elapsed_mean_from_ms", "float", _first("mean_ms")),
    ("elapsed_mean_to_ms", "float", _second("mean_ms")),
    ("latency_ratio_to_over_from", "float", _ratio("mean_ms")),
    ("bytes_read_from", "float", _first("bytes_read")),
    ("bytes_read_to", "float", _second("bytes_read")),
    ("bytes_read_ratio_to_over_from", "float", _ratio("bytes_read")),
    ("server_task_from_ms", "float", _first("server_task_ms")),
    ("server_task_to_ms", "float", _second("server_task_ms")),
    ("server_task_ratio_to_over_from", "float", _ratio("server_task_ms")),
], lambda comparison, label: f"kex pair {label!r} ({comparison})")


# --- correlations ------------------------------------------------------------


CORRELATION_METRICS = ("bytes_read", "chain_bytes_unique")


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-pass mean-centered Pearson correlation.

    The centered values are rescaled by their largest magnitude before the
    products; this leaves the result unchanged algebraically but keeps the
    sums out of under/overflow territory for extreme inputs.  Sums use
    ``math.fsum``, so they are correctly rounded.
    """
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need at least 3 paired observations")
    mx = math.fsum(x) / len(x)
    my = math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sx = max(map(abs, dx))
    sy = max(map(abs, dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("degenerate variance")
    dx = [v / sx for v in dx]
    dy = [v / sy for v in dy]
    denom = math.sqrt(math.fsum(v * v for v in dx) * math.fsum(v * v for v in dy))
    if denom == 0.0:
        raise ValueError("degenerate variance")
    return math.fsum(a * b for a, b in zip(dx, dy)) / denom


def average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties averaged."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson on average-ranked data."""
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class CorrelationRow:
    subset: str
    n_scenarios: int
    metric: str
    pearson_r: float
    spearman_rho: float


def correlation_table(rows: Sequence[RunAggregate]) -> list[CorrelationRow]:
    """Each transport metric against mean latency, over all rows and either side of an
    SLH-DSA leaf."""
    subsets = {
        "all_scenarios": list(rows),
        "non_leaf_slh": [r for r in rows if not r.placement_class.leaf_slh],
        "leaf_slh_only": [r for r in rows if r.placement_class.leaf_slh],
    }
    out = []
    for subset, members in subsets.items():
        ys = [r.mean_ms for r in members]
        for metric in CORRELATION_METRICS:
            xs = [float(getattr(r, metric)) for r in members]
            out.append(CorrelationRow(subset, len(members), metric, pearson(xs, ys), spearman(xs, ys)))
    return out


# --- counterexamples -----------------------------------------------------------


# A counterexample is a pair whose first member has more transported bytes and the lower
# latency; its labels are its rank, the metric and both members' metric values.
CounterexampleRow, _counterexample_row = _row_table("CounterexampleRow", [
    ("rank", "int", _label(0)),
    ("transport_metric", "str", _label(1)),
    ("scenario_more_bytes_lower_latency", "str", _first("scenario_id")),
    ("scenario_less_bytes_higher_latency", "str", _second("scenario_id")),
    ("more_bytes_value", "float", _label(2)),
    ("less_bytes_value", "float", _label(3)),
    ("bytes_diff", "float", lambda labels, first, second: labels[2] - labels[3]),
    ("lower_latency_ms", "float", _first("mean_ms")),
    ("higher_latency_ms", "float", _second("mean_ms")),
    ("latency_ratio_higher_over_lower", "float", _ratio("mean_ms")),
])


def counterexamples(
    rows: Sequence[RunAggregate],
    metric: str = "bytes_read",
    top_k: int = 5,
    min_latency_ratio: float = 2.0,
) -> list[CounterexampleRow]:
    """Ordered pairs where more transported bytes coincide with lower latency,
    ranked by the byte gap.

    ``min_latency_ratio`` keeps only pairs whose fewer-bytes member is
    materially slower; without it, jitter-level inversions inside one
    latency regime would dominate the ranking by sheer byte volume.
    """
    found = []
    for a in rows:
        for b in rows:
            ma, mb = float(getattr(a, metric)), float(getattr(b, metric))
            if ma > mb and a.mean_ms < b.mean_ms and b.mean_ms >= min_latency_ratio * a.mean_ms:
                found.append((a, b, ma, mb))
    found.sort(key=lambda item: (-(item[2] - item[3]), item[0].scenario_id, item[1].scenario_id))
    return [_counterexample_row((rank, metric, ma, mb), a, b)
            for rank, (a, b, ma, mb) in enumerate(found[:top_k], start=1)]


# --- regimes -------------------------------------------------------------------


class RegimeLabel(enum.Enum):
    BALANCED = "balanced"
    CLIENT_SKEWED = "client_skewed"
    OVERWHELMINGLY_SERVER_BOUND = "overwhelmingly_server_bound"


def regime_label(row: RunAggregate, cfg: AnalysisConfig = AnalysisConfig()) -> RegimeLabel:
    if row.srv_cli_ratio > cfg.regime_server_bound_ratio:
        return RegimeLabel.OVERWHELMINGLY_SERVER_BOUND
    if row.srv_cli_ratio < cfg.regime_client_skewed_ratio:
        return RegimeLabel.CLIENT_SKEWED
    return RegimeLabel.BALANCED


# Per-scenario latency and task clocks with the regime label, from the row and the config.
DecompositionRow, _decomposition_row = _row_table("DecompositionRow", [
    ("scenario_id", "str", _row("scenario_id")),
    ("elapsed_mean_ms", "float", _row("mean_ms")),
    ("client_task_clock_per_run_ms", "float", _row("client_task_ms")),
    ("server_task_clock_per_run_ms", "float", _row("server_task_ms")),
    ("client_taskclock_over_elapsed", "float", _row("client_over_elapsed")),
    ("server_taskclock_over_elapsed", "float", _row("server_over_elapsed")),
    ("server_client_taskclock_ratio", "float", _row("srv_cli_ratio")),
    ("qualitative_perf_regime", "str", lambda row, cfg: regime_label(row, cfg).value),
])


def decomposition_table(
    rows: Sequence[RunAggregate], cfg: AnalysisConfig = AnalysisConfig()
) -> list[DecompositionRow]:
    return [_decomposition_row(row, cfg) for row in sorted(rows, key=lambda r: r.scenario_id)]


# --- capacity model -------------------------------------------------------------


# Server capacity, from the row and its baseline ratios: serving the baseline's load takes
# ``server CPU / baseline server CPU`` times the cores.
CapacityRow, _capacity_row = _row_table("CapacityRow", [
    ("scenario_id", "str", _row("scenario_id")),
    ("kex_mode", "str", _row("kex_mode")),
    ("depth", "int", _row("depth")),
    ("handshakes_per_core_second", "float", lambda row, norm: 1000.0 / row.server_task_ms),
    ("handshakes_per_vcpu_hour", "float", lambda row, norm: 1000.0 / row.server_task_ms * 3600.0),
    ("capacity_retained_vs_baseline", "float",
     lambda row, norm: 1.0 / norm.server_cpu_relative_to_baseline),
    ("infrastructure_multiplier_needed", "float", _derived("server_cpu_relative_to_baseline")),
    ("conceptual_perf_group", "str", lambda row, norm: conceptual_perf_group(row.placement)),
])


# --- economic model --------------------------------------------------------------


def _cpu_hours_per_million(row, capacity, cfg):
    return row.server_task_ms / 1000.0 * 1e6 / 3600.0


def _cost_per_million(row, capacity, cfg):
    return _cpu_hours_per_million(row, capacity, cfg) * cfg.price_per_cpu_hour


def _extra_cost_per_million(row, capacity, cfg):
    cost = _cost_per_million(row, capacity, cfg)
    return cost - cost / capacity.infrastructure_multiplier_needed  # less the baseline's cost


# Cost per million handshakes, from the row, its capacity row and the config; the
# infrastructure multiplier is also the cost over the baseline's cost.
EconomicRow, _economic_row = _row_table("EconomicRow", [
    ("scenario_id", "str", _row("scenario_id")),
    ("conceptual_economic_class", "str", _derived("conceptual_perf_group")),
    ("server_cpu_seconds_per_handshake", "float", lambda row, *_: row.server_task_ms / 1000.0),
    ("handshakes_per_cpu_second", "float", _derived("handshakes_per_core_second")),
    ("handshakes_per_cpu_hour", "float", _derived("handshakes_per_vcpu_hour")),
    ("capacity_retained_vs_baseline", "float", _derived("capacity_retained_vs_baseline")),
    ("capacity_loss_pct", "float",
     lambda row, capacity, cfg: (1.0 - capacity.capacity_retained_vs_baseline) * 100.0),
    ("infrastructure_multiplier_needed", "float", _derived("infrastructure_multiplier_needed")),
    ("cpu_hours_per_million", "float", _cpu_hours_per_million),
    ("cost_per_million", "float", _cost_per_million),
    ("extra_cost_per_million", "float", _extra_cost_per_million),
    ("cost_multiplier_vs_baseline", "float", _derived("infrastructure_multiplier_needed")),
])


def economic_model(
    rows: Sequence[RunAggregate], capacity_rows: Sequence[CapacityRow], cfg: AnalysisConfig
) -> list[EconomicRow]:
    """Cost per million handshakes of ``rows``, cheapest first, from their capacity rows
    (``capacity_rows[i]`` is ``rows[i]``'s)."""
    return sorted((_economic_row(row, capacity, cfg) for row, capacity in zip(rows, capacity_rows)),
                  key=lambda r: r.cost_per_million)


# A service class's context is its name, the economic class, and the daily and extra daily
# costs of the economic class's scenarios; a month is 30 days and a year 365.
def _daily(stat, days: float = 1.0):
    return lambda service_class, group, daily, extra: days * stat(daily)


def _extra(stat, days: float = 1.0):
    return lambda service_class, group, daily, extra: days * stat(extra)


# Mean and median cost per day, month and year of each (service class, economic class).
ServiceClassRow, _service_class_row = _row_table("ServiceClassRow", [
    ("service_class", "str", lambda service_class, group, daily, extra: service_class),
    ("conceptual_economic_class", "str", lambda service_class, group, daily, extra: group),
    ("scenarios", "int", lambda service_class, group, daily, extra: len(daily)),
    ("mean_daily_cost", "float", _daily(fmean)),
    ("median_daily_cost", "float", _daily(median)),
    ("mean_extra_daily_cost", "float", _extra(fmean)),
    ("median_extra_daily_cost", "float", _extra(median)),
    ("mean_monthly_cost", "float", _daily(fmean, 30.0)),
    ("median_monthly_cost", "float", _daily(median, 30.0)),
    ("mean_extra_monthly_cost", "float", _extra(fmean, 30.0)),
    ("median_extra_monthly_cost", "float", _extra(median, 30.0)),
    ("mean_annual_cost", "float", _daily(fmean, 365.0)),
    ("mean_extra_annual_cost", "float", _extra(fmean, 365.0)),
])


def service_class_table(
    economic_rows: Sequence[EconomicRow], cfg: AnalysisConfig
) -> list[ServiceClassRow]:
    """Daily/monthly/annual translation per (service class, economic class).

    Monthly is 30 daily units, annual 365; an economic-class aggregate is
    the mean/median over its member scenarios' per-scenario costs.
    """
    out = []
    groups = sorted({r.conceptual_economic_class for r in economic_rows})
    for service_class, per_day in sorted(cfg.service_classes.items()):
        millions = per_day / 1e6
        for group in groups:
            members = [r for r in economic_rows if r.conceptual_economic_class == group]
            daily = [r.cost_per_million * millions for r in members]
            extra = [r.extra_cost_per_million * millions for r in members]
            out.append(_service_class_row(service_class, group, daily, extra))
    return out


# --- plausibility ------------------------------------------------------------------


class PlausibilityLabel(enum.Enum):
    REASONABLE = ("Reasonable", 1)
    PENALIZED_BUT_PLAUSIBLE = ("Penalized but plausible", 2)
    OPERATIONALLY_PROBLEMATIC = ("Operationally problematic", 3)
    UNSUITABLE = ("Unsuitable for interactive TLS front-end", 4)

    @property
    def display(self) -> str:
        return self.value[0]

    @property
    def rank(self) -> int:
        return self.value[1]


def plausibility_label(
    latency_relative: float, cfg: AnalysisConfig = AnalysisConfig()
) -> PlausibilityLabel:
    if latency_relative <= cfg.plausibility_reasonable_max:
        return PlausibilityLabel.REASONABLE
    if latency_relative <= cfg.plausibility_penalized_max:
        return PlausibilityLabel.PENALIZED_BUT_PLAUSIBLE
    if latency_relative <= cfg.plausibility_problematic_max:
        return PlausibilityLabel.OPERATIONALLY_PROBLEMATIC
    return PlausibilityLabel.UNSUITABLE


# A scenario's plausibility, from the row, its baseline ratios and its label.
PlausibilityRow, _plausibility_row = _row_table("PlausibilityRow", [
    ("plausibility_rank", "int", lambda row, norm, label: label.rank),
    ("scenario_id", "str", _derived("scenario_id")),
    ("hierarchy_family_label", "str", lambda row, *_: hierarchy_label(row.placement)),
    ("slh_position_class", "str", _derived("slh_position_class")),
    ("elapsed_mean_ms", "float", _row("mean_ms")),
    ("server_task_clock_per_run_ms", "float", _row("server_task_ms")),
    ("latency_relative_to_baseline", "float", _derived("latency_relative_to_baseline")),
    ("operational_plausibility", "str", lambda row, norm, label: label.display),
])


def plausibility_rank(
    rows: Sequence[RunAggregate],
    normalized: Sequence[NormalizedRow],
    cfg: AnalysisConfig = AnalysisConfig(),
) -> list[PlausibilityRow]:
    """Scenarios ordered by latency multiplier (``normalized[i]`` is ``rows[i]``'s); the
    rank is the label's severity index (scenarios sharing a label share its rank)."""
    ordered = sorted(zip(rows, normalized), key=lambda pair: pair[1].latency_relative_to_baseline)
    return [_plausibility_row(row, norm, plausibility_label(norm.latency_relative_to_baseline, cfg))
            for row, norm in ordered]


# --- report writing ------------------------------------------------------------------


def compute_tables(
    rows: Sequence[RunAggregate],
    cfg: AnalysisConfig,
    warn: Callable[[str], None] = lambda _m: None,
) -> dict[str, list]:
    """Every reproduced table by name: the baseline ratios and the capacity rows are
    derived once, here, and each table reads them."""
    normalized = normalize_to_baseline(rows, cfg.baseline_id)
    capacity = list(map(_capacity_row, rows, normalized))
    economics = economic_model(rows, capacity, cfg)
    # the strategy matrix is campaign B, or every row of an input without it
    pairs = list(zip(rows, normalized))
    matrix = [(r, n) for r, n in pairs if r.campaign == "B"] or pairs
    matrix_rows, strategy_matrix = [r for r, _ in matrix], [n for _, n in matrix]
    try:
        correlations = correlation_table(rows)
    except ValueError as exc:  # partial inputs legitimately lack some subsets
        warn(f"correlations skipped: {exc}")
        correlations = []
    return {
        "campaignA_pairs": campaign_a_pairs(rows, warn),
        "strategy_matrix": strategy_matrix,
        "placement_summary": placement_summary(rows, normalized),
        "depth_pairs": depth_pairs(rows, warn),
        "kex_pairs": kex_pairs(rows, warn),
        "correlations": correlations,
        "counterexamples": [
            row
            for metric in CORRELATION_METRICS
            for row in counterexamples(
                rows, metric, cfg.counterexample_top_k, cfg.counterexample_min_latency_ratio
            )
        ],
        "decomposition": decomposition_table(rows, cfg),
        "capacity": sorted(capacity, key=lambda r: -r.handshakes_per_core_second),
        "economics": economics,
        "service_classes": service_class_table(economics, cfg),
        "plausibility": plausibility_rank(matrix_rows, strategy_matrix, cfg),
    }


def run_all(
    rows: Sequence[RunAggregate],
    out_dir: Path | str,
    cfg: AnalysisConfig,
    warn: Callable[[str], None] = lambda _m: None,
) -> dict[str, list]:
    """Compute every table and write one CSV per table; return the tables.  Nothing is
    written, not even ``out_dir``, when a table cannot be made."""
    results = compute_tables(rows, cfg, warn)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in results.items():
        write_rows(table, out_dir / f"{name}.csv")
    return results
