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
import statistics
from dataclasses import dataclass, fields
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


# --- normalization -------------------------------------------------------


@dataclass(frozen=True)
class NormalizedRow:
    scenario_id: str
    slh_position_class: str
    latency_relative_to_baseline: float
    bytes_read_relative_to_baseline: float
    server_cpu_relative_to_baseline: float


def slh_position_class(placement: Placement) -> str:
    positions = [
        "intermediate" if name == "int" else name
        for name, family in placement.positions()
        if family is SigFamily.SLH_DSA_SHAKE_192S
    ]
    return "_and_".join(positions) if positions else "no_slh"


def hierarchy_label(placement: Placement) -> str:
    return " / ".join(f"{family.token.upper()} {name}" for name, family in placement.positions())


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
    return [
        NormalizedRow(
            scenario_id=row.scenario_id,
            slh_position_class=slh_position_class(row.placement),
            latency_relative_to_baseline=row.mean_ms / base.mean_ms,
            bytes_read_relative_to_baseline=row.bytes_read / base.bytes_read,
            server_cpu_relative_to_baseline=row.server_task_ms / base.server_task_ms,
        )
        for row in rows
    ]


# --- placement summary ------------------------------------------------------


PLACEMENT_CLASSES = tuple(f.name for f in fields(PlacementClass))


@dataclass(frozen=True)
class PlacementSummaryRow:
    placement_class: str
    n_scenarios: int
    mean_elapsed_ms: float
    median_elapsed_ms: float
    min_elapsed_ms: float
    max_elapsed_ms: float
    mean_latency_vs_baseline: float
    median_latency_vs_baseline: float
    mean_bytes_vs_baseline: float
    mean_server_cpu_vs_baseline: float
    mean_server_over_elapsed: float
    mean_client_over_elapsed: float


def placement_summary(
    rows: Sequence[RunAggregate], normalized: Sequence[NormalizedRow]
) -> list[PlacementSummaryRow]:
    """Per-class statistics of ``rows`` and their baseline ratios (``normalized[i]`` is
    ``rows[i]``'s); a scenario contributes to every class it flags."""
    out = []
    for class_name in PLACEMENT_CLASSES:
        pairs = [(m, n) for m, n in zip(rows, normalized) if getattr(m.placement_class, class_name)]
        if not pairs:
            continue
        members, ratios = zip(*pairs)
        elapsed = [m.mean_ms for m in members]
        out.append(
            PlacementSummaryRow(
                placement_class=class_name,
                n_scenarios=len(members),
                mean_elapsed_ms=statistics.fmean(elapsed),
                median_elapsed_ms=statistics.median(elapsed),
                min_elapsed_ms=min(elapsed),
                max_elapsed_ms=max(elapsed),
                mean_latency_vs_baseline=statistics.fmean(
                    n.latency_relative_to_baseline for n in ratios
                ),
                median_latency_vs_baseline=statistics.median(
                    n.latency_relative_to_baseline for n in ratios
                ),
                mean_bytes_vs_baseline=statistics.fmean(
                    n.bytes_read_relative_to_baseline for n in ratios
                ),
                mean_server_cpu_vs_baseline=statistics.fmean(
                    n.server_cpu_relative_to_baseline for n in ratios
                ),
                mean_server_over_elapsed=statistics.fmean(
                    m.server_over_elapsed for m in members
                ),
                mean_client_over_elapsed=statistics.fmean(
                    m.client_over_elapsed for m in members
                ),
            )
        )
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


CAMPAIGN_A_PAIR_MAP = [
    ("x25519", "x25519__leaf_mldsa65", "x25519__leaf_slhdsashake192s"),
    ("x25519mlkem768", "x25519mlkem768__leaf_mldsa65", "x25519mlkem768__leaf_slhdsashake192s"),
]


@dataclass(frozen=True)
class LeafPairRow:
    kex_mode: str
    tls_group: str
    ml_elapsed_ms: float
    slh_elapsed_ms: float
    latency_ratio: float
    ml_bytes_read: float
    slh_bytes_read: float
    bytes_read_ratio: float
    ml_server_task_ms: float
    slh_server_task_ms: float
    server_taskclock_ratio: float
    ml_client_task_ms: float
    slh_client_task_ms: float
    client_taskclock_ratio: float


def campaign_a_pairs(
    rows: Sequence[RunAggregate], warn: Callable[[str], None] = lambda _m: None
) -> list[LeafPairRow]:
    """SLH/ML ratios for the leaf-only contrast, per KEX mode."""
    pairs = _resolved_pairs(
        rows, CAMPAIGN_A_PAIR_MAP, warn, lambda group: f"campaign A pair {group!r}"
    )
    return [
        LeafPairRow(
            kex_mode=ml.kex_mode,
            tls_group=group,
            ml_elapsed_ms=ml.mean_ms,
            slh_elapsed_ms=slh.mean_ms,
            latency_ratio=ratio(slh.mean_ms, ml.mean_ms),
            ml_bytes_read=ml.bytes_read,
            slh_bytes_read=slh.bytes_read,
            bytes_read_ratio=ratio(slh.bytes_read, ml.bytes_read),
            ml_server_task_ms=ml.server_task_ms,
            slh_server_task_ms=slh.server_task_ms,
            server_taskclock_ratio=ratio(slh.server_task_ms, ml.server_task_ms),
            ml_client_task_ms=ml.client_task_ms,
            slh_client_task_ms=slh.client_task_ms,
            client_taskclock_ratio=ratio(slh.client_task_ms, ml.client_task_ms),
        )
        for (group,), ml, slh in pairs
    ]


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


@dataclass(frozen=True)
class DepthPairRow:
    pair_label: str
    depth2_id: str
    depth3_id: str
    depth2_elapsed_ms: float
    depth3_elapsed_ms: float
    delta_elapsed_ms: float
    latency_ratio: float
    delta_bytes_read: float
    delta_chain_bytes_unique: int
    delta_server_task_ms: float
    server_taskclock_ratio: float


def depth_pairs(
    rows: Sequence[RunAggregate], warn: Callable[[str], None] = lambda _m: None
) -> list[DepthPairRow]:
    """Depth-2 vs depth-3 contrasts over the fixed comparable-family map."""
    pairs = _resolved_pairs(rows, DEPTH_PAIR_MAP, warn, lambda label: f"depth pair {label!r}")
    return [
        DepthPairRow(
            pair_label=label,
            depth2_id=d2.scenario_id,
            depth3_id=d3.scenario_id,
            depth2_elapsed_ms=d2.mean_ms,
            depth3_elapsed_ms=d3.mean_ms,
            delta_elapsed_ms=d3.mean_ms - d2.mean_ms,
            latency_ratio=ratio(d3.mean_ms, d2.mean_ms),
            delta_bytes_read=d3.bytes_read - d2.bytes_read,
            delta_chain_bytes_unique=d3.chain_bytes_unique - d2.chain_bytes_unique,
            delta_server_task_ms=d3.server_task_ms - d2.server_task_ms,
            server_taskclock_ratio=ratio(d3.server_task_ms, d2.server_task_ms),
        )
        for (label,), d2, d3 in pairs
    ]


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


@dataclass(frozen=True)
class KexPairRow:
    comparison_type: str
    family_label: str
    from_kex_mode: str
    to_kex_mode: str
    leaf_family: str
    depth: int
    elapsed_mean_from_ms: float
    elapsed_mean_to_ms: float
    latency_ratio_to_over_from: float
    bytes_read_from: float
    bytes_read_to: float
    bytes_read_ratio_to_over_from: float
    server_task_from_ms: float
    server_task_to_ms: float
    server_task_ratio_to_over_from: float


def kex_pairs(
    rows: Sequence[RunAggregate], warn: Callable[[str], None] = lambda _m: None
) -> list[KexPairRow]:
    """Classical->hybrid and hybrid->pure contrasts on comparable chains."""
    pairs = _resolved_pairs(
        rows, KEX_PAIR_MAP, warn, lambda comparison, label: f"kex pair {label!r} ({comparison})"
    )
    return [
        KexPairRow(
            comparison_type=comparison,
            family_label=label,
            from_kex_mode=src.kex_mode,
            to_kex_mode=dst.kex_mode,
            leaf_family=src.placement.leaf.value,
            depth=src.depth,
            elapsed_mean_from_ms=src.mean_ms,
            elapsed_mean_to_ms=dst.mean_ms,
            latency_ratio_to_over_from=ratio(dst.mean_ms, src.mean_ms),
            bytes_read_from=src.bytes_read,
            bytes_read_to=dst.bytes_read,
            bytes_read_ratio_to_over_from=ratio(dst.bytes_read, src.bytes_read),
            server_task_from_ms=src.server_task_ms,
            server_task_to_ms=dst.server_task_ms,
            server_task_ratio_to_over_from=ratio(dst.server_task_ms, src.server_task_ms),
        )
        for (comparison, label), src, dst in pairs
    ]


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


@dataclass(frozen=True)
class CounterexampleRow:
    rank: int
    transport_metric: str
    scenario_more_bytes_lower_latency: str
    scenario_less_bytes_higher_latency: str
    more_bytes_value: float
    less_bytes_value: float
    bytes_diff: float
    lower_latency_ms: float
    higher_latency_ms: float
    latency_ratio_higher_over_lower: float


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
    out = []
    for rank, (a, b, ma, mb) in enumerate(found[:top_k], start=1):
        out.append(
            CounterexampleRow(
                rank=rank,
                transport_metric=metric,
                scenario_more_bytes_lower_latency=a.scenario_id,
                scenario_less_bytes_higher_latency=b.scenario_id,
                more_bytes_value=ma,
                less_bytes_value=mb,
                bytes_diff=ma - mb,
                lower_latency_ms=a.mean_ms,
                higher_latency_ms=b.mean_ms,
                latency_ratio_higher_over_lower=b.mean_ms / a.mean_ms,
            )
        )
    return out


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


@dataclass(frozen=True)
class DecompositionRow:
    scenario_id: str
    elapsed_mean_ms: float
    client_task_clock_per_run_ms: float
    server_task_clock_per_run_ms: float
    client_taskclock_over_elapsed: float
    server_taskclock_over_elapsed: float
    server_client_taskclock_ratio: float
    qualitative_perf_regime: str


def decomposition_table(
    rows: Sequence[RunAggregate], cfg: AnalysisConfig = AnalysisConfig()
) -> list[DecompositionRow]:
    return [
        DecompositionRow(
            scenario_id=row.scenario_id,
            elapsed_mean_ms=row.mean_ms,
            client_task_clock_per_run_ms=row.client_task_ms,
            server_task_clock_per_run_ms=row.server_task_ms,
            client_taskclock_over_elapsed=row.client_over_elapsed,
            server_taskclock_over_elapsed=row.server_over_elapsed,
            server_client_taskclock_ratio=row.srv_cli_ratio,
            qualitative_perf_regime=regime_label(row, cfg).value,
        )
        for row in sorted(rows, key=lambda r: r.scenario_id)
    ]


# --- capacity model -------------------------------------------------------------


@dataclass(frozen=True)
class CapacityRow:
    scenario_id: str
    kex_mode: str
    depth: int
    handshakes_per_core_second: float
    handshakes_per_vcpu_hour: float
    capacity_retained_vs_baseline: float
    infrastructure_multiplier_needed: float
    conceptual_perf_group: str


def _capacity_rows(
    rows: Sequence[RunAggregate], normalized: Sequence[NormalizedRow]
) -> list[CapacityRow]:
    """Server capacity of ``rows``, in input order, from their baseline ratios
    (``normalized[i]`` is ``rows[i]``'s); the capacity and economic tables share it.

    Serving the baseline's load takes ``server CPU / baseline server CPU`` times the cores.
    """
    out = []
    for row, norm in zip(rows, normalized):
        hps = 1000.0 / row.server_task_ms
        multiplier = norm.server_cpu_relative_to_baseline
        out.append(
            CapacityRow(
                scenario_id=row.scenario_id,
                kex_mode=row.kex_mode,
                depth=row.depth,
                handshakes_per_core_second=hps,
                handshakes_per_vcpu_hour=hps * 3600.0,
                capacity_retained_vs_baseline=1.0 / multiplier,
                infrastructure_multiplier_needed=multiplier,
                conceptual_perf_group=conceptual_perf_group(row.placement),
            )
        )
    return out


# --- economic model --------------------------------------------------------------


@dataclass(frozen=True)
class EconomicRow:
    scenario_id: str
    conceptual_economic_class: str
    server_cpu_seconds_per_handshake: float
    handshakes_per_cpu_second: float
    handshakes_per_cpu_hour: float
    capacity_retained_vs_baseline: float
    capacity_loss_pct: float
    infrastructure_multiplier_needed: float
    cpu_hours_per_million: float
    cost_per_million: float
    extra_cost_per_million: float
    cost_multiplier_vs_baseline: float


def economic_model(
    rows: Sequence[RunAggregate], capacity_rows: Sequence[CapacityRow], cfg: AnalysisConfig
) -> list[EconomicRow]:
    """Cost per million handshakes of ``rows``, cheapest first, from their capacity rows
    (``capacity_rows[i]`` is ``rows[i]``'s)."""
    out = []
    for row, capacity in zip(rows, capacity_rows):
        cpu_seconds = row.server_task_ms / 1000.0
        cpu_hours_per_million = cpu_seconds * 1e6 / 3600.0
        cost = cpu_hours_per_million * cfg.price_per_cpu_hour
        retained = capacity.capacity_retained_vs_baseline
        multiplier = capacity.infrastructure_multiplier_needed  # = cost / baseline's cost
        out.append(
            EconomicRow(
                scenario_id=row.scenario_id,
                conceptual_economic_class=capacity.conceptual_perf_group,
                server_cpu_seconds_per_handshake=cpu_seconds,
                handshakes_per_cpu_second=capacity.handshakes_per_core_second,
                handshakes_per_cpu_hour=capacity.handshakes_per_vcpu_hour,
                capacity_retained_vs_baseline=retained,
                capacity_loss_pct=(1.0 - retained) * 100.0,
                infrastructure_multiplier_needed=multiplier,
                cpu_hours_per_million=cpu_hours_per_million,
                cost_per_million=cost,
                extra_cost_per_million=cost - cost / multiplier,
                cost_multiplier_vs_baseline=multiplier,
            )
        )
    out.sort(key=lambda r: r.cost_per_million)
    return out


@dataclass(frozen=True)
class ServiceClassRow:
    service_class: str
    conceptual_economic_class: str
    scenarios: int
    mean_daily_cost: float
    median_daily_cost: float
    mean_extra_daily_cost: float
    median_extra_daily_cost: float
    mean_monthly_cost: float
    median_monthly_cost: float
    mean_extra_monthly_cost: float
    median_extra_monthly_cost: float
    mean_annual_cost: float
    mean_extra_annual_cost: float


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
            out.append(
                ServiceClassRow(
                    service_class=service_class,
                    conceptual_economic_class=group,
                    scenarios=len(members),
                    mean_daily_cost=statistics.fmean(daily),
                    median_daily_cost=statistics.median(daily),
                    mean_extra_daily_cost=statistics.fmean(extra),
                    median_extra_daily_cost=statistics.median(extra),
                    mean_monthly_cost=30.0 * statistics.fmean(daily),
                    median_monthly_cost=30.0 * statistics.median(daily),
                    mean_extra_monthly_cost=30.0 * statistics.fmean(extra),
                    median_extra_monthly_cost=30.0 * statistics.median(extra),
                    mean_annual_cost=365.0 * statistics.fmean(daily),
                    mean_extra_annual_cost=365.0 * statistics.fmean(extra),
                )
            )
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


@dataclass(frozen=True)
class PlausibilityRow:
    plausibility_rank: int
    scenario_id: str
    hierarchy_family_label: str
    slh_position_class: str
    elapsed_mean_ms: float
    server_task_clock_per_run_ms: float
    latency_relative_to_baseline: float
    operational_plausibility: str


def plausibility_rank(
    rows: Sequence[RunAggregate],
    normalized: Sequence[NormalizedRow],
    cfg: AnalysisConfig = AnalysisConfig(),
) -> list[PlausibilityRow]:
    """Scenarios ordered by latency multiplier (``normalized[i]`` is ``rows[i]``'s); the
    rank is the label's severity index (scenarios sharing a label share its rank)."""
    ordered = sorted(zip(rows, normalized), key=lambda pair: pair[1].latency_relative_to_baseline)
    out = []
    for row, norm in ordered:
        label = plausibility_label(norm.latency_relative_to_baseline, cfg)
        out.append(
            PlausibilityRow(
                plausibility_rank=label.rank,
                scenario_id=norm.scenario_id,
                hierarchy_family_label=hierarchy_label(row.placement),
                slh_position_class=norm.slh_position_class,
                elapsed_mean_ms=row.mean_ms,
                server_task_clock_per_run_ms=row.server_task_ms,
                latency_relative_to_baseline=norm.latency_relative_to_baseline,
                operational_plausibility=label.display,
            )
        )
    return out


# --- report writing ------------------------------------------------------------------


def compute_tables(
    rows: Sequence[RunAggregate],
    cfg: AnalysisConfig,
    warn: Callable[[str], None] = lambda _m: None,
) -> dict[str, list]:
    """Every reproduced table by name: the baseline ratios and the capacity rows are
    derived once, here, and each table reads them."""
    normalized = normalize_to_baseline(rows, cfg.baseline_id)
    capacity = _capacity_rows(rows, normalized)
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
