"""The paper's checkable claims over master-summary rows, each stated once.

``LIVE`` holds the separations and directions that a campaign over the
matrix must show on any host; ``FIXTURE`` every published figure of the
reference tables, each with its own tolerance.  ``pqchainlab reproduce``
prints every check, and acceptance criteria 1-6 assert them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .analytics import campaign_a_pairs, compute_tables, counterexamples
from .config import BASELINE_ID, AnalysisConfig
from .scenario import resolve_id

ALL_ML_D3 = "x25519mlkem768__ml_root__ml_int__ml_leaf"
SLH_ROOT_D2 = "x25519mlkem768__slh_root__ml_leaf"
SLH_ROOT_D3 = "x25519mlkem768__slh_root__ml_int__ml_leaf"


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def evaluate(claims, rows, tables=None) -> list[Check]:
    """Every check of ``claims``: claim functions of the rows, or published figures read
    from ``tables``, by default those :func:`compute_tables` makes of the rows under the
    default configuration.  A claim or figure they cannot support is one failed check."""
    checks = []
    for claim in claims:
        try:
            if isinstance(claim, Figure):
                tables = tables or compute_tables(rows, AnalysisConfig())
                checks.append(claim.check(tables))
            else:
                checks += claim(rows)
        except (KeyError, ValueError) as exc:
            name = claim.name if isinstance(claim, Figure) else claim.__name__.replace("_", " ")
            checks.append(Check(name, False, str(exc.args[0])))
    return checks


def _campaign_a(rows) -> dict:
    pairs = {p.tls_group: p for p in campaign_a_pairs(rows)}
    if len(pairs) != 2:
        raise KeyError(f"{len(pairs)} campaign-A pairs, expected 2")
    return pairs


def regime_separation(rows) -> list[Check]:
    """An SLH-DSA leaf is at least 100x slower than an ML-DSA leaf, per KEX mode."""
    return [
        Check("regime separation", p.latency_ratio >= 100,
              f"{group} SLH/ML latency ratio {p.latency_ratio:.1f} (gate >= 100)")
        for group, p in _campaign_a(rows).items()
    ]


def server_bound_decomposition(rows) -> list[Check]:
    """An SLH-DSA leaf makes the handshake server-bound; all-ML ones stay balanced."""
    checks, n_slh, n_ml = [], 0, 0
    for r in rows:
        flags = r.placement_class
        if flags.leaf_slh:
            n_slh += 1
            checks.append(Check(
                "server-bound", r.server_over_elapsed >= 0.9 and r.srv_cli_ratio >= 10,
                f"{r.scenario_id} srv/elapsed {r.server_over_elapsed:.3f}, "
                f"srv/cli {r.srv_cli_ratio:.1f} (gate >= 0.9, >= 10)"))
        elif flags.all_ml:
            n_ml += 1
            checks.append(Check(
                "balanced", 0.5 <= r.srv_cli_ratio <= 2.0,
                f"{r.scenario_id} srv/cli {r.srv_cli_ratio:.3f} (gate [0.5, 2.0])"))
    return checks + [Check("decomposition coverage", n_slh == 9 and n_ml == 5,
                           f"{n_slh} SLH-leaf, {n_ml} all-ML scenarios (expected 9, 5)")]


def upper_layer_bound(rows) -> list[Check]:
    """An SLH-DSA root above ML-DSA layers costs at most 20x the all-ML latency."""
    ratio = resolve_id(rows, SLH_ROOT_D3).mean_ms / resolve_id(rows, ALL_ML_D3).mean_ms
    detail = f"{SLH_ROOT_D3} at {ratio:.2f}x the all-ML latency (gate <= 20)"
    return [Check("upper-layer bound", ratio <= 20, detail)]


def effective_exposure(rows) -> list[Check]:
    """Mirrored serving sends two certificates: at depth 3 an ML-DSA intermediate takes the
    SLH-DSA root's place, so the handshake reads fewer bytes and runs faster.  The detail
    also prints both rows' client and server task clocks, which show the side that wins."""
    d2, d3 = resolve_id(rows, SLH_ROOT_D2), resolve_id(rows, SLH_ROOT_D3)
    return [
        Check("effective exposure direction",
              d3.bytes_read < d2.bytes_read and d3.mean_ms < d2.mean_ms,
              f"depth 3 reads {d3.bytes_read:.0f} < {d2.bytes_read:.0f} bytes "
              f"at {d3.mean_ms / d2.mean_ms:.3f}x the depth-2 latency; task clocks: "
              f"d2 client {d2.client_task_ms:.2f} / server {d2.server_task_ms:.2f} ms, "
              f"d3 client {d3.client_task_ms:.2f} / server {d3.server_task_ms:.2f} ms"),
        Check("mirrored chain exposure", all(r.chain_len_unique == 2 for r in rows),
              "chain_len_unique == 2 for all scenarios"),
    ]


def transport_crypto_dissociation(rows) -> list[Check]:
    """Some scenario reads more bytes than another yet is at least 50x faster."""
    found = counterexamples(rows, "bytes_read", top_k=1, min_latency_ratio=50.0)
    detail = "no pair with ratio >= 50"
    if found:
        top = found[0]
        detail = (f"{top.scenario_more_bytes_lower_latency} reads {top.bytes_diff:.0f} more bytes "
                  f"yet is {top.latency_ratio_higher_over_lower:.0f}x faster than "
                  f"{top.scenario_less_bytes_higher_latency} (gate >= 50)")
    return [Check("transport/crypto dissociation", bool(found), detail)]


LIVE = (regime_separation, server_bound_decomposition, upper_layer_bound, effective_exposure,
        transport_crypto_dissociation)


# --- published figures of the reference tables -------------------------------

# The key that names a row of each table that :func:`compute_tables` returns.
ROW_KEYS = {
    **dict.fromkeys(["strategy_matrix", "decomposition", "capacity", "economics", "plausibility"],
                    attrgetter("scenario_id")),
    "campaignA_pairs": attrgetter("tls_group"),
    "placement_summary": attrgetter("placement_class"),
    "depth_pairs": attrgetter("pair_label"),
    "kex_pairs": attrgetter("comparison_type", "family_label"),
    "correlations": attrgetter("subset", "metric"),
    "counterexamples": attrgetter("transport_metric", "rank"),
    "service_classes": attrgetter("service_class", "conceptual_economic_class"),
}


class Figure(NamedTuple):
    """One published cell: ``value`` in ``column`` of the ``table`` row keyed ``row``.

    A label or a whole number must be reproduced exactly; a float within
    ``tolerance``, relative to the value or, if ``absolute``, in its units.
    """

    table: str
    row: object
    column: str
    value: object
    tolerance: float = 0.005
    absolute: bool = False
    label: str = ""

    @property
    def name(self) -> str:
        key = ", ".join(map(str, self.row)) if isinstance(self.row, tuple) else self.row
        return self.label or f"{self.table}[{key}].{self.column}"

    def admits(self, got) -> bool:
        if not isinstance(self.value, float):
            return got == self.value
        return abs(got - self.value) <= self.tolerance * (1.0 if self.absolute else abs(self.value))

    def check(self, tables: dict) -> Check:
        """This figure against ``tables``; raises KeyError when its row is absent."""
        rows = {ROW_KEYS[self.table](r): r for r in tables[self.table]}
        if self.row not in rows:
            raise KeyError(f"no {self.table} row {self.row!r}")
        got = getattr(rows[self.row], self.column)
        bound = ("exact" if not isinstance(self.value, float) else
                 f"±{self.tolerance:g}" if self.absolute else f"±{self.tolerance * 100:g}%")
        shown = f"{got:.6g}" if isinstance(got, float) else got
        return Check(self.name, self.admits(got), f"{shown} vs published {self.value} ({bound})")


def _table(table: str, rows: dict, tolerance: float = 0.005, absolute: bool = False) -> list:
    """The figures ``{row key: {column: published value}}`` of one table."""
    return [Figure(table, key, column, value, tolerance, absolute)
            for key, cells in rows.items() for column, value in cells.items()]


_ML_PAIR, _SLH_PAIR = "ML root / ML leaf (depth 2)", "SLH root / SLH leaf (depth 2)"
_SLH_ROOT_PAIR = "SLH root / ML int / ML leaf (depth 3)"
_SLH_LEAF_D3 = [f"x25519mlkem768__{chain}__slh_leaf" for chain in
                ("ml_root__ml_int", "ml_root__slh_int", "slh_root__ml_int", "slh_root__slh_int")]

FIXTURE = (
    Figure("campaignA_pairs", "x25519", "latency_ratio", 2127.865,
           label="campaign A classical ratio"),
    Figure("campaignA_pairs", "x25519mlkem768", "latency_ratio", 1682.137,
           label="campaign A hybrid ratio"),
    *_table("campaignA_pairs", {
        "x25519": dict(bytes_read_ratio=3.347, server_taskclock_ratio=2765.628,
                       client_taskclock_ratio=6.107),
        "x25519mlkem768": dict(bytes_read_ratio=3.187, server_taskclock_ratio=2265.961,
                               client_taskclock_ratio=5.303),
    }),
    *_table("strategy_matrix", {
        SLH_ROOT_D3: dict(latency_relative_to_baseline=2.64, bytes_read_relative_to_baseline=1.81),
        _SLH_LEAF_D3[0]: dict(latency_relative_to_baseline=1733.49,
                              server_cpu_relative_to_baseline=2493.64),
        _SLH_LEAF_D3[3]: dict(latency_relative_to_baseline=1741.18),
    }),
    *_table("placement_summary", {
        "all_ml": dict(n_scenarios=5, mean_elapsed_ms=0.763, mean_server_over_elapsed=0.744),
        "root_slh_leaf_not_slh": dict(n_scenarios=3, mean_elapsed_ms=2.464,
                                      mean_latency_vs_baseline=3.046),
        "intermediate_slh_any": dict(n_scenarios=2, mean_elapsed_ms=1407.253),
        "leaf_slh": dict(n_scenarios=9, mean_elapsed_ms=1413.171, median_elapsed_ms=1406.283,
                         mean_server_cpu_vs_baseline=2510.849),
    }),
    Figure("placement_summary", "leaf_slh", "mean_client_over_elapsed", 0.002, 0.15),
    *_table("depth_pairs", {
        "SLH root + ML leaf": dict(latency_ratio=0.6318, delta_bytes_read=-11015.0,
                                   delta_chain_bytes_unique=-10993, server_taskclock_ratio=0.3485),
        "ML/ML": dict(latency_ratio=0.9997, delta_bytes_read=16.0),
        "SLH/SLH (ML intermediate)": dict(latency_ratio=0.9968),
        "SLH/SLH (SLH intermediate)": dict(latency_ratio=1.0007),
    }),
    *_table("kex_pairs", {
        ("classical_vs_hybrid", _ML_PAIR): dict(latency_ratio_to_over_from=1.2210,
                                                bytes_read_ratio_to_over_from=1.0730),
        ("classical_vs_hybrid", _SLH_PAIR): dict(latency_ratio_to_over_from=0.9652),
        ("hybrid_vs_pure_pqc", _ML_PAIR): dict(latency_ratio_to_over_from=0.8220),
        ("hybrid_vs_pure_pqc", _SLH_PAIR): dict(latency_ratio_to_over_from=0.9984),
        ("hybrid_vs_pure_pqc", _SLH_ROOT_PAIR): dict(latency_ratio_to_over_from=0.8833,
                                                     server_task_ratio_to_over_from=0.7903),
    }),
    *_table("correlations", {
        (subset, "bytes_read"): dict(n_scenarios=n, pearson_r=r, spearman_rho=rho)
        for subset, n, r, rho in [("all_scenarios", 17, 0.7493, 0.8503),
                                  ("non_leaf_slh", 8, 0.9937, 0.8982),
                                  ("leaf_slh_only", 9, 0.3518, 0.5523)]
    }, 0.002, absolute=True),
    # the chain-size column mixes published and reconstructed cells
    *_table("correlations", {
        ("all_scenarios", "chain_bytes_unique"): dict(pearson_r=0.3943, spearman_rho=0.5227),
        ("non_leaf_slh", "chain_bytes_unique"): dict(pearson_r=0.9933),
    }, 0.005, absolute=True),
    *_table("counterexamples", {
        ("bytes_read", 1): dict(
            scenario_more_bytes_lower_latency=SLH_ROOT_D2,
            scenario_less_bytes_higher_latency="x25519mlkem768__ml_root__slh_leaf",
            more_bytes_value=39962, less_bytes_value=26999,
            latency_ratio_higher_over_lower=416.5316),
        ("chain_bytes_unique", 1): dict(more_bytes_value=35047, less_bytes_value=9214,
                                        bytes_diff=25833),
    }),
    *_table("decomposition", {
        sid: dict(qualitative_perf_regime=regime) for regime, ids in {
            "balanced": ["x25519__leaf_mldsa65", "x25519mlkem768__leaf_mldsa65", ALL_ML_D3,
                         "x25519mlkem768__ml_root__ml_leaf", SLH_ROOT_D2,
                         "mlkem768__ml_root__ml_leaf"],
            "client_skewed": [SLH_ROOT_D3, "mlkem768__slh_root__ml_int__ml_leaf"],
            "overwhelmingly_server_bound": [
                "x25519__leaf_slhdsashake192s", "x25519mlkem768__leaf_slhdsashake192s",
                *_SLH_LEAF_D3,
                "x25519mlkem768__ml_root__slh_leaf", "x25519mlkem768__slh_root__slh_leaf",
                "mlkem768__slh_root__slh_leaf"],
        }.items() for sid in ids
    }),
    *_table("capacity", {
        BASELINE_ID: dict(handshakes_per_core_second=1779.68, handshakes_per_vcpu_hour=6406856.76),
        "mlkem768__ml_root__ml_leaf": dict(capacity_retained_vs_baseline=1.0906,
                                           infrastructure_multiplier_needed=0.9169),
    }, 0.001),
    *_table("economics", {
        BASELINE_ID: dict(cpu_hours_per_million=0.1561, cost_per_million=0.006243),
        "x25519__leaf_slhdsashake192s": dict(cost_per_million=16.2476,
                                             cost_multiplier_vs_baseline=2602.40),
    }),
    Figure("economics", SLH_ROOT_D3, "cost_per_million", 0.0074, 0.01),
    *_table("service_classes", {
        ("high_volume_frontend", "all_ml"): dict(mean_monthly_cost=18.87),
        ("medium_api", "leaf_slh"): dict(median_monthly_cost=4683.01),
        ("high_volume_frontend", "leaf_slh"): dict(
            median_monthly_cost=46830.11, mean_monthly_cost=47028.03, mean_annual_cost=572174.36),
        ("small_internal", "leaf_slh"): dict(median_extra_monthly_cost=46.8114),
    }, 0.001),
    *_table("plausibility", {
        BASELINE_ID: dict(plausibility_rank=1, operational_plausibility="Reasonable"),
        SLH_ROOT_D3: dict(plausibility_rank=2, operational_plausibility="Penalized but plausible"),
        **dict.fromkeys(_SLH_LEAF_D3, dict(
            plausibility_rank=4,
            operational_plausibility="Unsuitable for interactive TLS front-end")),
    }),
)
