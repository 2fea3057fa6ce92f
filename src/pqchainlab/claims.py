"""The paper's checkable claims over master-summary rows, each stated once.

``LIVE`` holds the separations and directions that a campaign over the
matrix must show on any host; ``FIXTURE`` the published campaign-A ratios
of the reference table.  ``pqchainlab reproduce`` prints every check, and
acceptance criteria 1-6 assert them.
"""

from __future__ import annotations

from typing import NamedTuple

from .analytics import campaign_a_pairs, counterexamples
from .scenario import KexMode, resolve_id

PUBLISHED_CAMPAIGN_A = {"x25519": 2127.865, "x25519mlkem768": 1682.137}  # SLH/ML latency
PUBLISHED_TOLERANCE = 0.005

ALL_ML_D3 = "x25519mlkem768__ml_root__ml_int__ml_leaf"
SLH_ROOT_D2 = "x25519mlkem768__slh_root__ml_leaf"
SLH_ROOT_D3 = "x25519mlkem768__slh_root__ml_int__ml_leaf"


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def evaluate(claims, rows) -> list[Check]:
    """Every check of ``claims``; a claim whose rows are missing is one failed check."""
    checks = []
    for claim in claims:
        try:
            checks += claim(rows)
        except KeyError as exc:
            checks.append(Check(claim.__name__.replace("_", " "), False, exc.args[0]))
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
    SLH-DSA root's place, so the handshake reads fewer bytes and runs faster."""
    d2, d3 = resolve_id(rows, SLH_ROOT_D2), resolve_id(rows, SLH_ROOT_D3)
    return [
        Check("effective exposure direction",
              d3.bytes_read < d2.bytes_read and d3.mean_ms < d2.mean_ms,
              f"depth 3 reads {d3.bytes_read:.0f} < {d2.bytes_read:.0f} bytes "
              f"at {d3.mean_ms / d2.mean_ms:.3f}x the depth-2 latency"),
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


def published_campaign_a(rows) -> list[Check]:
    """The reference table reproduces the published campaign-A ratios."""
    pairs = _campaign_a(rows)
    return [
        Check(f"campaign A {KexMode(group).name.lower()} ratio",
              abs(pairs[group].latency_ratio - want) / want <= PUBLISHED_TOLERANCE,
              f"{pairs[group].latency_ratio:.3f} vs published {want}")
        for group, want in PUBLISHED_CAMPAIGN_A.items()
    ]


LIVE = (regime_separation, server_bound_decomposition, upper_layer_bound, effective_exposure,
        transport_crypto_dissociation)
FIXTURE = (published_campaign_a,)
