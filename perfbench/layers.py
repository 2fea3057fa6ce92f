"""Per-layer metrics of a traced benchmark run.

Every metric here is derived from the spans that ``tracing.Tracer``
records around the public functions of one pqchainlab layer.  Span
names are ``<module>.<function>`` or ``<module>.<Class>.<method>``:

* ``<name>.ms`` is the median duration of one call, over every traced
  call in the run (set-up included);
* ``<name>.per_op`` counts the calls in the timed part of the run per
  operation, where an operation is one handshake (warm-up handshakes
  included) or one provisioning;
* ``handshake.*`` decomposes each traced handshake on the shared clock
  (see ``handshake_rows``).

A layer that a workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import length, overlap, subtract

# Tolerance of the phase-sum gate: per scenario, the client's traced
# window (client compute + server compute seen while the client waits +
# transport/other) must match the mean elapsed time that
# ``bench.run_scenario`` measures on its own clock to within this share.
# The remainder is the TCP connect and the harness's clock reads, which
# lie outside the client span.
PHASE_GAP_TOLERANCE = 0.10

# (metric, unit, better)
PER_LAYER = [
    ("slhdsa.keygen_from_seed.ms", "ms", "lower"),
    ("slhdsa.keygen_from_seed.per_op", "1/op", "lower"),
    ("slhdsa.sign.ms", "ms", "lower"),
    ("slhdsa.sign.per_op", "1/op", "lower"),
    ("slhdsa.verify.ms", "ms", "lower"),
    ("slhdsa.verify.per_op", "1/op", "lower"),
    ("mldsa.keygen_from_seed.ms", "ms", "lower"),
    ("mldsa.sign_deterministic.ms", "ms", "lower"),
    ("mldsa.sign_deterministic.per_op", "1/op", "lower"),
    ("mldsa.keygens_per_det_sign", "ratio", "lower"),
    ("backend.client_share.ms", "ms", "lower"),
    ("backend.server_respond_kex.ms", "ms", "lower"),
    ("backend.client_complete_kex.ms", "ms", "lower"),
    ("backend.Signer.sign.ms", "ms", "lower"),
    ("backend.verify.ms.ml", "ms", "lower"),
    ("backend.verify.ms.slh", "ms", "lower"),
    ("backend.generate_keypair.ms.ml", "ms", "lower"),
    ("pki.decode_certificate.ms", "ms", "lower"),
    ("pki.decode_certificate.per_op", "1/op", "lower"),
    ("pki.issue_certificate.ms.ml", "ms", "lower"),
    ("pki.issue_certificate.ms.slh", "ms", "lower"),
    ("pki.verify_certificate.per_op", "1/op", "lower"),
    ("pki.validate_chain.ms", "ms", "lower"),
    ("pki.build_hierarchy.ms", "ms", "lower"),
    ("pki.write_hierarchy.ms", "ms", "lower"),
    ("pki.load_hierarchy.ms", "ms", "lower"),
    ("handshake.client_handshake.self_ms", "ms", "lower"),
    ("handshake.server_handshake.self_ms", "ms", "lower"),
    ("handshake.Conn.recv_msg.ms", "ms", "lower"),
    ("handshake.encode_certificate_msg.ms", "ms", "lower"),
    ("handshake.decode_certificate_msg.ms", "ms", "lower"),
    ("handshake.client_ms", "ms", "lower"),
    ("handshake.server_ms", "ms", "lower"),
    ("handshake.overlap_ms", "ms", "lower"),
    ("handshake.transport_other_ms", "ms", "lower"),
    ("handshake.cv_sign_share", "share", "lower"),
    ("handshake.phase_gap_share", "share", "lower"),
    ("handshake.bytes_read", "B", "lower"),
    ("handshake.bytes_written", "B", "lower"),
    ("bench.overhead_ms_per_handshake", "ms", "lower"),
    ("bench.client_cpu_ms", "ms", "lower"),
    ("bench.server_cpu_ms", "ms", "lower"),
    ("provision.worker_busy_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

NAME, TAG, T0, T1, SELF, PID, CTX, CONN = range(8)


def _median_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def handshake_rows(spans: list[list], main_pid: int, elapsed: dict) -> list[dict]:
    """One row per traced handshake, with its phases in ms.

    ``elapsed`` maps ``(ctx, conn)`` to the elapsed time that
    ``bench.run_scenario`` measured for that connection; warm-up
    connections are absent from it and get no row.

    On the shared clock the client span is split into the client
    computing (``client_ms``) and the client waiting in
    ``Conn.recv_msg``.  The server computes during its span minus its own
    ``Conn.recv_msg`` waits; the part of that which falls inside the
    client's waits is ``server_ms``, the part that runs while the client
    also computes is ``overlap_ms``, and the rest of the client's waits is
    ``transport_other_ms``.  So ``client_ms + server_ms +
    transport_other_ms`` is the client span, and it is compared with the
    elapsed time measured outside.
    """
    client: dict = {}
    server: dict = {}
    client_waits = defaultdict(list)
    server_waits = defaultdict(list)
    signs = defaultdict(int)
    for s in spans:
        if s[CONN] < 0 or not s[CTX].startswith("timed|"):
            continue
        key = (s[CTX], s[CONN])
        name = s[NAME]
        is_client = s[PID] == main_pid
        if name == "handshake.client_handshake":
            client[key] = s
        elif name == "handshake.server_handshake" and not is_client:
            server[key] = s
        elif name == "handshake.Conn.recv_msg":
            (client_waits if is_client else server_waits)[key].append((s[T0], s[T1]))
        elif name == "backend.Signer.sign" and not is_client:
            signs[key] += s[T1] - s[T0]

    rows = []
    for key, c in client.items():
        if key not in elapsed:
            continue
        window = (c[T0], c[T1])
        waits = sorted(client_waits[key])
        wait_ns = length(waits)
        row = {
            "scenario": key[0].split("|")[1],
            "elapsed_ms": elapsed[key],
            "client_span_ms": (c[T1] - c[T0]) / 1e6,
            "client_ms": (c[T1] - c[T0] - wait_ns) / 1e6,
            "client_self_ms": c[SELF] / 1e6,
            "recv_wait_ms": wait_ns / 1e6,
            "matched": key in server,
        }
        s = server.get(key)
        if s is not None:
            computing = subtract((s[T0], s[T1]), server_waits[key])
            seen = overlap(computing, waits)
            row.update(
                server_ms=seen / 1e6,
                overlap_ms=overlap(computing, subtract(window, waits)) / 1e6,
                transport_other_ms=(wait_ns - seen) / 1e6,
                server_self_ms=s[SELF] / 1e6,
                server_span_ms=(s[T1] - s[T0]) / 1e6,
                cv_sign_ms=signs[key] / 1e6,
            )
        rows.append(row)
    return rows


def phase_gate(rows: list[dict]) -> list[dict]:
    """Per scenario: mean elapsed against the mean sum of the traced phases."""
    by_scenario = defaultdict(list)
    for row in rows:
        by_scenario[row["scenario"]].append(row)
    out = []
    for sid, group in sorted(by_scenario.items()):
        matched = [r for r in group if r["matched"]]
        elapsed = mean([r["elapsed_ms"] for r in group])
        phases = mean(
            [r["client_ms"] + r["server_ms"] + r["transport_other_ms"] for r in matched]
        )
        gap = (elapsed - phases) / elapsed if elapsed else 1.0
        sign = sum(r["cv_sign_ms"] for r in matched)
        span = sum(r["server_span_ms"] for r in matched)
        out.append(
            {
                "scenario": sid,
                "handshakes": len(group),
                "unmatched": len(group) - len(matched),
                "elapsed_ms": elapsed,
                "client_ms": mean([r["client_ms"] for r in matched]),
                "server_ms": mean([r["server_ms"] for r in matched]),
                "overlap_ms": mean([r["overlap_ms"] for r in matched]),
                "transport_other_ms": mean([r["transport_other_ms"] for r in matched]),
                "gap_share": gap,
                "cv_sign_share": sign / span if span else 0.0,
                "ok": len(matched) == len(group) and abs(gap) <= PHASE_GAP_TOLERANCE,
            }
        )
    return out


def span_metrics(
    spans: list[list],
    main_pid: int,
    elapsed: dict,
    ops: int,
    provisionings: list[tuple[str, float]],
    jobs: int,
) -> tuple[dict, list[dict]]:
    """Per-layer metrics that come from spans, and the per-scenario gate rows.

    ``ops`` is the number of operations in the traced timed part;
    ``provisionings`` lists ``(ctx, wall_s)`` of every traced
    ``pqchainlab provision`` call, set-up included.
    """
    durations = defaultdict(list)
    timed_calls = defaultdict(int)
    for s in spans:
        durations[s[NAME]].append(s[T1] - s[T0])
        durations[f"{s[NAME]}.{s[TAG]}"].append(s[T1] - s[T0])
        if s[CTX].startswith("timed|"):
            timed_calls[s[NAME]] += 1

    def per_op(name: str) -> float:
        return timed_calls[name] / ops if ops else 0.0

    m = {
        "slhdsa.keygen_from_seed.ms": _median_ms(durations["slhdsa.keygen_from_seed"]),
        "slhdsa.keygen_from_seed.per_op": per_op("slhdsa.keygen_from_seed"),
        "slhdsa.sign.ms": _median_ms(durations["slhdsa.sign"]),
        "slhdsa.sign.per_op": per_op("slhdsa.sign"),
        "slhdsa.verify.ms": _median_ms(durations["slhdsa.verify"]),
        "slhdsa.verify.per_op": per_op("slhdsa.verify"),
        "mldsa.keygen_from_seed.ms": _median_ms(durations["mldsa.keygen_from_seed"]),
        "mldsa.sign_deterministic.ms": _median_ms(durations["mldsa.sign_deterministic"]),
        "mldsa.sign_deterministic.per_op": per_op("mldsa.sign_deterministic"),
        "mldsa.keygens_per_det_sign": (
            len(durations["mldsa.keygen_from_seed"]) / len(durations["mldsa.sign_deterministic"])
            if durations["mldsa.sign_deterministic"]
            else 0.0
        ),
        "backend.client_share.ms": _median_ms(durations["backend.client_share"]),
        "backend.server_respond_kex.ms": _median_ms(durations["backend.server_respond_kex"]),
        "backend.client_complete_kex.ms": _median_ms(durations["backend.client_complete_kex"]),
        "backend.Signer.sign.ms": _median_ms(durations["backend.Signer.sign"]),
        "backend.verify.ms.ml": _median_ms(durations["backend.verify.ml"]),
        "backend.verify.ms.slh": _median_ms(durations["backend.verify.slh"]),
        "backend.generate_keypair.ms.ml": _median_ms(durations["backend.generate_keypair.ml"]),
        "pki.decode_certificate.ms": _median_ms(durations["pki.decode_certificate"]),
        "pki.decode_certificate.per_op": per_op("pki.decode_certificate"),
        "pki.issue_certificate.ms.ml": _median_ms(durations["pki.issue_certificate.ml"]),
        "pki.issue_certificate.ms.slh": _median_ms(durations["pki.issue_certificate.slh"]),
        "pki.verify_certificate.per_op": per_op("pki.verify_certificate"),
        "pki.validate_chain.ms": _median_ms(durations["pki.validate_chain"]),
        "pki.build_hierarchy.ms": _median_ms(durations["pki.build_hierarchy"]),
        "pki.write_hierarchy.ms": _median_ms(durations["pki.write_hierarchy"]),
        "pki.load_hierarchy.ms": _median_ms(durations["pki.load_hierarchy"]),
        "handshake.encode_certificate_msg.ms": _median_ms(
            durations["handshake.encode_certificate_msg"]
        ),
        "handshake.decode_certificate_msg.ms": _median_ms(
            durations["handshake.decode_certificate_msg"]
        ),
    }

    rows = handshake_rows(spans, main_pid, elapsed)
    gate = phase_gate(rows)
    matched = [r for r in rows if r["matched"]]
    sign = sum(r["cv_sign_ms"] for r in matched)
    span = sum(r["server_span_ms"] for r in matched)
    m.update(
        {
            "handshake.client_handshake.self_ms": mean([r["client_self_ms"] for r in rows]),
            "handshake.server_handshake.self_ms": mean([r["server_self_ms"] for r in matched]),
            "handshake.Conn.recv_msg.ms": mean([r["recv_wait_ms"] for r in rows]),
            "handshake.client_ms": mean([r["client_ms"] for r in matched]),
            "handshake.server_ms": mean([r["server_ms"] for r in matched]),
            "handshake.overlap_ms": mean([r["overlap_ms"] for r in matched]),
            "handshake.transport_other_ms": mean([r["transport_other_ms"] for r in matched]),
            "handshake.cv_sign_share": sign / span if span else 0.0,
            "handshake.phase_gap_share": max((abs(g["gap_share"]) for g in gate), default=0.0),
        }
    )

    ctxs = {ctx for ctx, _ in provisionings}
    busy_ns = sum(
        s[T1] - s[T0]
        for s in spans
        if s[NAME] == "pki.build_hierarchy" and s[CTX] in ctxs
    )
    wall_s = sum(w for _, w in provisionings)
    m["provision.worker_busy_share"] = busy_ns / 1e9 / (wall_s * jobs) if wall_s else 0.0
    return m, gate
