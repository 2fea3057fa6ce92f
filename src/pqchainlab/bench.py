"""Measurement campaigns: fresh-connection runs, CPU capture, aggregation.

The runner forks one server process per scenario so that client and
server CPU attribution never share an interpreter; the forked server is
handed the material its parent has loaded.  Each run opens a fresh TCP
connection; the client clock starts before ``connect`` and stops after
ClientFinished is written.  The server reports per-connection thread CPU
time as line-delimited JSON over a socket pair.  Exactly one handshake
is in flight at any moment.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import handshake as hs
from . import pki
from .scenario import Placement, PlacementClass, Scenario, classify_placement, parse_scenario_id

class ScenarioFailed(Exception):
    """A handshake failed mid-campaign; the scenario's data is discarded."""


LOOPBACK = "127.0.0.1"  # every campaign's client and server share one host


@functools.cache
def thread_clock_tick_ms() -> float:
    """Measured granularity of the thread CPU clock.

    Some kernels account thread CPU time in scheduler ticks (10ms here),
    so a sub-tick handshake reads 0 or one full tick.  Per-run CPU values
    are therefore quantized; means over a campaign remain unbiased.  The
    sample sanity check ``cpu <= elapsed * 1.05 + tick`` uses this value.
    """
    increments = set()
    prev = time.thread_time_ns()
    deadline = time.perf_counter_ns() + 30_000_000
    while time.perf_counter_ns() < deadline and len(increments) < 4:
        cur = time.thread_time_ns()
        if cur != prev:
            increments.add(cur - prev)
            prev = cur
    finest = min(increments) if increments else 0
    return finest / 1e6 if finest >= 1_000_000 else 0.0


def host_cpu_ticks() -> Optional[tuple[int, int]]:
    """(steal, total) clock ticks of all the host's CPUs, from ``/proc/stat``; None elsewhere."""
    try:
        with open("/proc/stat") as f:
            # cpu user nice system idle iowait irq softirq steal (guest time is in user)
            ticks = [int(t) for t in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else None


def steal_share(
    before: Optional[tuple[int, int]], after: Optional[tuple[int, int]]
) -> Optional[float]:
    """Share of the host's CPU time that the hypervisor stole between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def check_sample_sanity(sample: "HandshakeSample") -> None:
    """Sequential design: client CPU cannot exceed wall time (plus clock tick)."""
    allowance = sample.elapsed_ms * 1.05 + thread_clock_tick_ms()
    if sample.client_cpu_ms > allowance:
        raise ScenarioFailed(
            f"client CPU {sample.client_cpu_ms:.3f}ms exceeds elapsed "
            f"{sample.elapsed_ms:.3f}ms beyond clock tolerance"
        )


@dataclass(frozen=True)
class HandshakeSample:
    run_index: int
    elapsed_ms: float
    bytes_read: int
    bytes_written: int
    chain_len_unique: int
    chain_bytes_unique: int
    served_chain_der_bytes: int
    client_cpu_ms: float
    server_cpu_ms: float


@dataclass(frozen=True)
class RunAggregate:
    scenario_id: str
    kex_mode: str
    depth: int
    campaign: str
    n_runs: int
    mean_ms: float
    p95_ms: float
    bytes_read: float
    bytes_written: float
    chain_len_unique: int
    chain_bytes_unique: int
    served_chain_der_bytes: int
    client_task_ms: float
    server_task_ms: float
    client_over_elapsed: float
    server_over_elapsed: float
    srv_cli_ratio: float

    # Read from the id, like Scenario's; properties, so not CSV columns.
    @property
    def placement(self) -> Placement:
        return parse_scenario_id(self.scenario_id)[1]

    @property
    def placement_class(self) -> PlacementClass:
        return classify_placement(self.placement)


CSV_COLUMNS = [f.name for f in fields(RunAggregate)]


# Default counts; _runs_for picks RUNS_FAST or RUNS_HEAVY per scenario.
RUNS_FAST = 10000
RUNS_HEAVY = 300
DEFAULT_WARMUP = 20


@dataclass
class BenchConfig:
    runs: Optional[int] = None  # None: the default that _runs_for picks
    runs_heavy: Optional[int] = None  # separate override for SLH-leaf scenarios
    warmup: int = DEFAULT_WARMUP
    policy: pki.ServedChainPolicy = pki.ServedChainPolicy.MIRROR
    now: int = pki.DEFAULT_NOW


def _runs_for(scenario: Scenario, cfg: BenchConfig) -> tuple[str, int]:
    """The run count of ``scenario`` and the ``BenchConfig`` field that sets it.

    The leaf family decides: an SLH-DSA leaf takes ``runs_heavy``, else
    ``runs``, else RUNS_HEAVY; any other leaf ``runs``, else RUNS_FAST.
    """
    if scenario.placement_class.leaf_slh:
        return "runs_heavy", next(n for n in (cfg.runs_heavy, cfg.runs, RUNS_HEAVY) if n is not None)
    return "runs", RUNS_FAST if cfg.runs is None else cfg.runs


def percentile_nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: sorted ascending, index ceil(q*n) - 1."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil
    return ordered[int(rank) - 1]


def ratio(num: float, den: float) -> float:
    """``num / den``, where a zero ``den`` gives ``inf``, or 0.0 when ``num`` is 0 too."""
    if den:
        return num / den
    return float("inf") if num else 0.0


def aggregate(scenario: Scenario, samples: list[HandshakeSample]) -> RunAggregate:
    """Collapse per-run samples into one master-summary row."""
    if not samples:
        raise ValueError("cannot aggregate zero samples")
    n = len(samples)
    elapsed = [s.elapsed_ms for s in samples]
    mean_ms = sum(elapsed) / n
    client_ms = sum(s.client_cpu_ms for s in samples) / n
    server_ms = sum(s.server_cpu_ms for s in samples) / n
    chain_lens = {s.chain_len_unique for s in samples}
    chain_bytes = {s.chain_bytes_unique for s in samples}
    der_bytes = {s.served_chain_der_bytes for s in samples}
    if len(chain_lens) != 1 or len(chain_bytes) != 1 or len(der_bytes) != 1:
        raise ScenarioFailed(f"{scenario.display_id}: chain observations varied across runs")
    return RunAggregate(
        scenario_id=scenario.display_id,
        kex_mode=scenario.kex.name.lower(),
        depth=scenario.depth,
        campaign=scenario.campaign,
        n_runs=n,
        mean_ms=mean_ms,
        p95_ms=percentile_nearest_rank(elapsed, 0.95),
        bytes_read=sum(s.bytes_read for s in samples) / n,
        bytes_written=sum(s.bytes_written for s in samples) / n,
        chain_len_unique=chain_lens.pop(),
        chain_bytes_unique=chain_bytes.pop(),
        served_chain_der_bytes=der_bytes.pop(),
        client_task_ms=client_ms,
        server_task_ms=server_ms,
        client_over_elapsed=client_ms / mean_ms if mean_ms else 0.0,
        server_over_elapsed=server_ms / mean_ms if mean_ms else 0.0,
        # a client below the CPU clock's tick for the whole campaign reads 0:
        # the decomposition is then server-everything
        srv_cli_ratio=ratio(server_ms, client_ms),
    )


def fork_call(fn, *args) -> int:
    """Run ``fn(*args)`` in a forked child and return its pid.

    The child exits through ``os._exit`` with ``fn``'s result (None is
    0), or with 1 after printing the traceback of what ``fn`` raised.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = fn(*args) or 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    return pid


def run_scenario(
    scenario: Scenario, pki_dir: Path | str, cfg: Optional[BenchConfig] = None
) -> list[HandshakeSample]:
    """Execute one scenario's campaign and return post-warmup samples."""
    import socket

    cfg = cfg or BenchConfig()
    total = _runs_for(scenario, cfg)[1] + cfg.warmup
    scenario_dir = Path(pki_dir) / scenario.display_id
    if not (scenario_dir / "leaf.cert").exists():
        raise ScenarioFailed(f"{scenario.display_id}: not provisioned under {pki_dir}")
    hierarchy = pki.load_hierarchy(scenario_dir)
    trust = pki.client_trust_store(hierarchy, cfg.policy)
    material = hs.ServerMaterial.from_hierarchy(hierarchy, scenario.kex, cfg.policy)

    listener = socket.create_server((LOOPBACK, 0), backlog=8)
    port = listener.getsockname()[1]
    control, server_end = socket.socketpair()
    server = fork_call(hs.run_server, listener, material, server_end, total)
    listener.close()
    server_end.close()

    samples: list[HandshakeSample] = []
    try:
        control.settimeout(hs.CONNECTION_TIMEOUT_S)
        with control, control.makefile("r") as ctrl_file:
            for i in range(total):
                t0 = time.perf_counter_ns()
                cpu0 = time.thread_time_ns()
                try:
                    sock = socket.create_connection(
                        (LOOPBACK, port), timeout=hs.CONNECTION_TIMEOUT_S
                    )
                    with sock:
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        result = hs.client_handshake(sock, scenario.kex, trust, now=cfg.now)
                        client_cpu_ms = (time.thread_time_ns() - cpu0) / 1e6
                        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
                except (hs.HandshakeError, OSError) as exc:
                    raise ScenarioFailed(
                        f"{scenario.display_id}: run {i} failed: {exc}"
                    ) from exc
                line = ctrl_file.readline()
                if not line:
                    raise ScenarioFailed(f"{scenario.display_id}: control channel closed early")
                record = json.loads(line)
                if "error" in record:
                    raise ScenarioFailed(
                        f"{scenario.display_id}: server-side failure: {record['error']}"
                    )
                if record["connection_index"] != i:
                    raise ScenarioFailed(
                        f"{scenario.display_id}: connection ordering violated "
                        f"({record['connection_index']} != {i})"
                    )
                if i < cfg.warmup:
                    continue
                sample = HandshakeSample(
                    run_index=i - cfg.warmup,
                    elapsed_ms=elapsed_ms,
                    bytes_read=result.bytes_read,
                    bytes_written=result.bytes_written,
                    chain_len_unique=result.observation.chain_len_unique,
                    chain_bytes_unique=result.observation.chain_bytes_unique,
                    served_chain_der_bytes=result.observation.served_chain_der_bytes,
                    client_cpu_ms=client_cpu_ms,
                    server_cpu_ms=record["server_cpu_ms"],
                )
                check_sample_sanity(sample)
                samples.append(sample)
    finally:
        os.kill(server, signal.SIGTERM)
        os.waitpid(server, 0)
    return samples


def run_campaign(
    scenarios: Sequence[Scenario], pki_dir: Path | str, cfg: BenchConfig,
    out_dir: Path | str | None = None, progress=None,
) -> tuple[dict[str, RunAggregate], dict[str, list[HandshakeSample]], Optional[float]]:
    """Run and aggregate each scenario in order: the one measurement loop.

    Returns the unrounded aggregates and the samples by scenario id, and the
    host's steal share over the sweep.  With ``out_dir``, writes each
    ``<id>.jsonl`` as its scenario ends and ``master_summary.csv`` at the
    end.  ``progress(aggregate, seconds)`` is called after each scenario.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    aggregates, samples = {}, {}
    ticks = host_cpu_ticks()
    for scenario in scenarios:
        sid, t0 = scenario.display_id, time.perf_counter()
        samples[sid] = run_scenario(scenario, pki_dir, cfg)
        aggregates[sid] = aggregate(scenario, samples[sid])
        if out_dir is not None:
            write_samples(samples[sid], out_dir / f"{sid}.jsonl")
        if progress is not None:
            progress(aggregates[sid], time.perf_counter() - t0)
    if out_dir is not None:
        write_rows(list(aggregates.values()), out_dir / "master_summary.csv")
    return aggregates, samples, steal_share(ticks, host_cpu_ticks())


# --- result files --------------------------------------------------------


def write_samples(samples: list[HandshakeSample], path: Path | str) -> None:
    Path(path).write_text("".join(json.dumps(asdict(s)) + "\n" for s in samples))


def read_samples(path: Path | str) -> list[HandshakeSample]:
    with open(path) as f:
        return [HandshakeSample(**json.loads(line)) for line in f]


def write_rows(rows: Sequence, path: Path | str) -> None:
    """CSV for a homogeneous dataclass row list (4-decimal floats): master summary, analytics."""
    if not rows:
        Path(path).write_text("")
        return
    cols = [f.name for f in fields(rows[0])]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            value = getattr(row, col)
            if isinstance(value, float):
                cells.append(f"{value:.4f}")
            else:
                text = str(value)
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


class SchemaError(Exception):
    """Input rows do not fit the master-summary schema: a column is missing, a cell
    does not read, or a value is one that analysis cannot use (a server task clock,
    mean latency or bytes read that is not positive)."""


def read_master_summary(path: Path | str) -> list[RunAggregate]:
    """The rows of a master-summary CSV; an empty file, a missing column or an
    unreadable cell, a malformed scenario id included, is a :class:`SchemaError`."""
    import csv

    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty input")
        missing = sorted(set(CSV_COLUMNS) - set(reader.fieldnames))
        if missing:
            raise SchemaError(f"{path}: missing columns {', '.join(missing)}")
        rows = []
        try:
            for record in reader:
                kwargs = {}
                for field in fields(RunAggregate):
                    raw = record[field.name]
                    if field.type == "int":
                        kwargs[field.name] = int(float(raw))
                    elif field.type == "float":
                        kwargs[field.name] = float(raw)
                    else:
                        kwargs[field.name] = raw
                parse_scenario_id(kwargs["scenario_id"] or "")  # as the placement properties do
                rows.append(RunAggregate(**kwargs))
        except (TypeError, ValueError) as exc:  # a short row's cells read None
            raise SchemaError(f"{path}: {exc}") from exc
    return rows
