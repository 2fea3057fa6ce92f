"""Benchmark for pqchainlab: TLS-style handshakes and PKI provisioning.

Run from the root of a checkout (nothing is installed; the program is
imported from ``src/``):

    python3 perfbench/run.py --workload handshake-all-ml --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/RATIONALE.md`` for why each exists, and why
``BENCHMARK.json`` lists only ``handshake-all-ml`` and ``provision``):

* ``handshake-all-ml``, ``handshake-root-slh``, ``handshake-slh-leaf``:
  set-up provisions the workload's hierarchies with ``pqchainlab
  provision`` (``cli.main``); the timed part then calls
  ``bench.run_scenario`` (serving policy ``mirror``) over the workload's
  scenarios in rounds whose order the seed shuffles.  The load is a
  closed loop: one client, a fresh loopback TCP connection per
  handshake, exactly one handshake in flight, served by the one server
  process that ``run_scenario`` forks per call.
* ``provision``: the timed operation is ``pqchainlab provision`` of
  the seven inventory scenarios whose certificates are all issued by
  ML-DSA-65 keys (two of them have SLH-DSA leaf keys).

The seed sets the provisioning seed and the scenario order; the program
receives nothing else from the benchmark.  Every output is checked: the
sample count and exact wire byte counts of every handshake, and that
every provisioned hierarchy reloads, validates and hashes to the same
digest each time it is provisioned from the same seed.  An exception, a
failed check or a call over its time limit counts that call's
operations as failed and the workload carries on.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of ``layers.py``.  A traced run alternates untraced and traced
rounds, so that it can also report the tracing overhead.  Earlier lines
carry the manifest, sample counts and the phase-sum gate.  The exit
code is 0 only when every check passed.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"

# The whole run must end well inside 180 s.
HARD_LIMIT_S = 150.0

# Wire sizes fixed by the protocol (see the ``pqchainlab.handshake``
# docstring): a frame header is type(u8) || length(u32); hello randoms,
# ServerFinished and ClientFinished are 32 bytes; the group id is a u16.
FRAME_HEADER = 5
HELLO_RANDOM = 32
GROUP_ID = 2
FINISHED_MAC = 32

# The provision workload provisions each seed it derives this many
# times in a row and checks that the certificates come out identical.
# Deterministic ML-DSA signing loops a seed-dependent number of times, so
# a run covers many seeds rather than repeating one seed-specific cost.
PROVISIONS_PER_SEED = 2

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Workload:
    kind: str  # "handshake" or "provision"
    # empty: every inventory scenario whose certificates ML-DSA keys issue
    scenario_ids: tuple[str, ...]
    runs: int = 0  # post-warmup handshakes per run_scenario call
    warmup: int = 0
    setups: int = 1  # set-ups per process; setup_s reports their median
    call_limit_s: float = 60.0


WORKLOADS = {
    "handshake-all-ml": Workload(
        "handshake",
        (
            "x25519__leaf_mldsa65",
            "x25519mlkem768__ml_root__ml_int__ml_leaf",
            "mlkem768__ml_root__ml_leaf",
        ),
        runs=200,
        warmup=10,
        setups=9,
        call_limit_s=30.0,
    ),
    "handshake-root-slh": Workload(
        "handshake",
        (
            "x25519mlkem768__slh_root__ml_int__ml_leaf",
            "mlkem768__slh_root__ml_int__ml_leaf",
        ),
        runs=50,
        warmup=5,
        setups=1,
        call_limit_s=30.0,
    ),
    "handshake-slh-leaf": Workload(
        "handshake",
        (
            "x25519mlkem768__ml_root__slh_leaf",
            "x25519mlkem768__ml_root__ml_int__slh_leaf",
        ),
        runs=1,
        warmup=0,
        setups=3,
        call_limit_s=60.0,
    ),
    "provision": Workload("provision", (), setups=9, call_limit_s=30.0),
}


class CallTimeout(TimeoutError):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise CallTimeout in this thread once ``seconds`` have passed."""

    def expire(signum, frame):
        raise CallTimeout(f"call exceeded its {seconds:.0f} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_forked(fn, limit_s: float) -> int:
    """Run ``fn()`` in a forked child that leads its own process group.

    Returns the child's exit code, or -1 if it ran past ``limit_s``: the
    whole group (the child and any pool workers it forked) is then
    killed, and this waits until every member has ended.  The child's
    standard output goes to standard error, so that the result line
    stays last on standard output.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            os.dup2(2, 1)
            code = fn()
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code if isinstance(code, int) and 0 <= code < 256 else 1)
    with contextlib.suppress(OSError):  # the child may have done it already
        os.setpgid(pid, pid)
    pidfd = os.pidfd_open(pid)
    try:
        ended, _, _ = select.select([pidfd], [], [], limit_s)
    finally:
        os.close(pidfd)
    if ended:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    log(f"provisioning exceeded its {limit_s:.0f} s limit; killing process group {pid}")
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    # Orphaned pool workers are reaped by init; wait until none is left.
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return -1


def import_lab() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import pqchainlab
    from pqchainlab import bench, cli, handshake, pki, scenario
    from pqchainlab.crypto import backend, mldsa, slhdsa

    if Path(pqchainlab.__file__).resolve().parent != SRC / "pqchainlab":
        raise ImportError(f"pqchainlab imported from {pqchainlab.__file__}, not {SRC}")
    return SimpleNamespace(
        pqchainlab=pqchainlab,
        bench=bench,
        cli=cli,
        handshake=handshake,
        pki=pki,
        scenario=scenario,
        backend=backend,
        mldsa=mldsa,
        slhdsa=slhdsa,
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """State of one benchmark process."""

    def __init__(self, args, lab: SimpleNamespace, work: Path):
        self.args = args
        self.lab = lab
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.jobs = min(2, os.cpu_count() or 1)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.provisionings: list[tuple[str, float]] = []  # traced (ctx, wall s)
        self.seeds_used: list[str] = []
        self.deadline_hard = _PROCESS_T0 + HARD_LIMIT_S
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            (work / "spans").mkdir()
            self.tracer = Tracer(
                {
                    "slhdsa": lab.slhdsa,
                    "mldsa": lab.mldsa,
                    "backend": lab.backend,
                    "pki": lab.pki,
                    "handshake": lab.handshake,
                },
                work / "spans",
            )
        matrix = lab.scenario.enumerate_matrix()
        if self.workload.scenario_ids:
            self.scenarios = [
                lab.scenario.find_scenario(matrix, sid) for sid in self.workload.scenario_ids
            ]
        else:
            ml = lab.scenario.SigFamily.ML_DSA_65
            self.scenarios = [
                s
                for s in matrix
                if s.placement.root is ml and s.placement.intermediate in (None, ml)
            ]

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        self.problems.append(what)
        log(f"FAILED ({count}): {what}")

    def trace(self, on: bool, ctx: str = "") -> None:
        if self.tracer is None:
            return
        if on:
            self.tracer.begin(ctx)
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def provisioning_seed(self, index: int) -> str:
        """The index-th provisioning seed (hex) derived from ``--seed``."""
        material = f"pqchainlab-perfbench:{self.args.seed}:{index}".encode()
        return hashlib.sha256(material).hexdigest()[:32]

    def provision(self, out_dir: Path, seed_hex: str) -> tuple[int, float]:
        """``pqchainlab provision`` of this workload's scenarios; returns (exit code, wall s)."""
        if seed_hex not in self.seeds_used:
            self.seeds_used.append(seed_hex)
        argv = ["provision", "--seed", seed_hex, "--out", str(out_dir)]
        argv += ["--jobs", str(self.jobs), "--select"] + [s.display_id for s in self.scenarios]
        t0 = time.perf_counter()
        code = run_forked(lambda: self.lab.cli.main(argv), self.workload.call_limit_s)
        return code, time.perf_counter() - t0

    def check_hierarchies(self, pki_dir: Path) -> tuple[str, list[str]]:
        """Reload and validate every provisioned hierarchy; digest all certificate bytes."""
        pki = self.lab.pki
        policy = pki.ServedChainPolicy.MIRROR
        digest = hashlib.sha256()
        bad = []
        for s in self.scenarios:
            sid = s.display_id
            try:
                h = pki.load_hierarchy(pki_dir / sid)
                if h.scenario_id != sid or h.depth != s.depth:
                    raise ValueError(f"reloaded as {h.scenario_id} at depth {h.depth}")
                pki.validate_chain(
                    pki.served_chain(h, policy), pki.client_trust_store(h, policy), pki.DEFAULT_NOW
                )
                digest.update(sid.encode() + b"\x00")
                for cert in h.certificates():
                    digest.update(len(cert.encoded).to_bytes(4, "big") + cert.encoded)
            except Exception as exc:  # every hierarchy is checked, whatever fails
                bad.append(f"{sid}: {type(exc).__name__}: {exc}")
        return digest.hexdigest(), bad

    def expected_wire(self, pki_dir: Path, scenario) -> dict:
        """Exact per-handshake byte counts from public sizes and the served chain."""
        lab = self.lab
        h = lab.pki.load_hierarchy(pki_dir / scenario.display_id)
        chain = lab.pki.served_chain(h, lab.pki.ServedChainPolicy.MIRROR)
        cert_msg = len(lab.handshake.encode_certificate_msg(chain))
        signature = lab.backend.SIG_PARAMS[h.leaf[1].algorithm].signature_len
        kex = scenario.kex
        return {
            "bytes_written": FRAME_HEADER + HELLO_RANDOM + GROUP_ID + lab.backend.client_share_len(kex)
            + FRAME_HEADER + FINISHED_MAC,
            "bytes_read": FRAME_HEADER + HELLO_RANDOM + lab.backend.server_share_len(kex)
            + FRAME_HEADER + cert_msg
            + FRAME_HEADER + signature
            + FRAME_HEADER + FINISHED_MAC,
            "served_chain_der_bytes": cert_msg,
            "chain_len_unique": lab.pki.chain_len_unique(chain),
            "chain_bytes_unique": lab.pki.chain_bytes_unique(chain),
        }


def check_samples(samples: list, runs: int, expected: dict) -> list[str]:
    problems = []
    if len(samples) != runs:
        problems.append(f"{len(samples)} samples, {runs} requested")
    for sample in samples:
        for field, want in expected.items():
            got = getattr(sample, field)
            if got != want:
                problems.append(f"run {sample.run_index}: {field} {got} != {want}")
    return problems


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program's modules."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import pqchainlab.bench, pqchainlab.cli, pqchainlab.handshake, pqchainlab.pki; "
        "print(time.perf_counter() - t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout)


def set_up(run: Run) -> tuple[list[float], Path | None, str]:
    """Set up ``setups`` times; return the seconds of each, the last hierarchies and a digest.

    A set-up is what a process does before its first timed operation:
    it imports the program (timed in a fresh interpreter) and, on the
    handshake workloads, provisions the workload's hierarchies.  Each
    set-up provisions from its own derived seed, so that the median does
    not rest on one seed's signing cost.  Every set of hierarchies is
    reloaded and validated; the digest covers all of their certificates.
    """
    times, digests = [], []
    pki_dir = None
    for i in range(run.workload.setups):
        seconds = import_seconds()
        if run.workload.kind == "handshake":
            pki_dir = run.work / f"pki{i}"
            run.trace(True, f"setup|{i}")
            code, wall = run.provision(pki_dir, run.provisioning_seed(i))
            run.trace(False)
            if code != 0:
                raise RuntimeError(f"set-up provisioning exited with {code}")
            digest, bad = run.check_hierarchies(pki_dir)
            if bad:
                raise RuntimeError("set-up hierarchies failed checks: " + "; ".join(bad))
            digests.append(digest)
            seconds += wall
            if run.tracer is not None:
                run.provisionings.append((f"setup|{i}", wall))
        times.append(seconds)
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    return times, pki_dir, digest


def run_handshakes(run: Run, pki_dir: Path, deadline: float) -> dict:
    lab = run.lab
    wl = run.workload
    cfg = lab.bench.BenchConfig(
        runs=wl.runs, warmup=wl.warmup, policy=lab.pki.ServedChainPolicy.MIRROR
    )
    expected = {s.display_id: run.expected_wire(pki_dir, s) for s in run.scenarios}
    rng = random.Random(run.args.seed)
    calls = []
    round_no = 0
    while time.perf_counter() < deadline:
        traced = run.tracer is not None and round_no % 2 == 1
        order = list(run.scenarios)
        rng.shuffle(order)
        for s in order:
            now = time.perf_counter()
            if now >= deadline or now + wl.call_limit_s > run.deadline_hard:
                break
            sid = s.display_id
            ctx = f"timed|{sid}|{len(calls)}"
            run.trace(traced, ctx)
            t0 = time.perf_counter()
            try:
                with time_limit(wl.call_limit_s):
                    samples = lab.bench.run_scenario(s, pki_dir, cfg)
                problems = check_samples(samples, wl.runs, expected[sid])
            except Exception as exc:  # the workload carries on; the failure is counted
                log(traceback.format_exc())
                samples, problems = [], [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            run.trace(False)
            run.attempted += wl.runs
            if problems:
                run.fail(wl.runs, f"{sid} call {len(calls)}: " + "; ".join(problems[:3]))
                continue
            calls.append(
                {"sid": sid, "ctx": ctx, "traced": traced, "wall": wall, "samples": samples}
            )
        round_no += 1
    return {"calls": calls}


def run_provisionings(run: Run, deadline: float) -> dict:
    ops = []
    digests = {}  # seed index -> digest of its first provisioning
    i = 0
    while True:
        now = time.perf_counter()
        if now >= deadline or now + run.workload.call_limit_s > run.deadline_hard:
            break
        traced = run.tracer is not None and i % 2 == 1
        ctx = f"timed|provision|{i}"
        out = run.work / f"prov{i}"
        run.trace(traced, ctx)
        seed_index = i // PROVISIONS_PER_SEED
        code, wall = run.provision(out, run.provisioning_seed(seed_index))
        run.trace(False)
        run.attempted += len(run.scenarios)
        if code != 0:
            run.fail(len(run.scenarios), f"provisioning {i} exited with {code}")
        else:
            digest, bad = run.check_hierarchies(out)
            reference = digests.setdefault(seed_index, digest)
            if bad:
                run.fail(len(bad), f"provisioning {i}: " + "; ".join(bad))
            elif digest != reference:
                run.fail(len(run.scenarios), f"provisioning {i}: digest {digest} != {reference}")
            else:
                ops.append({"ctx": ctx, "traced": traced, "wall": wall})
                if traced:
                    run.provisionings.append((ctx, wall))
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    digest = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    return {"ops": ops, "digest": digest}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def manifest(run: Run) -> dict:
    import cryptography
    import numpy
    from cryptography.hazmat.backends.openssl.backend import backend as openssl

    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    wl = run.workload
    return {
        "workload": run.args.workload,
        "seed": run.args.seed,
        "provisioning_seeds_hex": run.seeds_used,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
        "scenarios": [s.display_id for s in run.scenarios],
        "runs_per_call": wl.runs,
        "warmup_per_call": wl.warmup,
        "setups": wl.setups,
        "serving_policy": "mirror",
        "provision_jobs": run.jobs,
        "transport": "TCP over loopback (127.0.0.1), one fresh connection per handshake",
        "load": "closed loop, one client, one handshake in flight",
        "slh_dsa_backend": "pure Python (pqchainlab.crypto.slhdsa)",
        "thread_clock_tick_ms": run.lab.bench.thread_clock_tick_ms(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "openssl": openssl.openssl_version_text(),
        "pqchainlab": run.lab.pqchainlab.__version__,
    }


def end_to_end(run: Run, setup_s: float, latencies_ms: list[float], ops: int, wall_s: float) -> dict:
    if not latencies_ms:
        return {name: 0.0 for name, _ in END_TO_END}
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": run.lab.bench.percentile_nearest_rank(latencies_ms, 0.90),
        "ops_per_s": ops / wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run, result: dict) -> dict:
    import layers

    spans = run.tracer.collect()
    wl = run.workload
    if wl.kind == "handshake":
        calls = result["calls"]
        traced = [c for c in calls if c["traced"]]
        plain = [c for c in calls if not c["traced"]]
        elapsed = {
            (c["ctx"], s.run_index + wl.warmup): s.elapsed_ms for c in traced for s in c["samples"]
        }
        ops = len(traced) * (wl.runs + wl.warmup)
        metrics, gate = layers.span_metrics(
            spans, run.tracer.main_pid, elapsed, ops, run.provisionings, run.jobs
        )
        samples = [s for c in calls for s in c["samples"]]
        plain_samples = [s for c in plain for s in c["samples"]]
        traced_ms = [s.elapsed_ms for c in traced for s in c["samples"]]
        plain_ms = [s.elapsed_ms for s in plain_samples]
        plain_wall = sum(c["wall"] for c in plain)
        metrics.update(
            {
                "handshake.bytes_read": layers.mean([s.bytes_read for s in samples]),
                "handshake.bytes_written": layers.mean([s.bytes_written for s in samples]),
                "bench.overhead_ms_per_handshake": (
                    (plain_wall * 1e3 - sum(plain_ms)) / len(plain_ms) if plain_ms else 0.0
                ),
                "bench.client_cpu_ms": layers.mean([s.client_cpu_ms for s in samples]),
                "bench.server_cpu_ms": layers.mean([s.server_cpu_ms for s in samples]),
            }
        )
    else:
        ops = [o for o in result["ops"] if o["traced"]]
        metrics, gate = layers.span_metrics(
            spans, run.tracer.main_pid, {}, len(ops), run.provisionings, run.jobs
        )
        traced_ms = [o["wall"] * 1e3 for o in result["ops"] if o["traced"]]
        plain_ms = [o["wall"] * 1e3 for o in result["ops"] if not o["traced"]]
        for name in (
            "handshake.bytes_read",
            "handshake.bytes_written",
            "bench.overhead_ms_per_handshake",
            "bench.client_cpu_ms",
            "bench.server_cpu_ms",
        ):
            metrics[name] = 0.0
    metrics["trace.overhead_share"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
        if traced_ms and plain_ms
        else 0.0
    )
    for row in gate:
        print("# phase-sum gate " + json.dumps(row))
        if not row["ok"]:
            run.fail(
                row["handshakes"],
                f"phase-sum gate: {row['scenario']} gap {row['gap_share']:.4f}, "
                f"{row['unmatched']} handshakes without a server span",
            )
    return {name: metrics[name] for name, _, _ in layers.PER_LAYER}, {
        name: unit for name, unit, _ in layers.PER_LAYER
    }


def execute(run: Run) -> dict:
    wl = run.workload
    setup_times, pki_dir, digest = set_up(run)
    setup_s = statistics.median(setup_times)
    print(f"# set-ups {[round(t, 4) for t in setup_times]} s")
    if wl.kind == "handshake":
        print(f"# certificate digest {digest}")
        deadline = time.perf_counter() + run.args.seconds
        result = run_handshakes(run, pki_dir, deadline)
        plain = [c for c in result["calls"] if not c["traced"]]
        latencies = [s.elapsed_ms for c in plain for s in c["samples"]]
        e2e = end_to_end(run, setup_s, latencies, len(latencies), sum(c["wall"] for c in plain))
        groups = {run.lab.scenario.conceptual_perf_group(s.placement) for s in run.scenarios}
        print(f"# handshakes measured {len(latencies)} in {len(plain)} calls, groups {sorted(groups)}")
    else:
        deadline = time.perf_counter() + run.args.seconds
        result = run_provisionings(run, deadline)
        print(f"# certificate digest {result['digest']}")
        plain = [o for o in result["ops"] if not o["traced"]]
        latencies = [o["wall"] * 1e3 for o in plain]
        e2e = end_to_end(run, setup_s, latencies, len(latencies), sum(o["wall"] for o in plain))
        print(f"# provisionings measured {len(latencies)}: {[round(x, 1) for x in latencies]} ms")
    if not latencies:
        run.fail(0, "no operation completed")

    if run.tracer is not None:
        values, units = per_layer(run, result)
        counts = {}
    else:
        values, units = e2e, dict(END_TO_END)
        n = len(latencies)
        counts = {"setup_s": len(setup_times), "op_p50_ms": n, "op_p90_ms": n, "ops_per_s": n}
    print("# manifest " + json.dumps(manifest(run)))
    failed_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"# attempted {run.attempted}, failed {run.failed}, failed_ratio {failed_ratio}")
    for name, value in values.items():
        samples = f" (n={counts[name]})" if name in counts else ""
        print(f"# {name} = {value} {units[name]}{samples}")
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def check_spec() -> None:
    """Fail when BENCHMARK.json and this code disagree on the metrics."""
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    produced = {"end_to_end": END_TO_END, "per_layer": layers.PER_LAYER}
    for key in declared:
        if declared[key] != produced[key]:
            raise ValueError(f"BENCHMARK.json {key} does not match the metrics perfbench produces")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pqchainlab" / "__init__.py").is_file():
        log(f"error: pqchainlab sources not found under {SRC}")
        return 2
    if args.seconds <= 0 or args.seconds > 100:
        log("error: --seconds must be in (0, 100]")
        return 2
    os.environ.pop("PQCHAINLAB_DIR", None)
    try:
        lab = import_lab()
    except ImportError as exc:
        log(f"error: {exc}")
        return 2
    sys.path.insert(0, str(HERE))
    try:
        check_spec()
    except (OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 2
    work = WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, lab, work)
        result = execute(run)
    except Exception:
        log(traceback.format_exc())
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
