"""Span tracer for the pqchainlab benchmark.

The tracer wraps public functions of each pqchainlab layer from outside
the program: it replaces module and class attributes with timing
wrappers and restores them afterwards.  Spans live in memory.  Because
``bench.run_scenario`` forks a server per call and ``pqchainlab
provision`` forks pool workers, the wrappers must be installed before
those forks; a forked child then appends its spans to
``<out_dir>/spans-<pid>.jsonl`` each time its outermost traced call
returns.  In the server that call is ``handshake.server_handshake``, so
the spans reach the file before ``run_server`` writes the control record
after which the parent terminates the server.

A span is the list ``[name, tag, t0_ns, t1_ns, self_ns, pid, ctx,
conn]``.  ``self_ns`` is the duration minus the time covered by child
spans.  ``ctx`` names the benchmark step (set-up or one
``run_scenario`` call) and ``conn`` the connection index inside it, so a
client span and the matching server span share ``(ctx, conn)``.  All
times come from ``time.perf_counter_ns``, a system-wide monotonic clock
on Linux, so spans from the client and server processes share one
timeline.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


def _family(alg) -> str:
    return alg.token


# (module key, class name or None, attribute, tag function, handshake role)
TARGETS = [
    ("slhdsa", None, "keygen_from_seed", None, None),
    ("slhdsa", None, "sign", None, None),
    ("slhdsa", None, "verify", None, None),
    ("mldsa", None, "keygen_from_seed", None, None),
    ("mldsa", None, "sign_deterministic", None, None),
    ("backend", None, "generate_keypair", lambda alg, *a, **k: _family(alg), None),
    ("backend", None, "verify", lambda alg, *a, **k: _family(alg), None),
    ("backend", None, "client_share", lambda mode, *a, **k: mode.value, None),
    ("backend", None, "server_respond_kex", lambda mode, *a, **k: mode.value, None),
    ("backend", None, "client_complete_kex", lambda state, *a, **k: state.mode.value, None),
    ("backend", "Signer", "sign", lambda self, *a, **k: _family(self.algorithm), None),
    (
        "backend",
        "Signer",
        "sign_deterministic",
        lambda self, *a, **k: _family(self.algorithm),
        None,
    ),
    ("pki", None, "decode_certificate", None, None),
    ("pki", None, "issue_certificate", lambda **k: _family(k["issuer_key"].algorithm), None),
    ("pki", None, "verify_certificate", lambda cert, *a, **k: _family(cert.signature_family), None),
    ("pki", None, "validate_chain", None, None),
    ("pki", None, "build_hierarchy", lambda scenario, *a, **k: scenario.display_id, None),
    ("pki", None, "write_hierarchy", None, None),
    ("pki", None, "load_hierarchy", None, None),
    ("handshake", None, "client_handshake", None, "client"),
    ("handshake", None, "server_handshake", None, "server"),
    ("handshake", None, "encode_certificate_msg", None, None),
    ("handshake", None, "decode_certificate_msg", None, None),
    ("handshake", "Conn", "recv_msg", None, None),
]


def span_name(module_key: str, cls: str | None, attr: str) -> str:
    return ".".join(p for p in (module_key, cls, attr) if p)


class Tracer:
    """Installs timing wrappers and collects spans from this process and its children."""

    def __init__(self, modules: dict, out_dir: Path):
        self._modules = modules
        self._out_dir = Path(out_dir)
        self._main_pid = os.getpid()
        self._pid = self._main_pid
        self._spans: list[list] = []
        self._stack: list[list] = []
        self._fd: int | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._counters = {"client": 0, "server": 0}
        self.ctx = ""
        os.register_at_fork(after_in_child=self._after_fork)

    def begin(self, ctx: str) -> None:
        """Name the next benchmark step; connection indices restart at 0."""
        self.ctx = ctx
        self._counters = {"client": 0, "server": 0}

    def install(self) -> None:
        if self._originals:
            return
        for module_key, cls, attr, tag_fn, role in TARGETS:
            owner = self._modules[module_key]
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name(module_key, cls, attr), tag_fn, role))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _after_fork(self) -> None:
        self._pid = os.getpid()
        self._spans = []
        self._fd = None

    def _wrap(self, fn, name: str, tag_fn, role: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_fn(*args, **kwargs) if tag_fn is not None else ""
            stack = tracer._stack
            if role is not None:
                conn = tracer._counters[role]
                tracer._counters[role] = conn + 1
            else:
                conn = stack[-1][1] if stack else -1
            frame = [0, conn]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                tracer._spans.append(
                    [name, tag, t0, t1, duration - frame[0], tracer._pid, tracer.ctx, conn]
                )
                if not stack and tracer._pid != tracer._main_pid:
                    tracer._flush()

        return wrapper

    def _flush(self) -> None:
        if self._fd is None:
            path = self._out_dir / f"spans-{self._pid}.jsonl"
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        payload = "".join(json.dumps(s, separators=(",", ":")) + "\n" for s in self._spans)
        os.write(self._fd, payload.encode())
        self._spans.clear()

    def collect(self) -> list[list]:
        """Spans of this process plus every span a child flushed to disk."""
        spans = list(self._spans)
        for path in sorted(self._out_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
        return spans

    @property
    def main_pid(self) -> int:
        return self._main_pid


# --- interval arithmetic over one handshake's timeline ------------------


def subtract(window: tuple[int, int], holes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``window`` minus the union of ``holes``, as sorted disjoint intervals."""
    out = []
    cursor, end = window
    for a, b in sorted(holes):
        a, b = max(a, cursor), min(b, end)
        if b <= a:
            continue
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        out.append((cursor, end))
    return out


def overlap(xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> int:
    """Total length covered by both sorted disjoint interval lists."""
    i = j = total = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            total += b - a
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def length(xs: list[tuple[int, int]]) -> int:
    return sum(b - a for a, b in xs)
