"""Command-line surface: provision PKI, run campaigns, analyze them.

Exit codes: 0 success, 1 usage error, 2 crypto failure or a corrupt
certificate or key file, 3 transport or benchmark failure, 4 input schema
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__, bench, pki
from .bench import ScenarioFailed, SchemaError
from .crypto import backend
from .crypto.backend import CryptoError
from .scenario import (
    Scenario,
    SigFamily,
    enumerate_matrix,
    find_scenario,
    read_scenarios,
    resolve_id,
    write_scenarios,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CRYPTO = 2
EXIT_TRANSPORT = 3
EXIT_SCHEMA = 4

DEFAULT_SEED = "706b692d6c6162"  # provisioning seed of `provision` and `reproduce`
CAMPAIGNS = ["A", "B", "C", "D"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_seed(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        return text.encode()


def _parse_count(text: str, least: int = 0) -> int:
    """An integer of at least ``least``; argparse reports anything else as a usage error."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, not {count}")
    return count


def _parse_runs(text: str) -> tuple[int, Optional[int]]:
    """--runs N applies everywhere; --runs FAST/HEAVY gives SLH-leaf scenarios HEAVY."""
    fast, _, heavy = text.partition("/")
    return _parse_count(fast, 1), _parse_count(heavy, 1) if heavy else None


def _bench_config(args) -> bench.BenchConfig:
    runs, runs_heavy = args.runs or (None, None)
    return bench.BenchConfig(runs=runs, runs_heavy=runs_heavy, warmup=args.warmup,
                             policy=pki.ServedChainPolicy(args.policy), now=args.now)


def write_manifest(
    path: Path,
    seed_hex: Optional[str],
    scenarios: list[Scenario],
    policy: str,
    issuance_epoch: Optional[int],
    issuance: Optional[dict],
    **extra,
) -> None:
    import platform

    uname = platform.uname()  # platform.platform() would also run `uname -p` for the processor
    manifest = {
        "tool": "pqchainlab",
        "version": __version__,
        "seed_hex": seed_hex,
        "issuance_epoch": issuance_epoch,
        "issuance_backend": issuance,
        "policy": policy,
        "scenario_ids": [s.display_id for s in scenarios],
        "created_unix": int(time.time()),
        "host": {
            "platform": "-".join(filter(None, (uname.system, uname.release, uname.machine, "with",
                                               "".join(platform.libc_ver())))),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        **extra,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _select(args) -> list[Scenario]:
    """The scenarios of ``--scenarios`` that ``--select`` or ``--campaign`` names; a
    scenario selected twice is a usage error, as each has one output directory."""
    try:
        scenarios = read_scenarios(args.scenarios) if args.scenarios else enumerate_matrix()
    except (ValueError, KeyError, TypeError, OSError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: --scenarios {args.scenarios}: {reason}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.select:
        out = [find_scenario(scenarios, sid) for sid in args.select]
    else:
        out = [s for s in scenarios if not args.campaign or s.campaign == args.campaign]
    if not out:
        print(f"error: no scenario selected ({len(scenarios)} scenarios, --campaign {args.campaign})",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    ids = [s.display_id for s in out]
    for sid in ids:
        if ids.count(sid) > 1:
            print(f"error: scenario {sid!r} is selected twice", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return out


# --- commands ------------------------------------------------------------


def cmd_gen_scenarios(args) -> int:
    scenarios = enumerate_matrix()
    if args.campaign:
        scenarios = [s for s in scenarios if s.campaign == args.campaign]
    write_scenarios(scenarios, args.out)
    print(f"wrote {len(scenarios)} scenarios to {args.out}")
    return EXIT_OK


def _provision_cost(scenario: Scenario) -> float:
    """SLH-DSA key 1, SLH-DSA-issued certificate 8, hierarchy 0.01.

    On a 2-vCPU Xeon an SLH-DSA key and signature take 0.34 s and 2.6 s on
    the ``openssl`` issuance backend, 0.74 s and 6.0 s on ``python``: about
    1 : 8 on either.
    """
    families = scenario.placement.families()
    issuers = families[:1] + families[:-1]  # the root signs itself, then each parent
    slh = SigFamily.SLH_DSA_SHAKE_192S
    return families.count(slh) + 8 * issuers.count(slh) + 0.01


def _provision_share(share: list[Scenario], seed: bytes, out_dir: Path, now: int) -> None:
    for scenario in share:
        h = pki.build_hierarchy(scenario, seed, now=now)
        pki.write_hierarchy(h, out_dir / scenario.display_id)


def provision(scenarios: list[Scenario], seed: bytes, out_dir: Path, jobs: Optional[int],
              now: int) -> int:
    """Build and write the hierarchies of ``scenarios`` and their manifest; return an exit code."""
    # Resolve the issuance backend here, so that the forked workers inherit
    # what it loaded instead of each loading it.
    issuance = backend.issuance_backend()
    out_dir.mkdir(parents=True, exist_ok=True)
    # Longest first: each hierarchy, costliest first, joins the least-loaded share.
    jobs = max(1, min(jobs or os.cpu_count() or 1, len(scenarios)))
    shares: list[list[Scenario]] = [[] for _ in range(jobs)]
    for scenario in sorted(scenarios, key=_provision_cost, reverse=True):
        min(shares, key=lambda share: sum(map(_provision_cost, share))).append(scenario)
    # This process runs share 0; a forked child runs each other share and
    # reports through its exit code, as main() would.
    children = [
        bench.fork_call(_exit_code, _provision_share, share, seed, out_dir, now)
        for share in shares[1:]
    ]
    try:
        _provision_share(shares[0], seed, out_dir, now)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for code in codes:
        if code < 0:
            print(f"error: a provisioning worker was ended by signal {-code}", file=sys.stderr)
        if code != EXIT_OK:
            return code if code > 0 else EXIT_CRYPTO
    for scenario in scenarios:
        print(f"provisioned {scenario.display_id}")
    write_manifest(out_dir / "manifest.json", seed.hex(), scenarios, "n/a", now, issuance)
    return EXIT_OK


def cmd_provision(args) -> int:
    return provision(_select(args), _parse_seed(args.seed), Path(args.out), args.jobs, args.now)


def _measure(scenarios: list[Scenario], pki_dir, cfg: bench.BenchConfig, out_dir: Path) -> list:
    """Measure ``scenarios`` into ``out_dir``: samples, summary, manifest; return the aggregates."""
    def progress(agg: bench.RunAggregate, seconds: float) -> None:
        print(f"{agg.scenario_id}: {agg.n_runs} runs, mean {agg.mean_ms:.3f} ms, "
              f"srv/cli {agg.srv_cli_ratio:.3f} ({seconds:.1f}s)")

    aggregates, _, steal = bench.run_campaign(scenarios, pki_dir, cfg, out_dir, progress)
    try:  # the PKI's manifest names the seed, the issuance epoch and the issuance backend
        provisioned = json.loads((Path(pki_dir) / "manifest.json").read_text())
    except FileNotFoundError:
        provisioned = {}
    counts = [bench._runs_for(s, cfg) for s in scenarios]  # (BenchConfig field, runs)
    write_manifest(
        out_dir / "manifest.json", provisioned.get("seed_hex"), scenarios, cfg.policy.value,
        provisioned.get("issuance_epoch"), provisioned.get("issuance_backend"),
        validated_at=cfg.now, host_steal_share=steal,
        thread_clock_tick_ms=bench.thread_clock_tick_ms(),
        **{field: sorted({n for f, n in counts if f == field}) for field in ("runs", "runs_heavy")},
        warmup=[cfg.warmup],
    )
    return list(aggregates.values())


def cmd_bench(args) -> int:
    _measure(_select(args), args.pki, _bench_config(args), Path(args.out))
    print(f"wrote {Path(args.out) / 'master_summary.csv'}")
    return EXIT_OK


def fixture_path() -> Path:
    import importlib.resources

    return Path(str(importlib.resources.files("pqchainlab") / "fixtures" / "paper_fixture.csv"))


def _emit_plots(rows, results, out_dir: Path) -> None:
    from . import svgplot

    rows = sorted(rows, key=lambda r: r.scenario_id)
    leaf_slh = [r.placement_class.leaf_slh for r in rows]
    svgplot.log_bar_chart(
        [r.scenario_id for r in rows],
        [r.mean_ms for r in rows],
        out_dir / "latency_by_scenario.svg",
        title="Mean handshake latency by scenario",
        y_label="mean latency (ms, log scale)",
        highlight=leaf_slh,
    )
    svgplot.loglog_scatter(
        [max(r.client_task_ms, 1e-4) for r in rows],
        [max(r.server_task_ms, 1e-4) for r in rows],
        [r.scenario_id.replace("x25519mlkem768__", "h__").replace("mlkem768__", "p__").replace("x25519__", "c__") for r in rows],
        out_dir / "client_vs_server_taskclock.svg",
        title="Client vs server task clock per handshake",
        x_label="client task clock (ms)",
        y_label="server task clock (ms)",
    )
    capacity = results["capacity"]
    svgplot.log_bar_chart(
        [c.scenario_id for c in capacity],
        [c.infrastructure_multiplier_needed for c in capacity],
        out_dir / "infrastructure_multiplier.svg",
        title="Infrastructure multiplier needed to preserve baseline throughput",
        y_label="multiplier (log scale)",
        highlight=[c.conceptual_perf_group == "leaf_slh" for c in capacity],
    )


def cmd_analyze(args) -> int:
    """Run every table and plot over the input rows into ``--out``, with ``summary.txt``.

    ``--baseline`` overrides the configured baseline.  A missing input, a
    ``--config`` file that does not load and a baseline absent from the
    rows are usage errors; a malformed scenario id, or a server task clock,
    mean latency or bytes read that is not positive, is a schema error.
    """
    from . import analytics
    from .config import AnalysisConfig, load_config

    if not (args.fixture or args.input):  # argparse admits only "paper" for --fixture
        print("error: provide --input CSV or --fixture paper", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        rows = bench.read_master_summary(fixture_path() if args.fixture else Path(args.input))
    except OSError as exc:
        print(f"error: --input {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as exc:
        print(f"error: --config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.baseline:
        cfg = AnalysisConfig(**{**cfg.__dict__, "baseline_id": args.baseline})
    try:
        resolve_id(rows, cfg.baseline_id)
    except KeyError:
        print(
            f"error: baseline scenario {cfg.baseline_id!r} not in input; "
            "pass --baseline with a scenario present in the results",
            file=sys.stderr,
        )
        return EXIT_USAGE
    out_dir = Path(args.out)
    results = analytics.run_all(rows, out_dir, cfg, warn=lambda m: print(f"warning: {m}"))
    _emit_plots(rows, results, out_dir)
    lines = ["handshake latency and placement report", "=" * 40, ""]
    for row in sorted(rows, key=lambda r: r.mean_ms):
        lines.append(
            f"{row.scenario_id:55s} {row.mean_ms:12.4f} ms  srv/cli {row.srv_cli_ratio:10.4f}"
        )
    lines.append("")
    for p in results["plausibility"]:
        lines.append(
            f"rank {p.plausibility_rank}  {p.scenario_id:55s} {p.operational_plausibility}"
        )
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(results)} report tables, 3 plots and summary.txt to {out_dir}")
    return EXIT_OK


def _check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return passed


def cmd_reproduce(args) -> int:
    from . import analytics, claims
    from .config import load_config

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = load_config(None)

    print("== analytics against the shipped reference table ==")
    fixture_rows = bench.read_master_summary(fixture_path())
    tables = analytics.run_all(fixture_rows, out_dir / "fixture_analysis", cfg)
    ok = all([_check(*check) for check in claims.evaluate(claims.FIXTURE, fixture_rows, tables)])
    if args.fixture_only:
        return EXIT_OK if ok else EXIT_TRANSPORT

    print("== live desk-scale pipeline ==")
    scenarios = enumerate_matrix()
    seed = _parse_seed(args.seed)
    write_scenarios(scenarios, out_dir / "scenarios.json")
    pki_dir = out_dir / "pki"
    code = provision(scenarios, seed, pki_dir, None, args.now)
    if code != EXIT_OK:
        return code

    aggregates = _measure(scenarios, pki_dir, _bench_config(args), out_dir / "results")

    print("== property gates over live data ==")
    ok &= all([_check(*check) for check in claims.evaluate(claims.LIVE, aggregates)])

    print("== determinism spot-check ==")
    probe = find_scenario(scenarios, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    h1 = pki.build_hierarchy(probe, seed, now=args.now)
    h2 = pki.build_hierarchy(probe, seed, now=args.now)
    ok &= _check(
        "re-provision byte identity",
        all(a.encoded == b.encoded for a, b in zip(h1.certificates(), h2.certificates())),
        "certificate bytes identical for identical seed",
    )

    summary = bench.read_master_summary(out_dir / "results" / "master_summary.csv")
    analytics.run_all(summary, out_dir / "analysis", cfg)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_TRANSPORT


def _add_selection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenarios", help="scenarios.json (defaults to the built-in inventory)")
    pick = p.add_mutually_exclusive_group()
    pick.add_argument("--select", nargs="*", default=[], help="scenario ids")
    pick.add_argument("--campaign", choices=CAMPAIGNS)


def build_parser() -> _Parser:
    parser = _Parser(prog="pqchainlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pqchainlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenarios", help="write the experiment inventory")
    p.add_argument("--out", default="scenarios.json")
    p.add_argument("--campaign", choices=CAMPAIGNS)
    p.set_defaults(func=cmd_gen_scenarios)

    p = sub.add_parser("provision", help="generate keys and certificates")
    _add_selection(p)
    p.add_argument("--seed", default=DEFAULT_SEED, help="hex (or raw) provisioning seed")
    p.add_argument("--out", default="pki")
    p.add_argument("--jobs", type=lambda text: _parse_count(text, 1),
                   help="processes, this one included (default: cpu count)")
    p.add_argument("--now", type=int, default=pki.DEFAULT_NOW, help="issuance epoch seconds")
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("bench", help="run measurement campaigns")
    _add_selection(p)
    p.add_argument("--pki", default="pki")
    p.add_argument("--out", default="results")
    p.add_argument("--runs", type=_parse_runs, help="N for every scenario, or FAST/HEAVY: HEAVY for "
                   f"SLH-leaf ones (default {bench.RUNS_FAST}/{bench.RUNS_HEAVY})")
    p.add_argument("--warmup", type=_parse_count, default=bench.DEFAULT_WARMUP,
                   help=f"warmup connections to discard (default {bench.DEFAULT_WARMUP})")
    p.add_argument("--policy", choices=["mirror", "full", "leaf"], default="mirror")
    p.add_argument("--now", type=int, default=pki.DEFAULT_NOW)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="analyze results or the shipped reference table")
    p.add_argument("--input", help="master_summary.csv from a bench run")
    p.add_argument("--fixture", choices=["paper"], help="use the shipped reference table")
    p.add_argument("--out", default="analysis")
    p.add_argument("--config", help="key=value analysis config file")
    p.add_argument("--baseline", help="baseline scenario id override")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="end-to-end desk-scale pipeline with PASS/FAIL gates")
    p.add_argument("--out", default="reproduce")
    p.add_argument("--fixture-only", action="store_true", help="skip the live bench stage")
    p.add_argument("--runs", type=_parse_runs, default="40/3", help="as bench's --runs (default 40/3)")
    p.add_argument("--warmup", type=_parse_count, default=2)
    p.add_argument("--seed", default=DEFAULT_SEED)
    p.add_argument("--now", type=int, default=pki.DEFAULT_NOW)
    p.set_defaults(func=cmd_reproduce, policy="mirror")
    return parser


def _exit_code(func, *args) -> int:
    """Run a command function; map the program's errors to exit codes."""
    try:
        return func(*args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CryptoError, pki.CodecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRYPTO
    except (ScenarioFailed, ConnectionError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workdir = os.environ.get("PQCHAINLAB_DIR")
    if workdir:
        try:
            Path(workdir).mkdir(parents=True, exist_ok=True)
            os.chdir(workdir)
        except OSError as exc:  # a regular file of that name, or no permission
            print(f"error: PQCHAINLAB_DIR {workdir}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return _exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
