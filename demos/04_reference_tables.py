"""Reproduce the reference analyses from the shipped summary table.

No live measurement here: the analytics stage is a pure function of a
master-summary CSV, and the packaged fixture carries the published
reference rows.  Computes every table once (``compute_tables``) and
prints the headline numbers of each.

Run:  python demos/04_reference_tables.py
"""

from pqchainlab import analytics as an
from pqchainlab.bench import read_master_summary
from pqchainlab.cli import fixture_path
from pqchainlab.config import AnalysisConfig

cfg = AnalysisConfig()
rows = read_master_summary(fixture_path())
tables = an.compute_tables(rows, cfg)

print("leaf-only contrast (campaign A)")
for pair in tables["campaignA_pairs"]:
    print(
        f"  {pair.tls_group:16s} latency x{pair.latency_ratio:8.1f}   "
        f"bytes x{pair.bytes_read_ratio:.2f}   server CPU x{pair.server_taskclock_ratio:8.1f}"
    )

print("\nplacement classes")
for row in tables["placement_summary"]:
    print(
        f"  {row.placement_class:22s} n={row.n_scenarios}  mean {row.mean_elapsed_ms:9.3f} ms"
        f"  latency x{row.mean_latency_vs_baseline:9.2f}  server CPU x{row.mean_server_cpu_vs_baseline:9.2f}"
    )

print("\ntransport-versus-latency correlations")
for corr in tables["correlations"]:
    print(
        f"  {corr.subset:14s} {corr.metric:18s} r={corr.pearson_r:7.4f}  rho={corr.spearman_rho:7.4f}"
    )

print("\ntop counterexample to wire-size-only explanations")
top = tables["counterexamples"][0]  # bytes_read ranks come first
print(
    f"  {top.scenario_more_bytes_lower_latency} moves {top.bytes_diff:.0f} more bytes yet is"
    f" {top.latency_ratio_higher_over_lower:.0f}x faster than {top.scenario_less_bytes_higher_latency}"
)

print("\ncapacity and economics (baseline vs worst case)")
capacity = {c.scenario_id: c for c in tables["capacity"]}
eco = {e.scenario_id: e for e in tables["economics"]}
base, worst = cfg.baseline_id, "x25519__leaf_slhdsashake192s"
print(f"  baseline: {capacity[base].handshakes_per_core_second:10.2f} handshakes/core-s,"
      f" {eco[base].cost_per_million:.6f} per million")
print(f"  worst:    {capacity[worst].handshakes_per_core_second:10.2f} handshakes/core-s,"
      f" {eco[worst].cost_per_million:.4f} per million"
      f" (x{eco[worst].cost_multiplier_vs_baseline:.0f})")

print("\noperational plausibility (strategy matrix)")
for p in tables["plausibility"]:
    print(f"  rank {p.plausibility_rank}  x{p.latency_relative_to_baseline:9.2f}  {p.scenario_id:50s} {p.operational_plausibility}")
