"""Reproduce the reference analyses from the shipped summary table.

No live measurement here: the analytics stage is a pure function of a
master-summary CSV, and the packaged fixture carries the published
reference rows.  Prints the headline numbers of each derived table.

Run:  python demos/04_reference_tables.py
"""

from pqchainlab import analytics as an
from pqchainlab.bench import read_master_summary
from pqchainlab.cli import fixture_path
from pqchainlab.config import AnalysisConfig

cfg = AnalysisConfig()
rows = read_master_summary(fixture_path())

print("leaf-only contrast (campaign A)")
for pair in an.campaign_a_pairs(rows):
    print(
        f"  {pair.tls_group:16s} latency x{pair.latency_ratio:8.1f}   "
        f"bytes x{pair.bytes_read_ratio:.2f}   server CPU x{pair.server_taskclock_ratio:8.1f}"
    )

print("\nplacement classes")
for row in an.placement_summary(rows, cfg.baseline_id):
    print(
        f"  {row.placement_class:22s} n={row.n_scenarios}  mean {row.mean_elapsed_ms:9.3f} ms"
        f"  latency x{row.mean_latency_vs_baseline:9.2f}  server CPU x{row.mean_server_cpu_vs_baseline:9.2f}"
    )

print("\ntransport-versus-latency correlations")
for corr in an.correlation_table(rows):
    print(
        f"  {corr.subset:14s} {corr.metric:18s} r={corr.pearson_r:7.4f}  rho={corr.spearman_rho:7.4f}"
    )

print("\ntop counterexample to wire-size-only explanations")
top = an.counterexamples(rows, "bytes_read", 1)[0]
print(
    f"  {top.scenario_more_bytes_lower_latency} moves {top.bytes_diff:.0f} more bytes yet is"
    f" {top.latency_ratio_higher_over_lower:.0f}x faster than {top.scenario_less_bytes_higher_latency}"
)

print("\ncapacity and economics (baseline vs worst case)")
capacity = {c.scenario_id: c for c in an.capacity_model(rows, cfg.baseline_id)}
eco = {e.scenario_id: e for e in an.economic_model(rows, cfg)}
base, worst = cfg.baseline_id, "x25519__leaf_slhdsashake192s"
print(f"  baseline: {capacity[base].handshakes_per_core_second:10.2f} handshakes/core-s,"
      f" {eco[base].cost_per_million:.6f} per million")
print(f"  worst:    {capacity[worst].handshakes_per_core_second:10.2f} handshakes/core-s,"
      f" {eco[worst].cost_per_million:.4f} per million"
      f" (x{eco[worst].cost_multiplier_vs_baseline:.0f})")

print("\noperational plausibility (strategy matrix)")
campaign_b = [r for r in rows if r.campaign == "B"]
for p in an.plausibility_rank(campaign_b, an.normalize_to_baseline(campaign_b, cfg.baseline_id), cfg):
    print(f"  rank {p.plausibility_rank}  x{p.latency_relative_to_baseline:9.2f}  {p.scenario_id:50s} {p.operational_plausibility}")
