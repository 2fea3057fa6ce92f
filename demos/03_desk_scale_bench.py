"""Desk-scale measurement: four scenarios spanning the three regimes.

Provisions into a temp directory, runs a reduced campaign per scenario,
and prints the aggregate rows.  The SLH-leaf scenario runs only twice;
expect roughly ten seconds of signing time per handshake on CPython.

Run:  python demos/03_desk_scale_bench.py   (~1 minute)
"""

import tempfile
from pathlib import Path

from pqchainlab import bench, pki
from pqchainlab.scenario import enumerate_matrix, find_scenario

SEED = b"demo-seed-0003".ljust(32, b"\x00")

IDS = [
    "x25519mlkem768__ml_root__ml_int__ml_leaf",  # fully-ML baseline
    "x25519mlkem768__slh_root__ml_int__ml_leaf",  # heavy family above the leaf
    "x25519mlkem768__slh_root__ml_leaf",  # same, depth 2: heavier wire chain
    "x25519mlkem768__ml_root__slh_leaf",  # heavy family in the live leaf
]

matrix = enumerate_matrix()
scenarios = [find_scenario(matrix, sid) for sid in IDS]
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    for scenario in scenarios:
        print(f"provisioning {scenario.display_id} ...")
        pki.write_hierarchy(pki.build_hierarchy(scenario, SEED), root / scenario.display_id)

    cfg = bench.BenchConfig(runs=150, runs_heavy=2, warmup=1)
    print(f"\n{'scenario':55s} {'mean ms':>10s} {'bytes':>8s} {'srv ms':>10s} {'srv/cli':>8s}")
    bench.run_campaign(
        scenarios, root, cfg,
        progress=lambda agg, _: print(
            f"{agg.scenario_id:55s} {agg.mean_ms:10.3f} {agg.bytes_read:8.0f} "
            f"{agg.server_task_ms:10.3f} {agg.srv_cli_ratio:8.2f}"
        ),
    )

print(
    "\nReading the rows: placing the hash-based family above the leaf costs a small"
    "\nmultiplier (client-side validation); placing it in the leaf moves the handshake"
    "\ninto a seconds-scale, server-bound regime, regardless of its smaller wire chain."
)
