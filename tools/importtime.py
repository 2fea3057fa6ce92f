"""Compare how long a fresh interpreter takes to import the program from two trees.

Each sample is ``perfbench/run.py``'s own ``import_seconds``, part of
every workload's ``setup_s``, pointed at ``TREE/src`` and run with
``PYTHONDONTWRITEBYTECODE=1``.  The trees alternate over 100 pairs, and
which one goes first alternates from pair to pair.  Give clean copies
(``git archive``): a ``__pycache__`` under ``src/`` would be read and
make that tree's imports look cheap.

    python tools/importtime.py PARENT_TREE CHANGE_TREE

It prints each tree's median and quartiles (inclusive method) in
seconds, the second tree's median against the first's, and in how many
pairs the second tree imported faster.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench  # noqa: E402

PAIRS = 100


def import_seconds(tree: Path) -> float:
    perfbench.SRC = tree / "src"
    return perfbench.import_seconds()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if next((tree / "src").rglob("__pycache__"), None) is not None:
            print(f"error: {tree}/src holds __pycache__; compare clean copies", file=sys.stderr)
            return 1
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    samples: list[list[float]] = [[], []]
    for i in range(PAIRS):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            samples[side].append(import_seconds(trees[side]))
    medians = [statistics.median(s) for s in samples]
    for tree, s, median in zip(trees, samples, medians):
        low, _, high = statistics.quantiles(s, n=4, method="inclusive")
        print(f"{median:.4f} s  [{low:.4f}, {high:.4f}]  {tree}")
    faster = sum(b < a for a, b in zip(*samples))
    print(f"second/first median {medians[1] / medians[0] - 1:+.1%}; "
          f"second faster in {faster} of {PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
