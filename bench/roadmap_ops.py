"""Time single CLI operations whose costs are recorded in ROADMAP.md.

    python3 bench/roadmap_ops.py

Each operation runs in this process through ``balancegame.cli.main`` after
one warm-up call; the median wall time of ``REPEATS`` calls is printed next
to the recorded figure.  The q = 14 certify of the roadmap table (about 98 s and 1.7 GB)
is left out.
"""

from __future__ import annotations

import os
import statistics
import sys

import oracle as o
from worker import run_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "roadmap")
REPEATS = 3


def operations() -> list[tuple[str, list[str], float]]:
    os.makedirs(OUT, exist_ok=True)
    ops = [
        ("simulate 13,3,0,unknown, 10k trials",
         ["simulate", "--spec", "13,3,0,unknown", "--r", "0.6667", "--trials", "10000"], 0.74),
        ("perfect-rate 4,2 unknown, 100k trials",
         ["perfect-rate", "--n", "4", "--q", "2", "--prior", "unknown", "--trials", "100000"], 1.4),
        ("census 4,2,0,unknown", ["census", "--n", "4", "--q", "2", "--prior", "unknown"], 0.016),
        ("census 5,2,0,heavy", ["census", "--n", "5", "--q", "2", "--prior", "heavy"], 0.087),
        ("sweep --qmax 4 --prior unknown", ["sweep", "--qmax", "4", "--prior", "unknown"], 0.20),
        ("concentrate q=100, 10k trials",
         ["concentrate", "--q", "100", "--r", "0.6667", "--delta", "0.1", "--trials", "10000"], 0.21),
    ]
    for q, recorded in ((8, 0.12), (10, 1.5), (12, 11.7)):
        path = os.path.join(OUT, f"mirror-free-200x{q}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(o.mirror_free_plan(200, q)) + "\n")
        ops.append((f"certify 200-row complement-free, q={q}",
                    ["certify", "--spec", f"200,{q},0,unknown", "--strategy", path], recorded))
    return ops


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from balancegame import cli

    print(f"{'operation':<42} {'recorded s':>10} {'measured s':>10} {'ratio':>6}")
    for label, argv, recorded in operations():
        run_op(cli.main, argv)
        times = []
        for _ in range(REPEATS):
            rc, _, err, dt = run_op(cli.main, argv)
            if rc != 0:
                print(f"error: {label} exited {rc}: {err.strip()}", file=sys.stderr)
                return 1
            times.append(dt)
        t = statistics.median(times)
        print(f"{label:<42} {recorded:>10.3g} {t:>10.3g} {t / recorded:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
