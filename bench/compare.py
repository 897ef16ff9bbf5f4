"""Compare two sets of benchmark result records side by side.

    python3 bench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of records written by run.py (for example a
copy of bench/results/ made at each commit).  For every workload and
metric the script prints each side's median and quartiles over its runs,
and the change of the median from A to B.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> tuple[dict, set]:
    """(workload, metric) -> values, and the machines the runs came from."""
    series: dict[tuple[str, str], list[float]] = {}
    machines = set()
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        m = rec["machine"]
        machines.add((m["cpu"], m["nproc"], m["python"], m["commit"] or m["src_sha256"][:12]))
        for name, metric in rec["metrics"].items():
            series.setdefault((rec["workload"], name), []).append(metric["value"])
        if not rec["trace"]:
            series.setdefault((rec["workload"], "failed_frac"), []).append(rec["failed_frac"])
    return series, machines


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (a, machines_a), (b, machines_b) = (load(Path(arg)) for arg in argv)
    for label, machines in (("A", machines_a), ("B", machines_b)):
        for cpu, nproc, python, commit in sorted(machines, key=str):
            print(f"{label}: {cpu}, nproc {nproc}, Python {python}, {commit}")
    workload = None
    for key in sorted(a.keys() | b.keys()):
        if key[0] != workload:
            workload = key[0]
            print(f"\n{workload}\n{'metric':<50} {'A median [q1, q3]':>34} "
                  f"{'B median [q1, q3]':>34} {'change':>8}")
        cells = []
        for side in (a, b):
            if key in side:
                med, q1, q3 = summary(side[key])
                cells.append(f"{med:.5g} [{q1:.4g}, {q3:.4g}] n={len(side[key])}")
            else:
                cells.append("-")
        change = "-"
        if key in a and key in b and summary(a[key])[0]:
            change = f"{summary(b[key])[0] / summary(a[key])[0] - 1:+.1%}"
        print(f"{key[1]:<50} {cells[0]:>34} {cells[1]:>34} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
