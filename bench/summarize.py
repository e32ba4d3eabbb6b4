"""Medians, quartiles and spreads of the runs recorded in bench/results/.

    python3 bench/summarize.py

For each workload and metric: the number of runs, the median, the first and
third quartile (`statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median. Traced runs
give the per-layer figures, untraced runs the end-to-end ones.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path


def main():
    results = Path(__file__).resolve().parent / "results"
    values = defaultdict(list)
    failed = defaultdict(set)
    for path in sorted(results.glob("*.json")):
        run = json.loads(path.read_text())
        failed[run["workload"]].add(run["failed"] / run["attempted"])
        for name, metric in run["metrics"].items():
            values[run["workload"], run["trace"], name, metric["unit"]].append(metric["value"])
    print(f"{'workload':9} {'metric':32} {'unit':6} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}")
    for (workload, trace, name, unit), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:9} {name:32} {unit:6} {len(vals):4d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:7.2%}")
    for workload, shares in sorted(failed.items()):
        print(f"{workload}: failed share of attempted ops, per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
