"""Compare two result sets of the benchmark, metric by metric.

A result set is a directory ``<set>/<workload>/seed<N>.json`` of result
objects, as ``series.py`` writes them.  Run from the root of a checkout
(``BENCHMARK.json`` supplies directions and bounds):

    python3 benchmarks/compare.py .bench_work/series/parent .bench_work/series/change

For each workload and metric it prints each side's median and quartiles,
the share of seed-paired runs the second set won (ties count for
neither) and a verdict:

* ``gain`` — B wins at least 9/10 of the pairs and the medians differ by
  more than A's quartile distance;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's quartile distance, as a share of its
  median, is wider than the bound, unless every run of B beats every
  run of A;
* ``within bound`` — otherwise.

Per-layer metrics have no bound; they get medians and win shares only.
Exits 1 when any end-to-end metric regresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result object."""
    out: dict[str, dict[int, dict]] = {}
    for file in sorted(path.glob("*/seed*.json")):
        seed = int(file.stem.removeprefix("seed"))
        out.setdefault(file.parent.name, {})[seed] = json.loads(
            file.read_text(encoding="utf-8")
        )
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: list[float], b: list[float], wins: float, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    q1_a, med_a, q3_a = quartiles(a)
    med_b = quartiles(b)[1]
    if wins >= 0.9 and sign * (med_b - med_a) > q3_a - q1_a:
        return "gain"
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "regression"
    b_always_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not b_always_better:
        return "unresolved"
    return "within bound"


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline result set")
    parser.add_argument("b", type=Path, help="result set compared with it")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    set_a, set_b = load_set(args.a), load_set(args.b)
    regressed = False
    print(f"{'workload':9} {'metric':44} {'A median [q1, q3]':32} "
          f"{'B median [q1, q3]':32} {'B wins':>6}  verdict")
    for workload in sorted(set(set_a) & set(set_b)):
        seeds = sorted(set(set_a[workload]) & set(set_b[workload]))
        names = set_a[workload][seeds[0]]["metrics"] if seeds else {}
        for name in names:
            m = metric_spec.get(name, {"better": "lower"})
            a = [set_a[workload][s]["metrics"][name]["value"] for s in seeds]
            b = [set_b[workload][s]["metrics"][name]["value"] for s in seeds]
            sign = 1 if m["better"] == "higher" else -1
            decided = [sign * (y - x) for x, y in zip(a, b) if x != y]
            wins = sum(1 for d in decided if d > 0) / len(seeds)
            result = "-"
            if "bound" in m:
                result = verdict(a, b, wins, m["better"], m["bound"])
            regressed |= result == "regression"
            print(
                f"{workload:9} {name:44} {_cell(a):32} {_cell(b):32} "
                f"{wins:6.2f}  {result}"
            )
        failed = sum(r["failed"] for r in set_b[workload].values())
        if failed:
            print(f"{workload:9} B has {failed} failed operation(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
