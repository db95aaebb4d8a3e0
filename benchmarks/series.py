"""Run the benchmark over many seeds and report each metric's spread.

Run from the root of a checkout:

    python3 benchmarks/series.py --out .bench_work/series --seeds 1-10

Each run's result object goes to ``<out>/<name>/<workload>/seed<N>.json``.
With several ``--checkout NAME=PATH`` options (say the parent commit and
a change, each with the same benchmark files), the checkouts take turns
per seed and the side that runs first alternates; compare the sets with
``compare.py``.  For each set, workload and metric the summary gives the
median, the quartile distance as a share of the median (the spread) and
the metric's bound: ``steady`` below a third of the bound, ``wide``
below the bound and ``TOO WIDE`` above it.  Exits 1 when a run fails
or a spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_set, quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default="certify,queries,algebra")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--checkout", action="append", default=[],
        help="NAME=PATH of a checkout to measure (default: this one, as 'run')",
    )
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = [c.split("=", 1) for c in args.checkout] or [["run", "."]]
    out = args.out.resolve()
    ok = True
    for k, seed in enumerate(args.seeds):
        order = checkouts if k % 2 == 0 else checkouts[::-1]
        for workload in args.workloads.split(","):
            for name, path in order:
                proc = subprocess.run(
                    [sys.executable, "benchmarks/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=path, capture_output=True, text=True, timeout=900,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} {workload} seed {seed}: exit {proc.returncode} "
                          f"{proc.stderr.strip()[-300:]}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                target = out / name / workload / f"seed{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(result) + "\n", encoding="utf-8")
                ok &= result["correct"]
                values = " ".join(
                    f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()
                ) if not args.trace else ""
                print(f"{name} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    if args.trace:
        return 0 if ok else 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, _ in checkouts:
        results = load_set(out / name)
        for workload, runs in sorted(results.items()):
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in runs.values()]
                s = spread(values)
                status = "steady" if s < bound / 3 else ("wide" if s <= bound else "TOO WIDE")
                ok &= s <= bound
                q1, median, q3 = quartiles(values)
                print(f"{name} {workload:8} {metric:12} median {median:<10.5g} "
                      f"spread {s:.4f} bound {bound} {status} ({len(values)} runs)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
