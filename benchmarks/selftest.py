"""Self-test of the benchmark's tracing and of its layer predictions.

Run from the root of a checkout:

    python3 benchmarks/selftest.py

It checks that

1. after ``tracing.install`` no affschur module still binds an original
   traced function (no call can escape its span by name);
2. every traced function is reached through each module that imports it,
   by running a small scenario that calls through every importer;
3. on each workload, a traced run's spans cover the traced operation
   time: the summed self times of all spans (equal to the summed
   durations of the root spans) lie within the tightest end-to-end bound
   of ``BENCHMARK.json`` below the timed operation time;
4. ``linalg.solve_many.calls`` and ``linalg.rank.calls`` are 0 on
   ``algebra``;
5. the per-layer metric names of a traced run are those of
   ``BENCHMARK.json``.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


def coverage_scenario() -> list[str]:
    """Call every traced function through every module that imports it."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    tracer = tracing.Tracer(record_callers=True)
    tracing.install(tracer)
    problems = [f"unwrapped binding {name}" for name in tracing.escaped_bindings(tracer)]

    from affschur import cli

    element = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 2, 1]]}]}
    corner = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 3, 1]]}]}
    member = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 2]]}]}
    left = {"n": 2, "r": 2, "terms": [{"coeff": "2", "entries": [[1, 1, 1], [1, 4, 1]]}]}
    right = {"n": 2, "r": 2, "terms": [{"coeff": "2", "entries": [[1, 1, 1], [2, 1, 1]]}]}
    hecke = [{"coeff": "1", "sigma": [2, 1], "eps": [0, 1]}]
    requests = [
        (["mult"], {"a": element, "b": element}),
        (["decompose", "--side", "left"], left),
        (["decompose", "--side", "right"], right),
        (["psi"], corner),
        (["quotient"], element),
        (["hecke-embed"], hecke),
        (["member"], member),
        (["verify-cell", "--window", "4", "--samples", "2"], None),
    ]
    tracer.active = True
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for k, (argv, payload) in enumerate(requests):
            if payload is not None:
                path = Path(tmp) / f"in{k}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                argv = argv + ["--file", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
            if code not in (0, 1):
                problems.append(f"scenario request {argv[0]} exited {code}")
    tracer.active = False

    for name, modules in tracer.bindings.items():
        home = "affschur." + name.split(".")[0]
        for module in modules:
            if module in (home, "affschur"):
                continue  # the definition and the package's re-export
            if (name, module) not in tracer.callers:
                problems.append(f"{name} never reached through {module}")
    return problems


def workload_checks(bound: float, layer_names: set[str]) -> list[str]:
    problems = []
    for workload in ("certify", "queries", "algebra"):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "5", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT, timeout=300,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if set(metrics) != layer_names:
            problems.append(f"{workload}: per-layer names differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ layer_names)}")
        if not result["correct"]:
            problems.append(f"{workload}: traced run reported wrong outputs")
        share = metrics.get("trace.root_share", 0.0)
        print(f"{workload}: root spans cover {share:.4f} of the traced op time")
        if not 1 - bound <= share <= 1:
            problems.append(f"{workload}: span coverage {share:.4f} outside [1 - {bound}, 1]")
        if workload == "algebra":
            for name in ("linalg.solve_many.calls", "linalg.rank.calls"):
                if metrics.get(name) != 0:
                    problems.append(f"algebra: {name} = {metrics.get(name)}, predicted 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = min(m["bound"] for m in spec["end_to_end"] if m["name"] != "setup_s")
    layer_names = {m["name"] for m in spec["per_layer"]}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    problems = coverage_scenario()
    print(f"coverage scenario: {len(problems)} problem(s)")
    problems += workload_checks(bound, layer_names)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
