"""The affschur benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload queries --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):

* ``certify`` — cold ``affschur verify-cell --window 24 --samples 100``
  runs, each in a fresh process, checked against a stored report;
* ``queries`` — a warm stream of ``member``/``psi`` requests through
  ``affschur.cli.run`` with ``AFFSCHUR_MAX_WINDOW=24``;
* ``algebra`` — products at four (n, r), decomposition round trips and
  the quotient/Hecke maps, in rounds of fresh processes.

With ``--trace 0`` the run measures for ``--seconds`` seconds with
tracing off and reports the end-to-end metrics; times are scaled to a
reference CPU speed by ``probe.py``, and the raw wall times are printed
too.  Every process of the run is pinned to one CPU, so that the probe
samples the core the work runs on.  With ``--trace 1`` it
runs a fixed amount of work twice, once plain and once traced, and
reports the per-layer metrics of the traced run plus the difference of
the two as ``trace.overhead_s``; the spans go to
``.bench_work/spans/``.  Outputs are checked after the timed region;
every failed or wrong operation counts in ``failed``.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import PROBE_REF_S, time_probe

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("certify", "queries", "algebra")
# Cycles per fresh algebra process.
ALGEBRA_ROUND_CYCLES = 500
# Fixed work of a traced run, so per-layer counts compare across commits.
TRACE_QUERY_CYCLES = 8
TRACE_ALGEBRA_ROUNDS = 2
# Fresh interpreters timed for setup_s, after one that compiles bytecode.
SETUP_SAMPLES = 25
# Every child is killed at this many seconds after the run started.
RUN_DEADLINE_S = 170.0

VERIFY_CHECKS = (
    "ideal-generator-certificates",
    "transpose-ideal-stability",
    "module-basis-freeness",
    "coordinate-independence",
    "swap-diagram",
    "quotient-homomorphism",
    "vector-space-decomposition",
)

# Per-layer metrics of a traced run, with their units.  Most read a span
# summary field: "<module>.<function>.<field>".
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("linalg.solve_many.calls", "count"),
    ("linalg.solve_many.self_s", "s"),
    ("linalg.solve_many.rhs", "count"),
    ("linalg.solve_many.rows", "count"),
    ("linalg.solve_many.cols", "count"),
    ("linalg.solve_many.nnz", "count"),
    ("linalg.solve_many.unique", "count"),
    ("linalg.solve_many.inconsistent", "count"),
    ("linalg.solve_many.underdetermined", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.rank.cols", "count"),
    ("cellular.omega_candidates.calls", "count"),
    ("cellular.omega_candidates.self_s", "s"),
    ("cellular.omega_candidates.returned", "count"),
    ("cellular.ideal_membership.calls", "count"),
    ("cellular.ideal_membership.self_s", "s"),
    ("cellular.ideal_membership.solves_per_query", "solves/query"),
    ("cellular.batch_ideal_membership.self_s", "s"),
    ("cellular.batch_ideal_membership.rhs", "count"),
    ("cellular.tensor_to_ideal.calls", "count"),
    ("cellular.tensor_to_ideal.self_s", "s"),
    ("cellular.decompose_left.calls", "count"),
    ("cellular.decompose_left.self_s", "s"),
    ("cellular.decompose_right.calls", "count"),
    ("cellular.decompose_right.self_s", "s"),
    ("cellular.corner_to_laurent.self_s", "s"),
    ("cellular.laurent_to_corner.self_s", "s"),
    ("cellular.monomial_image.self_s", "s"),
    ("multiplication.multiply.calls", "count"),
    ("multiplication.multiply.self_s", "s"),
    ("multiplication.table.lookups", "count"),
    ("multiplication.table.fills", "count"),
    ("multiplication.table.hit_ratio", "ratio"),
    ("multiplication.table.size", "count"),
    ("multiplication.multiply_oracle.self_s", "s"),
    ("core.AlgebraElement.constructions", "count"),
    ("core.AlgebraElement.init_s", "s"),
    ("weyl.transporter.calls", "count"),
    ("weyl.transporter.self_s", "s"),
    ("weyl.stabilizer.calls", "count"),
    ("weyl.stabilizer.self_s", "s"),
    ("hecke.quotient_image.calls", "count"),
    ("hecke.quotient_image.self_s", "s"),
    ("hecke.laurent_lift.calls", "count"),
    ("hecke.laurent_lift.self_s", "s"),
    ("hecke.hecke_embed.calls", "count"),
    ("hecke.hecke_embed.self_s", "s"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.root_share", "ratio"),
)


@dataclass
class Child:
    code: int
    wall_s: float
    stdout: str
    stderr: str
    timed_out: bool

    def result(self) -> dict:
        """The worker's result object, from its last output line."""
        if self.timed_out:
            raise RuntimeError("worker killed at the run deadline")
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            last = (self.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"worker exited {self.code}: {last}")
        return json.loads(lines[-1])


class Runner:
    """Starts child processes with the checkout's sources on the path."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv: list[str]) -> Child:
        """Run a child to completion and time it.

        A pidfd wakes the parent the moment the child exits.
        """
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=self.root,
            )
            fd = os.pidfd_open(proc.pid)
            try:
                remaining = max(0.0, self.deadline - time.monotonic())
                ready, _, _ = select.select([fd], [], [], remaining)
                if not ready:
                    proc.kill()
                _, status = os.waitpid(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                os.close(fd)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode,
            wall,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            not ready,
        )

    def worker(self, workload: str, seed: int, **options) -> dict:
        """Run worker.py with ``--key value`` options; return its result."""
        argv = [
            sys.executable,
            str(WORKER),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--workdir",
            str(self.workdir),
        ]
        for key, value in options.items():
            argv += [f"--{key}", str(value)]
        return self.spawn(argv).result()


def _percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, _percentile(ordered, p))
    return best


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(runner: Runner) -> tuple[float, float]:
    """Median time of a fresh interpreter importing affschur.

    Returns (scaled, raw) seconds; each start is scaled by probes run
    just before and after it on the same CPU.
    """
    argv = [sys.executable, "-c", "import affschur"]
    runner.spawn(argv)  # writes the bytecode cache once
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(time_probe() for _ in range(3))
        child = runner.spawn(argv)
        after = statistics.median(time_probe() for _ in range(3))
        if child.code != 0:
            raise RuntimeError("python3 -c 'import affschur' failed")
        raw.append(child.wall_s)
        scaled.append(child.wall_s * PROBE_REF_S / statistics.fmean((before, after)))
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Tally:
    """Operations, failures and peak memory gathered over child processes."""

    # (kind, raw seconds, seconds scaled to the reference speed)
    ops: list = field(default_factory=list)
    failed: int = 0
    messages: list = field(default_factory=list)
    measured_s: float = 0.0
    scaled_s: float = 0.0
    peak_rss_mb: float = 0.0

    def add_worker(self, res: dict) -> None:
        self.ops += res["ops"]
        self.measured_s += res["measured_s"]
        self.scaled_s += res["scaled_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, res["peak_rss_mb"])
        self.failed += res["failed"]
        self.messages += res["failures"]


def run_plain(runner: Runner, workload: str, seed: int, seconds: float) -> Tally:
    """Measure one workload for about ``seconds`` with tracing off.

    certify and algebra repeat fresh processes (cold runs, rounds) while
    another one is likely to end within ``seconds``; queries is one
    process that stops itself.
    """
    tally = Tally()
    if workload == "queries":
        tally.add_worker(runner.worker(workload, seed, seconds=seconds))
        return tally
    units = 0
    while units == 0 or tally.measured_s * (units + 1) / units <= seconds:
        if workload == "certify":
            res = runner.worker(workload, seed + units, cycles=1)
        else:
            res = runner.worker(
                workload, seed, round=units, cycles=ALGEBRA_ROUND_CYCLES
            )
        tally.add_worker(res)
        units += 1
    return tally


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setup_s, setup_raw = measure_setup(runner)
    tally = run_plain(runner, workload, seed, seconds)
    attempted = len(tally.ops)
    scaled = [t for _, _, t in tally.ops]
    metrics = {
        "ops_per_s": {"value": attempted / tally.scaled_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": tally.peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    lines = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [
        f"raw ops_per_s: {attempted / tally.measured_s:.6g} 1/s",
        f"raw op_p50_ms: {statistics.median(t for _, t, _ in tally.ops) * 1e3:.6g} ms",
        f"raw setup_s: {setup_raw:.6g} s",
        f"error_rate: {tally.failed / attempted:.6g} ({tally.failed}/{attempted} ops)",
    ]
    for kind in sorted({kind for kind, _, _ in tally.ops}):
        times = [t * 1e3 for k, _, t in tally.ops if k == kind]
        lines.append(
            f"{kind}_p50_ms: {statistics.median(times):.6g} ms ({len(times)} samples)"
        )
    found = tail(scaled)
    if found is None:
        lines.append(f"op_tail_ms: none ({attempted} samples, fewer than 10 beyond p50)")
    else:
        lines.append(
            f"op_tail_ms: {found[1] * 1e3:.6g} ms at p{found[0]:g} ({attempted} samples)"
        )
    lines += [f"failure: {message}" for message in tally.messages[:5]]
    return {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, lines


# ---------------------------------------------------------------------------
# traced run


def _merge_layers(parts: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    table_size = 0
    membership_solves = 0
    for part in parts:
        for name, entry in part["spans"].items():
            merged = spans.setdefault(name, {})
            for key, value in entry.items():
                merged[key] = merged.get(key, 0) + value
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
        table_size = max(table_size, part["table_size"])
        membership_solves += part["membership_solves"]
    return {
        "spans": spans,
        "counters": counters,
        "table_size": table_size,
        "membership_solves": membership_solves,
    }


def layer_values(layers: dict, report: dict | None, overhead_s: float, traced_s: float) -> dict:
    spans = layers["spans"]
    lookups = layers["counters"].get("multiplication.table.lookups", 0)
    fills = layers["counters"].get("multiplication.table.fills", 0)
    memberships = spans.get("cellular.ideal_membership", {}).get("calls", 0)
    check_s = {
        check["name"]: check["millis"] / 1e3 for check in (report or {}).get("checks", [])
    }
    special = {
        "multiplication.table.lookups": lookups,
        "multiplication.table.fills": fills,
        "multiplication.table.hit_ratio": (lookups - fills) / lookups if lookups else 0.0,
        "multiplication.table.size": layers["table_size"],
        "core.AlgebraElement.constructions": spans.get("core.AlgebraElement", {}).get("calls", 0),
        "core.AlgebraElement.init_s": spans.get("core.AlgebraElement", {}).get("self_s", 0.0),
        "cellular.ideal_membership.solves_per_query": (
            layers["membership_solves"] / memberships if memberships else 0.0
        ),
        "trace.overhead_s": overhead_s,
        "trace.root_share": spans.get("_all", {}).get("self_s", 0.0) / traced_s,
    }
    for name in VERIFY_CHECKS:
        special[f"verify.{name}.s"] = check_s.get(name, 0.0)
    values = {}
    for metric, unit in LAYER_METRICS:
        if metric in special:
            value = special[metric]
        else:
            span, _, key = metric.rpartition(".")
            value = spans.get(span, {}).get(key, 0)
        values[metric] = {"value": value, "unit": unit}
    return values


def traced(runner: Runner, workload: str, seed: int, root: Path) -> tuple[dict, list[str]]:
    """Fixed work, plain then traced; per-layer metrics of the traced run."""
    span_dir = root / ".bench_work" / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    plain, traced_runs = Tally(), Tally()
    parts: list[dict] = []
    report = None
    if workload == "certify":
        jobs = [{"cycles": 1}]
    elif workload == "queries":
        jobs = [{"cycles": TRACE_QUERY_CYCLES}]
    else:
        jobs = [
            {"round": k, "cycles": ALGEBRA_ROUND_CYCLES}
            for k in range(TRACE_ALGEBRA_ROUNDS)
        ]
    for job in jobs:
        plain.add_worker(runner.worker(workload, seed, **job))
        tag = "-".join(f"{k}{v}" for k, v in job.items())
        res = runner.worker(
            workload, seed, trace=1,
            spans=span_dir / f"{workload}-seed{seed}-{tag}.jsonl.gz", **job,
        )
        traced_runs.add_worker(res)
        parts.append(res["layers"])
        report = report or res.get("report")
    overhead = traced_runs.scaled_s - plain.scaled_s
    metrics = layer_values(
        _merge_layers(parts), report, overhead, traced_runs.measured_s
    )
    lines = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    failed = plain.failed + traced_runs.failed
    lines += [f"failure: {m}" for m in (plain.messages + traced_runs.messages)[:5]]
    return {
        "correct": failed == 0,
        "attempted": len(plain.ops) + len(traced_runs.ops),
        "failed": failed,
        "metrics": metrics,
    }, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "affschur" / "__init__.py").is_file():
        print("error: no src/affschur here; run from the root of a checkout", file=sys.stderr)
        return 2
    # one CPU for this process and every child (see probe.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    runner = Runner(root, workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.trace:
            result, lines = traced(runner, args.workload, args.seed, root)
        else:
            result, lines = end_to_end(runner, args.workload, args.seed, args.seconds)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
