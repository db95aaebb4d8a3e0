"""Run one workload in this process and print its raw results as JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path:

    python3 benchmarks/worker.py --workload queries --seed 1 --seconds 30

Without ``--cycles`` it runs whole cycles until their summed operation
time would pass ``--seconds``; with ``--cycles N`` it runs exactly N
cycles.  The CPU speed is sampled during the loop (see ``probe.py``)
and each operation's time is reported scaled to the reference speed as
well as raw.  ``--trace 1`` records spans around the operations
only, then adds the per-layer summary to the output and writes the spans
to ``--spans``.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
from probe import Probe


def _layer_summary(tracer: tracing.Tracer) -> dict:
    from affschur.multiplication import structure_table

    return {
        "spans": tracing.summarize(tracer),
        "counters": dict(tracer.counters),
        "table_size": len(structure_table),
        "membership_solves": tracing.solves_under(
            tracer, "linalg.solve_many", "cellular.ideal_membership"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("queries", "algebra", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cycles", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the recorded spans")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    probe = Probe()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(clock=probe.clock)
        tracing.install(tracer)
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    try:
        if args.workload == "queries":
            workload = workloads.Queries(args.seed, workdir)
            # One untimed cycle first: the stream measures warm caches.
            for op in workload.cycle(-1):
                op.call()
        elif args.workload == "algebra":
            workload = workloads.Algebra(args.seed, args.round)
        else:
            workload = workloads.Certify(args.seed)

        # (op, result, error, start, end, raw seconds without probe time)
        done = []
        measured = 0.0
        index = 0
        with probe:
            while True:
                if args.cycles:
                    if index >= args.cycles:
                        break
                elif index and measured * (index + 1) / index > args.seconds:
                    break
                for op in workload.cycle(index):
                    if tracer is not None:
                        tracer.op = len(done)
                        tracer.active = True
                    # a probe landing between the two reads at either end
                    # is counted in the operation, never taken out twice
                    start = perf_counter()
                    probed = probe.total
                    try:
                        result, error = op.call(), None
                    except Exception as exc:  # counted as a failed operation
                        result, error = None, f"{op.kind}: {exc!r}"
                    probed = probe.total - probed
                    end = perf_counter()
                    if tracer is not None:
                        tracer.active = False
                    raw = end - start - probed
                    measured += raw
                    done.append((op, result, error, start, end, raw))
                index += 1

        ops = []
        for op, _, _, start, end, raw in done:
            ops.append([op.kind, raw, raw * probe.scale(start, end)])

        failures = []
        for op, result, error, *_ in done:
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # a malformed output is a wrong one
                    error = f"{op.kind} check: {exc!r}"
            if error is not None:
                failures.append(error)

        out = {
            "attempted": len(done),
            "failed": len(failures),
            "failures": failures[:5],
            "ops": ops,
            "measured_s": measured,
            "scaled_s": sum(scaled for _, _, scaled in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.workload == "certify" and not failures:
            out["report"] = json.loads(done[0][1][1])
        if tracer is not None:
            out["layers"] = _layer_summary(tracer)
            if args.spans:
                tracing.write_spans(tracer, args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
