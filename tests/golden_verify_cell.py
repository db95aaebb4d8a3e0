"""
Run ``verify-cell`` at the given windows and compare each report with
its stored one, timing fields aside; then hold the peak RSS of the runs
to a ceiling.  Run it from the root of the checkout:

    python tests/golden_verify_cell.py --max-rss-mb 70 \\
        12:120:tests/golden_verify_cell_w12_s0_n100.json \\
        24:300:benchmarks/expected/certify-w24-n100.json

Each run is WINDOW:TIMEOUT:REPORT, the timeout in seconds, at seed 0 and
100 samples, in a child process with ``PYTHONPATH=src``; ``--max-window``
sets ``AFFSCHUR_MAX_WINDOW`` for the children.  The peak RSS is that of
``RUSAGE_CHILDREN``, the largest over all the runs.  pytest does not
collect this file: its name does not start with ``test_``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", metavar="WINDOW:TIMEOUT:REPORT")
    parser.add_argument("--max-rss-mb", type=float, required=True)
    parser.add_argument("--max-window", type=int)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH="src")
    if args.max_window is not None:
        env["AFFSCHUR_MAX_WINDOW"] = str(args.max_window)
    for spec in args.runs:
        window, timeout, golden = spec.split(":", 2)
        run = subprocess.run(
            ["timeout", timeout, sys.executable, "-m", "affschur", "verify-cell",
             "--window", window, "--seed", "0", "--samples", "100"],
            env=env,
            stdout=subprocess.PIPE,
            check=True,
        )
        report = json.loads(run.stdout)
        for check in report["checks"]:
            del check["millis"]
        del report["params"]["total_millis"]
        with open(golden) as handle:
            expected = json.load(handle)
        if golden.startswith("benchmarks/"):
            # the benchmark's stored report is not tied to seed 0
            expected["params"]["seed"] = 0
        assert report == expected, json.dumps(report, indent=1)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb <= args.max_rss_mb, (
        f"verify-cell peak RSS {peak_mb:.0f} MB > {args.max_rss_mb:g} MB"
    )
    print(f"{len(args.runs)} reports match; peak RSS {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
