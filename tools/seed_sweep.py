"""The spread of ``ergolab verify``'s limit tests over seeds, for setting a
threshold or a size on more than one seed.

Usage (from any directory):

    python3 tools/seed_sweep.py MAP OBS [--seeds K] [ergolab flags]

It runs ``ergolab verify --map MAP --obs OBS`` with the given flags at
``--seed`` 1 ... K (default 10) and ``--threads 1``, which override any
``--seed`` or ``--threads`` among the flags.  The runs use the checkout that
holds this script (``PYTHONPATH=src``), each in its own subprocess,
``os.cpu_count()`` at a time, as ``report_digests.py`` runs its commands.
For each test entry of the report it prints the min, median and max
statistic over the seeds, the threshold and the passes, then the same
figures as one JSON line, to quote where a threshold is set.
A failed verdict (exit 5) is data; any other non-zero exit, or a report
without tests, makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERDICT_FAILED = 5  # ergolab's exit code for a report whose verdict is false


def run(argv: list) -> subprocess.CompletedProcess:
    """One ``ergolab verify`` run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "ergolab", "verify", *argv],
                          env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("map")
    p.add_argument("obs")
    p.add_argument("--seeds", type=int, default=10)
    args, flags = p.parse_known_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    common = ["--map", args.map, "--obs", args.obs, *flags, "--threads", "1"]
    runs = [[*common, "--seed", str(s)] for s in range(1, args.seeds + 1)]
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        procs = list(pool.map(run, runs))
    reports, entries = [], {}
    for argv, proc in zip(runs, procs):
        report = (json.loads(proc.stdout)
                  if proc.returncode in (0, VERDICT_FAILED) else {})
        if not report.get("tests"):
            sys.exit(f"seed_sweep: ergolab verify {' '.join(argv)} exited "
                     f"{proc.returncode} without tests:\n{proc.stderr}")
        reports.append(report)
        for test in report["tests"]:
            entries.setdefault(test["name"], []).append(test)
    passes = sum(report["verdict"] for report in reports)
    print(f"{args.map} {args.obs} verify {' '.join(flags)}  seeds "
          f"1-{args.seeds}  verdict passes {passes}/{len(reports)}")
    print(f"{'test':17s} {'min':14s} {'median':14s} {'max':14s} "
          f"{'threshold':14s} passes")
    summary = {}
    for name, tests in entries.items():
        stats = [t["statistic"] for t in tests]
        lo, hi = (f([t["threshold"] for t in tests]) for f in (min, max))
        row = summary[name] = {
            "min": min(stats), "median": statistics.median(stats),
            "max": max(stats), "threshold": lo if lo == hi else [lo, hi],
            "passes": sum(bool(t["verdict"]) for t in tests),
            "runs": len(tests)}
        threshold = f"{lo:.6g}" if lo == hi else f"{lo:.6g}-{hi:.6g}"
        print(f"{name:17s} {row['min']:<14.6g} {row['median']:<14.6g} "
              f"{row['max']:<14.6g} {threshold:14s} "
              f"{row['passes']}/{row['runs']}")
    print(json.dumps({"map": args.map, "obs": args.obs, "flags": flags,
                      "seeds": args.seeds, "verdict_passes": passes,
                      "tests": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
