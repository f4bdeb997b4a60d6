"""Alternating A/B runs of one perfbench workload: a base commit against
the checkout that holds this script.

Usage (from any directory):

    python3 tools/ab_bench.py BASE WORKLOAD --pairs N --seed S --seconds T \
        [--smoke]

BASE is any git revision.  The script checks it out with
``git worktree add --detach`` into a temporary directory, which it removes
on exit.  It then runs ``perfbench/run.py --trace 0`` N times in each tree,
alternating which side runs first, and reads each run's result line.
Uncommitted edits in this checkout are part of the change side.
``--smoke`` passes ``--smoke`` on to ``perfbench/run.py``: tiny sizes, which
check that the tool runs end to end and measure nothing.

For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side), the median gap in the metric's better direction next to
the base's interquartile range, and two verdicts:

* the gain rule holds when the change wins at least nine tenths of the
  pairs and the gap exceeds the base's interquartile range;
* the no-regression check reads "regressed" when the change's median is
  worse than the base's by more than the metric's ``bound`` (a fraction of
  the base median), "unresolved" when the base's interquartile range is
  wider than that bound and not every change run beats every base run,
  and "within bound" otherwise.

Each pair's values go to stderr as the pairs finish.  The exit code says
only whether the runs completed, never what the verdicts read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: Path, args) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``tree``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_bench: {' '.join(cmd)} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values) -> tuple:
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _summary(metric: dict, base: list, change: list) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    (b1, bm, b3), (c1, cm, c3) = _quartiles(base), _quartiles(change)
    gap, iqr = sign * (bm - cm), b3 - b1
    claim = wins >= 0.9 * len(base) and gap > iqr
    bound = metric["bound"] * abs(bm)
    if -gap > bound:
        check = "regressed"
    elif iqr > bound and not all(sign * (b - c) > 0
                                 for b in base for c in change):
        check = "unresolved"
    else:
        check = "within bound"
    return (f"{metric['name']:12s} {metric['better']:6s} "
            f"{bm:.6g} [{b1:.6g}, {b3:.6g}]  {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"{wins}/{len(base)}  {gap:.6g} / {iqr:.6g}  "
            f"{'holds' if claim else 'fails'}  {check}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git revision to compare against")
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: checks the tool runs, measures nothing")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    base_rev = _git("rev-parse", "--short", args.base)
    samples = {"base": [], "change": []}
    failed = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), base_rev)
        trees = {"base": tree, "change": ROOT}
        order = ["base", "change"]
        try:
            for i in range(args.pairs):
                for side in order:
                    result = _run(trees[side], args)
                    samples[side].append({k: v["value"] for k, v
                                          in result["metrics"].items()})
                    failed[side] += result["failed"]
                print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                      + "  ".join(f"{name} {samples['base'][-1][name]:.6g} -> "
                                  f"{samples['change'][-1][name]:.6g}"
                                  for name in names), file=sys.stderr)
                order.reverse()
        finally:
            _git("worktree", "remove", "--force", str(tree))
    print(f"{args.workload}  base {base_rev}  change {ROOT}  seed {args.seed}"
          f"  --seconds {args.seconds:g}{'  --smoke' if args.smoke else ''}"
          f"  {args.pairs} pairs  failed "
          f"repetitions: base {failed['base']}, change {failed['change']}")
    print("metric       better base median [q1, q3]  "
          "change median [q1, q3]  change won  gap / base IQR  gain rule  "
          "no regression")
    for m in metrics:
        base, change = ([s[m["name"]] for s in samples[side]]
                        for side in ("base", "change"))
        print(_summary(m, base, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
