"""Smoke test of the benchmark at tiny sizes (about a minute).

Usage (from the repository root): python3 perfbench/smoke.py

For every workload, untraced and traced, it runs ``run.py --smoke`` and
checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit, and that every repetition ran its correctness
checks, passed them and produced a report hash.  It also checks that the
benchmark refuses to run, without a result line, in a directory that holds
only BENCHMARK.json and the benchmark itself.  Exit code 0 means all held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 5


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> list:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    errors = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"correct={result['correct']} failed={result['failed']}"
                      f" attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        errors.append(f"metrics/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}, "
                      f"units {[k for k in got if wanted.get(k, got[k]) != got[k]]}")
    if not all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values()):
        errors.append("a metric value is not a number")
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-smoke-seed"
                         f"{SEED}-trace{trace}.json").read_text())
    for rep in record["repetitions"]:
        if rep["mode"] in ("run", "trace"):
            res = rep["result"] or {}
            if not res.get("checks") or not res.get("report_sha256"):
                errors.append(f"{rep['mode']} repetition without checks or hash")
    return errors


def check_refuses_without_sources() -> list:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "verify-doubling", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the ergolab sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        print("FAIL workloads differ from BENCHMARK.json")
        return 1
    failed = False
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            errors = check_workload(spec, workload, trace)
            failed |= bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
    errors = check_refuses_without_sources()
    failed |= bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without sources")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
