"""ergolab benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-doubling --seed 1 \
        --seconds 30 --trace 0

Every repetition runs in a fresh Python process (``worker.py``) against
the sources in ``src/``.  With ``--trace 0`` the run times set-up in
set-up-only processes before and after repeating the workload's main
call for ``--seconds`` seconds, and reports medians of ``setup_s``,
``run_s`` and ``peak_rss_mb``.  With ``--trace 1`` it makes the same untraced
repetitions (the base of ``trace.overhead_s`` and
``birkhoff_steps_per_s``), then one traced repetition and, for the
verify workloads, one thread-scaling probe, and reports the per-layer
metrics.

Each repetition is checked: exit code, verdict and the acceptance
tolerances, and the sha256 of its report must equal that of every other
repetition of the same seed.  A repetition that fails any of these counts
in ``failed``.  A human-readable table, the environment, and finally one
JSON result line are printed to stdout; the full record (every sample,
check and hash) goes to ``.perfbench_out/``.

``--smoke`` runs the same code at tiny sizes; ``smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "transfer.resolve_measure_s": "s",
    "transfer.ulam_matrix_s": "s",
    "transfer.stationary_vector_s": "s",
    "observables.build_s": "s",
    "transfer.make_backend_calls": "count",
    "transfer.make_backend_misses": "count",
    "transfer.apply_calls": "count",
    "transfer.apply_s": "s",
    "transfer.apply_us": "us",
    "transfer.apply_flops_computed": "flop",
    "transfer.apply_bytes_computed": "B",
    "gordin.decompose_s": "s",
    "gordin.decompose_apply_calls": "count",
    "gordin.decompose_self_s": "s",
    "gordin.coboundary_s": "s",
    "gordin.coboundary_apply_calls": "count",
    "decay.report_s": "s",
    "decay.apply_calls": "count",
    "montecarlo.green_kubo_s": "s",
    "montecarlo.green_kubo_apply_calls": "count",
    "montecarlo.run_ensemble_calls": "count",
    "montecarlo.run_ensemble_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.orbit_steps": "count",
    "montecarlo.burnin_steps": "count",
    "montecarlo.orbit_steps_per_s": "1/s",
    "montecarlo.dropped_orbits": "count",
    "montecarlo.thread_speedup": "ratio",
    "maps.forward_calls": "count",
    "maps.forward_s": "s",
    "function_space.calls": "count",
    "function_space.s": "s",
    "observables.eval_calls": "count",
    "observables.eval_s": "s",
    "stats.ks_calls": "count",
    "stats.ks_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "birkhoff_steps_per_s": "1/s",
}

SETUP_ONLY_REPS = 4  # twice per run; set-up is short, extra samples steady it
DEADLINE_S = 170.0  # a run must end within 180 s


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Launches worker processes and keeps every repetition's record."""

    def __init__(self, job: dict, deadline: float):
        self.job = job
        self.deadline = deadline
        self.reps = []  # dicts: mode, ok, wall_s, result, error

    def call(self, mode: str, **extra) -> dict:
        job = {**self.job, "mode": mode, **extra}
        rep = {"mode": mode, "ok": False, "result": None, "error": None}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rep["error"] = "timed out"
        else:
            if proc.returncode == 0:
                rep["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
                rep["ok"] = True
            else:
                rep["error"] = (f"exit {proc.returncode}: "
                                + proc.stderr.strip()[-2000:])
        rep["wall_s"] = time.perf_counter() - t0
        self.reps.append(rep)
        return rep

    def repeat(self, mode: str, seconds: float) -> list:
        """Repeat ``mode`` while another repetition, as long as the last,
        still ends within ``seconds`` (at least once, within deadline)."""
        out = []
        t0 = time.monotonic()
        while True:
            rep = self.call(mode)
            out.append(rep)
            end = time.monotonic() + rep["wall_s"]
            if not rep["ok"] or end - t0 > seconds or end > self.deadline:
                return out

    def failures(self) -> list:
        """Reasons each failed repetition failed: error, checks, hash."""
        hashes = collections.Counter(
            r["result"]["report_sha256"] for r in self.reps
            if r["ok"] and "report_sha256" in r["result"])
        majority = hashes.most_common(1)[0][0] if hashes else None
        out = []
        for i, r in enumerate(self.reps):
            if not r["ok"]:
                out.append((i, r["error"]))
                continue
            res = r["result"]
            bad = [k for k, v in res.get("checks", {}).items() if not v]
            if bad:
                out.append((i, "checks failed: " + ", ".join(bad)))
            elif "report_sha256" in res and res["report_sha256"] != majority:
                out.append((i, "report hash differs from other repetitions"))
        return out


def samples(reps, key):
    return [r["result"][key] for r in reps if r["ok"] and key in r["result"]]


def median(values):
    return statistics.median(values) if values else 0.0


def environment(args, size: str, threads: int) -> dict:
    s = workloads.SIZES[size]
    verify = workloads.WORKLOADS[args.workload]["kind"] == "verify"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": nproc(),
        "threads": threads,
        "cells": workloads.cells(args.workload, size),
        "samples": s["samples"] if verify else 0,
        "n": s["n"],
        "m": s["m"],
        "seed": args.seed,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: checks the plumbing, measures nothing")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ergolab" / "__init__.py").is_file():
        print(f"perfbench: no ergolab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    size = "smoke" if args.smoke else "full"
    threads = nproc()
    job = {"workload": args.workload, "size": size, "seed": args.seed,
           "threads": threads}
    runner = Runner(job, start + DEADLINE_S)
    stem = f"{args.workload}-{size}-seed{args.seed}"
    is_verify = workloads.WORKLOADS[args.workload]["kind"] == "verify"

    # set-up-only processes before and after the timed repetitions, so
    # that the set-up samples span the whole run
    setup_reps = SETUP_ONLY_REPS if args.trace == 0 else 0
    for _ in range(setup_reps):
        runner.call("setup")
    runs = runner.repeat("run", args.seconds)
    for _ in range(setup_reps):
        runner.call("setup")
    run_s = median(samples(runs, "run_s"))
    birkhoff_rate = (workloads.birkhoff_steps(args.workload, size) / run_s
                     if run_s else 0.0)

    if args.trace == 0:
        metrics = {
            "setup_s": median(samples(runner.reps, "setup_s")),
            "run_s": run_s,
            "peak_rss_mb": median(samples(runs, "peak_rss_mb")),
        }
        units = E2E_UNITS
    else:
        spans_path = OUT / f"spans-{stem}.json.gz"
        traced = runner.call("trace", spans_path=str(spans_path))
        metrics = dict.fromkeys(LAYER_UNITS, 0.0)
        if traced["ok"]:
            res = traced["result"]
            metrics.update(res["layers"])
            metrics["trace.overhead_s"] = res["run_s"] - run_s
            for target in res["missing_targets"]:
                print(f"perfbench: trace target missing: {target}",
                      file=sys.stderr)
        if is_verify:
            probe = runner.call("speedup")
            if probe["ok"]:
                p = probe["result"]
                metrics["montecarlo.thread_speedup"] = (
                    p["ensemble_1_thread_s"] / p["ensemble_n_threads_s"])
        metrics["birkhoff_steps_per_s"] = birkhoff_rate
        units = LAYER_UNITS

    failures = runner.failures()
    attempted = len(runner.reps)
    env = environment(args, size, threads)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(runs)} timed repetitions of {attempted} attempted")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r:>24} {units[name]}")
    if args.trace == 0:
        if is_verify:
            print(f"  {'birkhoff_steps_per_s':36s} {birkhoff_rate!r:>24} 1/s")
        print(f"  {'failed_runs':36s} {f'{len(failures)}/{attempted}':>24} count")
    for i, reason in failures:
        print(f"perfbench: repetition {i} failed: {reason}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    record = {"env": env, "metrics": metrics, "failures": failures,
              "repetitions": runner.reps}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
