"""One benchmark repetition in a fresh Python process.

Usage: python3 perfbench/worker.py '<json job>'

The job names a workload, a size, a seed, a thread count and a mode:

* ``setup``   -- time set-up only;
* ``run``     -- time set-up, then the workload's main call, and check it;
* ``trace``   -- as ``run`` with every layer wrapped in spans;
* ``speedup`` -- time one ``run_ensemble`` at 1 thread and at ``threads``.

A fresh process per repetition keeps the module-level operator caches
cold, as they are for every command-line invocation.  The result is
printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(job):
    t0 = time.perf_counter()
    ctx = workloads.setup(job["workload"], job["size"])
    return ctx, time.perf_counter() - t0


def _timed_main(job, ctx):
    t0 = time.perf_counter()
    outcome = workloads.main_call(job["workload"], job["size"], job["seed"],
                                  job["threads"], ctx)
    return outcome, time.perf_counter() - t0


def _checked(job, outcome, ctx) -> dict:
    return {
        "checks": workloads.check(job["workload"], outcome, ctx),
        "report_sha256": workloads.report_hash(job["workload"], outcome),
    }


def do_setup(job) -> dict:
    import ergolab  # noqa: F401  (import time is not set-up time)

    _, setup_s = _timed_setup(job)
    return {"setup_s": setup_s}


def do_run(job) -> dict:
    import ergolab.cli  # noqa: F401

    ctx, setup_s = _timed_setup(job)
    outcome, run_s = _timed_main(job, ctx)
    return {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": _peak_rss_mb(),
            **_checked(job, outcome, ctx)}


def do_trace(job) -> dict:
    from tracer import Tracer, layer_metrics

    tracer = Tracer().install()
    try:
        ctx, setup_s = _timed_setup(job)
        outcome, run_s = _timed_main(job, ctx)
    finally:
        tracer.uninstall()
    if job.get("spans_path"):
        tracer.dump(job["spans_path"])
    return {"setup_s": setup_s, "run_s": run_s,
            "layers": layer_metrics(tracer), "missing_targets": tracer.missing,
            **_checked(job, outcome, ctx)}


def do_speedup(job) -> dict:
    from ergolab import EnsembleConfig, run_ensemble

    imap, _, obs = workloads.setup(job["workload"], job["size"])
    sizes = workloads.SIZES[job["size"]]
    times = {}
    for threads in (job["threads"], 1):
        cfg = EnsembleConfig(samples=sizes["samples"], n=sizes["n"],
                             seed=job["seed"], threads=threads)
        t0 = time.perf_counter()
        run_ensemble(imap, obs, cfg)
        times[threads] = time.perf_counter() - t0
    return {"ensemble_1_thread_s": times[1],
            "ensemble_n_threads_s": times[job["threads"]]}


MODES = {"setup": do_setup, "run": do_run, "trace": do_trace,
         "speedup": do_speedup}


def main() -> int:
    job = json.loads(sys.argv[1])
    result = MODES[job["mode"]](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
