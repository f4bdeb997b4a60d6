"""The three benchmark workloads: set-up, main call, correctness checks.

A workload is described by plain data (``WORKLOADS`` and ``SIZES``) so the
orchestrator can read it without importing ergolab.  The functions below
that touch ergolab import it lazily; they run inside a worker process.

Why these three (see README.md for the layer each one stresses):

* ``verify-doubling`` -- closed-form density, branch backend, bit-queue
  sampler: the ensemble never calls the forward map, and the exact answer
  sigma^2 = 1/2 gives a hard check.  Bypass for forward-map changes.
* ``verify-lsv`` -- Ulam backend and burn-in-orbit sampler: the run is
  dominated by the forward map inside ``run_ensemble``.
* ``analysis-lsv-coboundary`` -- operator pipeline with no ensemble at a
  4x larger grid: dominated by transfer applications inside the Gordin
  resolvent series; bypass for ensemble changes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout

WORKLOADS = {
    "verify-doubling": {"kind": "verify", "map": "doubling", "obs": "cos1"},
    "verify-lsv": {"kind": "verify", "map": "lsv:0.25", "obs": "lip1"},
    "analysis-lsv-coboundary": {"kind": "analysis", "map": "lsv:0.25",
                                "obs": "coboundary:lip1"},
}

# "full" is the measured configuration; "smoke" only proves the plumbing.
SIZES = {
    "full": {"verify_cells": 4096, "analysis_cells": 16384,
             "samples": 20000, "n": 4096, "m": 64},
    "smoke": {"verify_cells": 1024, "analysis_cells": 1024,
              "samples": 5000, "n": 512, "m": 64},
}

# Acceptance tolerances, taken from tests/test_acceptance.py and the
# closed form for doubling/cos1.
SIGMA_DOUBLING_COS1 = 1.0 / math.sqrt(2.0)
SIGMA_ABS_TOL = 1e-3
SIGMA_REL_TOL = 0.05
COBOUNDARY_RESIDUAL_TOL = 1e-3
SIGMA2_DEGENERATE_TOL = 1e-3
CAUCHY_SLACK_FLOOR = -1e-8
CAUCHY_SLACK_COUNT = 11


def cells(workload: str, size: str) -> int:
    kind = WORKLOADS[workload]["kind"]
    return SIZES[size][f"{kind}_cells"]


def birkhoff_steps(workload: str, size: str) -> int:
    """Orbit steps the verdict rests on: samples x n (0 without ensemble)."""
    if WORKLOADS[workload]["kind"] != "verify":
        return 0
    return SIZES[size]["samples"] * SIZES[size]["n"]


def verify_argv(workload: str, size: str, seed: int, threads: int) -> list:
    w, s = WORKLOADS[workload], SIZES[size]
    return ["verify", "--map", w["map"], "--obs", w["obs"],
            "--cells", str(s["verify_cells"]), "--samples", str(s["samples"]),
            "--n", str(s["n"]), "--m", str(s["m"]), "--seed", str(seed),
            "--threads", str(threads)]


def setup(workload: str, size: str):
    """builtin_map + resolve_measure + build_observable (timed as setup_s)."""
    from ergolab import build_observable, builtin_map, resolve_measure

    w = WORKLOADS[workload]
    imap = builtin_map(w["map"])
    nu = resolve_measure(imap, imap.default_grid(cells(workload, size)))
    obs = build_observable(w["obs"], imap, nu)
    return imap, nu, obs


def main_call(workload: str, size: str, seed: int, threads: int, ctx):
    """The timed call after set-up.  Returns the raw outcome for ``check``."""
    if WORKLOADS[workload]["kind"] == "verify":
        from ergolab import cli

        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(verify_argv(workload, size, seed, threads))
        return {"rc": rc, "text": out.getvalue()}

    from ergolab import (coboundary_detect, decay_report, gordin_decompose,
                         sigma_green_kubo)

    imap, nu, obs = ctx
    h = obs.grid_function
    return {
        "decay": decay_report(imap, nu, h, observable=obs.spec),
        "green_kubo": sigma_green_kubo(imap, nu, h),
        "gordin": gordin_decompose(imap, nu, h),
        "coboundary": coboundary_detect(imap, nu, h),
    }


def report_hash(workload: str, outcome) -> str:
    """sha256 of the report (the verify JSON, or the analysis results with
    sorted keys); it must repeat for one seed."""
    if WORKLOADS[workload]["kind"] == "verify":
        text = outcome["text"]
    else:
        text = json.dumps({k: v.to_json() for k, v in outcome.items()},
                          sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload: str, outcome, ctx) -> dict:
    """Named pass/fail correctness checks for one repetition."""
    if WORKLOADS[workload]["kind"] == "verify":
        rep = json.loads(outcome["text"])
        sig = rep["sigma"]
        gk = sig["green_kubo"]
        checks = {
            "exit_code_0": outcome["rc"] == 0,
            "verdict_true": rep["verdict"] is True,
            "variance_growth_within_5pct": (
                abs(sig["variance_growth"] - gk) <= SIGMA_REL_TOL * gk),
            "martingale_norm_within_5pct": (
                abs(sig["martingale_norm"] - gk) <= SIGMA_REL_TOL * gk),
        }
        if WORKLOADS[workload]["map"] == "doubling":
            checks["sigma_gk_closed_form"] = (
                abs(gk - SIGMA_DOUBLING_COS1) < SIGMA_ABS_TOL)
        return checks

    from ergolab import lp_norm

    _, _, obs = ctx
    tail_tol = 1e-6 * lp_norm(obs.grid_function, 2)  # gordin_decompose default
    cb, gk, gd = outcome["coboundary"], outcome["green_kubo"], outcome["gordin"]
    return {
        "coboundary_true": cb.verdict == "true",
        "coboundary_residual": cb.residual < COBOUNDARY_RESIDUAL_TOL,
        "sigma2_gk_degenerate": abs(gk.sigma2) < SIGMA2_DEGENERATE_TOL,
        "resolvent_residuals": max(gd.resolvent_residuals) < 2 * tail_tol,
        "cauchy_slack_count": len(gd.cauchy_slacks) == CAUCHY_SLACK_COUNT,
        "cauchy_slacks_nonnegative": min(gd.cauchy_slacks) >= CAUCHY_SLACK_FLOOR,
    }
