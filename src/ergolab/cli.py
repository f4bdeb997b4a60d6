"""Command-line interface: maps + observables -> reproducible JSON reports.

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
error, 4 analysis error, 5 verification failure.

Reports are byte-identical across reruns with the same config and seed:
JSON keys are sorted, floats use repr, and timestamps live only in the
``*.meta.json`` sidecar files.

``main`` sets up every command from the handler table ``_COMMANDS``,
emits the report a handler returns, and exits 5 on a false verdict.  Every
ensemble command (``sigma``, ``clt``, ``fclt``, ``verify``, ``report``) runs
one Green-Kubo solve and one seeded ensemble with variance-growth
checkpoints; the variance-growth estimate and the CLT/FCLT tests all read
that run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

from . import __version__
from .decay import MIN_CLASSIFY_N, decay_report
from .errors import (
    ConfigurationError,
    ConvergenceError,
    ErgolabError,
    FitError,
    InvalidInputError,
    ParameterError,
)
from .function_space import _table, lp_norm
from .gordin import coboundary_detect, gordin_decompose
from .maps import builtin_map
from .montecarlo import (
    MIN_BURNIN,
    EnsembleConfig,
    PathEnsemble,
    run_ensemble,
    sigma_green_kubo,
)
from .observables import build_observable
from .stats import clt_test, fclt_test
from .transfer import resolve_measure

SCHEMA = "ergolab/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ANALYSIS = 4
EXIT_VERIFY = 5

# estimates below this fraction of ||h||_2 are routed to coboundary detection
SIGMA_SMALL_FRACTION = 0.05


def _load_config(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# name -> (type, default, help); every subcommand takes every flag
_FLAGS = {
    "map": (str, None, "map spec NAME[:PARAM], e.g. lsv:0.25"),
    "obs": (str, None, "observable spec (builtin or expression)"),
    "cells": (int, 4096, "quadrature grid cells"),
    "n": (int, 4096, "Birkhoff sum length"),
    "n_max": (int, 64, "decay sequence length"),
    "samples": (int, 100_000, "ensemble size (orbits)"),
    "burnin": (int, MIN_BURNIN, "burn-in steps of orbits that start from "
               f"Lebesgue measure (at least {MIN_BURNIN})"),
    "seed": (int, None, "master seed, required for ensemble commands"),
    # the CPUs this process may run on, not the host's count
    "threads": (int, (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1),
                "ensemble workers; reports do not depend on it"),
    "m": (int, 64, "FCLT path grid resolution; it changes no report"),
    "out": (str, None, "output directory"),
    "config": (str, None, "flat key=value config file; flags override"),
}


def _merge_config(args: argparse.Namespace):
    """Config file supplies defaults; explicit flags win."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in cfg.items():
        if key not in _FLAGS or key == "config":
            raise ConfigurationError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _FLAGS[key][0](value))
            except ValueError:
                raise ConfigurationError(
                    f"config key {key!r} needs an integer, got {value!r}") from None


def _json(obj) -> str:
    """Sorted, indented JSON; result objects serialise by their ``to_json``."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda result: result.to_json()) + "\n"


def _emit(args, name: str, payload: dict, files: dict):
    """Print the JSON report; mirror it, a timestamp sidecar and the data
    ``files`` into --out."""
    text = _json({"schema": SCHEMA, **payload})
    sys.stdout.write(text)
    if args.out:
        meta = {"command": name, "version": __version__,
                "generated_at": datetime.datetime.now(
                    datetime.timezone.utc).isoformat()}
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for fname, content in {f"{name}.json": text,
                               f"{name}.meta.json": _json(meta),
                               **files}.items():
            (outdir / fname).write_text(content)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigurationError(f"--{name} is required for this command")


def _n_schedule(n: int) -> list:
    """The variance-growth checkpoints n/16, n/8, ..., n."""
    return sorted({max(1, n // 2**k) for k in range(4, -1, -1)})


def _setup(args, need_obs: bool, ensemble: bool) -> tuple:
    """The handler's inputs: map, measure and observable (None unless
    ``need_obs``), then, for an ``ensemble`` command, the Green-Kubo result
    and the ensemble run at the ``_n_schedule`` checkpoints.  Every flag is
    checked before any operator work."""
    imap = builtin_map(args.map)
    if need_obs:
        _require(args, "obs")
    if ensemble:
        _require(args, "seed")
        cfg = EnsembleConfig(samples=args.samples, n=args.n, seed=args.seed,
                             burnin=args.burnin, threads=args.threads)
        cfg.resolved_mode(imap)  # the burn-in floor
    nu = resolve_measure(imap, imap.default_grid(args.cells))
    obs = build_observable(args.obs, imap, nu) if need_obs else None
    if not ensemble:
        return imap, nu, obs
    obs.mc_mean  # the orbit centre, computed here so forked workers inherit it
    return (imap, nu, obs, sigma_green_kubo(imap, nu, obs.grid_function),
            run_ensemble(imap, obs, cfg, checkpoints=_n_schedule(args.n)))


def _density_files(nu) -> dict:
    """density.csv, and density.dat with one "node value" line per node."""
    return {"density.csv": nu.to_csv(),
            "density.dat": _table("", nu.grid.nodes, nu.values, sep=" ")}


def _decay_dat(decay) -> str:
    """decay.dat: one "n l1 l2 cesaro" line per n."""
    return _table("", range(1, decay.l2.size + 1), decay.l1, decay.l2,
                  decay.cesaro, sep=" ")


def cmd_density(args, imap, nu, obs):
    payload = {"map": imap.label, "cells": args.cells, "measure": nu.name,
               "closed_form": nu.closed_form,
               "total_mass": float(nu.masses.sum())}
    return payload, _density_files(nu)


def cmd_decay(args, imap, nu, obs):
    report = decay_report(imap, nu, obs.grid_function, observable=args.obs,
                          n_max=args.n_max)
    return report.to_json(), {"decay.csv": report.to_csv(),
                              "decay.dat": _decay_dat(report)}


def cmd_gordin(args, imap, nu, obs):
    gd = gordin_decompose(imap, nu, obs.grid_function)
    payload = {"map": imap.label, "observable": args.obs, **gd.to_json()}
    return payload, {"martingale_part.csv": gd.h_tilde.to_csv()}


def cmd_sigma(args, imap, nu, obs, gk, run):
    gd = gordin_decompose(imap, nu, obs.grid_function)
    return {"map": imap.label, "observable": args.obs, "green_kubo": gk,
            "variance_growth": [{"n": n, "sigma": s}
                                for n, s in run.variance_growth()],
            "martingale_norm": gd.sigma_mart}, {}


def _limit_tests(args, imap, nu, obs, run, sigma_values: dict):
    """The CLT test over one run, and the FCLT tests too when sigma > 0,
    except for ``clt``.

    A declared or near-zero-sigma observable goes to coboundary detection
    first; a detected coboundary takes the degenerate test (sigma = 0).
    Returns (report dict, paths or None, detection or None).
    """
    h = obs.grid_function
    h_l2 = lp_norm(h, 2)
    sigma = sigma_values["green_kubo"]
    coboundary = None
    if sigma <= SIGMA_SMALL_FRACTION * h_l2 or obs.is_declared_coboundary:
        coboundary = coboundary_detect(imap, nu, h)
        if coboundary.is_coboundary:
            sigma = 0.0
    tests = [clt_test(run.S, run.n, sigma, h_l2=h_l2)]
    paths = None
    if args.command != "clt" and sigma > 0:
        paths = PathEnsemble.from_run(run, sigma, args.m)
        tests += fclt_test(paths)
    report = {"map": imap.label, "observable": args.obs, "tests": tests,
              "sigma": sigma_values, "sigma_used": "green_kubo",
              "verdict": all(t["verdict"] for t in tests)}
    return report, paths, coboundary


def cmd_limit_tests(args, imap, nu, obs, gk, run):
    """``clt`` (the CLT test) and ``fclt`` (the CLT and FCLT tests)."""
    report, paths, _ = _limit_tests(args, imap, nu, obs, run,
                                    {"green_kubo": gk.sigma})
    return report, ({"fclt_functionals.csv": paths.functionals_csv()}
                    if paths else {})


def cmd_verify(args, imap, nu, obs, gk, run):
    """Decay, Gordin, sigma estimates and the CLT and FCLT tests."""
    h = obs.grid_function
    gd = gordin_decompose(imap, nu, h)
    sigma_values = {"green_kubo": gk.sigma,
                    "variance_growth": run.variance_growth()[-1][1],
                    "martingale_norm": gd.sigma_mart}
    payload, _, coboundary = _limit_tests(args, imap, nu, obs, run,
                                          sigma_values)
    payload.update(decay=decay_report(imap, nu, h, observable=args.obs,
                                      n_max=args.n_max),
                   gordin=gd, coboundary=coboundary, h_l2=lp_norm(h, 2))
    return payload, {}


def cmd_report(args, imap, nu, obs, gk, run):
    """``verify``'s report with the density block, and the data files."""
    payload, _ = cmd_verify(args, imap, nu, obs, gk, run)
    payload["density"] = {"measure": nu.name, "closed_form": nu.closed_form}
    return payload, {**_density_files(nu),
                     "decay.dat": _decay_dat(payload["decay"])}


# command -> (handler, needs an observable, runs the ensemble step)
_COMMANDS = {
    "density": (cmd_density, False, False),
    "decay": (cmd_decay, True, False),
    "gordin": (cmd_gordin, True, False),
    "sigma": (cmd_sigma, True, True),
    "clt": (cmd_limit_tests, True, True),
    "fclt": (cmd_limit_tests, True, True),
    "verify": (cmd_verify, True, True),
    "report": (cmd_report, True, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Transfer-operator diagnostics and CLT/FCLT verification "
                    "for interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        # default None marks a flag not given, so a config file may set it
        for key, (kind, _, text) in _FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           default=None, help=text)
    return parser


def main(argv=None) -> int:
    """Set up, run and emit one command; a false verdict exits 5."""
    args = build_parser().parse_args(argv)
    try:
        _merge_config(args)
        for key, (_, default, _) in _FLAGS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        _require(args, "map")
        for flag, value, floor in (("--m", args.m, 1),
                                   ("--n-max", args.n_max, MIN_CLASSIFY_N)):
            if value < floor:
                raise ConfigurationError(f"{flag} must be >= {floor}, got {value}")
        handler, need_obs, ensemble = _COMMANDS[args.command]
        payload, files = handler(args, *_setup(args, need_obs, ensemble))
        _emit(args, args.command, payload, files)
        return EXIT_OK if payload.get("verdict", True) else EXIT_VERIFY
    except (ConfigurationError, ParameterError, InvalidInputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (FitError, ErgolabError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
