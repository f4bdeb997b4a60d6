"""Command-line interface: maps + observables -> reproducible JSON reports.

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
error, 4 analysis error, 5 verification failure.

Reports are byte-identical across reruns with the same config and seed:
JSON keys are sorted, floats use repr, and timestamps live only in the
``*.meta.json`` sidecar files.

``verify`` and ``report`` simulate one seeded ensemble; the variance-growth
estimate and the CLT/FCLT tests all read that run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Optional

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
from .function_space import lp_norm
from .gordin import coboundary_detect, gordin_decompose
from .maps import builtin_map
from .montecarlo import (
    MIN_BURNIN,
    EnsembleConfig,
    EnsembleRun,
    PathEnsemble,
    run_ensemble,
    sigma_green_kubo,
    sigma_variance_growth,
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
    "cells": (int, 4096, None),
    "n": (int, 4096, "Birkhoff sum length"),
    "n_max": (int, 64, "decay sequence length"),
    "samples": (int, 100_000, None),
    "burnin": (int, MIN_BURNIN, None),
    "seed": (int, None, None),
    # the CPUs this process may run on, not the host's count
    "threads": (int, (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1), None),
    "m": (int, 64, "path grid resolution for FCLT tests"),
    "out": (str, None, "output directory"),
    "config": (str, None, "flat key=value config file; flags override"),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Config file supplies defaults; explicit flags win."""
    if not args.config:
        return args
    cfg = _load_config(args.config)
    for key, value in cfg.items():
        if key not in _FLAGS or key == "config":
            raise ConfigurationError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _FLAGS[key][0](value))
            except ValueError:
                raise ConfigurationError(
                    f"config key {key!r} needs an integer, got {value!r}") from None
    return args


def _emit(args, name: str, payload: dict, csv_files: Optional[dict] = None):
    """Print the JSON report; mirror it (plus CSV/dat data) into --out."""
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{name}.json").write_text(text)
        meta = {
            "command": name,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "version": __version__,
        }
        (outdir / f"{name}.meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n"
        )
        for fname, content in (csv_files or {}).items():
            (outdir / fname).write_text(content)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigurationError(f"--{name} is required for this command")


def _setup(args, need_obs: bool = True, ensemble: bool = False):
    """Map, measure, observable and ensemble config; flags are checked first."""
    imap = builtin_map(args.map)
    if need_obs:
        _require(args, "obs")
    cfg = None
    if ensemble:
        _require(args, "seed")
        cfg = EnsembleConfig(samples=args.samples, n=args.n, seed=args.seed,
                             burnin=args.burnin, threads=args.threads)
        cfg.resolved_mode(imap)  # the burn-in floor
    nu = resolve_measure(imap, imap.default_grid(args.cells))
    obs = build_observable(args.obs, imap, nu) if need_obs else None
    return imap, nu, obs, cfg


def _n_schedule(n: int) -> list:
    """The variance-growth checkpoints n/16, n/8, ..., n."""
    return sorted({max(1, n // 2**k) for k in range(4, -1, -1)})


def _density_dat(nu) -> str:
    """density.dat: one "node value" line per grid node."""
    return "".join(f"{x!r} {v!r}\n"
                   for x, v in zip(nu.grid.nodes.tolist(), nu.values.tolist()))


def _decay_dat(decay: dict) -> str:
    """decay.dat from a decay report's JSON: one "n l1 l2 cesaro" line per n."""
    rows = zip(decay["l1"], decay["l2"], decay["cesaro"])
    return "".join(f"{n} {float(l1)!r} {float(l2)!r} {float(c)!r}\n"
                   for n, (l1, l2, c) in enumerate(rows, 1))


def cmd_density(args) -> int:
    imap, nu, _, _ = _setup(args, need_obs=False)
    payload = {
        "map": imap.label,
        "cells": args.cells,
        "measure": nu.name,
        "closed_form": nu.closed_form,
        "total_mass": float(nu.masses.sum()),
    }
    _emit(args, "density", payload,
          {"density.csv": nu.to_csv(), "density.dat": _density_dat(nu)})
    return EXIT_OK


def cmd_decay(args) -> int:
    imap, nu, obs, _ = _setup(args)
    report = decay_report(imap, nu, obs.grid_function, observable=args.obs,
                          n_max=args.n_max)
    payload = report.to_json()
    _emit(args, "decay", payload,
          {"decay.csv": report.to_csv(), "decay.dat": _decay_dat(payload)})
    return EXIT_OK


def cmd_gordin(args) -> int:
    imap, nu, obs, _ = _setup(args)
    gd = gordin_decompose(imap, nu, obs.grid_function)
    payload = {"map": imap.label, "observable": args.obs, **gd.to_json()}
    _emit(args, "gordin", payload,
          {"martingale_part.csv": gd.h_tilde.to_csv()})
    return EXIT_OK


def cmd_sigma(args) -> int:
    imap, nu, obs, cfg = _setup(args, ensemble=True)
    h = obs.grid_function
    gk = sigma_green_kubo(imap, nu, h)
    vg = sigma_variance_growth(imap, obs, _n_schedule(args.n), cfg)
    gd = gordin_decompose(imap, nu, h)
    payload = {
        "map": imap.label,
        "observable": args.obs,
        "green_kubo": gk.to_json(),
        "variance_growth": [{"n": n, "sigma": s} for n, s in vg],
        "martingale_norm": gd.sigma_mart,
    }
    _emit(args, "sigma", payload)
    return EXIT_OK


def _limit_tests(args, imap, nu, obs, run: EnsembleRun, sigma_values: dict,
                 with_fclt: bool):
    """CLT test, and FCLT tests when asked and sigma > 0, over one run.

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
    if with_fclt and sigma > 0:
        paths = PathEnsemble.from_run(run, sigma, args.m)
        tests += fclt_test(paths)
    report = {"map": imap.label, "observable": args.obs, "tests": tests,
              "sigma": sigma_values, "sigma_used": "green_kubo",
              "verdict": all(t["verdict"] for t in tests)}
    return report, paths, coboundary


def cmd_limit_tests(args) -> int:
    """``clt`` (the CLT test) and ``fclt`` (the CLT and FCLT tests)."""
    imap, nu, obs, cfg = _setup(args, ensemble=True)
    gk = sigma_green_kubo(imap, nu, obs.grid_function)
    run = run_ensemble(imap, obs, cfg)
    report, paths, _ = _limit_tests(args, imap, nu, obs, run,
                                    {"green_kubo": gk.sigma},
                                    with_fclt=args.command == "fclt")
    csv_files = {"fclt_functionals.csv": paths.functionals_csv()} if paths else None
    _emit(args, args.command, report, csv_files)
    return EXIT_OK if report["verdict"] else EXIT_VERIFY


def _verify_payload(args, imap, nu, obs, cfg) -> dict:
    """Decay, Gordin, sigma estimates and limit tests; the variance-growth
    estimate and the limit tests read one ensemble run."""
    h = obs.grid_function
    decay = decay_report(imap, nu, h, observable=args.obs, n_max=args.n_max)
    gd = gordin_decompose(imap, nu, h)
    gk = sigma_green_kubo(imap, nu, h)
    run = run_ensemble(imap, obs, cfg, checkpoints=_n_schedule(args.n))
    sigma_values = {
        "green_kubo": gk.sigma,
        "variance_growth": run.variance_growth()[-1][1],
        "martingale_norm": gd.sigma_mart,
    }
    payload, _, coboundary = _limit_tests(args, imap, nu, obs, run,
                                          sigma_values, with_fclt=True)
    payload["decay"] = decay.to_json()
    payload["gordin"] = gd.to_json()
    payload["coboundary"] = coboundary.to_json() if coboundary else None
    payload["h_l2"] = lp_norm(h, 2)
    return payload


def cmd_verify(args) -> int:
    payload = _verify_payload(args, *_setup(args, ensemble=True))
    _emit(args, "verify", payload)
    return EXIT_OK if payload["verdict"] else EXIT_VERIFY


def cmd_report(args) -> int:
    """Everything at once: density, decay, sigma, verification."""
    imap, nu, obs, cfg = _setup(args, ensemble=True)
    payload = _verify_payload(args, imap, nu, obs, cfg)
    payload["density"] = {
        "measure": nu.name,
        "closed_form": nu.closed_form,
    }
    _emit(args, "report", payload, {
        "density.csv": nu.to_csv(),
        "density.dat": _density_dat(nu),
        "decay.dat": _decay_dat(payload["decay"]),
    })
    return EXIT_OK if payload["verdict"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Transfer-operator diagnostics and CLT/FCLT verification "
                    "for interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "density": cmd_density,
        "decay": cmd_decay,
        "gordin": cmd_gordin,
        "sigma": cmd_sigma,
        "clt": cmd_limit_tests,
        "fclt": cmd_limit_tests,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=fn)
        # default None marks a flag not given, so a config file may set it
        for key, (kind, _, text) in _FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           default=None, help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        for key, (_, default, _) in _FLAGS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        _require(args, "map")
        for flag, value, floor in (("--m", args.m, 1),
                                   ("--n-max", args.n_max, MIN_CLASSIFY_N)):
            if value < floor:
                raise ConfigurationError(f"{flag} must be >= {floor}, got {value}")
        return args.handler(args)
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
