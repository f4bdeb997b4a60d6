"""Norm-decay sequences of transfer iterates and condition classification.

Computes ||P^n h||_p and the Cesaro norms ||sum_{k<n} P^k h||_2 and fits
polynomial rates on a pre-asymptotic window (the finite Ulam/branch matrix
has a spectral gap, so the decay turns spuriously exponential at large n;
the window n in [8, 64] stays clear of that).  The resulting flags
are evidence of consistency with the CLT/FCLT hypotheses, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FitError, PreconditionError
from .function_space import GridFunction, MeasureDensity, weighted_norm
from .maps import IntervalMap
from .transfer import _backend_for, _memo

__all__ = [
    "DecayReport",
    "RateFit",
    "norm_decay_sequence",
    "cesaro_norm_sequence",
    "fit_polynomial_rate",
    "classify_conditions",
    "decay_report",
]

MARGIN = 0.05  # slack on each exponent threshold
ZERO_NORM_TOL = 1e-6  # of ||h||_2: the fit window's ||P^n h||_2 reads as 0
MIN_CLASSIFY_N = 32  # shortest sequences classify_conditions accepts


def _sweep(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
           n_max: int, backend: str):
    """One pass over P^k h: the backend kind and, for n = 1..n_max,
    ||P^n h||_1, ||P^n h||_2 and ||sum_{k=0}^{n-1} P^k h||_2."""
    op = _backend_for(imap, nu, h, kind=backend)
    masses = nu.masses

    def sweep():
        l1, l2, ces = np.empty(n_max), np.empty(n_max), np.empty(n_max)
        v = h.values
        acc = v.copy()
        for n in range(n_max):
            ces[n] = weighted_norm(acc, masses, 2)
            v = op.apply(v)
            acc += v
            l1[n] = weighted_norm(v, masses, 1)
            l2[n] = weighted_norm(v, masses, 2)
        return l1, l2, ces

    return (op.kind, *_memo(op, ("sweep", n_max), h.values, sweep))


def norm_decay_sequence(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                        p: int, n_max: int, backend: str = "auto") -> np.ndarray:
    """[||P^n h||_p for n = 1..n_max]."""
    if n_max < 2:
        raise PreconditionError("n_max must be >= 2")
    if p not in (1, 2):
        raise FitError(f"unsupported norm exponent {p}")
    _, l1, l2, _ = _sweep(imap, nu, h, n_max, backend)
    return l1 if p == 1 else l2


def cesaro_norm_sequence(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                         n_max: int) -> np.ndarray:
    """[||sum_{k=0}^{n-1} P^k h||_2 for n = 1..n_max] (k=0 term is h itself)."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    return _sweep(imap, nu, h, n_max, "auto")[3]


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    max_log_residual: float
    fit_range: tuple

    def to_json(self):
        return {
            "exponent": self.exponent,
            "intercept": self.intercept,
            "max_log_residual": self.max_log_residual,
            "fit_range": list(self.fit_range),
        }


def fit_polynomial_rate(seq, fit_range) -> RateFit:
    """Least-squares slope of log(seq_n) against log(n) over [n_lo, n_hi]."""
    seq = np.asarray(seq, dtype=float)
    n_lo, n_hi = fit_range
    if n_hi > seq.size or n_lo < 1 or n_lo >= n_hi:
        raise FitError(f"fit range {fit_range} incompatible with length {seq.size}")
    window = seq[n_lo - 1:n_hi]
    if np.any(window <= 0):
        raise FitError("non-positive entries in fit window")
    ln = np.log(np.arange(n_lo, n_hi + 1, dtype=float))
    lv = np.log(window)
    slope, intercept = np.polyfit(ln, lv, 1)
    resid = np.max(np.abs(lv - (slope * ln + intercept)))
    return RateFit(float(slope), float(intercept), float(resid), (n_lo, n_hi))


@dataclass
class DecayReport:
    map_label: str
    observable: str
    backend: str
    l1: np.ndarray
    l2: np.ndarray
    cesaro: np.ndarray
    fits: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "map": self.map_label,
            "observable": self.observable,
            "backend": self.backend,
            "l1": self.l1.tolist(),
            "l2": self.l2.tolist(),
            "cesaro": self.cesaro.tolist(),
            "fits": {k: v.to_json() for k, v in self.fits.items() if v is not None},
            "flags": dict(self.flags),
            "diagnostics": dict(self.diagnostics),
        }

    def to_csv(self) -> str:
        rows = zip(self.l1.tolist(), self.l2.tolist(), self.cesaro.tolist())
        return "n,l1,l2,cesaro\n" + "".join(
            f"{n},{l1!r},{l2!r},{c!r}\n" for n, (l1, l2, c) in enumerate(rows, 1)
        )


def _safe_fit(seq, rng) -> Optional[RateFit]:
    try:
        return fit_polynomial_rate(seq, rng)
    except FitError:
        return None


def classify_conditions(map_label: str, observable: str, backend: str,
                        l1: np.ndarray, l2: np.ndarray,
                        cesaro: np.ndarray) -> DecayReport:
    """Set pass/fail/unknown flags for the four operator-norm conditions,
    fitting rates over n in [8, min(64, n_max)]."""
    n_max = l2.size
    if n_max < MIN_CLASSIFY_N:
        raise PreconditionError(f"classification needs n_max >= {MIN_CLASSIFY_N}")
    fit_range = (8, min(64, n_max))
    report = DecayReport(map_label, observable, backend, l1, l2, cesaro)
    report.diagnostics["fit_range"] = list(fit_range)
    report.diagnostics["margin"] = MARGIN

    if np.max(l2[fit_range[0] - 1:]) <= ZERO_NORM_TOL * cesaro[0]:
        # finite-step annihilation (P^k h = 0): every decay condition holds
        # trivially and the fit window contains only roundoff noise; the
        # tolerance scales with ||h||_2 = cesaro[0], and h = 0 lands here.
        report.flags = {
            "l2_decay_beta_gt_half": "pass",
            "l1_series_summable": "pass",
            "cesaro_alpha_lt_half": "pass",
            "coboundary_bounded": "pass",
        }
        report.diagnostics["fast_path"] = "finite-step annihilation"
        return report

    fit_l1 = _safe_fit(l1, fit_range)
    fit_l2 = _safe_fit(l2, fit_range)
    fit_ces = _safe_fit(cesaro, fit_range)
    report.fits = {"l1": fit_l1, "l2": fit_l2, "cesaro": fit_ces}

    def verdict(cond):
        return "pass" if cond else "fail"

    if fit_l2 is None:
        report.flags["l2_decay_beta_gt_half"] = "unknown"
    else:
        report.flags["l2_decay_beta_gt_half"] = verdict(fit_l2.exponent < -0.5 - MARGIN)

    # summability of n^(-1/2) ||P^n h||_2: plateau of the partial sums
    terms = l2 / np.sqrt(np.arange(1, n_max + 1))
    partial = np.cumsum(terms)
    q = max(1, n_max - n_max // 4)
    increment = (partial[-1] - partial[q - 1]) / partial[-1]
    report.diagnostics["l1_tail_increment"] = float(increment)
    report.flags["l1_series_summable"] = verdict(increment < 0.01)

    if fit_ces is None:
        report.flags["cesaro_alpha_lt_half"] = "unknown"
        report.flags["coboundary_bounded"] = "unknown"
    else:
        report.flags["cesaro_alpha_lt_half"] = verdict(fit_ces.exponent < 0.5 - MARGIN)
        report.flags["coboundary_bounded"] = verdict(fit_ces.exponent < MARGIN)
    return report


def decay_report(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                 observable: str = "h", n_max: int = 64) -> DecayReport:
    """Full decay diagnostics for one (map, observable) pair."""
    if n_max < MIN_CLASSIFY_N:
        raise PreconditionError(
            f"classification needs n_max >= {MIN_CLASSIFY_N}")
    kind, l1, l2, ces = _sweep(imap, nu, h, n_max, "auto")
    return classify_conditions(imap.label, observable, kind, l1, l2, ces)
