"""Resolvent-based martingale decomposition and coboundary detection.

The decomposition writes a centered observable h as a martingale part plus
a small remainder: f_e solves ((1+e)I - P) f_e = h in L2(nu) (a residual
below e * tail_tol keeps f_e within tail_tol, as P is an L2(nu)
contraction), and h_e = f_e - U P f_e satisfies P h_e = 0.  Driving e -> 0
along the dyadic schedule 2^-k yields the martingale part h-tilde; the
Cauchy increments ||h_e - h_d||_2 are checked against the bound
(e+d)(||f_e||^2 + ||f_d||^2), which must never be violated.

A shift of the operator does not change its Krylov space, so one
multi-shift BiCGSTAB run (Frommer, Computing 70, 2003) of the package's
one Krylov engine, ``transfer._solve_shifted``, solves the whole
schedule and the Poisson equation (I - P) f = h, the resolvent at e = 0,
with the two applications of P per step of its seed, the smallest shift.
For each observable and tail_tol the family e = 0, 2^-1 .. 2^-K_MAX is run
once and kept in ``transfer._memo``; sigma_green_kubo, coboundary detection
and the decomposition read it in any order.

Coboundary detection takes the Poisson solution f-tilde (centred h lies in
the range of I - P) and the transfer function f = P f-tilde, so that
h = f o T - f up to the martingale part.  The finite operator always has a
solution, so a small algebraic residual ||U f - f - h||_2 flags sigma = 0
only together with bounded Cesaro norms, the sign that sum_k P^k h itself
converges.  It shares the sweep with ``decay_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import transfer
from .decay import cesaro_norm_sequence
from .function_space import GridFunction, MeasureDensity, _dot, weighted_norm
from .maps import IntervalMap
from .transfer import _backend_for, _memo

__all__ = [
    "GordinDecomposition",
    "CoboundaryResult",
    "gordin_decompose",
    "coboundary_detect",
]

K_MAX = 12  # the dyadic schedule eps_k = 2^-k runs over k = 1..K_MAX
EPS_SCHEDULE = tuple(2.0**-k for k in range(1, K_MAX + 1))
POISSON_TOL = 1e-10  # Poisson residual, relative to ||h||_2
TAIL_TOL = 1e-6  # the default tail_tol, relative to ||h||_2
COBOUNDARY_TOL = 1e-3  # residual below which h is an algebraic coboundary


def _solve_shifted(op, h: np.ndarray, shifts, tols) -> tuple:
    """``transfer._solve_shifted`` for ((1+e)I - P) f_e = h in L2(nu)."""
    masses = op.measure.masses
    return transfer._solve_shifted(op.apply, h, shifts, tols,
                                   lambda u, v: _dot(u * v, masses))


def _resolvents(op, h: np.ndarray, tail_tol: Optional[float] = None) -> tuple:
    """The family e = 0, then EPS_SCHEDULE, solved once per operator, h and
    tail_tol (default TAIL_TOL * ||h||_2; ``transfer._memo``) to the bounds
    POISSON_TOL * ||h||_2 at e = 0 and 2^-K_MAX * tail_tol for every e > 0;
    returns the read-only f_e as rows of one array and their residuals."""
    h_norm = weighted_norm(h, op.measure.masses)
    if tail_tol is None:
        tail_tol = TAIL_TOL * max(h_norm, 1e-30)
    bounds = [POISSON_TOL * h_norm] + [EPS_SCHEDULE[-1] * tail_tol] * K_MAX
    return _memo(op, ("resolvents", tail_tol), h, lambda: _solve_shifted(
        op, h, (0.0, *EPS_SCHEDULE), bounds))


def solve_poisson(op, h: np.ndarray) -> tuple:
    """f with (I - P) f = h for centred h, from a zero start, to residual
    POISSON_TOL * ||h||_2; returns f and the recomputed residual.  It is the
    e = 0 entry of the shared resolvent family, so f is read-only."""
    f, residuals = _resolvents(op, h)
    return f[0], float(residuals[0])


@dataclass
class GordinDecomposition:
    eps_schedule: List[float]
    f_eps: GridFunction
    h_tilde: GridFunction
    martingale_residual: float
    cauchy_history: List[float]
    cauchy_slacks: List[float]
    sigma_mart: float
    resolvent_residuals: List[float]
    resolvent_norms: List[float]
    warnings: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "eps_schedule": list(self.eps_schedule),
            "sigma_mart": self.sigma_mart,
            "martingale_residual": self.martingale_residual,
            "cauchy_history": list(self.cauchy_history),
            "cauchy_bound_slacks": list(self.cauchy_slacks),
            "resolvent_residuals": list(self.resolvent_residuals),
            "resolvent_norms": list(self.resolvent_norms),
            "warnings": list(self.warnings),
        }


def gordin_decompose(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                     tail_tol: Optional[float] = None) -> GordinDecomposition:
    """Run the dyadic schedule eps_k = 2^-k, k = 1..K_MAX, and collect the
    martingale part estimate h-tilde = h_{eps_(K_MAX)}, from the memoised
    resolvent family of tail_tol (default TAIL_TOL * ||h||_2)."""
    op = _backend_for(imap, nu, h)
    masses = nu.masses
    eps_list = list(EPS_SCHEDULE)
    f_all, residuals = (a[1:] for a in _resolvents(op, h.values, tail_tol))

    f_norms, cauchy, slacks = [], [], []
    for k, f in enumerate(f_all):
        part = f - op.koopman(op.apply(f))
        f_norms.append(weighted_norm(f, masses))
        if k:
            d, e = eps_list[k - 1], eps_list[k]
            diff = weighted_norm(part - h_part, masses)
            cauchy.append(diff)
            slacks.append((e + d) * (f_norms[k] ** 2 + f_norms[k - 1] ** 2)
                          - diff**2)
        h_part = part

    warnings = []
    for k in range(1, len(cauchy)):
        if cauchy[k] > 1.1 * cauchy[k - 1]:
            warnings.append(
                f"Cauchy increment grew at step {k + 1}: "
                f"{cauchy[k - 1]:.3e} -> {cauchy[k]:.3e}"
            )
            break

    h_tilde = h.with_values(h_part)
    return GordinDecomposition(
        eps_schedule=eps_list,
        f_eps=h.with_values(f_all[-1].copy()),
        h_tilde=h_tilde,
        martingale_residual=weighted_norm(op.apply(h_tilde.values), masses),
        cauchy_history=cauchy,
        cauchy_slacks=slacks,
        sigma_mart=weighted_norm(h_tilde.values, masses),
        resolvent_residuals=[float(r) for r in residuals],
        resolvent_norms=f_norms,
        warnings=warnings,
    )


@dataclass
class CoboundaryResult:
    verdict: str  # "true" | "false" | "indeterminate"
    transfer_function: GridFunction
    residual: float
    cesaro_bounded: bool
    tol: float

    @property
    def is_coboundary(self) -> bool:
        return self.verdict == "true"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "residual": self.residual,
            "cesaro_bounded": self.cesaro_bounded,
            "tol": self.tol,
        }


def coboundary_detect(imap: IntervalMap, nu: MeasureDensity,
                      h: GridFunction) -> CoboundaryResult:
    """Detect h = f o T - f; the transfer function is f = P (I - P)^-1 h."""
    op = _backend_for(imap, nu, h)
    masses = nu.masses

    ces = cesaro_norm_sequence(imap, nu, h, 64)
    # bounded if the last quarter of the Cesaro curve is flat to 1%
    q = max(1, ces.size - ces.size // 4)
    level = float(ces[-1])
    bounded = bool(ces[-1] - ces[q - 1] <= 0.01 * max(level, 1e-30))

    f_tilde, _ = solve_poisson(op, h.values)
    f_vals = op.apply(f_tilde)
    residual = weighted_norm(op.koopman(f_vals) - f_vals - h.values, masses)

    h_norm = weighted_norm(h.values, masses)
    tol = COBOUNDARY_TOL
    algebra_ok = residual < tol
    if algebra_ok and bounded:
        verdict = "true"
    elif not algebra_ok and (not bounded or residual > max(10 * tol, 0.01 * h_norm)):
        verdict = "false"
    else:
        verdict = "indeterminate"
    return CoboundaryResult(
        verdict=verdict,
        transfer_function=h.with_values(f_vals),
        residual=residual,
        cesaro_bounded=bounded,
        tol=tol,
    )
