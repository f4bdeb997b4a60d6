"""Resolvent-based martingale decomposition and coboundary detection.

The decomposition writes a centered observable h as a martingale part plus
a small remainder: f_e solves ((1+e)I - P) f_e = h (BiCGSTAB in L2(nu); a
residual below e * tail_tol keeps f_e within tail_tol, as P is an L2(nu)
contraction), and h_e = f_e - U P f_e satisfies P h_e = 0.  Driving e -> 0
along the dyadic schedule 2^-k, each solve warm-started from the last,
yields the martingale part h-tilde; the Cauchy increments ||h_e - h_d||_2
are checked against the bound (e+d)(||f_e||^2 + ||f_d||^2), which must
never be violated.

Coboundary detection solves the Poisson equation (I - P) f-tilde = h, the
resolvent at e = 0 (centred h lies in the range of I - P), and takes the
transfer function f = P f-tilde, so that h = f o T - f up to the martingale
part.  The finite operator always has a solution, so a small algebraic
residual ||U f - f - h||_2 flags sigma = 0 only together with bounded
Cesaro norms, the sign that sum_k P^k h itself converges.  It shares the
Poisson solve with ``sigma_green_kubo`` and the sweep with ``decay_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .decay import cesaro_norm_sequence
from .errors import ConvergenceError
from .function_space import GridFunction, MeasureDensity, weighted_norm
from .maps import IntervalMap
from .transfer import _backend_for, _memo

__all__ = [
    "GordinDecomposition",
    "CoboundaryResult",
    "gordin_decompose",
    "coboundary_detect",
]

K_MAX = 12  # the dyadic schedule eps_k = 2^-k runs over k = 1..K_MAX
MAX_ITERATIONS = 1000  # BiCGSTAB steps (two applications of P each) per solve
POISSON_TOL = 1e-10  # Poisson residual, relative to ||h||_2
COBOUNDARY_TOL = 1e-3  # residual below which h is an algebraic coboundary


def _solve_resolvent(op, h: np.ndarray, eps: float, x: np.ndarray,
                     tol: float) -> tuple:
    """BiCGSTAB for ((1+eps)I - P) x = h in L2(nu), from the guess x, until
    the recomputed residual ||h - ((1+eps)x - P x)||_2 is at most tol;
    returns x and that residual."""
    masses = op.measure.masses

    def dot(u, v):
        return float((u * v) @ masses)

    def shifted(v):
        return (1.0 + eps) * v - op.apply(v)

    def ratio(num, den):
        if den == 0.0:
            raise ConvergenceError(f"BiCGSTAB broke down at eps={eps:g}")
        return num / den

    x = x.copy()
    restart = True
    for _ in range(MAX_ITERATIONS):
        if restart:  # from the recomputed residual; the updated one drifts
            r = h - shifted(x)
            residual = weighted_norm(r, masses)
            if residual <= tol:
                return x, residual
            r0, p, rho = r, r, dot(r, r)
        else:
            rho_next = dot(r0, r)
            beta = ratio(rho_next, rho) * ratio(alpha, omega)
            p = r + beta * (p - omega * v)
            rho = rho_next
        v = shifted(p)
        alpha = ratio(rho, dot(r0, v))
        s = r - alpha * v
        if weighted_norm(s, masses) <= tol:  # converged at the half step
            x += alpha * p
            restart = True
            continue
        t = shifted(s)
        omega = ratio(dot(t, s), dot(t, t))
        if not (np.isfinite(alpha) and np.isfinite(omega)):
            raise ConvergenceError(f"BiCGSTAB broke down at eps={eps:g}")
        x += alpha * p + omega * s
        r = s - omega * t
        restart = weighted_norm(r, masses) <= tol
    raise ConvergenceError(
        f"resolvent solve missed residual {tol:g} at eps={eps:g} "
        f"within {MAX_ITERATIONS} iterations"
    )


def solve_poisson(op, h: np.ndarray) -> tuple:
    """f with (I - P) f = h for centred h, from a zero start, to residual
    POISSON_TOL * ||h||_2; returns f and the recomputed residual.  Solved
    once per operator and h (``transfer._memo``); f is read-only."""
    def solve():
        tol = POISSON_TOL * weighted_norm(h, op.measure.masses)
        return _solve_resolvent(op, h, 0.0, np.zeros_like(h), tol)

    return _memo(op, ("poisson",), h, solve)


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
    warnings: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "eps_schedule": list(self.eps_schedule),
            "sigma_mart": self.sigma_mart,
            "martingale_residual": self.martingale_residual,
            "cauchy_history": list(self.cauchy_history),
            "cauchy_bound_slacks": list(self.cauchy_slacks),
            "resolvent_residuals": list(self.resolvent_residuals),
            "warnings": list(self.warnings),
        }


def gordin_decompose(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                     tail_tol: Optional[float] = None) -> GordinDecomposition:
    """Run the dyadic schedule eps_k = 2^-k, k = 1..K_MAX, and collect the
    martingale part estimate h-tilde = h_{eps_(K_MAX)}."""
    op = _backend_for(imap, nu, h)
    masses = nu.masses
    if tail_tol is None:
        tail_tol = 1e-6 * max(weighted_norm(h.values, masses), 1e-30)
    eps_list = [2.0**-k for k in range(1, K_MAX + 1)]
    f = np.zeros_like(h.values)
    h_parts, f_norms, res_residuals = [], [], []
    for e in eps_list:
        # one residual for all e bounds every ||f - f_e||_2 by tail_tol
        f, residual = _solve_resolvent(op, h.values, e, f,
                                       eps_list[-1] * tail_tol)
        h_parts.append(f - op.koopman(op.apply(f)))
        f_norms.append(weighted_norm(f, masses))
        res_residuals.append(residual)

    cauchy, slacks = [], []
    for k in range(1, len(eps_list)):
        d, e = eps_list[k - 1], eps_list[k]
        diff = weighted_norm(h_parts[k] - h_parts[k - 1], masses)
        cauchy.append(diff)
        slacks.append((e + d) * (f_norms[k] ** 2 + f_norms[k - 1] ** 2) - diff**2)

    warnings = []
    for k in range(1, len(cauchy)):
        if cauchy[k] > 1.1 * cauchy[k - 1]:
            warnings.append(
                f"Cauchy increment grew at step {k + 1}: "
                f"{cauchy[k - 1]:.3e} -> {cauchy[k]:.3e}"
            )
            break

    h_tilde = h.with_values(h_parts[-1])
    return GordinDecomposition(
        eps_schedule=eps_list,
        f_eps=h.with_values(f),
        h_tilde=h_tilde,
        martingale_residual=weighted_norm(op.apply(h_tilde.values), masses),
        cauchy_history=cauchy,
        cauchy_slacks=slacks,
        sigma_mart=weighted_norm(h_tilde.values, masses),
        resolvent_residuals=res_residuals,
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
