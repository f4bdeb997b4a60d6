"""Resolvent-based martingale decomposition and coboundary detection.

The decomposition writes a centered observable h as a martingale part plus
a small remainder: with f_e = sum_{k>=1} P^(k-1) h / (1+e)^k (truncated by
a geometric tail bound) one has h = (1+e) f_e - P f_e, and
h_e = f_e - U P f_e satisfies P h_e = 0.  Driving e -> 0 along the dyadic
schedule 2^-k yields the martingale part h-tilde; the Cauchy increments
||h_e - h_d||_2 are checked against the bound
(e+d)(||f_e||^2 + ||f_d||^2), which must never be violated.

Coboundary detection sums the full resolvent at e = 0: if the Cesaro sums
stay bounded, f-tilde = sum_k P^k h converges, f = P f-tilde, and
h = f o T - f up to the martingale part; a small algebraic residual
||U f - f - h||_2 together with bounded Cesaro norms flags sigma = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .decay import cesaro_norm_sequence
from .errors import PreconditionError, TruncationError
from .function_space import GridFunction, MeasureDensity, require_centered
from .maps import IntervalMap
from .transfer import make_backend

__all__ = [
    "GordinDecomposition",
    "CoboundaryResult",
    "resolvent",
    "martingale_part",
    "gordin_decompose",
    "coboundary_detect",
]

ITERATION_CAP = 100_000


def _norm2(values, masses):
    return float(np.sqrt((values**2) @ masses))


def _series_length(eps: float, h_norm: float, tail_tol: float) -> int:
    """Smallest K with ||h||_2 (1+eps)^-K / eps < tail_tol."""
    if h_norm == 0:
        return 1
    k = math.log(h_norm / (eps * tail_tol)) / math.log1p(eps)
    k = max(1, int(math.ceil(k)))
    if k > ITERATION_CAP:
        achievable = h_norm * (1 + eps) ** (-ITERATION_CAP) / eps
        raise TruncationError(
            f"resolvent series needs K={k} > {ITERATION_CAP} terms at eps={eps:g}; "
            f"achievable tolerance {achievable:g}",
            achievable_tol=achievable,
        )
    return k


def _resolvent_batch(op, h_values: np.ndarray, eps_list, tail_tol: float):
    """Truncated resolvent sums for several eps in one sweep of P-iterates."""
    masses = op.measure.masses
    h_norm = _norm2(h_values, masses)
    lengths = [_series_length(e, h_norm, tail_tol) for e in eps_list]
    k_max = max(lengths)
    accs = [np.zeros_like(h_values) for _ in eps_list]
    weights = [1.0 / (1.0 + e) for e in eps_list]  # (1+e)^-k, updated per term
    g = h_values.copy()  # P^(k-1) h
    for k in range(1, k_max + 1):
        for i, e in enumerate(eps_list):
            if k <= lengths[i]:
                accs[i] += weights[i] * g
                weights[i] /= 1.0 + e
        if k < k_max:
            g = op.apply(g)
    return accs, lengths


def resolvent(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
              eps: float, tail_tol: float, backend: str = "auto") -> GridFunction:
    """Truncated f_eps = sum_{k=1}^K P^(k-1) h / (1+eps)^k."""
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    require_centered(h)
    op = make_backend(imap, nu, kind=backend)
    accs, _ = _resolvent_batch(op, h.values, [eps], tail_tol)
    return h.with_values(accs[0])


def martingale_part(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                    eps: float, tail_tol: float, backend: str = "auto") -> GridFunction:
    """h_eps = f_eps - U P f_eps; satisfies P h_eps = 0 analytically."""
    op = make_backend(imap, nu, kind=backend)
    f_eps = resolvent(imap, nu, h, eps, tail_tol, backend=backend)
    pf = op.apply(f_eps.values)
    return h.with_values(f_eps.values - op.koopman(pf))


@dataclass
class GordinDecomposition:
    eps_schedule: List[float]
    f_eps: GridFunction
    h_eps: GridFunction
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
                     k_max: int = 12, tail_tol: Optional[float] = None,
                     backend: str = "auto") -> GordinDecomposition:
    """Run the dyadic schedule eps_k = 2^-k, k = 1..k_max, and collect the
    martingale part estimate h-tilde = h_{eps_(k_max)}."""
    require_centered(h)
    op = make_backend(imap, nu, kind=backend)
    masses = op.measure.masses
    if tail_tol is None:
        tail_tol = 1e-6 * max(_norm2(h.values, masses), 1e-30)
    eps_list = [2.0**-k for k in range(1, k_max + 1)]
    f_accs, _ = _resolvent_batch(op, h.values, eps_list, tail_tol)

    h_parts, f_norms, res_residuals = [], [], []
    for e, f in zip(eps_list, f_accs):
        pf = op.apply(f)
        h_parts.append(f - op.koopman(pf))
        f_norms.append(_norm2(f, masses))
        res_residuals.append(_norm2((1 + e) * f - pf - h.values, masses))

    cauchy, slacks = [], []
    for k in range(1, len(eps_list)):
        d, e = eps_list[k - 1], eps_list[k]
        diff = _norm2(h_parts[k] - h_parts[k - 1], masses)
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
        f_eps=h.with_values(f_accs[-1]),
        h_eps=h.with_values(h_parts[-1]),
        h_tilde=h_tilde,
        martingale_residual=_norm2(op.apply(h_tilde.values), masses),
        cauchy_history=cauchy,
        cauchy_slacks=slacks,
        sigma_mart=_norm2(h_tilde.values, masses),
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


def coboundary_detect(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                      n_max: int = 256, tol: float = 1e-3,
                      backend: str = "auto") -> CoboundaryResult:
    """Detect h = f o T - f and recover the transfer function f."""
    require_centered(h)
    op = make_backend(imap, nu, kind=backend)
    masses = op.measure.masses

    ces = cesaro_norm_sequence(imap, nu, h, min(n_max, 64), backend=backend)
    # bounded if the last quarter of the Cesaro curve is flat to 1%
    q = max(1, ces.size - ces.size // 4)
    level = float(ces[-1])
    bounded = bool(ces[-1] - ces[q - 1] <= 0.01 * max(level, 1e-30))

    acc = h.values.copy()
    g = h.values.copy()
    for _ in range(n_max):
        g = op.apply(g)
        acc += g
    f_vals = op.apply(acc)
    residual = _norm2(op.koopman(f_vals) - f_vals - h.values, masses)

    h_norm = _norm2(h.values, masses)
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
