"""Empirical-distribution tests against the CLT/FCLT reference laws.

Verdicts are reproducible threshold comparisons, not p-values: with a
fixed master seed a run either passes or it does not, which is what a CI
gate needs.  The threshold for a normal-limit test is
1.95/sqrt(M) + C_BE/sqrt(n): the first term is the ~0.999 quantile of the
Kolmogorov statistic for M samples drawn from the reference itself, the
second a Berry-Esseen-style allowance for the finite Birkhoff length.

The normal CDF Phi(t) = erfc(-t/sqrt(2))/2 comes from the standard
library's ``math.erfc``, within one unit in the last place of
``scipy.special.ndtr``.  Importing scipy.special would load its extension
modules and a second OpenBLAS into every process, about 5 MB of resident
memory, for this one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import InvalidInputError, ParameterError, PreconditionError
from .montecarlo import PathEnsemble

__all__ = [
    "KSResult",
    "ks_statistic",
    "reference_cdf",
    "clt_threshold",
    "clt_test",
    "fclt_test",
]

DEGENERATE_QUANTILE = 0.99
DEGENERATE_EXPONENT = 0.25  # bound on the growth exponent of q99|S_k|
C_BE = 1.0  # the Berry-Esseen-style constant of the finite-n allowance
FCLT_ALLOWANCE = 0.01  # added to the sup and occupation thresholds

_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    sample_size: int


def _normal_cdf(t):
    """Phi(t) as a float array, 0-d for a scalar t."""
    phi = np.asarray(_ERFC(np.multiply(t, -math.sqrt(0.5))), dtype=float)
    phi *= 0.5
    return phi


def reference_cdf(name: str, sigma: Optional[float] = None) -> Callable:
    """The CDF of a reference law, a callable on floats and float arrays:
    normal(sigma) with sigma > 0, brownian_sup, arcsine."""
    if name == "normal":
        if sigma is None or sigma <= 0:
            raise ParameterError("normal law needs sigma > 0")
        return lambda t: _normal_cdf(t / sigma)
    if name == "brownian_sup":
        return lambda a: np.where(
            a >= 0, 2.0 * _normal_cdf(np.maximum(a, 0.0)) - 1.0, 0.0)
    if name == "arcsine":
        return lambda x: (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))
    raise ParameterError(f"unknown reference law {name!r}")


def ks_statistic(samples, cdf) -> KSResult:
    """Two-sided Kolmogorov-Smirnov distance to a reference law."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise PreconditionError("KS test needs at least 100 samples")
    if np.any(~np.isfinite(samples)):
        raise InvalidInputError("samples contain non-finite values")
    x = np.sort(samples)
    fx = np.asarray(cdf(x), dtype=float)
    n = x.size
    i = np.arange(1, n + 1)
    stat = float(max(np.max(i / n - fx), np.max(fx - (i - 1) / n)))
    return KSResult(stat, n)


def _ks_entry(name: str, samples, cdf, threshold: float) -> dict:
    """One report entry: the KS statistic of samples against cdf, which
    passes below the threshold."""
    stat = ks_statistic(samples, cdf).statistic
    return {"name": name, "statistic": stat, "threshold": threshold,
            "verdict": stat < threshold}


def clt_threshold(samples: int, n: int) -> float:
    return float(1.95 / np.sqrt(samples) + C_BE / np.sqrt(n))


def clt_test(birkhoff_sums, n: int, sigma: float,
             checkpoints: tuple = ((), None)) -> dict:
    """KS of S_n/sqrt(n) against normal(sigma).

    With sigma = 0 (a coboundary) the sums stay bounded, and the test reads
    ``checkpoints``, the pair (k list, sums of shape (samples, len(k))): the
    least-squares slope of log q99|S_k| against log k must stay below
    DEGENERATE_EXPONENT.  Sums that are all 0, as for a constant h, read 0.
    """
    if sigma == 0.0:
        ks, sums = checkpoints
        if len(ks) < 2:
            raise PreconditionError("degenerate test needs two checkpoints")
        q = np.quantile(np.abs(sums), DEGENERATE_QUANTILE, axis=0)
        if q.any() and not q.all():
            raise PreconditionError("q99|S_k| is 0 at some checkpoints only")
        slope = (float(np.polyfit(np.log(ks), np.log(q), 1)[0]) if q.all()
                 else 0.0)
        return {"name": "clt_degenerate", "statistic": slope,
                "threshold": DEGENERATE_EXPONENT,
                "verdict": slope < DEGENERATE_EXPONENT}
    z = np.asarray(birkhoff_sums, dtype=float) / np.sqrt(n)
    return _ks_entry("clt_normal", z, reference_cdf("normal", sigma),
                     clt_threshold(z.size, n))


def fclt_test(paths: PathEnsemble) -> List[dict]:
    """Three functional tests: terminal ~ N(0,1), sup ~ reflection law,
    occupation fraction ~ arcsine.  Verdict requires all three."""
    if paths.sigma <= 0:
        raise PreconditionError("fclt_test needs sigma > 0")
    base = clt_threshold(paths.terminal.size, paths.n)
    return [
        _ks_entry("fclt_terminal", paths.terminal,
                  reference_cdf("normal", 1.0), base),
        _ks_entry("fclt_sup", paths.sup, reference_cdf("brownian_sup"),
                  base + FCLT_ALLOWANCE),
        _ks_entry("fclt_occupation", paths.occupation,
                  reference_cdf("arcsine"), base + FCLT_ALLOWANCE),
    ]
