"""Registry of piecewise-monotone interval maps with explicit branches.

Each map exposes its branch structure (forward map, inverse, derivative
magnitude per branch), which is what the transfer-operator code needs to
realize preimage sums, plus optional closed-form invariant density and
inverse-CDF sampler when these are known analytically.

Calling a map evaluates one vectorised closed-form forward map, not a loop
over branch masks.  It agrees bit for bit with the branch rule (the first
branch whose closed interval holds the point), so ties at a breakpoint go
to the left branch: ``<=`` and ``>`` at every breakpoint.

The lsv map selects its branch by ``max(2y - 1, left(y) * (y <= 1/2))``,
which is faster than ``np.where`` on an unpredictable mask.  For y <= 1/2,
``left(y) >= 0 >= 2y - 1`` and ``left(y) * 1 = left(y)``; for y > 1/2,
``2y - 1 > 0`` and ``left(y) * 0 = +0`` because ``left`` is finite on
[0, 1].  So the maximum is the branch value itself, bit for bit.

The domain check is two reductions, ``min(y) >= a`` and ``max(y) <= b``:
NaN propagates through both and fails the check, and an empty array
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalEscapeError
from .function_space import MeasureDensity, QuadratureGrid

__all__ = ["Branch", "IntervalMap", "builtin_map"]

_ESCAPE_TOL = 1e-12


def _inside(y: np.ndarray, a: float, b: float) -> bool:
    """Whether every point of ``y`` lies in [a, b]: False if any is NaN,
    True for an empty array."""
    return y.min(initial=a) >= a and y.max(initial=b) <= b


def _bisect_inverse(fwd, lo, hi, x, tol=1e-15, maxit=200):
    """Vectorized bisection for y in [lo, hi] with fwd(y) = x (fwd increasing)."""
    x = np.asarray(x, dtype=float)
    a = np.full_like(x, lo)
    b = np.full_like(x, hi)
    for _ in range(maxit):
        mid = 0.5 * (a + b)
        below = fwd(mid) < x
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        if np.max(b - a) < tol:
            break
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Branch:
    """One monotone branch of an interval map."""

    lo: float
    hi: float
    forward: Callable
    inverse: Callable
    deriv_mag: Callable

    @property
    def range(self):
        ylo, yhi = self.forward(self.lo), self.forward(self.hi)
        return (ylo, yhi) if ylo <= yhi else (yhi, ylo)


@dataclass(frozen=True)
class IntervalMap:
    """A piecewise-monotone map of a closed interval."""

    name: str
    domain: tuple
    branches: List[Branch]
    forward: Callable  # closed form of the branch rule on the whole domain
    gamma: Optional[float] = None
    density_pdf: Optional[Callable] = None
    density_cdf: Optional[Callable] = None
    sampler: Optional[Callable] = None  # U(0,1) -> Y distributed as nu
    label: str = field(default="", repr=False)
    node_maker: Optional[Callable] = field(default=None, repr=False)

    def __call__(self, y):
        """Vectorized forward map."""
        y = np.asarray(y, dtype=float)
        a, b = self.domain
        if not _inside(y, a, b):
            raise DomainError("point outside the map domain")
        return np.asarray(self.forward(y))

    def step(self, y):
        """Forward map with clamping of roundoff excursions; in-place safe."""
        out = self(np.clip(y, self.domain[0], self.domain[1]))
        a, b = self.domain
        if np.any(out < a - _ESCAPE_TOL) or np.any(out > b + _ESCAPE_TOL):
            raise NumericalEscapeError(f"{self.name}: iterate escaped the domain")
        return np.clip(out, a, b)

    def default_grid(self, n: int) -> QuadratureGrid:
        """Quadrature grid of n cells adapted to the invariant measure;
        uniform midpoint cells unless the map installs its own layout."""
        if self.node_maker is not None:
            return QuadratureGrid.from_nodes(
                self.domain[0], self.domain[1], self.node_maker(n)
            )
        return QuadratureGrid.midpoint(self.domain[0], self.domain[1], n)

    def closed_form_measure(self, grid: QuadratureGrid) -> Optional[MeasureDensity]:
        if self.density_pdf is None:
            return None
        return MeasureDensity.from_callable(
            grid,
            self.density_pdf,
            name=f"{self.name}-invariant",
            cdf=self.density_cdf,
        )


def _doubling() -> IntervalMap:
    br = [
        Branch(0.0, 0.5, lambda y: 2.0 * y, lambda x: 0.5 * x,
               lambda y: np.full_like(np.asarray(y, float), 2.0)),
        Branch(0.5, 1.0, lambda y: 2.0 * y - 1.0, lambda x: 0.5 * (x + 1.0),
               lambda y: np.full_like(np.asarray(y, float), 2.0)),
    ]
    return IntervalMap(
        name="doubling",
        domain=(0.0, 1.0),
        branches=br,
        forward=lambda y: 2.0 * y - (y > 0.5),
        density_pdf=lambda y: np.ones_like(np.asarray(y, float)),
        density_cdf=lambda y: np.asarray(y, dtype=float),
        sampler=lambda u: np.asarray(u, dtype=float),
        label="doubling",
    )


def _lsv(gamma: float) -> IntervalMap:
    if gamma <= 0:
        raise ConfigurationError("lsv requires gamma > 0")
    c = 2.0**gamma

    def left(y):
        y = np.asarray(y, dtype=float)
        return y * (1.0 + c * y**gamma)

    def left_deriv(y):
        y = np.asarray(y, dtype=float)
        return 1.0 + c * (1.0 + gamma) * y**gamma

    def left_inv(x):
        return _bisect_inverse(left, 0.0, 0.5, x)

    br = [
        Branch(0.0, 0.5, left, left_inv, left_deriv),
        Branch(0.5, 1.0, lambda y: 2.0 * y - 1.0, lambda x: 0.5 * (x + 1.0),
               lambda y: np.full_like(np.asarray(y, float), 2.0)),
    ]
    return IntervalMap(
        name="lsv", domain=(0.0, 1.0), branches=br,
        forward=lambda y: np.maximum(2.0 * y - 1.0, left(y) * (y <= 0.5)),
        gamma=gamma, label=f"lsv:{gamma}",
    )


def _manneville_pomeau(gamma: float) -> IntervalMap:
    if gamma <= 0:
        raise ConfigurationError("manneville_pomeau requires gamma > 0")

    def raw(y):
        y = np.asarray(y, dtype=float)
        return y + y ** (1.0 + gamma)

    def deriv(y):
        y = np.asarray(y, dtype=float)
        return 1.0 + (1.0 + gamma) * y**gamma

    # Branch endpoints: raw crosses each integer once (raw(1) = 2).
    ystar = float(_bisect_inverse(raw, 0.0, 1.0, np.array(1.0)))
    br = [
        Branch(0.0, ystar, raw, lambda x: _bisect_inverse(raw, 0.0, ystar, x), deriv),
        Branch(ystar, 1.0, lambda y: raw(y) - 1.0,
               lambda x: _bisect_inverse(lambda z: raw(z) - 1.0, ystar, 1.0, x),
               deriv),
    ]
    return IntervalMap(
        name="manneville_pomeau", domain=(0.0, 1.0), branches=br,
        forward=lambda y: raw(y) - (y > ystar), gamma=gamma,
        label=f"manneville_pomeau:{gamma}",
    )


def _chebyshev(n: int) -> IntervalMap:
    if n < 2:
        raise ConfigurationError("chebyshev requires N >= 2")

    def fwd(y):
        return np.cos(n * np.arccos(np.clip(np.asarray(y, float), -1.0, 1.0)))

    def deriv(y):
        y = np.asarray(y, dtype=float)
        theta = np.arccos(np.clip(y, -1.0, 1.0))
        s = np.sin(theta)
        return np.abs(n * np.sin(n * theta) / np.where(s == 0, np.nan, s))

    branches = []
    for k in range(n):
        # theta in [k pi / n, (k+1) pi / n]; y = cos(theta) decreasing in theta
        t_lo, t_hi = k * math.pi / n, (k + 1) * math.pi / n
        lo, hi = math.cos(t_hi), math.cos(t_lo)

        def inv(x, k=k):
            x = np.asarray(x, dtype=float)
            phi = np.arccos(np.clip(x, -1.0, 1.0))
            ntheta = k * math.pi + np.where(k % 2 == 0, phi, math.pi - phi)
            return np.cos(ntheta / n)

        branches.append(Branch(lo, hi, fwd, inv, deriv))

    arcsine = lambda y: 1.0 / (np.pi * np.sqrt(np.maximum(1.0 - np.asarray(y, float) ** 2, 1e-300)))
    return IntervalMap(
        name="chebyshev",
        domain=(-1.0, 1.0),
        branches=branches,
        forward=fwd,
        gamma=float(n),
        density_pdf=arcsine,
        density_cdf=lambda y: 0.5 + np.arcsin(np.clip(np.asarray(y, float), -1, 1)) / np.pi,
        sampler=lambda u: np.cos(np.pi * np.asarray(u, dtype=float)),
        label=f"chebyshev:{n}",
        # nodes equidistributed under the arcsine measure: midpoint-in-
        # measure quadrature stays second order despite the edge cusps
        node_maker=lambda m: np.cos(np.pi * (np.arange(m)[::-1] + 0.5) / m),
    )


_BUILDERS = {
    "doubling": (_doubling, False),
    "lsv": (_lsv, True),
    "manneville_pomeau": (_manneville_pomeau, True),
    "chebyshev": (lambda p: _chebyshev(int(p)), True),
}


def builtin_map(name: str, param=None) -> IntervalMap:
    """Construct a registered map; accepts builtin_map("lsv", 0.5) and the
    compact spec form builtin_map("lsv:0.5")."""
    if param is None and ":" in name:
        name, text = name.split(":", 1)
        try:
            param = float(text)
        except ValueError:
            raise ConfigurationError(f"bad map parameter {text!r}") from None
    if name not in _BUILDERS:
        raise ConfigurationError(f"unknown map {name!r}")
    builder, needs_param = _BUILDERS[name]
    if needs_param:
        if param is None:
            raise ConfigurationError(f"map {name!r} requires a parameter")
        return builder(param)
    if param is not None:
        raise ConfigurationError(f"map {name!r} takes no parameter")
    return builder()
