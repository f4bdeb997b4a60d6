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

The lsv and Manneville-Pomeau forward maps work in place in the one new
array of ``y**p`` (lsv also makes ``2y - 1``).  Only the operands of
``+`` and ``*`` swap, which IEEE arithmetic rounds the same, so they equal
the out-of-place expressions bit for bit.  Augmented assignments on
``np.asarray(y**p)`` keep scalar and 0-d inputs working.

The lsv and Manneville-Pomeau branch inverses are ``_newton_inverse``:
Newton steps on fwd(y) = x, clipped to the branch.  Each such branch is
increasing and convex, so from a start right of the root a Newton step
never overshoots and every point falls monotonically to it.  The start is
``clip(x, lo, hi)`` where fwd is already at least x there, and ``hi``
elsewhere; a step that would move a point right is cut to zero.  The loop
stops when no point moves, 6 to 9 evaluations of fwd on cell edges, and
then checks the residual: ``max|fwd(y) - x| > 1e-12`` raises
``ConvergenceError``, which is what a concave fwd, whose Newton steps
overshoot and stall left of the root, leads to.

The domain check is two reductions, ``min(y) >= a`` and ``max(y) <= b``:
NaN propagates through both and fails the check, and an empty array
passes.

``IntervalMap.step`` is the one orbit step: the ensemble and
``transfer.duality_residual`` advance points only through it.  It checks
``forward(y)`` by the two reductions, and only when that fails: a NaN,
which no clip mends, raises ``DomainError``; a point more than
``_ESCAPE_TOL`` outside raises ``NumericalEscapeError``, or, given a mask
``alive``, has its entry set False and is parked at the midpoint; and a
clip puts the roundoff excursions back.  The input is not clipped first,
neither by the step nor by a builtin forward map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     NumericalEscapeError)
from .function_space import QuadratureGrid

__all__ = ["Branch", "IntervalMap", "builtin_map"]

_ESCAPE_TOL = 1e-12
_INVERSE_TOL = 1e-12  # max |fwd(y) - x| a branch inverse may leave
_INVERSE_STEPS = 100  # Newton steps before a branch inverse gives up


def _inside(y: np.ndarray, a: float, b: float) -> bool:
    """Whether every point of ``y`` lies in [a, b]: False if any is NaN,
    True for an empty array."""
    return y.min(initial=a) >= a and y.max(initial=b) <= b


def _newton_inverse(fwd, deriv, lo, hi, x):
    """The y in [lo, hi] with fwd(y) = x, for an increasing convex ``fwd``
    with derivative ``deriv``, by Newton steps that only move left."""
    x = np.asarray(x, dtype=float)
    c = np.clip(x, lo, hi)
    y = np.where(fwd(c) >= x, c, hi)
    for _ in range(_INVERSE_STEPS):
        r = fwd(y) - x
        step = np.maximum(r / deriv(y), 0.0)
        y_new = np.clip(y - step, lo, hi)
        if np.array_equal(y_new, y):
            break
        y = y_new
    else:
        raise ConvergenceError(
            f"branch inverse: no fixed point in {_INVERSE_STEPS} Newton steps")
    if np.abs(r).max(initial=0.0) > _INVERSE_TOL:
        raise ConvergenceError("branch inverse missed its residual; is fwd convex?")
    return y


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

    def step(self, y, alive=None):
        """One orbit step: ``forward(y)``, checked and clipped back into the
        domain as the module docstring sets out; ``alive`` masks escapes."""
        a, b = self.domain
        y = np.asarray(self.forward(np.asarray(y, dtype=float)))
        if _inside(y, a, b):
            return y
        if np.isnan(y).any():
            raise DomainError("point outside the map domain")
        escaped = (y < a - _ESCAPE_TOL) | (y > b + _ESCAPE_TOL)
        if escaped.any():
            if alive is None:
                raise NumericalEscapeError(f"{self.name}: iterate escaped the domain")
            alive &= ~escaped
            np.copyto(y, 0.5 * (a + b), where=escaped)
        return np.clip(y, a, b, out=y)

    def default_grid(self, n: int) -> QuadratureGrid:
        """Quadrature grid of n cells adapted to the invariant measure;
        uniform midpoint cells unless the map installs its own layout."""
        if self.node_maker is not None:
            return QuadratureGrid.from_nodes(
                self.domain[0], self.domain[1], self.node_maker(n)
            )
        return QuadratureGrid.midpoint(self.domain[0], self.domain[1], n)


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
        return _newton_inverse(left, left_deriv, 0.0, 0.5, x)

    br = [
        Branch(0.0, 0.5, left, left_inv, left_deriv),
        Branch(0.5, 1.0, lambda y: 2.0 * y - 1.0, lambda x: 0.5 * (x + 1.0),
               lambda y: np.full_like(np.asarray(y, float), 2.0)),
    ]

    def forward(y):
        # max(2y - 1, left(y) * (y <= 1/2)), with left built in place
        y = np.asarray(y, dtype=float)
        u = np.asarray(y**gamma)
        u *= c
        u += 1.0
        u *= y
        u *= y <= 0.5
        t = 2.0 * y
        t -= 1.0
        return np.maximum(t, u, out=u)

    return IntervalMap(
        name="lsv", domain=(0.0, 1.0), branches=br, forward=forward,
        label=f"lsv:{gamma}",
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

    def right(y):
        return raw(y) - 1.0

    # Branch endpoints: raw crosses each integer once (raw(1) = 2).
    ystar = float(_newton_inverse(raw, deriv, 0.0, 1.0, 1.0))
    br = [
        Branch(0.0, ystar, raw,
               lambda x: _newton_inverse(raw, deriv, 0.0, ystar, x), deriv),
        Branch(ystar, 1.0, right,
               lambda x: _newton_inverse(right, deriv, ystar, 1.0, x), deriv),
    ]

    def forward(y):
        # raw(y) - (y > ystar), built in place
        y = np.asarray(y, dtype=float)
        u = np.asarray(y ** (1.0 + gamma))
        u += y
        u -= y > ystar
        return u

    return IntervalMap(
        name="manneville_pomeau", domain=(0.0, 1.0), branches=br,
        forward=forward, label=f"manneville_pomeau:{gamma}",
    )


def _chebyshev(n: int) -> IntervalMap:
    if n < 2:
        raise ConfigurationError("chebyshev requires N >= 2")

    def fwd(y):
        return np.cos(n * np.arccos(np.asarray(y, float)))

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


@functools.lru_cache(maxsize=32)
def builtin_map(spec: str) -> IntervalMap:
    """The registered map of the spec NAME[:PARAM], e.g. "lsv:0.5": one
    shared object per spec, so that repeated specs share cached operators."""
    name, colon, text = spec.partition(":")
    if name not in _BUILDERS:
        raise ConfigurationError(f"unknown map {name!r}")
    builder, needs_param = _BUILDERS[name]
    if not colon:
        if needs_param:
            raise ConfigurationError(f"map {name!r} requires a parameter")
        return builder()
    try:
        param = float(text)
    except ValueError:
        raise ConfigurationError(f"bad map parameter {text!r}") from None
    if not needs_param:
        raise ConfigurationError(f"map {name!r} takes no parameter")
    return builder(param)
