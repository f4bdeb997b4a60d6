"""Grids, measures and L^p geometry on an interval.

Everything downstream (operators, decay diagnostics, variance estimators)
reduces to quadrature sums against an invariant measure.  A grid is a
partition of the interval into cells, given by its edges, plus one node
inside each cell; its Lebesgue weights are the cell widths.  The default
grid has N uniform cells with a node at each center (the composite
midpoint rule).  A measure attaches a per-cell mass to the same nodes;
integration of f against the measure is then ``sum(f(x_i) * mass_i)``.

Masses are computed three ways, in decreasing order of accuracy:

* exactly from a closed-form CDF (cell mass = F(right) - F(left));
* from density values times cell widths;
* directly, when the measure comes out of an Ulam fixed-vector computation.

In all cases masses are normalized to total mass one.  Every quadrature
sum in the package is reduced by one helper, ``_dot``, an einsum rather
than BLAS ``ddot``, whose worker threads start slowly inside a process's
first long call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IncompatibleGridsError, InvalidInputError, PreconditionError

__all__ = [
    "QuadratureGrid",
    "MeasureDensity",
    "GridFunction",
    "integrate",
    "lp_norm",
    "weighted_norm",
    "inner_product",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Cells of an interval, given by their edges, with one node per cell."""

    edges: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 2:
            raise InvalidInputError("need at least two cells")
        if nodes.ndim != 1 or edges.shape != (nodes.size + 1,):
            raise InvalidInputError("need 1-d nodes and one more edge than nodes")
        if not (np.all(np.diff(edges) > 0) and np.all(np.diff(nodes) > 0)):
            raise InvalidInputError("grid edges and nodes must be strictly increasing")
        if not np.all((edges[:-1] <= nodes) & (nodes <= edges[1:])):
            raise InvalidInputError("each grid node must lie inside its cell")

    @classmethod
    def midpoint(cls, a: float, b: float, n: int) -> "QuadratureGrid":
        """Uniform N-cell grid with nodes at cell centers."""
        if n < 2:
            raise InvalidInputError("need at least two cells")
        h = (b - a) / n
        return cls(np.linspace(a, b, n + 1), a + (np.arange(n) + 0.5) * h)

    @classmethod
    def from_nodes(cls, a: float, b: float, nodes) -> "QuadratureGrid":
        """Non-uniform grid from explicit nodes; each node's cell runs to
        the midpoints of its neighbors (boundary cells end at a, b)."""
        nodes = np.asarray(nodes, dtype=float)
        return cls(np.concatenate([[a], 0.5 * (nodes[1:] + nodes[:-1]), [b]]),
                   nodes)

    @property
    def a(self) -> float:
        return float(self.edges[0])

    @property
    def b(self) -> float:
        return float(self.edges[-1])

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def size(self) -> int:
        return self.nodes.size

    def locate(self, y):
        """Linear-interpolation stencil for arbitrary points.

        Returns (j, t) with y ~ (1-t)*nodes[j] + t*nodes[j+1].  Points
        beyond the first/last node get linear extrapolation from the
        boundary pair; constant extrapolation there would cost O(cell
        width) accuracy exactly where singular densities put their largest
        cell masses.
        """
        y = np.asarray(y, dtype=float)
        j = np.clip(np.searchsorted(self.nodes, y) - 1, 0, self.size - 2)
        t = (y - self.nodes[j]) / (self.nodes[j + 1] - self.nodes[j])
        t = np.clip(t, -1.0, 2.0)
        return j, t

    def same_as(self, other: "QuadratureGrid") -> bool:
        return (np.array_equal(self.edges, other.edges)
                and np.array_equal(self.nodes, other.nodes))


@dataclass(frozen=True)
class MeasureDensity:
    """A probability measure represented by density values on a grid.

    ``masses`` is what quadrature actually uses; it always sums to one.
    ``pdf`` is set for analytically known densities and None for
    numerically estimated ones (Ulam / histogram output).
    """

    grid: QuadratureGrid
    values: np.ndarray
    masses: np.ndarray
    name: str = "measure"
    pdf: Optional[Callable] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.shape != self.grid.nodes.shape or masses.shape != values.shape:
            raise InvalidInputError("density arrays must match the grid")
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise InvalidInputError("density must be finite and non-negative")
        if abs(masses.sum() - 1.0) > 1e-8:
            raise InvalidInputError("measure masses must sum to 1 within 1e-8")

    @property
    def closed_form(self) -> bool:
        return self.pdf is not None

    @classmethod
    def from_callable(cls, grid: QuadratureGrid, pdf: Callable, name: str,
                      cdf: Optional[Callable] = None) -> "MeasureDensity":
        values = np.asarray(pdf(grid.nodes), dtype=float)
        if cdf is not None:
            masses = np.diff(np.asarray(cdf(grid.edges), dtype=float))
        else:
            masses = values * grid.weights
        return cls(grid, values, masses / masses.sum(), name=name, pdf=pdf)

    @classmethod
    def from_masses(
        cls, grid: QuadratureGrid, masses: np.ndarray, name: str
    ) -> "MeasureDensity":
        """Build from per-cell masses (Ulam fixed vector, orbit histogram)."""
        masses = np.asarray(masses, dtype=float)
        masses = masses / masses.sum()
        values = masses / grid.weights
        return cls(grid, values, masses, name=name)

    def to_csv(self) -> str:
        return _table(f"# measure={self.name} normalized=True\nnode,value",
                      self.grid.nodes, self.values)


@dataclass(frozen=True)
class GridFunction:
    """An observable sampled on the nodes of its measure's grid."""

    values: np.ndarray
    measure: MeasureDensity

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidInputError("value count must match the grid")
        if np.any(~np.isfinite(values)):
            raise InvalidInputError("grid function values must be finite")

    @property
    def grid(self) -> QuadratureGrid:
        return self.measure.grid

    @classmethod
    def from_callable(cls, fn: Callable, measure: MeasureDensity) -> "GridFunction":
        return cls(np.asarray(fn(measure.grid.nodes), float), measure)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(values, self.measure)

    def interpolate(self, y):
        """Piecewise-linear evaluation at arbitrary points; beyond the
        first/last node it extrapolates linearly from the boundary pair, with
        the stencil weight clipped to [-1, 2] (see ``QuadratureGrid.locate``)."""
        j, t = self.grid.locate(y)
        return (1 - t) * self.values[j] + t * self.values[j + 1]

    def to_csv(self) -> str:
        return _table("node,value", self.grid.nodes, self.values)


def _table(header: str, *columns, sep: str = ",") -> str:
    """The ``header`` line, none if it is empty, then one line per row of
    ``columns`` (arrays or sequences of equal length): the reprs of plain
    ints and floats, joined by ``sep``."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns))
    return (header + "\n" if header else "") + "".join(
        sep.join(map(repr, row)) + "\n" for row in rows)


def _check_compatible(mu: MeasureDensity, nu: MeasureDensity):
    """Raise unless mu is nu, or the two share a grid and equal masses."""
    if mu is not nu and not (mu.grid.same_as(nu.grid)
                             and np.array_equal(mu.masses, nu.masses)):
        raise IncompatibleGridsError(
            f"measures {mu.name} and {nu.name} are not compatible")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by einsum, not BLAS ``ddot``, whose OpenBLAS threads
    (past 10 000 entries) start slowly inside a process's first long call."""
    return float(np.einsum("i,i", a, b))


def integrate(f: GridFunction) -> float:
    """Quadrature approximation of the integral of f against its measure."""
    return _dot(f.values, f.measure.masses)


def require_centered(f: GridFunction):
    """Raise PreconditionError unless f's mean is 0 to 1e-6 ||f||_2."""
    mean = integrate(f)
    if abs(mean) > 1e-6 * weighted_norm(f.values, f.measure.masses):
        raise PreconditionError(f"observable is not centered: mean = {mean:g}")


def weighted_norm(values: np.ndarray, masses: np.ndarray, p=2) -> float:
    """L^p norm of node values against node masses, for p in {1, 2, inf}."""
    if p == np.inf:
        return float(np.max(np.abs(values)))
    if p == 1:
        return _dot(np.abs(values), masses)
    if p == 2:
        return float(np.sqrt(_dot(values**2, masses)))
    raise InvalidInputError(f"unsupported exponent {p!r}")


def lp_norm(f: GridFunction, p) -> float:
    """L^p(nu) norm for p in {1, 2, inf}."""
    return weighted_norm(f.values, f.measure.masses, p)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Quadrature of f*g against the shared measure."""
    _check_compatible(f.measure, g.measure)
    return _dot(f.values * g.values, f.measure.masses)
