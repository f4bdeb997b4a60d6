"""Transfer and Koopman operators as computable actions on grid functions.

Two interchangeable backends realize the transfer operator:

* ``BranchTransferOperator`` -- the exact preimage-sum formula
  (P f)(x) = sum_y f(y) rho(y) / (rho(x) |T'(y)|) over branch preimages y
  of x, assembled once into a sparse matrix (nodes are fixed, so preimages
  and interpolation stencils are precomputable).  Needs a measure with a
  closed-form pdf; a rank-one correction enforces exact mean preservation,
  which raw midpoint quadrature only gives to a few 1e-6 for singular
  densities.

* ``UlamTransferOperator`` -- the density-free Ulam route on the grid's
  own cells, uniform or not.  The cell transition matrix is a genuine
  finite Markov operator and its stationary vector is exact for it, so
  P1 = 1, mean preservation and the L^p contractions hold to machine
  precision by construction.  This is the default for maps without a
  closed-form invariant density.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    InvalidInputError,
)
from .function_space import GridFunction, MeasureDensity, QuadratureGrid
from .maps import IntervalMap

__all__ = [
    "UlamMatrix",
    "transfer_apply",
    "duality_residual",
    "ulam_matrix",
    "invariant_density",
    "make_backend",
    "BranchTransferOperator",
    "UlamTransferOperator",
]


def _koopman_matrix(imap: IntervalMap, grid: QuadratureGrid) -> csr_matrix:
    """Sparse interpolation matrix for f -> f o T on grid nodes."""
    tx = imap(grid.nodes)
    j, t = grid.locate(tx)
    n = grid.size
    rows = np.repeat(np.arange(n), 2)
    cols = np.empty(2 * n, dtype=int)
    vals = np.empty(2 * n)
    cols[0::2], cols[1::2] = j, j + 1
    vals[0::2], vals[1::2] = 1.0 - t, t
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class BranchTransferOperator:
    """Exact branch-sum discretization of the transfer operator."""

    kind = "branch"

    def __init__(self, imap: IntervalMap, measure: MeasureDensity):
        self.imap = imap
        self.measure = measure
        self.grid = measure.grid
        grid = self.grid
        pdf = measure.pdf
        if pdf is None:
            raise InvalidInputError(
                f"the branch backend needs a closed-form pdf; {measure.name} "
                "has none")
        rho_x = np.asarray(pdf(grid.nodes), dtype=float)
        if np.any(rho_x <= 0):
            raise DegenerateMeasureError("density vanishes at a grid node")
        rows, cols, vals = [], [], []
        for br in imap.branches:
            rlo, rhi = br.range
            mask = (grid.nodes >= rlo - 1e-12) & (grid.nodes <= rhi + 1e-12)
            if not np.any(mask):
                continue
            idx = np.nonzero(mask)[0]
            x = np.clip(grid.nodes[idx], rlo, rhi)
            y = np.clip(br.inverse(x), br.lo, br.hi)
            d = br.deriv_mag(y)
            coeff = np.asarray(pdf(y), dtype=float) / (rho_x[idx] * d)
            j, t = grid.locate(y)
            rows.append(idx)
            cols.append(j)
            vals.append(coeff * (1.0 - t))
            rows.append(idx)
            cols.append(j + 1)
            vals.append(coeff * t)
        n = grid.size
        self.matrix = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        self._koopman = _koopman_matrix(imap, grid)
        self._masses = measure.masses

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.matrix @ values
        return out + (values @ self._masses - out @ self._masses)

    def koopman(self, values: np.ndarray) -> np.ndarray:
        return self._koopman @ values


class UlamTransferOperator:
    """Transfer operator through the Ulam matrix on the grid's cells and
    its stationary vector.

    Acting on functions: (P f) = ((p*f) M) / p where p is the stationary
    cell-mass vector; the Koopman companion is f -> M f (conditional
    expectation of f after one step).
    """

    kind = "ulam"

    def __init__(self, imap: IntervalMap, grid: QuadratureGrid):
        self.imap = imap
        self.grid = grid
        self.ulam = ulam_matrix(imap, grid)
        self.p = stationary_vector(self.ulam)
        self.measure = MeasureDensity.from_masses(
            grid, self.p, name=f"{imap.label}-ulam-{grid.size}"
        )
        self._mt = self.ulam.matrix.T.tocsr()
        self._m = self.ulam.matrix

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self._mt @ (self.p * values)) / self.p

    def koopman(self, values: np.ndarray) -> np.ndarray:
        return self._m @ values


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic cell-transition matrix M_ij = Leb(A_i n T^-1 A_j)/Leb(A_i)."""

    matrix: csr_matrix

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))


def ulam_matrix(imap: IntervalMap, grid: QuadratureGrid) -> UlamMatrix:
    """Assemble the Ulam matrix on ``grid.edges`` from exact
    branch-inverse interval lengths: each branch pulls the x-edges in its
    range back to y, and each pulled-back segment, which maps into one
    x-cell j, is spread over the y-cells i it overlaps."""
    n = grid.size
    if n < 16:
        raise InvalidInputError("Ulam discretization needs at least 16 cells")
    if (grid.a, grid.b) != tuple(imap.domain):
        raise InvalidInputError("Ulam cells must span the map's domain")
    edges, width = grid.edges, grid.weights

    def cell(v):
        return np.minimum(np.searchsorted(edges, v, side="right") - 1, n - 1)

    parts = []
    for br in imap.branches:
        xs = np.unique(np.clip(edges, *br.range))
        ys = np.clip(br.inverse(xs), br.lo, br.hi)
        ylo, yhi = np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])
        j = cell(0.5 * (xs[:-1] + xs[1:]))
        i0 = cell(ylo)
        counts = cell(yhi) - i0 + 1
        seg = np.repeat(np.arange(j.size), counts)
        i = i0[seg] + np.arange(seg.size) - (np.cumsum(counts) - counts)[seg]
        overlap = (np.minimum(yhi[seg], edges[i + 1])
                   - np.maximum(ylo[seg], edges[i]))
        parts.append((overlap / width[i], i, j[seg]))
    vals, rows, cols = map(np.concatenate, zip(*parts))
    m = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    m.eliminate_zeros()  # segment ends that sit on a y-edge
    # kill accumulated roundoff so rows are stochastic to machine precision
    rs = np.asarray(m.sum(axis=1)).ravel()
    m = csr_matrix(m.multiply(1.0 / rs[:, None]))
    return UlamMatrix(m)


STATIONARY_TOL = 1e-12  # L1 change between power-iteration steps
STATIONARY_MAX_ITER = 100_000


def stationary_vector(ulam: UlamMatrix) -> np.ndarray:
    """Left fixed vector of the Ulam matrix by plain power iteration."""
    n = ulam.matrix.shape[0]
    mt = ulam.matrix.T.tocsr()
    p = np.full(n, 1.0 / n)
    for _ in range(STATIONARY_MAX_ITER):
        q = mt @ p
        q /= q.sum()
        if np.abs(q - p).sum() < STATIONARY_TOL:
            return q
        p = q
    raise ConvergenceError(
        f"power iteration did not reach {STATIONARY_TOL} in "
        f"{STATIONARY_MAX_ITER} steps"
    )


# LRU caches keyed on content (maps, grids and measures are immutable); one
# run builds Ulam operators at N/4, N/2 and N cells.
_CACHE_SIZE = 8
_ULAM_CACHE: OrderedDict = OrderedDict()
_OP_CACHE: OrderedDict = OrderedDict()


def _cached(cache: OrderedDict, key, build):
    if key in cache:
        cache.move_to_end(key)
    else:
        cache[key] = build()
        if len(cache) > _CACHE_SIZE:
            cache.popitem(last=False)
    return cache[key]


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _cached_ulam(imap: IntervalMap,
                 grid: QuadratureGrid) -> UlamTransferOperator:
    key = (imap.label, _digest(grid.edges, grid.nodes))
    return _cached(_ULAM_CACHE, key, lambda: UlamTransferOperator(imap, grid))


def invariant_density(imap: IntervalMap, n_cells: int) -> MeasureDensity:
    """Invariant density estimate from the Ulam fixed vector on the uniform
    midpoint grid of n_cells cells."""
    grid = QuadratureGrid.midpoint(*imap.domain, n_cells)
    return _cached_ulam(imap, grid).measure


def make_backend(imap: IntervalMap, measure: MeasureDensity, kind: str = "auto"):
    """Operator backend for (map, measure); 'auto' prefers the exact
    branch-sum form for closed-form densities and Ulam, on the measure's
    grid, otherwise."""
    if kind == "auto":
        kind = "branch" if measure.closed_form else "ulam"
    if kind not in ("branch", "ulam"):
        raise InvalidInputError(f"unknown backend kind {kind!r}")

    def build():
        if kind == "branch":
            return BranchTransferOperator(imap, measure)
        return _cached_ulam(imap, measure.grid)

    key = _digest(measure.grid.edges, measure.grid.nodes, measure.values,
                  measure.masses)
    return _cached(_OP_CACHE, (imap.label, kind, key), build)


def resolve_measure(imap: IntervalMap, grid: QuadratureGrid) -> MeasureDensity:
    """Closed-form invariant measure when the map carries one, the Ulam
    measure on ``grid`` otherwise."""
    m = imap.closed_form_measure(grid)
    if m is not None:
        return m
    return _cached_ulam(imap, grid).measure


def transfer_apply(imap: IntervalMap, nu: MeasureDensity,
                   f: GridFunction) -> GridFunction:
    """One application of the transfer operator (branch-sum backend)."""
    op = make_backend(imap, nu, kind="branch")
    return f.with_values(op.apply(f.values))


def duality_residual(imap: IntervalMap, nu: MeasureDensity, f: GridFunction,
                     g: GridFunction, n: int) -> float:
    """Discretization's violation of <P^n f, g> = int f * (g o T^n) dnu.

    The right side composes the map n times on the nodes and interpolates
    g once; iterating the one-step Koopman matrix instead would compound
    interpolation error through the n-fold derivative growth of T^n.
    """
    if n == 0:
        return 0.0
    op = make_backend(imap, nu, kind="branch")
    pf = f.values
    x = nu.grid.nodes
    for _ in range(n):
        pf = op.apply(pf)
        x = imap.step(x)
    masses = nu.masses
    lhs = float((pf * g.values) @ masses)
    rhs = float((f.values * g.interpolate(x)) @ masses)
    return abs(lhs - rhs)
