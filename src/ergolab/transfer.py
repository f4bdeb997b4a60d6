"""Transfer and Koopman operators as computable actions on grid functions.

Two interchangeable backends realize the transfer operator:

* ``BranchTransferOperator`` -- the exact preimage-sum formula
  (P f)(x) = sum_y f(y) rho(y) / (rho(x) |T'(y)|) over branch preimages y
  of x, assembled once into a sparse matrix (nodes are fixed, so preimages
  and interpolation stencils are precomputable).  Needs a measure with a
  closed-form pdf; a rank-one correction enforces exact mean preservation,
  which raw midpoint quadrature only gives to a few 1e-6 for singular
  densities.

* ``UlamTransferOperator`` -- the density-free Ulam route.  The cell
  transition matrix is a genuine finite Markov operator and its stationary
  vector is exact for it, so P1 = 1, mean preservation and the L^p
  contractions hold to machine precision by construction.  This is the
  default for maps without a closed-form invariant density.
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
    """Transfer operator through the Ulam matrix and its stationary vector.

    Acting on functions: (P f) = ((p*f) M) / p where p is the stationary
    cell-mass vector; the Koopman companion is f -> M f (conditional
    expectation of f after one step).
    """

    kind = "ulam"

    def __init__(self, imap: IntervalMap, ulam: "UlamMatrix",
                 stationary: np.ndarray, grid: QuadratureGrid):
        self.imap = imap
        self.ulam = ulam
        self.grid = grid
        self.p = stationary
        self.measure = MeasureDensity.from_masses(
            grid, stationary, name=f"{imap.label}-ulam-{ulam.n_cells}"
        )
        self._mt = ulam.matrix.T.tocsr()
        self._m = ulam.matrix

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self._mt @ (self.p * values)) / self.p

    def koopman(self, values: np.ndarray) -> np.ndarray:
        return self._m @ values


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic cell-transition matrix M_ij = Leb(A_i n T^-1 A_j)/Leb(A_i)."""

    n_cells: int
    matrix: csr_matrix

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))


def ulam_matrix(imap: IntervalMap, n_cells: int) -> UlamMatrix:
    """Assemble the Ulam matrix from exact branch-inverse interval lengths."""
    if n_cells < 16:
        raise InvalidInputError("Ulam discretization needs at least 16 cells")
    a, b = imap.domain
    width = (b - a) / n_cells
    edges = a + np.arange(n_cells + 1) * width
    rows, cols, vals = [], [], []
    for br in imap.branches:
        rlo, rhi = br.range
        # x-cell boundaries covered by this branch's image, pulled back to y
        k_lo = int(np.searchsorted(edges, rlo, side="left"))
        k_hi = int(np.searchsorted(edges, rhi, side="right")) - 1
        xs = np.unique(np.concatenate([[rlo], edges[max(k_lo, 0):k_hi + 1], [rhi]]))
        xs = xs[(xs >= rlo - 1e-15) & (xs <= rhi + 1e-15)]
        ys = np.clip(br.inverse(np.clip(xs, rlo, rhi)), br.lo, br.hi)
        if not br.increasing:
            ys = ys[::-1]
            xs = xs[::-1]
        # each consecutive y pair maps into a single x-cell
        for k in range(len(ys) - 1):
            ylo, yhi = sorted((float(ys[k]), float(ys[k + 1])))
            if yhi - ylo <= 0:
                continue
            xmid = 0.5 * (xs[k] + xs[k + 1])
            j = min(int((xmid - a) / width), n_cells - 1)
            i0 = min(int((ylo - a) / width), n_cells - 1)
            i1 = min(int((yhi - a) / width), n_cells - 1)
            for i in range(i0, i1 + 1):
                seg = min(yhi, edges[i + 1]) - max(ylo, edges[i])
                if seg > 0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(seg / width)
    m = coo_matrix((vals, (rows, cols)), shape=(n_cells, n_cells)).tocsr()
    # kill accumulated roundoff so rows are stochastic to machine precision
    rs = np.asarray(m.sum(axis=1)).ravel()
    m = csr_matrix(m.multiply(1.0 / rs[:, None]))
    return UlamMatrix(n_cells, m)


STATIONARY_TOL = 1e-12  # L1 change between power-iteration steps
STATIONARY_MAX_ITER = 100_000


def stationary_vector(ulam: UlamMatrix) -> np.ndarray:
    """Left fixed vector of the Ulam matrix by plain power iteration."""
    n = ulam.n_cells
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
# run builds Ulam matrices at N/4, N/2 and N cells.
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


def _cached_ulam(imap: IntervalMap, n_cells: int):
    def build():
        u = ulam_matrix(imap, n_cells)
        return u, stationary_vector(u)

    return _cached(_ULAM_CACHE, (imap.label, n_cells), build)


def invariant_density(imap: IntervalMap, n_cells: int) -> MeasureDensity:
    """Invariant density estimate from the Ulam fixed vector."""
    u, p = _cached_ulam(imap, n_cells)
    a, b = imap.domain
    grid = QuadratureGrid.midpoint(a, b, n_cells)
    return MeasureDensity.from_masses(grid, p, name=f"{imap.label}-ulam-{n_cells}")


def make_backend(imap: IntervalMap, measure: MeasureDensity, kind: str = "auto"):
    """Operator backend for (map, measure); 'auto' prefers the exact
    branch-sum form for closed-form densities and Ulam otherwise."""
    if kind == "auto":
        kind = "branch" if measure.closed_form else "ulam"
    if kind not in ("branch", "ulam"):
        raise InvalidInputError(f"unknown backend kind {kind!r}")

    def build():
        if kind == "branch":
            return BranchTransferOperator(imap, measure)
        u, p = _cached_ulam(imap, measure.grid.size)
        return UlamTransferOperator(imap, u, p, measure.grid)

    digest = hashlib.sha256()
    for arr in (measure.grid.nodes, measure.grid.weights, measure.values,
                measure.masses):
        digest.update(arr.tobytes())
    return _cached(_OP_CACHE, (imap.label, kind, digest.hexdigest()), build)


def resolve_measure(imap: IntervalMap, grid: QuadratureGrid) -> MeasureDensity:
    """Closed-form invariant measure when the map carries one, Ulam otherwise."""
    m = imap.closed_form_measure(grid)
    if m is not None:
        return m
    return invariant_density(imap, grid.size)


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
