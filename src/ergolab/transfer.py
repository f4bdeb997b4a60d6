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
  finite Markov operator, so P1 = 1, mean preservation and the L^p
  contractions hold to machine precision by construction.  This is the
  default for maps without a closed-form invariant density.

Every linear solve, Ulam's stationary vector and ``gordin``'s resolvents,
runs one Krylov engine, ``_solve_shifted``.  One bounded LRU keyed on
content caches the operators of both backends, and each operator keeps a
bounded ``memo`` of sweeps and resolvent families.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    InvalidInputError,
    PreconditionError,
)
from .function_space import (GridFunction, MeasureDensity, QuadratureGrid,
                             _dot, require_centered)
from .maps import IntervalMap

__all__ = [
    "transfer_apply",
    "duality_residual",
    "ulam_matrix",
    "invariant_density",
    "make_backend",
    "BranchTransferOperator",
    "UlamTransferOperator",
]


def _stencil(grid: QuadratureGrid, rows: np.ndarray, y: np.ndarray, coeff):
    """COO triples (rows, cols, vals): coeff times interpolation at y."""
    j, t = grid.locate(y)
    return (np.concatenate([rows, rows]), np.concatenate([j, j + 1]),
            np.concatenate([coeff * (1.0 - t), coeff * t]))


def _csr(n: int, parts) -> csr_matrix:
    """The n x n CSR matrix summing the COO triples (rows, cols, vals)."""
    rows, cols, vals = map(np.concatenate, zip(*parts))
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
        parts = []
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
            parts.append(_stencil(grid, idx, y, coeff))
        n = grid.size
        self.matrix = _csr(n, parts)
        self._koopman = _csr(n, [_stencil(grid, np.arange(n),
                                          imap(grid.nodes), 1.0)])
        self._masses = measure.masses
        self.memo = OrderedDict()

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.matrix @ values
        return out + (_dot(values, self._masses) - _dot(out, self._masses))

    def koopman(self, values: np.ndarray) -> np.ndarray:
        return self._koopman @ values


class UlamTransferOperator:
    """Transfer operator through the Ulam matrix on the grid's cells and
    its stationary vector.

    Acting on functions: (P f) = ((p*f) M) / p where p is the stationary
    cell-mass vector, to |M^T p - p|_1 <= 1e-13; the Koopman companion is
    f -> M f (conditional expectation of f after one step).
    """

    kind = "ulam"

    def __init__(self, imap: IntervalMap, grid: QuadratureGrid):
        self.imap = imap
        self.grid = grid
        self.matrix = ulam_matrix(imap, grid)
        self._mt = self.matrix.T.tocsr()
        # _mt.T is the matrix as a CSC view of _mt's arrays, whose transpose
        # in stationary_vector is _mt itself: the matrix is transposed once
        self.p = stationary_vector(self._mt.T)
        self.measure = MeasureDensity.from_masses(
            grid, self.p, name=f"{imap.label}-ulam-{grid.size}"
        )
        self.memo = OrderedDict()

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self._mt @ (self.p * values)) / self.p

    def koopman(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


def ulam_matrix(imap: IntervalMap, grid: QuadratureGrid) -> csr_matrix:
    """Row-stochastic CSR matrix M_ij = Leb(A_i n T^-1 A_j)/Leb(A_i) on the
    cells of ``grid.edges``, from exact branch-inverse lengths: each branch
    pulls the x-edges in its range back to y, and each pulled-back segment,
    which maps into one x-cell j, is spread over the y-cells i it overlaps."""
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
        parts.append((i, j[seg], overlap / width[i]))
    m = _csr(n, parts)
    m.eliminate_zeros()  # segment ends that sit on a y-edge
    # kill accumulated roundoff so rows are stochastic to machine precision
    rs = np.asarray(m.sum(axis=1)).ravel()
    m.data *= np.repeat(1.0 / rs, np.diff(m.indptr))
    return m


MAX_ITERATIONS = 1000  # BiCGSTAB steps (two matvecs each) per run


def _finite(*values):
    """Raise the breakdown error unless the per-shift arrays are finite."""
    if not np.isfinite(values).all():
        raise ConvergenceError("multi-shift BiCGSTAB broke down")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _shifted_bicgstab(matvec, b: np.ndarray, shifts, tols, dot) -> np.ndarray:
    """One multi-shift BiCGSTAB run for ((1+e)I - A) x_e = b, e in
    ``shifts``, from zero starts, with A = ``matvec`` and the norm of the
    inner product ``dot``; returns the x_e as rows of one array.

    The seed, the smallest shift, runs plain BiCGSTAB.  The residual of
    shift e is the seed's divided by zeta * tau, scalars that follow from
    the seed's: zeta continues the BiCG residual polynomial to e, and tau
    the stabilising one.  So the seed's two matvecs per step are the only
    ones.  Shift i is dropped once its updated residual norm is at most
    ``tols[i]`` (an array); a non-finite scalar is a breakdown."""
    seed = min(shifts)
    sigma = np.asarray(shifts, dtype=float) - seed
    x = np.zeros((sigma.size, b.size))

    def seed_matvec(v):
        return (1.0 + seed) * v - matvec(v)

    live = np.flatnonzero(np.sqrt(dot(b, b)) > tols)
    # per live shift: the direction p^e, and the scalars zeta_(k-1), zeta_k
    # and tau_k; the iterate x^e is its row of x
    ps = [b.astype(float) for _ in live]
    zeta_old, zeta, tau = np.ones((3, live.size))
    # the seed's s_k, r_(k+1) and r_k live in rows of basis; row 0 takes p^e
    basis = np.empty((4, b.size))
    s, r_new, r = basis[1:]
    r[:] = b
    p, rho = b, dot(b, b)
    alpha_old, beta_old = 1.0, 0.0
    try:
        for _ in range(MAX_ITERATIONS):
            sig, tol = sigma[live], tols[live]
            v = seed_matvec(p)
            alpha = rho / dot(b, v)
            np.subtract(r, alpha * v, out=s)
            zeta_new = (zeta * (1.0 + alpha * sig)
                        + alpha * beta_old / alpha_old * (zeta - zeta_old))
            alpha_s = alpha * zeta / zeta_new
            s_scale = 1.0 / (zeta_new * tau)  # s^e = s_scale * s
            _finite(zeta_new, alpha_s, s_scale)  # alpha_s carries alpha
            half = np.sqrt(dot(s, s)) * np.abs(s_scale) <= tol
            for i in np.flatnonzero(half):  # converged at the half step
                x[live[i]] += alpha_s[i] * ps[i]
            if half.all():
                return x
            t = seed_matvec(s)
            omega = dot(t, s) / dot(t, t)
            np.subtract(s, omega * t, out=r_new)
            rho_new = dot(b, r_new)
            beta = rho_new / rho * (alpha / omega)
            omega_s = omega / (1.0 + omega * sig)
            tau_new = tau * (1.0 + omega * sig)
            r_scale = 1.0 / (zeta_new * tau_new)  # r^e_(k+1) = r_scale*r_new
            beta_s = beta * (zeta / zeta_new) ** 2
            _finite(omega_s, beta_s, r_scale)  # they carry omega and beta
            full = ~half & (np.sqrt(dot(r_new, r_new)) * np.abs(r_scale) <= tol)
            # x^e += alpha^e p^e + omega^e s^e, and
            # p^e <- r^e_(k+1) + beta^e (p^e - (omega^e / alpha^e)(r^e_k - s^e)),
            # as combinations of the rows of basis
            g = beta_s * omega_s / alpha_s
            x_coef = np.column_stack([alpha_s, omega_s * s_scale])
            p_coef = np.column_stack([beta_s, g * s_scale, r_scale,
                                      -g / (zeta * tau)])
            for i in np.flatnonzero(~half):
                basis[0] = ps[i]
                x[live[i]] += x_coef[i] @ basis[:2]
                if not full[i]:
                    np.matmul(p_coef[i], basis, out=ps[i])
            keep = ~(half | full)
            live, ps = live[keep], [q for q, k in zip(ps, keep) if k]
            zeta_old, zeta, tau = zeta[keep], zeta_new[keep], tau_new[keep]
            if not live.size:
                return x
            p = r_new + beta * (p - omega * v)
            r[:] = r_new
            rho, alpha_old, beta_old = rho_new, alpha, beta
    except ZeroDivisionError:
        raise ConvergenceError("multi-shift BiCGSTAB broke down") from None
    missed = ", ".join(f"{shifts[i]:g}" for i in live)
    raise ConvergenceError(f"multi-shift BiCGSTAB missed the residual bounds "
                           f"at {missed} within {MAX_ITERATIONS} iterations")


def _solve_shifted(matvec, b: np.ndarray, shifts, tols, dot) -> tuple:
    """x_e with ((1+e)I - A) x_e = b, A = ``matvec``, for each e in
    ``shifts``, to the residual bound at the same place in ``tols`` in the
    norm of ``dot``; returns the x_e as rows of one array and their
    recomputed residuals.  One multi-shift run solves them all; a system
    whose recomputed residual misses its bound, as the updated one drifts,
    is refined by a one-shift run on its true residual, and one that still
    misses raises ConvergenceError."""
    tols = np.asarray(tols, dtype=float)
    b_norm = float(np.sqrt(dot(b, b)))
    if np.all(b_norm <= tols):
        return np.zeros((tols.size, b.size)), np.full(tols.size, b_norm)
    x = _shifted_bicgstab(matvec, b, shifts, tols, dot)

    def residual(i):
        r = b - ((1.0 + shifts[i]) * x[i] - matvec(x[i]))
        return r, float(np.sqrt(dot(r, r)))

    residuals = np.empty(tols.size)
    for i, tol in enumerate(tols):
        r, residuals[i] = residual(i)
        if residuals[i] > tol:
            x[i] += _shifted_bicgstab(matvec, r, [shifts[i]], tols[[i]], dot)[0]
            r, residuals[i] = residual(i)
            if residuals[i] > tol:
                raise ConvergenceError(
                    f"Krylov solve missed residual {tol:g} at shift "
                    f"{shifts[i]:g} after refinement")
    return x, residuals


def stationary_vector(matrix: csr_matrix) -> np.ndarray:
    """Left fixed vector p = u + d of the Ulam matrix M, u uniform, with
    (I - M^T) d = M^T u - u to Euclidean residual 1e-13 / sqrt(n), so that
    |M^T p - p|_1 <= 1e-13; d sums to 0, as M^T keeps sums.  A CSR
    ``matrix`` is transposed into a new CSR matrix; a CSC one is
    transposed as a view of its own arrays."""
    n = matrix.shape[0]
    mt = matrix.T.tocsr()
    u = np.full(n, 1.0 / n)
    d, _ = _solve_shifted(mt.dot, mt @ u - u, [0.0], [1e-13 / np.sqrt(n)],
                          _dot)
    return u + d[0]


# The one operator LRU, keyed on content (maps, grids and measures are
# immutable); one run builds Ulam operators at N/4, N/2 and N cells.
_CACHE_SIZE = 8
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


def _memo(op, key: tuple, values: np.ndarray, build):
    """``build()`` once per ``key`` and content of ``values``, kept in the
    bounded store ``op.memo``, so that the statistics of one observable
    share its sweep of P^k h and its resolvents; every caller gets the
    same arrays, so they are read-only."""
    out = _cached(op.memo, (*key, _digest(values)), build)
    for arr in out:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return out


def _ulam(imap: IntervalMap, grid: QuadratureGrid) -> UlamTransferOperator:
    key = (imap.label, "ulam", _digest(grid.edges, grid.nodes))
    return _cached(_OP_CACHE, key, lambda: UlamTransferOperator(imap, grid))


def invariant_density(imap: IntervalMap, n_cells: int) -> MeasureDensity:
    """Invariant density estimate from the Ulam fixed vector on the uniform
    midpoint grid of n_cells cells."""
    grid = QuadratureGrid.midpoint(*imap.domain, n_cells)
    return _ulam(imap, grid).measure


def make_backend(imap: IntervalMap, measure: MeasureDensity, kind: str = "auto"):
    """Operator backend for (map, measure); 'auto' prefers the exact
    branch-sum form for closed-form densities and Ulam, on the measure's
    grid, otherwise."""
    if kind == "auto":
        kind = "branch" if measure.closed_form else "ulam"
    if kind not in ("branch", "ulam"):
        raise InvalidInputError(f"unknown backend kind {kind!r}")
    if kind == "ulam":
        return _ulam(imap, measure.grid)
    key = _digest(measure.grid.edges, measure.grid.nodes, measure.values,
                  measure.masses)
    return _cached(_OP_CACHE, (imap.label, "branch", key),
                   lambda: BranchTransferOperator(imap, measure))


def resolve_measure(imap: IntervalMap, grid: QuadratureGrid) -> MeasureDensity:
    """Closed-form invariant measure when the map carries one, the Ulam
    measure on ``grid`` otherwise."""
    if imap.density_pdf is not None:
        return MeasureDensity.from_callable(
            grid, imap.density_pdf, f"{imap.name}-invariant", imap.density_cdf)
    return _ulam(imap, grid).measure


def _backend_for(imap: IntervalMap, nu: MeasureDensity, h: GridFunction,
                 kind: str = "auto"):
    """``make_backend(imap, nu, kind)`` for an analysis of h, which must be
    centred under nu; raises InvalidInputError unless the backend's measure
    has nu's masses, as an Ulam backend on any other measure has not."""
    require_centered(h)
    op = make_backend(imap, nu, kind=kind)
    if not np.array_equal(op.measure.masses, nu.masses):
        raise InvalidInputError(f"the {op.kind} backend's measure "
                                f"{op.measure.name} is not {nu.name}")
    return op


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
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    op = make_backend(imap, nu, kind="branch")
    pf = f.values
    x = nu.grid.nodes
    for _ in range(n):
        pf = op.apply(pf)
        x = imap.step(x)
    return abs(_dot(pf * g.values, nu.masses)
               - _dot(f.values * g.interpolate(x), nu.masses))
