from collections import OrderedDict

import numpy as np
import pytest

from ergolab import (
    GridFunction,
    QuadratureGrid,
    builtin_map,
    duality_residual,
    invariant_density,
    lp_norm,
    make_backend,
    resolve_measure,
    transfer,
    transfer_apply,
    ulam_matrix,
)
from ergolab.cli import main
from ergolab.errors import (ConvergenceError, InvalidInputError,
                            PreconditionError)
from ergolab.transfer import UlamTransferOperator, stationary_vector


def _graded(n):
    # n cells on [0, 1], refined towards 0
    return QuadratureGrid.from_nodes(0, 1, np.linspace(0, 1, n + 2)[1:-1] ** 2)


def _graded_edges(n):
    # n cells on [0, 1] chosen by their edges, nodes at the cell centers
    e = np.linspace(0, 1, n + 1) ** 2
    return QuadratureGrid(e, 0.5 * (e[1:] + e[:-1]))


def test_ulam_doubling_rows():
    m = builtin_map("doubling")
    u = ulam_matrix(m, m.default_grid(16))
    dense = u.toarray()
    # cell i maps onto cells 2i and 2i+1 (mod 16), half mass each
    for i in range(16):
        row = dense[i]
        assert np.isclose(row[(2 * i) % 16], 0.5)
        assert np.isclose(row[(2 * i + 1) % 16], 0.5)
    assert abs(u.sum(axis=1) - 1).max() < 1e-14
    # at 1000 cells: 2000 entries of 1/2, plus 88 slivers where the second
    # branch pulls an edge back to ulps beside an edge; edges rebuilt as
    # node midpoints, off k/1000 by ulps, gave 2348 entries
    assert ulam_matrix(m, m.default_grid(1000)).nnz == 2088


def test_ulam_rejects_tiny_grids():
    m = builtin_map("doubling")
    with pytest.raises(InvalidInputError):
        ulam_matrix(m, m.default_grid(8))


def test_ulam_rejects_a_grid_off_the_domain():
    with pytest.raises(InvalidInputError):
        ulam_matrix(builtin_map("doubling"), QuadratureGrid.midpoint(0, 2, 64))


def test_stationary_vector_doubling_uniform():
    m = builtin_map("doubling")
    u = ulam_matrix(m, m.default_grid(64))
    p = stationary_vector(u)
    assert np.allclose(p, 1.0 / 64, atol=1e-10)


def test_ulam_operator_reuses_its_transpose():
    # the operator's stationary vector comes from the transpose it applies
    # with, and equals the public function's bit for bit
    m = builtin_map("lsv:0.25")
    op = UlamTransferOperator(m, m.default_grid(1024))
    # stationary_vector's transpose of the CSC view copies nothing
    assert np.shares_memory(op._mt.T.T.tocsr().data, op._mt.data)
    assert op.p.tobytes() == stationary_vector(op.matrix).tobytes()


def test_ulam_on_graded_cells_keeps_lebesgue_for_doubling():
    # doubling preserves Lebesgue measure, so the Ulam fixed vector on any
    # cells is their widths
    for grid in (_graded(1024), _graded_edges(1024)):
        p = stationary_vector(ulam_matrix(builtin_map("doubling"), grid))
        assert np.abs(p - grid.weights).sum() < 1e-11


STOP_RULE_CASES = [("lsv:0.25", 1), ("lsv:0.6", 1), ("lsv:0.8", 1),
                   ("chebyshev:2", 1), ("lsv:0.25", 2)]


@pytest.mark.parametrize("spec,q", STOP_RULE_CASES,
                         ids=[f"{s}-q{q}" for s, q in STOP_RULE_CASES])
def test_stationary_vector_stops_on_its_residual(spec, q):
    # the Euclidean residual 1e-13 / sqrt(n) bounds |M^T p - p|_1 by 1e-13;
    # a step-change rule at 1e-12 left 7e-13 to 1e-12 here
    m = builtin_map(spec)
    grid = m.default_grid(4096) if q == 1 else _graded_edges(4096)
    matrix = ulam_matrix(m, grid)
    p = stationary_vector(matrix)
    assert np.abs(matrix.T @ p - p).sum() <= 2e-13
    assert p.min() >= 0
    assert abs(p.sum() - 1) <= 1e-14


def test_stationary_solve_failure_is_a_convergence_error(monkeypatch,
                                                         capsys):
    # three BiCGSTAB steps cannot reach the residual bound at lsv:0.6; the
    # empty cache holds no operator built by an earlier test
    monkeypatch.setattr(transfer, "MAX_ITERATIONS", 3)
    monkeypatch.setattr(transfer, "_OP_CACHE", OrderedDict())
    m = builtin_map("lsv:0.6")
    with pytest.raises(ConvergenceError):
        UlamTransferOperator(m, m.default_grid(1024))
    assert main(["density", "--map", "lsv:0.6", "--cells", "1024"]) == 3
    assert "convergence error" in capsys.readouterr().err


def test_resolve_measure_keeps_its_grid():
    for grid in (_graded(1024), _graded_edges(1024)):
        assert resolve_measure(builtin_map("lsv:0.25"), grid).grid.same_as(grid)


def test_ulam_backend_on_chebyshev_cells():
    # the arcsine law has E[y^2] = 1/2; the Ulam measure must live on the
    # cosine grid's own cells to give it
    m = builtin_map("chebyshev:2")
    op = make_backend(m, resolve_measure(m, m.default_grid(1024)), kind="ulam")
    assert abs(op.measure.grid.nodes ** 2 @ op.measure.masses - 0.5) < 1e-3


def test_invariant_density_lsv_shape():
    # density decreasing, divergent near the neutral point
    nu = invariant_density(builtin_map("lsv:0.5"), 1024)
    assert nu.values[0] > nu.values[10] > nu.values[500]
    assert abs(nu.masses.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("spec", ["doubling", "chebyshev:2", "lsv:0.25"])
def test_backend_structural_properties(spec, rng):
    m = builtin_map(spec)
    nu = resolve_measure(m, m.default_grid(1024))
    op = make_backend(m, nu)
    ones = np.ones(1024)
    assert np.allclose(op.apply(ones), 1.0, atol=1e-9)
    v = rng.normal(size=1024)
    # mean preservation, exact by construction in both backends
    assert abs(v @ op.measure.masses - op.apply(v) @ op.measure.masses) < 1e-12
    # L^p contraction
    for p in (1, 2):
        before = lp_norm(GridFunction(v, op.measure), p)
        after = lp_norm(GridFunction(op.apply(v), op.measure), p)
        assert after <= before + 1e-9


def test_backend_selection():
    cheb = builtin_map("chebyshev:2")
    nu = resolve_measure(cheb, cheb.default_grid(256))
    assert make_backend(cheb, nu).kind == "branch"
    lsv = builtin_map("lsv:0.25")
    nu2 = resolve_measure(lsv, lsv.default_grid(256))
    assert make_backend(lsv, nu2).kind == "ulam"
    with pytest.raises(InvalidInputError):
        make_backend(cheb, nu, kind="spectral")


def test_branch_backend_needs_a_pdf():
    # an Ulam measure has no closed-form pdf to weight the preimage sums
    lsv = builtin_map("lsv:0.25")
    with pytest.raises(InvalidInputError):
        make_backend(lsv, invariant_density(lsv, 256), kind="branch")


def test_doubling_fourier_cascade(doubling, doubling_nu):
    # P cos(4 pi y) = cos(2 pi y), P cos(2 pi y) = 0
    nodes = doubling_nu.grid.nodes
    c2 = GridFunction(np.cos(4 * np.pi * nodes), doubling_nu)
    c1 = GridFunction(np.cos(2 * np.pi * nodes), doubling_nu)
    pc2 = transfer_apply(doubling, doubling_nu, c2)
    assert lp_norm(pc2.with_values(pc2.values - c1.values), 2) < 1e-6
    assert lp_norm(transfer_apply(doubling, doubling_nu, c1), 2) < 1e-7


def test_chebyshev_odd_annihilation(cheb2, cheb2_nu):
    h = GridFunction.from_callable(lambda y: y, cheb2_nu)
    assert lp_norm(transfer_apply(cheb2, cheb2_nu, h), 2) < 1e-12


def test_chebyshev_branch_average_formula(cheb2, cheb2_nu):
    f = GridFunction.from_callable(
        lambda y: np.cos(np.pi * y) + 0.5 * y**3, cheb2_nu
    )
    pf = transfer_apply(cheb2, cheb2_nu, f)
    s = np.sqrt((cheb2_nu.grid.nodes + 1.0) / 2.0)
    explicit = 0.5 * (f.interpolate(s) + f.interpolate(-s))
    assert np.max(np.abs(pf.values - explicit)) < 1e-6


def test_koopman_isometry():
    # U f = f o T preserves the L2(nu) norm of every f, up to interpolation
    for spec in ("doubling", "chebyshev:2"):
        m = builtin_map(spec)
        nu = resolve_measure(m, m.default_grid(1024))
        f = GridFunction.from_callable(
            lambda y: np.sin(2 * np.pi * y) + 0.2 * y, nu
        )
        uf = f.with_values(make_backend(m, nu).koopman(f.values))
        assert abs(lp_norm(uf, 2) - lp_norm(f, 2)) < 2e-3


def test_transfer_undoes_koopman(doubling, doubling_nu):
    f = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y) + y**2,
                                   doubling_nu)
    uf = make_backend(doubling, doubling_nu).koopman(f.values)
    puf = transfer_apply(doubling, doubling_nu, f.with_values(uf))
    assert lp_norm(puf.with_values(puf.values - f.values), 2) < 5e-3


def test_transfer_power_matches_repeated_apply(doubling, doubling_nu):
    # P cos(2^(k+1) pi y) = cos(2^k pi y) for k >= 1, and P cos(2 pi y) = 0,
    # so P^1..P^3 of cos(8 pi y) step down the cascade in order
    op = make_backend(doubling, doubling_nu)
    nodes = doubling_nu.grid.nodes
    v = np.cos(8 * np.pi * nodes)
    for expected in (np.cos(4 * np.pi * nodes), np.cos(2 * np.pi * nodes),
                     np.zeros_like(nodes)):
        v = op.apply(v)
        assert np.max(np.abs(v - expected)) < 1e-5


def test_duality_residual_small_and_refining():
    vals = {}
    for N in (2048, 8192):
        for spec in ("doubling", "chebyshev:2"):
            m = builtin_map(spec)
            nu = resolve_measure(m, m.default_grid(N))
            f = GridFunction.from_callable(
                lambda y: np.cos(np.pi * y) + 0.4 * np.sin(2 * np.pi * y), nu
            )
            g = GridFunction.from_callable(
                lambda y: np.sin(np.pi * y) - 0.2 * np.cos(2 * np.pi * y), nu
            )
            vals[(spec, N)] = max(
                duality_residual(m, nu, f, g, n) for n in (1, 2, 3)
            )
            assert vals[(spec, N)] < 5e-4
    for spec in ("doubling", "chebyshev:2"):
        # refinement must shrink the residual unless it already sits at
        # machine precision on the coarse grid
        if vals[(spec, 2048)] > 1e-12:
            assert vals[(spec, 2048)] / vals[(spec, 8192)] > 3.0


def test_duality_residual_zero_steps(doubling, doubling_nu):
    f = GridFunction.from_callable(lambda y: y, doubling_nu)
    assert duality_residual(doubling, doubling_nu, f, f, 0) == 0.0


def test_duality_residual_rejects_negative_steps(doubling, doubling_nu):
    f = GridFunction.from_callable(lambda y: y, doubling_nu)
    with pytest.raises(PreconditionError):
        duality_residual(doubling, doubling_nu, f, f, -1)


def test_operator_cache_is_keyed_on_content():
    from ergolab import transfer

    m = builtin_map("doubling")
    transfer._OP_CACHE.clear()
    for _ in range(20):
        make_backend(m, resolve_measure(m, m.default_grid(256)))
    assert len(transfer._OP_CACHE) == 1
    # the cache is bounded
    lsv = builtin_map("lsv:0.25")
    for n in range(16, 16 + 2 * transfer._CACHE_SIZE):
        make_backend(lsv, invariant_density(lsv, n))
    assert len(transfer._OP_CACHE) == transfer._CACHE_SIZE
    # uniform and graded cells of the same count are two Ulam operators
    transfer._OP_CACHE.clear()
    for grid in (lsv.default_grid(256), _graded(256)) * 2:
        make_backend(lsv, resolve_measure(lsv, grid))
    assert len(transfer._OP_CACHE) == 2


def test_one_run_builds_each_ulam_matrix_once(monkeypatch):
    # the observable's N/4 and N/2 means and the N-cell backend all hit
    from ergolab import build_observable, transfer

    built = []
    real = transfer.ulam_matrix
    monkeypatch.setattr(transfer, "ulam_matrix",
                        lambda imap, grid: built.append(grid.size)
                        or real(imap, grid))
    transfer._OP_CACHE.clear()
    m = builtin_map("lsv:0.25")
    nu = resolve_measure(m, m.default_grid(1024))
    build_observable("lip1", m, nu)
    make_backend(m, nu)
    assert sorted(built) == [256, 512, 1024]
