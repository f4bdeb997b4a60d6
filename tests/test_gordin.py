from collections import OrderedDict

import numpy as np
import pytest
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import spsolve

from ergolab import (
    GridFunction,
    MeasureDensity,
    QuadratureGrid,
    build_observable,
    builtin_map,
    coboundary_detect,
    decay_report,
    gordin,
    gordin_decompose,
    lp_norm,
    make_backend,
    resolve_measure,
    sigma_green_kubo,
    transfer,
)
from ergolab.errors import (ConvergenceError, InvalidInputError,
                            PreconditionError)
from ergolab.gordin import EPS_SCHEDULE, _solve_shifted, solve_poisson


@pytest.fixture(scope="module")
def lsv25_1024(lsv25):
    nu = resolve_measure(lsv25, lsv25.default_grid(1024))
    return nu, build_observable("lip1", lsv25, nu).grid_function


@pytest.fixture
def cold_caches(monkeypatch):
    """An empty operator cache, so the next make_backend builds a new
    operator with an empty store of sweeps and resolvents."""
    def clear():
        monkeypatch.setattr(transfer, "_OP_CACHE", OrderedDict())

    return clear


def _resolvent(imap, nu, h, eps, tail_tol):
    """f_eps = ((1+eps)I - P)^-1 h to within tail_tol in L2(nu)."""
    op = make_backend(imap, nu)
    return _solve_shifted(op, h.values, [eps], [eps * tail_tol])[0][0]


def _series_resolvent(op, h, eps, tol):
    """sum_{k=1}^K P^(k-1) h / (1+eps)^k, with the tail
    ||h||_2 (1+eps)^-K / eps below tol."""
    k_max = int(np.ceil(np.log(lp_norm(h, 2) / (eps * tol)) / np.log1p(eps)))
    acc, g = np.zeros_like(h.values), h.values
    for k in range(1, k_max + 1):
        acc += g / (1 + eps) ** k
        g = op.apply(g)
    return acc


def test_resolvent_hand_expansion(doubling, doubling_nu):
    # h = cos(2 pi y) + cos(4 pi y): P h = cos(2 pi y), P^2 h = 0, so the
    # series is exactly h/(1+e) + cos(2 pi y)/(1+e)^2
    nodes = doubling_nu.grid.nodes
    c1 = np.cos(2 * np.pi * nodes)
    c2 = np.cos(4 * np.pi * nodes)
    h = GridFunction(c1 + c2, doubling_nu)
    eps = 0.1
    f_eps = _resolvent(doubling, doubling_nu, h, eps, tail_tol=1e-10)
    expected = (c1 + c2) / 1.1 + c1 / 1.21
    assert np.max(np.abs(f_eps - expected)) < 1e-5


def test_resolvent_identity(doubling, doubling_nu):
    # (1+e) f_e - P f_e = h up to the series truncation
    obs = build_observable("cos2", doubling, doubling_nu)
    h = obs.grid_function
    eps = 0.25
    f_eps = _resolvent(doubling, doubling_nu, h, eps, tail_tol=1e-9)
    op = make_backend(doubling, doubling_nu)
    resid = (1 + eps) * f_eps - op.apply(f_eps) - h.values
    assert np.sqrt((resid**2) @ doubling_nu.masses) < 1e-8


@pytest.mark.parametrize("eps", [0.5, 2.0**-6])
def test_resolvent_matches_series(lsv25, lsv25_1024, eps):
    nu, h = lsv25_1024
    tail_tol = 1e-12 * lp_norm(h, 2)
    f_eps = h.with_values(_resolvent(lsv25, nu, h, eps, tail_tol=tail_tol))
    series = h.with_values(
        _series_resolvent(make_backend(lsv25, nu), h, eps, tail_tol))
    assert (lp_norm(f_eps.with_values(f_eps.values - series.values), 2)
            <= 1e-8 * lp_norm(series, 2))


def test_explicit_default_tail_tol_reads_the_shared_family(lsv25, lsv25_1024):
    # an explicit tail_tol equal to the default keys the same memoised
    # family as the default call, so both return the same arrays
    nu, h = lsv25_1024
    default = gordin_decompose(lsv25, nu, h)
    explicit = gordin_decompose(lsv25, nu, h, tail_tol=1e-6 * lp_norm(h, 2))
    assert explicit.resolvent_residuals == default.resolvent_residuals
    assert np.array_equal(explicit.f_eps.values, default.f_eps.values)


def test_gordin_unreachable_tolerance_is_convergence_error(lsv25, lsv25_1024):
    nu, h = lsv25_1024
    with pytest.raises(ConvergenceError):
        gordin_decompose(lsv25, nu, h, tail_tol=1e-30)


def test_martingale_part_annihilated(doubling, doubling_nu):
    # h_eps = f_eps - U P f_eps satisfies P h_eps = 0
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    f_eps = _resolvent(doubling, doubling_nu, h, 0.05, tail_tol=1e-9)
    op = make_backend(doubling, doubling_nu)
    ph = op.apply(f_eps - op.koopman(op.apply(f_eps)))
    assert np.sqrt((ph**2) @ doubling_nu.masses) < 1e-7


def test_gordin_decompose_doubling(doubling, doubling_nu):
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    gd = gordin_decompose(doubling, doubling_nu, h)
    assert len(gd.eps_schedule) == 12
    assert gd.eps_schedule[0] == 0.5 and gd.eps_schedule[-1] == 2.0**-12
    # martingale case: sigma from ||h_tilde||_2 equals ||h||_2
    assert abs(gd.sigma_mart - np.sqrt(0.5)) < 2e-3
    assert gd.martingale_residual < 1e-6
    # the theoretical Cauchy bound must never be violated
    assert min(gd.cauchy_slacks) > -1e-8
    # increments shrink along the dyadic schedule
    assert gd.cauchy_history[-1] < gd.cauchy_history[0]


def test_gordin_decompose_lsv(lsv25, lsv25_nu):
    h = build_observable("lip1", lsv25, lsv25_nu).grid_function
    gd = gordin_decompose(lsv25, lsv25_nu, h)
    assert gd.martingale_residual < 5e-3
    assert min(gd.cauchy_slacks) > -1e-8
    assert max(gd.resolvent_residuals) < 1e-8
    # the solve stops at the residual that bounds ||f - f_e||_2 by tail_tol
    # for every eps down to 2^-12
    tail_tol = 1e-6 * lp_norm(h, 2)
    assert all(r <= 2**-12 * tail_tol for r in gd.resolvent_residuals)
    d = gd.to_json()
    assert len(d["cauchy_history"]) == 11
    assert len(d["cauchy_bound_slacks"]) == 11
    # ||f_e||_2 along the schedule, the raw input of a resolvent-growth fit
    assert len(d["resolvent_norms"]) == 12
    assert d["resolvent_norms"][-1] == pytest.approx(lp_norm(gd.f_eps, 2),
                                                     rel=1e-12)


@pytest.mark.parametrize("spec,obs", [("lsv:0.25", "lip1"),
                                      ("doubling", "cos1")],
                         ids=["ulam", "branch"])
def test_shifted_run_matches_sparse_direct_solves(spec, obs):
    imap = builtin_map(spec)
    nu = resolve_measure(imap, imap.default_grid(512))
    h = build_observable(obs, imap, nu).grid_function
    op = make_backend(imap, nu)
    assert op.kind == ("ulam" if spec.startswith("lsv") else "branch")
    shifts = (0.0, *EPS_SCHEDULE)
    f, _ = _solve_shifted(op, h.values, shifts,
                          [1e-13 * lp_norm(h, 2)] * len(shifts))
    eye = identity(h.values.size)
    p = np.column_stack([op.apply(e) for e in np.eye(h.values.size)])

    def rel_l2(a, b):
        return lp_norm(h.with_values(a - b), 2) / lp_norm(h.with_values(b), 2)

    for eps, f_eps in zip(shifts[1:], f[1:]):
        direct = spsolve(csc_matrix((1.0 + eps) * eye - p), h.values)
        assert rel_l2(f_eps, direct) <= 1e-8
    # I - P is singular on constants; bordering it with the nu-mean gives
    # the centred solution of the Poisson equation
    masses = nu.masses
    direct = spsolve(csc_matrix(eye - p + np.outer(np.ones_like(masses),
                                                   masses)), h.values)
    assert abs(direct @ masses) < 1e-12
    assert rel_l2(f[0] - f[0] @ masses, direct) <= 1e-8


def test_one_krylov_run_per_observable(lsv25, lsv25_1024, cold_caches):
    # the Poisson equation and the whole schedule come out of one run,
    # which sigma_green_kubo and gordin_decompose share in either order
    nu, h = lsv25_1024

    def count_applies(analysis):
        op = make_backend(lsv25, nu)
        calls = []
        op.apply = lambda v, apply=op.apply: calls.append(1) or apply(v)
        try:
            result = analysis(lsv25, nu, h)
        finally:
            del op.apply
        return len(calls), result.to_json()

    cold_caches()
    cold, gd_first = count_applies(gordin_decompose)
    assert cold < 150
    assert count_applies(sigma_green_kubo)[0] == 0
    cold_caches()
    count_applies(sigma_green_kubo)
    after_gk, gd_second = count_applies(gordin_decompose)
    # h_e = f_e - U P f_e for 12 e, and the martingale residual ||P h~||_2
    assert after_gk <= 13
    assert gd_first == gd_second


def _graded(n, q):
    """Edges (k/n)^q on [0, 1], graded towards 0, with centred nodes."""
    edges = np.linspace(0.0, 1.0, n + 1) ** q
    return QuadratureGrid(edges, 0.5 * (edges[1:] + edges[:-1]))


ROBUSTNESS_CASES = (
    [(f"lsv:{g}", obs, 1) for g in (0.1, 0.25, 0.4, 0.6, 0.8)
     for obs in ("lip1", "y*(1-y)*y")]
    + [("lsv:0.6", "y**2 - 0.616842*y", 1), ("doubling", "cos1", 1),
       ("chebyshev:2", "y", 1), ("manneville_pomeau:0.25", "lip1", 1),
       ("lsv:0.25", "lip1", 2)])


@pytest.mark.parametrize("spec,obs,q", ROBUSTNESS_CASES,
                         ids=[f"{s}-{o}-q{q}" for s, o, q in ROBUSTNESS_CASES])
def test_shifted_run_converges_without_refinement(spec, obs, q, monkeypatch,
                                                  cold_caches):
    imap = builtin_map(spec)
    grid = imap.default_grid(1024) if q == 1 else _graded(1024, q)
    nu = resolve_measure(imap, grid)
    h = build_observable(obs, imap, nu).grid_function
    cold_caches()
    op = make_backend(imap, nu)  # its stationary solve is not counted
    runs = []
    run = transfer._shifted_bicgstab
    monkeypatch.setattr(transfer, "_shifted_bicgstab",
                        lambda *args: runs.append(1) or run(*args))
    _, residuals = gordin._resolvents(op, h.values)
    h_norm = lp_norm(h, 2)
    bounds = [1e-10 * h_norm] + [2**-12 * 1e-6 * h_norm] * 12
    assert all(r <= b for r, b in zip(residuals, bounds))
    assert len(runs) == 1  # no refinement pass


def test_gordin_requires_centered(doubling, doubling_nu):
    h = GridFunction.from_callable(lambda y: y, doubling_nu)
    with pytest.raises(PreconditionError):
        gordin_decompose(doubling, doubling_nu, h)


def test_coboundary_detected(doubling, doubling_nu):
    obs = build_observable("coboundary:cos1", doubling, doubling_nu)
    res = coboundary_detect(doubling, doubling_nu, obs.grid_function)
    assert res.verdict == "true"
    assert res.is_coboundary
    assert res.residual < 1e-3
    # h(y) = g(T y) - g(y) with g(y) = cos(2 pi y); the recovered transfer
    # function is g up to a constant
    f = res.transfer_function.values
    target = np.cos(2 * np.pi * doubling_nu.grid.nodes)
    f_centered = f - f @ doubling_nu.masses
    assert np.max(np.abs(f_centered - target)) < 1e-3


def _partial_sum_transfer(op, h, terms=256):
    """P sum_{k=0}^{terms} P^k h."""
    acc, g = h.copy(), h
    for _ in range(terms):
        g = op.apply(g)
        acc += g
    return op.apply(acc)


@pytest.mark.parametrize("case", ["doubling", "lsv:0.25"])
def test_coboundary_transfer_matches_partial_sums(case, doubling, doubling_nu,
                                                  lsv25, lsv25_1024):
    if case == "doubling":
        imap, nu, base = doubling, doubling_nu, "cos1"
    else:
        imap, nu, base = lsv25, lsv25_1024[0], "lip1"
    h = build_observable("coboundary:" + base, imap, nu).grid_function
    res = coboundary_detect(imap, nu, h)
    reference = _partial_sum_transfer(make_backend(imap, nu), h.values)
    assert np.max(np.abs(res.transfer_function.values - reference)) <= 1e-8


def test_coboundary_rejected_for_mixing_observable(doubling, doubling_nu):
    obs = build_observable("cos1", doubling, doubling_nu)
    res = coboundary_detect(doubling, doubling_nu, obs.grid_function)
    assert res.verdict == "false"
    assert not res.is_coboundary


def test_coboundary_sigma_consistency(doubling, doubling_nu):
    obs = build_observable("coboundary:cos1", doubling, doubling_nu)
    gk = sigma_green_kubo(doubling, doubling_nu, obs.grid_function)
    assert abs(gk.sigma2) < 1e-3


def test_sigma_mart_agrees_with_green_kubo(lsv25, lsv25_nu):
    h = build_observable("lip1", lsv25, lsv25_nu).grid_function
    gd = gordin_decompose(lsv25, lsv25_nu, h)
    gk = sigma_green_kubo(lsv25, lsv25_nu, h)
    assert abs(gd.sigma_mart - gk.sigma) / gk.sigma < 0.02


def test_coboundary_detect_reuses_the_sweep_and_the_poisson_solve(
        lsv25, lsv25_1024, cold_caches):
    # after decay_report and sigma_green_kubo, only f = P f-tilde is left
    nu = lsv25_1024[0]
    h = build_observable("coboundary:lip1", lsv25, nu).grid_function
    decay_report(lsv25, nu, h)
    sigma_green_kubo(lsv25, nu, h)
    op = make_backend(lsv25, nu)
    calls = []
    op.apply = lambda v, apply=op.apply: calls.append(1) or apply(v)
    try:
        warm = coboundary_detect(lsv25, nu, h)
    finally:
        del op.apply
    assert len(calls) <= 1
    cold_caches()
    cold = coboundary_detect(lsv25, nu, h)
    assert make_backend(lsv25, nu) is not op
    assert warm.to_json() == cold.to_json()
    assert np.array_equal(warm.transfer_function.values,
                          cold.transfer_function.values)


def test_coboundary_detect_after_a_shorter_sweep(lsv25, lsv25_1024,
                                                 cold_caches):
    # a 32-term sweep is not the 64-term one coboundary detection reads
    nu = lsv25_1024[0]
    h = build_observable("coboundary:lip1", lsv25, nu).grid_function
    cold_caches()
    decay_report(lsv25, nu, h, n_max=32)
    after = coboundary_detect(lsv25, nu, h)
    cold_caches()
    assert after.to_json() == coboundary_detect(lsv25, nu, h).to_json()


def test_shared_sweep_and_poisson_solution_are_read_only(lsv25, lsv25_1024):
    nu, h = lsv25_1024
    l1 = decay_report(lsv25, nu, h).l1.copy()
    with pytest.raises(ValueError):
        decay_report(lsv25, nu, h).l1[0] = 0.0
    assert np.array_equal(decay_report(lsv25, nu, h).l1, l1)
    op = make_backend(lsv25, nu)
    f = solve_poisson(op, h.values)[0].copy()
    with pytest.raises(ValueError):
        solve_poisson(op, h.values)[0][0] = 0.0
    assert np.array_equal(solve_poisson(op, h.values)[0], f)


@pytest.mark.parametrize("analysis", [decay_report, sigma_green_kubo,
                                      gordin_decompose, coboundary_detect])
def test_analyses_reject_a_measure_that_is_not_the_backends(lsv25, analysis):
    # lsv has no closed-form density, so the backend is the Ulam operator,
    # whose measure is its stationary vector, not Lebesgue measure; h is
    # centred under Lebesgue measure only, so no analysis may run
    grid = lsv25.default_grid(1024)
    nu = MeasureDensity.from_masses(grid, np.ones(grid.size), "lebesgue")
    h = GridFunction(grid.nodes - grid.nodes @ nu.masses, nu)
    with pytest.raises(InvalidInputError):
        analysis(lsv25, nu, h)
