import numpy as np
import pytest

from ergolab import (
    GridFunction,
    build_observable,
    coboundary_detect,
    gordin_decompose,
    lp_norm,
    make_backend,
    resolve_measure,
    resolvent,
    sigma_green_kubo,
)
from ergolab.errors import ConvergenceError, PreconditionError


@pytest.fixture(scope="module")
def lsv25_1024(lsv25):
    nu = resolve_measure(lsv25, lsv25.default_grid(1024))
    return nu, build_observable("lip1", lsv25, nu).grid_function


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
    f_eps = resolvent(doubling, doubling_nu, h, eps, tail_tol=1e-10)
    expected = (c1 + c2) / 1.1 + c1 / 1.21
    assert np.max(np.abs(f_eps.values - expected)) < 1e-5


def test_resolvent_identity(doubling, doubling_nu):
    # (1+e) f_e - P f_e = h up to the series truncation
    from ergolab.transfer import make_backend

    obs = build_observable("cos2", doubling, doubling_nu)
    h = obs.grid_function
    eps = 0.25
    f_eps = resolvent(doubling, doubling_nu, h, eps, tail_tol=1e-9)
    op = make_backend(doubling, doubling_nu)
    resid = (1 + eps) * f_eps.values - op.apply(f_eps.values) - h.values
    assert np.sqrt((resid**2) @ doubling_nu.masses) < 1e-8


@pytest.mark.parametrize("eps", [0.5, 2.0**-6])
def test_resolvent_matches_series(lsv25, lsv25_1024, eps):
    nu, h = lsv25_1024
    tail_tol = 1e-12 * lp_norm(h, 2)
    f_eps = resolvent(lsv25, nu, h, eps, tail_tol=tail_tol)
    series = h.with_values(
        _series_resolvent(make_backend(lsv25, nu), h, eps, tail_tol))
    assert lp_norm(f_eps - series, 2) <= 1e-8 * lp_norm(series, 2)


def test_gordin_unreachable_tolerance_is_convergence_error(lsv25, lsv25_1024):
    nu, h = lsv25_1024
    with pytest.raises(ConvergenceError):
        gordin_decompose(lsv25, nu, h, tail_tol=1e-30)


def test_resolvent_rejects_nonpositive_eps(doubling, doubling_nu):
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    with pytest.raises(PreconditionError):
        resolvent(doubling, doubling_nu, h, 0.0, tail_tol=1e-8)


def test_martingale_part_annihilated(doubling, doubling_nu):
    # h_eps = f_eps - U P f_eps satisfies P h_eps = 0
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    f_eps = resolvent(doubling, doubling_nu, h, 0.05, tail_tol=1e-9).values
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
