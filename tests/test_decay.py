import numpy as np
import pytest

from ergolab import (
    GridFunction,
    build_observable,
    builtin_map,
    cesaro_norm_sequence,
    classify_conditions,
    decay_report,
    fit_polynomial_rate,
    make_backend,
    norm_decay_sequence,
    resolve_measure,
)
from ergolab.errors import FitError, InvalidInputError, PreconditionError
from ergolab.function_space import _dot


def test_fit_polynomial_rate_exact_power_law():
    n = np.arange(1, 65)
    seq = 3.0 * n**-1.5
    fit = fit_polynomial_rate(seq, (4, 64))
    assert np.isclose(fit.exponent, -1.5, atol=1e-12)
    assert np.isclose(np.exp(fit.intercept), 3.0)
    assert fit.max_log_residual < 1e-12


def test_fit_polynomial_rate_rejects_bad_windows():
    seq = np.ones(16)
    with pytest.raises(FitError):
        fit_polynomial_rate(seq, (8, 32))
    with pytest.raises(FitError):
        fit_polynomial_rate(seq, (8, 8))
    with pytest.raises(FitError):
        fit_polynomial_rate(np.zeros(16), (2, 8))


def test_requires_centered_observable(doubling, doubling_nu):
    h = GridFunction.from_callable(lambda y: y, doubling_nu)  # mean 1/2
    with pytest.raises(PreconditionError):
        norm_decay_sequence(doubling, doubling_nu, h, 2, 8)


def test_unsupported_exponent_raises_before_any_apply(doubling, doubling_nu,
                                                     monkeypatch):
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    op = make_backend(doubling, doubling_nu)
    calls = []
    real = type(op).apply
    monkeypatch.setattr(type(op), "apply",
                        lambda self, v: calls.append(1) or real(self, v))
    with pytest.raises(FitError):
        norm_decay_sequence(doubling, doubling_nu, h, 3, 8)
    assert len(calls) == 0


def test_doubling_cos_annihilates(doubling, doubling_nu):
    obs = build_observable("cos1", doubling, doubling_nu)
    l2 = norm_decay_sequence(doubling, doubling_nu, obs.grid_function, 2, 8)
    assert np.all(l2 < 2e-8)


def test_cesaro_includes_zeroth_term(doubling, doubling_nu):
    obs = build_observable("cos1", doubling, doubling_nu)
    ces = cesaro_norm_sequence(doubling, doubling_nu, obs.grid_function, 8)
    # P^k h = 0 for k >= 1, so the Cesaro norm is ||h||_2 throughout
    assert np.allclose(ces, np.sqrt(0.5), atol=1e-6)


def test_classify_fast_path_after_annihilation(doubling, doubling_nu):
    report = decay_report(
        doubling, doubling_nu,
        build_observable("coboundary:cos1", doubling, doubling_nu).grid_function,
        observable="coboundary:cos1",
    )
    assert all(v == "pass" for v in report.flags.values())
    assert "fast_path" in report.diagnostics


def test_flags_do_not_depend_on_the_observable_scale():
    # lsv:0.8 has no CLT; the annihilation fast path read an absolute
    # 1e-6 and passed every flag for 1e-7*y
    m = builtin_map("lsv:0.8")
    nu = resolve_measure(m, m.default_grid(1024))
    flags = [decay_report(m, nu, build_observable(spec, m, nu).grid_function)
             .flags for spec in ("y", "1e-7*y")]
    assert flags[0] == flags[1]
    assert set(flags[0].values()) == {"fail"}


def test_classify_polynomial_decay(lsv25, lsv25_nu):
    report = decay_report(
        lsv25, lsv25_nu,
        build_observable("lip1", lsv25, lsv25_nu).grid_function,
        observable="lip1",
    )
    assert report.flags["l2_decay_beta_gt_half"] == "pass"
    assert report.flags["l1_series_summable"] == "pass"
    assert report.flags["cesaro_alpha_lt_half"] == "pass"
    assert report.fits["l2"].exponent < -0.55


def test_classify_failure_on_slow_synthetic():
    n = np.arange(1, 65, dtype=float)
    l2 = n**-0.2  # beta = 0.2 < 1/2: too slow for the norm condition
    ces = np.cumsum(l2)
    report = classify_conditions("synthetic", "h", "none", l2.copy(), l2, ces)
    assert report.flags["l2_decay_beta_gt_half"] == "fail"
    assert report.flags["coboundary_bounded"] == "fail"


def test_failed_l2_fit_reads_unknown():
    # a zero inside the fit window [8, 64] makes the log-log fit fail
    n = np.arange(1, 65, dtype=float)
    l2 = n**-1.0
    l2[20] = 0.0
    report = classify_conditions("synthetic", "h", "none", l2.copy(), l2,
                                 np.cumsum(n**-1.0))
    assert report.flags["l2_decay_beta_gt_half"] == "unknown"
    assert "l2" not in report.to_json()["fits"]
    assert "unknown" not in (report.flags["l1_series_summable"],
                             report.flags["cesaro_alpha_lt_half"],
                             report.flags["coboundary_bounded"])


def test_failed_cesaro_fit_reads_unknown():
    n = np.arange(1, 65, dtype=float)
    l2 = n**-1.0
    ces = np.cumsum(l2)
    ces[20] = 0.0
    report = classify_conditions("synthetic", "h", "none", l2.copy(), l2, ces)
    assert report.flags["cesaro_alpha_lt_half"] == "unknown"
    assert report.flags["coboundary_bounded"] == "unknown"
    assert report.flags["l2_decay_beta_gt_half"] == "pass"
    assert "cesaro" not in report.to_json()["fits"]


@pytest.mark.parametrize("n_max", [0, -1])
def test_cesaro_needs_one_term(doubling, doubling_nu, n_max):
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    with pytest.raises(PreconditionError):
        cesaro_norm_sequence(doubling, doubling_nu, h, n_max)


def test_classify_needs_enough_terms():
    seq = np.ones(8)
    with pytest.raises(PreconditionError):
        classify_conditions("m", "h", "b", seq, seq, seq)


def test_report_serialization(doubling, doubling_nu):
    report = decay_report(
        doubling, doubling_nu,
        build_observable("cos1", doubling, doubling_nu).grid_function,
        observable="cos1",
    )
    d = report.to_json()
    assert d["map"] == "doubling"
    assert len(d["l1"]) == len(d["l2"]) == len(d["cesaro"])
    csv = report.to_csv()
    assert csv.splitlines()[0] == "n,l1,l2,cesaro"
    assert len(csv.splitlines()) == len(d["l1"]) + 1


def test_one_sweep_equals_separate_passes(lsv25, lsv25_nu):
    # reference: one pass of P^k h per sequence, as separate loops
    h = build_observable("lip1", lsv25, lsv25_nu).grid_function
    op = make_backend(lsv25, lsv25_nu)
    m = lsv25_nu.masses
    powers = [h.values]
    for _ in range(64):
        powers.append(op.apply(powers[-1]))
    l1 = [_dot(np.abs(v), m) for v in powers[1:]]
    l2 = [np.sqrt(_dot(v**2, m)) for v in powers[1:]]
    acc, ces = np.zeros_like(h.values), []
    for v in powers[:-1]:
        acc += v
        ces.append(np.sqrt(_dot(acc**2, m)))
    report = decay_report(lsv25, lsv25_nu, h)
    assert report.l1.tolist() == l1
    assert report.l2.tolist() == l2
    assert report.cesaro.tolist() == ces
    assert norm_decay_sequence(lsv25, lsv25_nu, h, 2, 64).tolist() == l2
    assert cesaro_norm_sequence(lsv25, lsv25_nu, h, 64).tolist() == ces


def test_forced_backend_must_match_the_measure(cheb2):
    # h = y is centred under the arcsine measure, not under the Ulam one:
    # measured against the Ulam masses, P^n h would plateau at |E_ulam h|
    # instead of vanishing after one step
    nu = resolve_measure(cheb2, cheb2.default_grid(1024))
    h = build_observable("y", cheb2, nu).grid_function
    assert np.all(norm_decay_sequence(cheb2, nu, h, 2, 8) < 1e-12)
    with pytest.raises(InvalidInputError):
        norm_decay_sequence(cheb2, nu, h, 2, 8, backend="ulam")


def test_short_decay_report_raises_before_sweeping(doubling, doubling_nu):
    h = build_observable("cos1", doubling, doubling_nu).grid_function
    op = make_backend(doubling, doubling_nu)
    cached = list(op.memo)
    with pytest.raises(PreconditionError):
        decay_report(doubling, doubling_nu, h, n_max=10)
    assert list(op.memo) == cached
