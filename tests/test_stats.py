import numpy as np
import pytest
from scipy.special import ndtr

from ergolab import (
    EnsembleConfig,
    PathEnsemble,
    builtin_map,
    clt_test,
    clt_threshold,
    fclt_test,
    ks_statistic,
    reference_cdf,
    run_ensemble,
)
from ergolab.errors import InvalidInputError, ParameterError, PreconditionError
from ergolab.stats import DEGENERATE_EXPONENT


def test_reference_cdf_oracle_values():
    normal = reference_cdf("normal", 2.0)
    assert np.isclose(normal(0.0), 0.5)
    assert np.isclose(normal(2.0), 0.8413447460685429)
    sup = reference_cdf("brownian_sup")
    # P(sup W <= a) = 2 Phi(a) - 1; a = 1.6449 is the 90% point
    assert np.isclose(sup(1.6448536269514722), 0.9, atol=1e-9)
    assert sup(-0.5) == 0.0
    arc = reference_cdf("arcsine")
    assert np.isclose(arc(0.5), 0.5)
    assert np.isclose(arc(0.14644660940672627), 0.25)
    assert arc(0.0) == 0.0 and arc(1.0) == 1.0


# Phi comes from math.erfc; scipy.special.ndtr is the reference.  The two
# agree to one unit in the last place of Phi <= 1 (2.2e-16), and 2 Phi - 1
# doubles that unit on the Brownian supremum.
NDTR_TOL = 2.3e-16


def test_normal_cdf_matches_ndtr():
    normal = reference_cdf("normal", 1.0)
    t = np.concatenate([np.linspace(-40.0, 40.0, 80_001),
                        np.random.default_rng(3).normal(0.0, 3.0, 20_000)])
    phi = normal(t)
    assert phi.dtype == float and phi.shape == t.shape
    assert np.max(np.abs(phi - ndtr(t))) <= NDTR_TOL
    edges = np.array([0.0, -0.0, np.inf, -np.inf])
    assert np.array_equal(normal(edges), [0.5, 0.5, 1.0, 0.0])
    assert np.array_equal(normal(edges), ndtr(edges))


@pytest.mark.parametrize("t", [1.25, np.float64(-0.5), np.array(2.0)])
def test_normal_cdf_of_a_scalar_is_a_0d_array(t):
    phi = reference_cdf("normal", 1.0)(t)
    assert isinstance(phi, np.ndarray) and phi.shape == ()
    assert phi.dtype == float
    assert abs(float(phi) - float(ndtr(t))) <= NDTR_TOL


def test_normal_cdf_of_nan_is_nan():
    normal = reference_cdf("normal", 1.0)
    assert np.isnan(normal(np.nan))
    out = normal(np.array([np.nan, 0.0]))
    assert np.isnan(out[0]) and out[1] == 0.5


def test_brownian_sup_matches_ndtr():
    sup = reference_cdf("brownian_sup")
    a = np.linspace(0.0, 40.0, 40_001)
    assert np.max(np.abs(sup(a) - (2.0 * ndtr(a) - 1.0))) <= 2 * NDTR_TOL
    assert sup(0.0) == 0.0 and sup(np.inf) == 1.0
    below = -np.geomspace(1e-300, 40.0, 1000)
    assert np.array_equal(sup(below), np.zeros_like(below))
    assert np.array_equal(sup(np.array([-np.inf, -0.0])), [0.0, 0.0])


def test_reference_cdf_point_mass_and_errors():
    # the point mass is no reference law: clt_test(S, n, 0.0, checkpoints=...)
    # runs the degenerate test by its own growth rule
    with pytest.raises(ParameterError):
        reference_cdf("point_mass")
    with pytest.raises(ParameterError):
        reference_cdf("normal", 0.0)
    with pytest.raises(ParameterError):
        reference_cdf("normal")
    with pytest.raises(ParameterError):
        reference_cdf("normal", -1.0)
    with pytest.raises(ParameterError):
        reference_cdf("cauchy")


def test_ks_statistic_exact_uniform_grid():
    # samples at (i - 1/2)/n under U(0,1): both one-sided gaps are 1/(2n)
    n = 200
    samples = (np.arange(n) + 0.5) / n
    ks = ks_statistic(samples, lambda t: np.clip(t, 0.0, 1.0))
    assert np.isclose(ks.statistic, 0.5 / n)
    assert ks.sample_size == n


def test_ks_statistic_detects_shift():
    rng = np.random.default_rng(7)
    z = rng.normal(size=5000)
    good = ks_statistic(z, reference_cdf("normal", 1.0))
    bad = ks_statistic(z + 0.5, reference_cdf("normal", 1.0))
    assert good.statistic < 0.03
    assert bad.statistic > 0.15


def test_ks_statistic_input_validation():
    with pytest.raises(PreconditionError):
        ks_statistic(np.zeros(99), reference_cdf("normal", 1.0))
    bad = np.zeros(200)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError):
        ks_statistic(bad, reference_cdf("normal", 1.0))


def test_clt_threshold_formula():
    assert np.isclose(clt_threshold(10000, 4096), 1.95 / 100 + 1.0 / 64)
    assert isinstance(clt_threshold(100, 100), float)


def test_clt_test_scaling_invariance():
    # h -> c h rescales both the sums and sigma: the verdict and the
    # statistic must not move
    rng = np.random.default_rng(11)
    n = 1024
    sums = rng.normal(scale=0.7 * np.sqrt(n), size=4000)
    a = clt_test(sums, n, 0.7)
    b = clt_test(3.0 * sums, n, 2.1)
    assert np.isclose(a["statistic"], b["statistic"])
    assert a["verdict"] and b["verdict"]


def _checkpoints(scale, exponent, samples=2000):
    """Gaussian sums whose spread grows like k**exponent, at k = 256..4096."""
    ks = [256, 512, 1024, 2048, 4096]
    z = np.random.default_rng(3).normal(size=(samples, 1))
    return ks, z * scale * np.asarray(ks, dtype=float) ** exponent


def test_clt_test_degenerate_branch():
    # bounded sums pass at any scale; sums that grow like sqrt(k), the
    # sign of sigma > 0, fail however small they are
    n = 4096
    for scale in (1e-6, 1.0, 1e6):
        bounded = _checkpoints(scale, 0.0)
        res = clt_test(bounded[1][:, -1], n, 0.0, checkpoints=bounded)
        assert res["name"] == "clt_degenerate"
        assert abs(res["statistic"]) < 1e-12
        assert res["threshold"] == DEGENERATE_EXPONENT
        assert res["verdict"]
        big = _checkpoints(scale * 1e-3, 0.5)
        res = clt_test(big[1][:, -1], n, 0.0, checkpoints=big)
        assert np.isclose(res["statistic"], 0.5)
        assert not res["verdict"]
    ks, sums = _checkpoints(1.0, 0.0)
    with pytest.raises(PreconditionError):
        clt_test(sums[:, -1], n, 0.0, checkpoints=(ks[-1:], sums[:, -1:]))
    with pytest.raises(PreconditionError):
        clt_test(sums[:, -1], n, 0.0)
    # sums that are all 0 (a constant h) read 0 and pass; 0 at some
    # checkpoints only has no growth exponent
    res = clt_test(sums[:, -1], n, 0.0, checkpoints=(ks, 0.0 * sums))
    assert (res["statistic"], res["verdict"]) == (0.0, True)
    sums[:, 0] = 0.0
    with pytest.raises(PreconditionError):
        clt_test(sums[:, -1], n, 0.0, checkpoints=(ks, sums))


def test_degenerate_test_fails_when_sigma_is_positive():
    # doubling/cos1 has sigma^2 = 1/2: claiming sigma = 0 on its run's
    # checkpoints must fail at every seed
    imap = builtin_map("doubling")
    ks = [32, 64, 128, 256, 512]
    for seed in range(1, 11):
        cfg = EnsembleConfig(samples=5000, n=512, seed=seed)
        run = run_ensemble(imap, lambda y: np.cos(2 * np.pi * y), cfg,
                           checkpoints=ks)
        res = clt_test(run.S, run.n, 0.0,
                       checkpoints=(run.checkpoint_ns, run.checkpoints))
        assert not res["verdict"], (seed, res)


def _doubling_paths(sigma=np.sqrt(0.5)):
    m = builtin_map("doubling")
    cfg = EnsembleConfig(samples=4096, n=1024, seed=42)
    run = run_ensemble(m, lambda y: np.cos(2 * np.pi * y), cfg)
    return PathEnsemble.from_run(run, sigma, 64)


def test_fclt_test_passes_on_martingale_observable():
    entries = fclt_test(_doubling_paths())
    names = [e["name"] for e in entries]
    assert names == ["fclt_terminal", "fclt_sup", "fclt_occupation"]
    assert all(e["verdict"] for e in entries)


def test_fclt_test_rejects_wrong_sigma():
    # doubling the claimed sigma halves the rescaled paths: the terminal
    # test must catch it
    entries = fclt_test(_doubling_paths(sigma=2 * np.sqrt(0.5)))
    terminal = entries[0]
    assert not terminal["verdict"]


def test_fclt_test_needs_positive_sigma():
    pe = _doubling_paths()
    pe.sigma = 0.0
    with pytest.raises(PreconditionError):
        fclt_test(pe)
