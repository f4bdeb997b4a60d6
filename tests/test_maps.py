import dataclasses
import math

import numpy as np
import pytest

from ergolab import builtin_map, maps
from ergolab.errors import (ConfigurationError, ConvergenceError, DomainError,
                            NumericalEscapeError)
from ergolab.maps import _newton_inverse


def test_builtin_map_registry():
    assert builtin_map("doubling").name == "doubling"
    assert builtin_map("lsv:0.5").label == "lsv:0.5"
    assert builtin_map("chebyshev:3").label == "chebyshev:3"
    assert builtin_map("manneville_pomeau:0.5").label == "manneville_pomeau:0.5"


def test_builtin_map_spec_strings():
    assert builtin_map("lsv:0.25").label == "lsv:0.25"
    with pytest.raises(ConfigurationError):
        builtin_map("lsv")  # parameter required
    with pytest.raises(ConfigurationError):
        builtin_map("doubling:3")  # no parameter allowed
    with pytest.raises(ConfigurationError):
        builtin_map("lsv:abc")
    with pytest.raises(ConfigurationError):
        builtin_map("nosuchmap")


def test_doubling_forward():
    m = builtin_map("doubling")
    y = np.array([0.1, 0.3, 0.6, 0.9])
    assert np.allclose(m(y), [0.2, 0.6, 0.2, 0.8])


def test_domain_violation():
    m = builtin_map("doubling")
    with pytest.raises(DomainError):
        m(np.array([1.5]))
    # the check is a min/max reduction: infinities, 0-d arrays and NaN
    # (which propagates through both reductions) still fail it
    for bad in ([0.5, np.inf], [-np.inf, 0.5], 1.5, -0.25, np.nan,
                [0.25, np.nan, 0.75]):
        with pytest.raises(DomainError):
            m(np.array(bad))
    assert float(m(np.array(0.25))) == 0.5
    assert m(np.array(1.0)).shape == ()
    # an empty array holds no point outside the domain
    assert m(np.array([])).shape == (0,)


def test_lsv_branches():
    m = builtin_map("lsv:0.25")
    # left branch: y(1 + 2^g y^g); neutral fixed point at 0
    y = 0.25
    assert np.isclose(float(m(np.array([y]))[0]), y * (1 + 2**0.25 * y**0.25))
    assert np.isclose(float(m(np.array([0.75]))[0]), 0.5)
    # left branch hits 1 at y = 1/2
    assert np.isclose(float(m(np.array([0.5]))[0]), 1.0)
    # derivative 1 at the neutral point
    assert np.isclose(float(m.branches[0].deriv_mag(np.array([0.0]))[0]), 1.0)


def test_lsv_branch_inverse_roundtrip():
    m = builtin_map("lsv:0.25")
    x = np.linspace(0.01, 0.99, 17)
    y = m.branches[0].inverse(x)
    assert np.allclose(m.branches[0].forward(y), x, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2], ids=["uniform", "graded"])
@pytest.mark.parametrize("spec, k", [
    *[(f"lsv:{g}", 0) for g in (0.05, 0.25, 0.95, 3, 10)],
    *[(f"manneville_pomeau:{g}", k) for g in (0.05, 0.5, 0.99) for k in (0, 1)],
])
def test_newton_inverse_on_cell_edges(spec, k, q):
    # the x an Ulam build pulls back: 65536-cell edges clipped to the range
    br = builtin_map(spec).branches[k]
    x = np.unique(np.clip(np.linspace(0, 1, 65537) ** q, *br.range))
    calls = []

    def fwd(y):
        calls.append(1)
        return br.forward(y)

    y = _newton_inverse(fwd, br.deriv_mag, br.lo, br.hi, x)
    assert np.max(np.abs(br.forward(y) - x)) <= 1e-15
    assert br.lo <= y.min() and y.max() <= br.hi
    assert np.all(np.diff(y) >= 0)
    assert len(calls) <= 12


def test_newton_inverse_of_a_concave_map_raises():
    # Newton overshoots the root of a concave map and stops at the wrong
    # point; the residual check turns that into an error
    x = np.linspace(0.2, 0.9, 8)
    with pytest.raises(ConvergenceError, match="residual"):
        _newton_inverse(np.sqrt, lambda y: 0.5 / np.sqrt(y), 0.01, 1.0, x)


def test_newton_inverse_step_cap_raises(monkeypatch):
    monkeypatch.setattr(maps, "_INVERSE_STEPS", 2)
    br = builtin_map("lsv:0.25").branches[0]
    with pytest.raises(ConvergenceError, match="no fixed point"):
        br.inverse(np.linspace(0.0, 1.0, 65))


def test_manneville_pomeau_breakpoint():
    m = builtin_map("manneville_pomeau:0.5")
    ystar = m.branches[0].hi
    # breakpoint solves y + y^(1+g) = 1
    assert np.isclose(ystar + ystar**1.5, 1.0, atol=1e-12)
    assert np.isclose(float(m(np.array([ystar / 2]))[0]),
                      ystar / 2 + (ystar / 2) ** 1.5)


def test_chebyshev_semigroup():
    m = builtin_map("chebyshev:2")
    theta = np.linspace(0.05, 3.1, 40)
    y = np.cos(theta)
    assert np.allclose(m(y), np.cos(2 * theta), atol=1e-12)


def test_chebyshev_preimages_of_zero():
    m = builtin_map("chebyshev:2")
    ys = [br.inverse(np.array(0.0)) for br in m.branches]
    root = math.sqrt(2) / 2
    assert np.allclose(sorted(ys), [-root, root], atol=1e-10)
    # |T'| = 2|sin(2 theta)|/|sin theta| = 2 sqrt(2) at theta = pi/4
    for br, y in zip(m.branches, ys):
        assert np.isclose(br.deriv_mag(y), 2 * math.sqrt(2), atol=1e-8)


def test_preimages_cover_forward_point(rng):
    # every branch covers the whole domain, so each x has one preimage per
    # branch, inside that branch
    for spec in ["doubling", "lsv:0.25", "chebyshev:3", "manneville_pomeau:0.5"]:
        m = builtin_map(spec)
        a, b = m.domain
        x = rng.uniform(a + 0.01, b - 0.01, size=5)
        for br in m.branches:
            y = br.inverse(x)
            assert np.all((y >= br.lo) & (y <= br.hi))
            assert np.max(np.abs(m(y) - x)) < 1e-9
            assert np.all(br.deriv_mag(y) > 0)


def test_float_orbit_stays_in_domain():
    m = builtin_map("lsv:0.25")
    y = np.array(0.3)
    for _ in range(500):
        y = m.step(y)
        assert 0.0 <= y <= 1.0


def test_step_raises_on_a_nan_output():
    m = builtin_map("lsv:0.25")
    nan = dataclasses.replace(m, forward=lambda y: np.where(y > 0.5, np.nan, y))
    y = np.array([0.359, 0.7])
    with pytest.raises(DomainError, match="outside the map domain"):
        nan.step(y)
    with pytest.raises(DomainError, match="outside the map domain"):
        nan.step(y, np.ones(2, dtype=bool))


def test_step_escape_raises_or_parks_in_the_mask():
    # two escapes, past _ESCAPE_TOL on either side, and one roundoff excursion
    out = np.array([0.25, 1.5, -1e-3, 1.0 + 1e-13])
    m = dataclasses.replace(builtin_map("lsv:0.25"), forward=lambda y: out.copy())
    y = np.full(4, 0.5)
    with pytest.raises(NumericalEscapeError):
        m.step(y)
    alive = np.ones(4, dtype=bool)
    assert m.step(y, alive).tolist() == [0.25, 0.5, 0.5, 1.0]
    assert alive.tolist() == [True, False, False, True]


_BUILTIN_SPECS = ["doubling", "lsv:0.25", "manneville_pomeau:0.25",
                  "chebyshev:2"]


def test_builtin_specs_cover_every_builtin():
    assert {builtin_map(s).name for s in _BUILTIN_SPECS} == set(maps._BUILDERS)


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("spec", _BUILTIN_SPECS)
def test_step_does_not_clip_its_input(spec, side):
    # lsv sends 1.5 to 2.0, and chebyshev's arccos turns 1.5 into NaN; a map
    # that clipped its input first returned a point of the domain.  Below 0,
    # y**gamma is NaN for lsv and Manneville-Pomeau.
    m = builtin_map(spec)
    a, b = m.domain
    y = b + 0.5 if side == "above" else a - 0.5
    with np.errstate(invalid="ignore"), \
            pytest.raises((DomainError, NumericalEscapeError)):
        m.step([y])


def test_default_grid_adapts_to_measure():
    cheb = builtin_map("chebyshev:2")
    g = cheb.default_grid(64)
    # nodes concentrate near the endpoints where the invariant density
    # diverges; arcsine cell masses are then nearly equal (the edges are
    # node midpoints, not exact equal-mass boundaries)
    masses = np.diff(0.5 + np.arcsin(g.edges) / np.pi)
    assert np.isclose(masses.sum(), 1.0)
    assert np.allclose(masses[4:-4], 1.0 / 64, rtol=0.01)
    assert masses.max() / masses.min() < 1.25
    # nodes are the arcsine quantiles at (j + 1/2)/64
    assert np.allclose(g.nodes, np.cos(np.pi * (np.arange(64)[::-1] + 0.5) / 64))
    uni = builtin_map("doubling").default_grid(64)
    assert np.allclose(np.diff(uni.nodes), 1.0 / 64)


def _branch_rule(imap, y):
    """The reference forward map: the first branch whose closed interval
    holds the point."""
    out = np.empty_like(y)
    todo = np.ones(y.shape, dtype=bool)
    for br in imap.branches:
        m = todo & (y >= br.lo) & (y <= br.hi)
        out[m] = br.forward(y[m])
        todo &= ~m
    assert not todo.any()
    return out


@pytest.mark.parametrize("spec", ["lsv:0.25", "lsv:0.6", "doubling",
                                  "manneville_pomeau:0.25", "chebyshev:2",
                                  "chebyshev:3"])
def test_forward_map_equals_branch_rule(spec, rng):
    m = builtin_map(spec)
    a, b = m.domain
    ends = np.array([e for br in m.branches for e in (br.lo, br.hi)])
    near = np.concatenate([ends, np.nextafter(ends, -np.inf),
                           np.nextafter(ends, np.inf)])
    y = np.concatenate([rng.uniform(a, b, size=4096),
                        near[(near >= a) & (near <= b)]])
    y0 = y.copy()
    assert np.array_equal(m(y), _branch_rule(m, y))
    # the forward map leaves its input alone, and takes 0-d arrays
    assert np.array_equal(y, y0)
    for v in y[:8]:
        assert m.forward(np.asarray(v)) == _branch_rule(m, np.array([v]))[0]
    for bad in (np.nan, np.nextafter(a, -np.inf), np.nextafter(b, np.inf)):
        with pytest.raises(DomainError):
            m(np.array([0.5 * (a + b), bad]))
