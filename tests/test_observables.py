import numpy as np
import pytest

from ergolab import (build_observable, integrate, parse_expression,
                     resolve_measure)
from ergolab.errors import ParameterError


def test_parse_basic_expressions():
    f = parse_expression("cos(2*pi*y) + 0.5*y**2 - 1/4")
    y = np.linspace(0, 1, 11)
    assert np.allclose(f(y), np.cos(2 * np.pi * y) + 0.5 * y**2 - 0.25)


def test_parse_unary_minus():
    f = parse_expression("-y + sin(pi*y)")
    assert np.isclose(f(0.5), -0.5 + 1.0)


def test_parse_unary_plus():
    y = np.linspace(0, 1, 5)
    assert np.array_equal(parse_expression("+y")(y), y)
    assert np.array_equal(parse_expression("-(+y)")(y), -y)


def test_parse_rejects_unsafe_constructs():
    for text in [
        "__import__('os')",
        "y.real",
        "exp(y)",
        "lambda y: y",
        "cos(y, 2)",
        "[1,2]",
        "'abc'",
        "zz + 1",
        "cos(",
    ]:
        with pytest.raises(ParameterError):
            parse_expression(text)


def test_builtins_and_centering(doubling, doubling_nu):
    obs = build_observable("y", doubling, doubling_nu)
    assert abs(obs.mean - 0.5) < 1e-12
    assert abs(integrate(obs.grid_function)) < 1e-12
    # pointwise callable is centered with the same constant for
    # closed-form measures
    assert np.isclose(obs(0.75), 0.25)
    assert obs.mc_mean == obs.mean


def test_cos_builtins(doubling, doubling_nu):
    c1 = build_observable("cos1", doubling, doubling_nu)
    c2 = build_observable("cos2", doubling, doubling_nu)
    y = np.linspace(0, 1, 7)
    assert np.allclose(c1.raw(y), np.cos(2 * np.pi * y))
    assert np.allclose(c2.raw(y), np.cos(4 * np.pi * y))
    assert abs(c1.mean) < 1e-12


def test_coboundary_spec(doubling, doubling_nu):
    obs = build_observable("coboundary:cos1", doubling, doubling_nu)
    y = np.linspace(0.01, 0.49, 9)
    expected = np.cos(4 * np.pi * y) - np.cos(2 * np.pi * y)
    assert np.allclose(obs.raw(y), expected)
    assert abs(integrate(obs.grid_function)) < 1e-12


def test_expression_observable_centered(doubling, doubling_nu):
    obs = build_observable("y**2", doubling, doubling_nu)
    assert abs(obs.mean - 1.0 / 3.0) < 1e-6
    assert abs(integrate(obs.grid_function)) < 1e-12


def test_mc_mean_extrapolated_for_ulam_measures(lsv25, lsv25_nu):
    obs = build_observable("lip1", lsv25, lsv25_nu)
    # quadrature mean carries grid bias; the extrapolated constant should
    # move toward the fine-grid limit, not away from it
    assert obs.mc_mean != obs.mean
    assert abs(obs.mc_mean - 0.45608) < 3e-4
    assert abs(obs.mean - obs.mc_mean) < 5e-4


@pytest.mark.parametrize("cells", [1022, 128])
def test_mc_mean_keeps_the_quadrature_mean_off_the_dyadic_grids(lsv25, cells):
    # the N/4 and N/2 grids are built only for N divisible by 4 and at
    # least 256; otherwise the orbit centre is the quadrature mean
    nu = resolve_measure(lsv25, lsv25.default_grid(cells))
    obs = build_observable("lip1", lsv25, nu)
    assert not nu.closed_form
    assert obs.mc_mean == obs.mean


def test_constant_expression_broadcasts(doubling, doubling_nu):
    obs = build_observable("1 + 2", doubling, doubling_nu)
    assert np.allclose(obs.grid_function.values, 0.0)
    # the expression itself fills y's shape with a contiguous array, not a
    # 0-d value or a stride-0 view
    y = np.linspace(0.0, 1.0, 7)
    v = parse_expression("2*pi")(y)
    assert v.shape == y.shape and v.flags.c_contiguous
    assert np.all(v == 2 * np.pi)
