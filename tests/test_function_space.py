import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    GridFunction,
    IncompatibleGridsError,
    InvalidInputError,
    MeasureDensity,
    QuadratureGrid,
    build_observable,
    builtin_map,
    inner_product,
    integrate,
    lp_norm,
    resolve_measure,
)
from ergolab.errors import PreconditionError
from ergolab.function_space import require_centered


def uniform_measure(n=64):
    grid = QuadratureGrid.midpoint(0.0, 1.0, n)
    return MeasureDensity.from_callable(
        grid, lambda y: np.ones_like(np.asarray(y, float)), name="uniform",
        cdf=lambda y: np.asarray(y, float),
    )


def test_midpoint_grid_layout():
    g = QuadratureGrid.midpoint(0.0, 1.0, 4)
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.weights, 0.25)
    assert np.array_equal(g.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    # the edges are a + k*h, not node midpoints, also at cell counts that
    # are not powers of two
    g = QuadratureGrid.midpoint(0.0, 1.0, 1000)
    assert np.array_equal(g.edges, np.linspace(0, 1, 1001))


def test_from_nodes_grid():
    nodes = np.array([0.1, 0.2, 0.6, 0.9])
    g = QuadratureGrid.from_nodes(0.0, 1.0, nodes)
    assert np.allclose(g.weights.sum(), 1.0)
    assert np.allclose(g.edges, [0.0, 0.15, 0.4, 0.75, 1.0])


def test_grid_rejects_bad_nodes():
    for edges, nodes in [
        ([0.0, 0.5, 1.0], [0.5, 0.25]),  # nodes that do not increase
        ([0.0, 0.5, 1.0], [0.25, 0.9, 0.95]),  # one edge too few
        ([0.0, 0.5, 1.0], [0.25, 0.4]),  # a node outside its cell
        ([0.0, 0.6, 0.5, 1.0], [0.3, 0.55, 0.75]),  # edges that do not increase
        ([0.0, 1.0], [0.5]),  # one cell
    ]:
        with pytest.raises(InvalidInputError):
            QuadratureGrid(np.array(edges), np.array(nodes))
    for n in (0, 1):
        with pytest.raises(InvalidInputError):
            QuadratureGrid.midpoint(0.0, 1.0, n)


def test_locate_reproduces_nodes():
    g = QuadratureGrid.midpoint(0.0, 1.0, 32)
    j, t = g.locate(g.nodes)
    v = (1 - t) * g.nodes[j] + t * g.nodes[j + 1]
    assert np.allclose(v, g.nodes, atol=1e-14)


def test_locate_linear_extrapolation_at_edges():
    g = QuadratureGrid.midpoint(0.0, 1.0, 8)
    f = GridFunction(2.0 * g.nodes + 1.0, uniform_measure(8))
    # a linear function must be reproduced exactly, including beyond the
    # outermost nodes
    probe = np.array([0.0, 0.01, 0.99, 1.0])
    assert np.allclose(f.interpolate(probe), 2.0 * probe + 1.0, atol=1e-12)


def test_exact_cdf_masses():
    grid = QuadratureGrid.midpoint(-1.0, 1.0, 512)
    arcsine = MeasureDensity.from_callable(
        grid,
        lambda y: 1.0 / (np.pi * np.sqrt(np.maximum(1 - np.asarray(y) ** 2, 1e-300))),
        name="arcsine",
        cdf=lambda y: 0.5 + np.arcsin(np.clip(y, -1, 1)) / np.pi,
    )
    assert abs(arcsine.masses.sum() - 1.0) < 1e-12
    f = GridFunction(grid.nodes**2, arcsine)
    # second moment of the arcsine law; the uniform grid undersamples the
    # endpoint cusps, so only ~1e-4 accuracy is available here
    assert abs(integrate(f) - 0.5) < 2e-4


def test_masses_without_a_cdf_are_pdf_times_width():
    # 3y integrates to 3/2 on [0, 1]; the midpoint masses 3 y_k / 8 are
    # normalised to (2k + 1) / 64
    grid = QuadratureGrid.midpoint(0.0, 1.0, 8)
    nu = MeasureDensity.from_callable(grid, lambda y: 3.0 * np.asarray(y),
                                      name="linear")
    assert np.allclose(nu.masses, (2 * np.arange(8) + 1) / 64, atol=1e-15)
    assert np.array_equal(nu.values, 3.0 * grid.nodes)
    assert nu.closed_form


def test_measure_rejects_unnormalized():
    grid = QuadratureGrid.midpoint(0.0, 1.0, 16)
    with pytest.raises(InvalidInputError):
        MeasureDensity(grid, np.ones(16), np.full(16, 0.9 / 16))


def test_from_masses_roundtrip():
    grid = QuadratureGrid.midpoint(0.0, 1.0, 16)
    m = MeasureDensity.from_masses(grid, np.arange(1.0, 17.0), name="ramp")
    assert abs(m.masses.sum() - 1.0) < 1e-14
    assert not m.closed_form


def test_norm_ordering():
    nu = uniform_measure()
    f = GridFunction(np.sin(7 * nu.grid.nodes) + 0.3, nu)
    assert lp_norm(f, 1) <= lp_norm(f, 2) + 1e-14
    assert lp_norm(f, 2) <= lp_norm(f, np.inf) + 1e-14


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_norm_scaling_property(scale, seed):
    nu = uniform_measure(32)
    values = np.random.default_rng(seed).normal(size=32)
    f = GridFunction(values, nu)
    for p in (1, 2, np.inf):
        assert np.isclose(lp_norm(f.with_values(scale * values), p),
                          abs(scale) * lp_norm(f, p), rtol=1e-12, atol=1e-12)


def test_inner_product_matches_integral():
    nu = uniform_measure()
    f = GridFunction(nu.grid.nodes, nu)
    g = GridFunction(np.ones(nu.grid.size), nu)
    assert np.isclose(inner_product(f, g), integrate(f))


def test_incompatible_grids_rejected():
    nu_a, nu_b = uniform_measure(16), uniform_measure(32)
    f = GridFunction(np.ones(16), nu_a)
    g = GridFunction(np.ones(32), nu_b)
    with pytest.raises(IncompatibleGridsError):
        inner_product(f, g)


def test_grid_function_rejects_nonfinite():
    nu = uniform_measure(16)
    bad = np.ones(16)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError):
        GridFunction(bad, nu)


def test_csv_headers():
    nu = uniform_measure(4)
    assert nu.to_csv().startswith("# measure=uniform normalized=True\n")
    f = GridFunction(np.ones(4), nu)
    assert f.to_csv().splitlines()[0] == "node,value"


def test_only_function_space_reduces_against_masses():
    # every quadrature sum goes through function_space._dot: no other
    # module reduces with a BLAS product against masses, np.einsum or np.dot
    src = Path(__file__).resolve().parents[1] / "src" / "ergolab"
    reduction = re.compile(r"@\s*[\w.]*masses|np\.einsum|np\.dot")
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "function_space.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if reduction.search(line)]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("spec", ["lsv:0.25", "chebyshev:2"])
def test_centring_check_is_relative_to_the_norm(spec):
    m = builtin_map(spec)
    nu = resolve_measure(m, m.default_grid(1024))
    # centring 1e12*y leaves a mean of 1e-5 to 1e-4, roundoff of ||h||_2
    require_centered(build_observable("1e12*y", m, nu).grid_function)
    # a mean below 1e-6 may still be most of a small h
    with pytest.raises(PreconditionError, match="not centered"):
        require_centered(GridFunction(1e-9 * (nu.grid.nodes + 1.0), nu))
