"""Structural properties of the transfer-operator backends over random maps,
grid sizes and functions.

The Ulam backend is a finite Markov operator on L2 of its stationary
masses: it preserves means and positivity, contracts L1, and its Koopman
companion is its exact adjoint.  The branch backend is only held to mean
preservation: its linear-extrapolation weights lie in [-1, 2], so it is not
positive at the grid boundary, by design.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import builtin_map, make_backend, resolve_measure

FEW = settings(max_examples=12, deadline=None)
gammas = st.floats(min_value=0.05, max_value=0.95)
cells = st.integers(min_value=128, max_value=512)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
ulam_maps = st.one_of(
    gammas.map(lambda g: f"lsv:{g}"),
    gammas.map(lambda g: f"manneville_pomeau:{g}"),
    st.just("doubling"),
)
branch_maps = st.one_of(
    st.integers(min_value=2, max_value=6).map(lambda k: f"chebyshev:{k}"),
    st.just("doubling"),
)


def _backend(spec, n, kind):
    imap = builtin_map(spec)
    return make_backend(imap, resolve_measure(imap, imap.default_grid(n)),
                        kind=kind)


@FEW
@given(spec=ulam_maps, n=cells, seed=seeds)
def test_ulam_backend_is_a_markov_operator(spec, n, seed):
    op = _backend(spec, n, "ulam")
    p = op.measure.masses
    f, g = np.random.default_rng(seed).normal(size=(2, n))
    pf = op.apply(f)
    l1 = np.abs(f) @ p
    assert abs(pf @ p - f @ p) <= 1e-12 * l1, "mean not preserved"
    assert np.all(op.apply(np.abs(f)) >= 0), "positivity lost"
    assert np.abs(pf) @ p <= l1 * (1 + 1e-12), "L1 norm grew"
    # <P f, g> = <f, U g> in L2(p), U the Koopman companion
    gap = abs((pf * g) @ p - (f * op.koopman(g)) @ p)
    assert gap <= 1e-12 * np.abs(f).max() * np.abs(g).max(), "not adjoint"


@FEW
@given(spec=branch_maps, n=cells, seed=seeds)
def test_branch_backend_preserves_means(spec, n, seed):
    op = _backend(spec, n, "branch")
    p = op.measure.masses
    f = np.random.default_rng(seed).normal(size=n)
    assert abs(op.apply(f) @ p - f @ p) <= 1e-12 * (np.abs(f) @ p)
