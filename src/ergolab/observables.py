"""Observables: named builtins plus a small arithmetic expression language.

An observable spec is one of

* an arithmetic expression over ``y`` with ``cos``, ``sin``, ``pi``,
  numeric literals and ``+ - * / **`` (e.g. ``"cos(2*pi*y) + 0.5*y**2"``);
* a builtin name, which is shorthand for an expression: ``lip1`` for
  ``y`` (kept as the Lipschitz reference observable), ``cos1`` for
  ``cos(2*pi*y)`` and ``cos2`` for ``cos(4*pi*y)``;
* ``coboundary:SPEC`` for g o T - g where g is itself a spec.

Every observable is centered twice.  The grid samples used by the
operator machinery are shifted by their quadrature mean against the
supplied invariant measure (``mean``).  The pointwise callable used by
the Monte Carlo engines is shifted by ``mc_mean``: the same constant for
a closed-form measure, but for an Ulam measure the limit of the
quadrature means extrapolated over grid sizes N/4, N/2 and N, so there
the two centring constants differ (see ``Observable``).  ``mc_mean`` is
computed when it is first read and then kept, so the operator analyses,
which never read it, build no N/4 or N/2 grid.  A constant observable is
centred by its own value, so that both views are exactly 0.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError
from .function_space import GridFunction, MeasureDensity, _dot
from .maps import IntervalMap

__all__ = ["Observable", "build_observable", "parse_expression"]

_ALLOWED_CALLS = {"cos": np.cos, "sin": np.sin}
_ALLOWED_NAMES = {"pi": np.pi}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile_node(node):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ParameterError(f"non-numeric literal {node.value!r}")
        v = float(node.value)
        return lambda y: v
    if isinstance(node, ast.Name):
        if node.id == "y":
            return lambda y: y
        if node.id in _ALLOWED_NAMES:
            v = _ALLOWED_NAMES[node.id]
            return lambda y: v
        raise ParameterError(f"unknown name {node.id!r} in observable expression")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left, right = _compile_node(node.left), _compile_node(node.right)
        return lambda y: op(left(y), right(y))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _compile_node(node.operand)
        if isinstance(node.op, ast.USub):
            return lambda y: -inner(y)
        return inner
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ParameterError("only cos(...) and sin(...) calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ParameterError(f"{node.func.id} takes exactly one argument")
        fn = _ALLOWED_CALLS[node.func.id]
        arg = _compile_node(node.args[0])
        return lambda y: fn(arg(y))
    raise ParameterError(
        f"unsupported construct {type(node).__name__} in observable expression"
    )


def parse_expression(text: str) -> Callable:
    """Compile an expression over y into a vectorized callable whose value
    has y's shape, also for an expression without y."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"cannot parse observable {text!r}: {exc}") from exc
    compiled = _compile_node(tree)

    def evaluate(y):
        y = np.asarray(y, dtype=float)
        # a constant fills a new array: a stride-0 view rounds its mean apart
        v = compiled(y)
        return v if np.shape(v) == y.shape else np.full(y.shape, v)

    return evaluate


# compiled at import: building an observable then parses only other specs
_BUILTINS = {name: parse_expression(text) for name, text in
             {"lip1": "y", "cos1": "cos(2*pi*y)", "cos2": "cos(4*pi*y)"}.items()}


def _raw_callable(spec: str, imap: IntervalMap) -> Callable:
    spec = spec.strip()
    if spec.startswith("coboundary:"):
        base = _raw_callable(spec[len("coboundary:"):], imap)
        return lambda y: base(imap(np.asarray(y, dtype=float))) - base(y)
    return _BUILTINS.get(spec) or parse_expression(spec)


@dataclass(frozen=True)
class Observable:
    """A centered observable in both pointwise and grid form.

    ``mean`` centers the grid samples against the supplied (discrete)
    measure; ``mc_mean`` centers the pointwise callable used by orbit
    simulation.  For closed-form measures the two coincide.  For
    Ulam-estimated measures the quadrature mean carries an O(N^-s)
    discretization bias (s < 1 for intermittent maps) that a Birkhoff sum
    amplifies by a factor n; ``mc_mean`` is therefore taken from geometric
    extrapolation of the quadrature means over grid sizes N/4, N/2, N.
    ``mc_mean`` is computed by the zero-argument ``centre`` when it is
    first read, and then kept.
    """

    spec: str
    raw: Callable
    mean: float
    grid_function: GridFunction
    centre: Callable[[], float]

    @cached_property
    def mc_mean(self) -> float:
        return self.centre()

    def __call__(self, y):
        return self.raw(y) - self.mc_mean


def _extrapolated_mean(raw: Callable, imap: IntervalMap, n_cells: int,
                       mean: float) -> float:
    """Richardson-style limit of the quadrature mean over a dyadic grid
    sequence, assuming geometric error decay per grid doubling."""
    from .transfer import invariant_density

    if n_cells % 4 or n_cells < 256:
        return mean
    means = []
    for cells in (n_cells // 4, n_cells // 2):
        sub = invariant_density(imap, cells)
        means.append(_dot(np.asarray(raw(sub.grid.nodes), float), sub.masses))
    means.append(mean)
    d1, d2 = means[1] - means[0], means[2] - means[1]
    if d1 == 0 or not 0 < (r := d2 / d1) < 0.95:
        return mean
    return means[2] + d2 * r / (1.0 - r)


def build_observable(spec: str, imap: IntervalMap,
                     nu: MeasureDensity) -> Observable:
    """Resolve a spec, sample it on nu's grid and center it."""
    raw = _raw_callable(spec, imap)
    values = np.asarray(raw(nu.grid.nodes), dtype=float)
    # a constant is its own mean, which makes h = 0 exactly; the
    # quadrature sum may round apart and leave a roundoff-level h
    constant = values.min() == values.max()
    mean = float(values[0]) if constant else _dot(values, nu.masses)
    if constant or nu.closed_form:
        centre = lambda: mean
    else:
        centre = lambda: _extrapolated_mean(raw, imap, nu.grid.size, mean)
    gf = GridFunction(values - mean, nu)
    return Observable(spec=spec, raw=raw, mean=mean, grid_function=gf,
                      centre=centre)
