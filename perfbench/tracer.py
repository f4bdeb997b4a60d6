"""Outside-in span tracing of the ergolab layers.

``Tracer.install()`` wraps the public functions and methods listed in
``TARGETS`` in spans (name, start, end, parent span, thread).  A function
is replaced in every ``ergolab`` module namespace that holds it, because
modules import each other's functions by name (``cli`` imports
``run_ensemble``; ``sigma_variance_growth`` calls it inside
``montecarlo``).  Methods are replaced on their class.  The ensemble's
thread pool is wrapped so that spans opened on worker threads get the
submitting span as their parent.  Spans stay in memory until ``dump``.

A target that no longer exists is skipped and listed in ``missing``; the
metrics that depend on it then read 0.
"""

from __future__ import annotations

import collections
import functools
import gzip
import itertools
import json
import sys
import threading
import time

# (module, attribute path, span name)
TARGETS = [
    ("maps", "builtin_map", "maps.builtin_map"),
    ("maps", "IntervalMap.__call__", "maps.forward"),
    ("function_space", "integrate", "function_space.integrate"),
    ("function_space", "lp_norm", "function_space.lp_norm"),
    ("function_space", "inner_product", "function_space.inner_product"),
    ("function_space", "QuadratureGrid.locate", "function_space.locate"),
    ("function_space", "MeasureDensity.from_callable",
     "function_space.from_callable"),
    ("function_space", "MeasureDensity.from_masses",
     "function_space.from_masses"),
    ("function_space", "GridFunction.interpolate", "function_space.interpolate"),
    ("transfer", "resolve_measure", "transfer.resolve_measure"),
    ("transfer", "invariant_density", "transfer.invariant_density"),
    ("transfer", "ulam_matrix", "transfer.ulam_matrix"),
    ("transfer", "stationary_vector", "transfer.stationary_vector"),
    ("transfer", "make_backend", "transfer.make_backend"),
    ("transfer", "BranchTransferOperator.apply", "transfer.apply"),
    ("transfer", "UlamTransferOperator.apply", "transfer.apply"),
    ("observables", "build_observable", "observables.build"),
    ("observables", "Observable.__call__", "observables.eval"),
    ("decay", "decay_report", "decay.report"),
    ("gordin", "gordin_decompose", "gordin.decompose"),
    ("gordin", "coboundary_detect", "gordin.coboundary"),
    ("montecarlo", "sigma_green_kubo", "montecarlo.green_kubo"),
    ("montecarlo", "sigma_variance_growth", "montecarlo.variance_growth"),
    ("montecarlo", "run_ensemble", "montecarlo.run_ensemble"),
    ("stats", "clt_test", "stats.ks"),
    ("stats", "fclt_test", "stats.ks"),
    ("cli", "main", "cli.main"),
]

POOL_SPAN = "montecarlo.worker"
ROOT = 0  # parent id of spans opened outside any traced call


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread ident)
        self.missing = []
        self.ensembles = []  # (samples, n, burnin steps, dropped) per call
        self.backends_seen = {}  # id -> operator, for make_backend misses
        self.apply_ops = {}  # id -> [operator, apply calls]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT]
        return stack

    def wrap(self, fn, name, hook=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        stack_of, ident = self._stack, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, ident()))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- boundary counters -------------------------------------------
    def _on_make_backend(self, args, kwargs, op):
        self.backends_seen.setdefault(id(op), op)

    def _on_apply(self, args, kwargs, result):
        op = args[0]
        entry = self.apply_ops.get(id(op))
        if entry is None:
            entry = self.apply_ops[id(op)] = [op, 0]
        entry[1] += 1

    def _on_run_ensemble(self, args, kwargs, run):
        imap = args[0] if args else kwargs["imap"]
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        burnin = 0
        if cfg.resolved_mode(imap) == "burn-in-orbit":
            burnin = cfg.samples * cfg.burnin
        self.ensembles.append((cfg.samples, run.n, burnin, int(run.dropped)))

    # -- installation ------------------------------------------------
    def install(self):
        import ergolab.cli  # noqa: F401  (the package loads the rest)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "ergolab" or k.startswith("ergolab."))]
        hooks = {"transfer.make_backend": self._on_make_backend,
                 "transfer.apply": self._on_apply,
                 "montecarlo.run_ensemble": self._on_run_ensemble}
        for mod_name, path, span in TARGETS:
            mod = sys.modules.get(f"ergolab.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{mod_name}.{path}")
                continue
            hook = hooks.get(span)
            if owner_name:  # a method: replace it on its class
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span, hook))
                else:
                    new = self.wrap(raw, span, hook)
                self._replace(owner, attr, raw, new)
                continue
            original = getattr(owner, attr)
            new = self.wrap(original, span, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, original, new)
        self._install_pool()
        return self

    def _install_pool(self):
        mc = sys.modules["ergolab.montecarlo"]
        base = getattr(mc, "ThreadPoolExecutor", None)
        if base is None:
            self.missing.append("montecarlo.ThreadPoolExecutor")
            return
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]
                traced_fn = tracer.wrap(fn, POOL_SPAN)

                def run(*a, **k):
                    tracer._local.stack = [parent]
                    return traced_fn(*a, **k)

                return super().submit(run, *args, **kwargs)

        self._replace(mc, "ThreadPoolExecutor", base, TracedPool)

    def _replace(self, owner, attr, original, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------
    def dump(self, path):
        """Write the spans (columnar JSON, gzip) for offline inspection."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        cols = list(zip(*self.spans)) or [()] * 6
        doc = {
            "names": names,
            "id": list(cols[0]),
            "name": [index[n] for n in cols[1]],
            "start": list(cols[2]),
            "end": list(cols[3]),
            "parent": list(cols[4]),
            "thread": [tindex[t] for t in cols[5]],
            "missing_targets": self.missing,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over recorded spans: totals, self time, nested counts."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.by_name = collections.defaultdict(list)
        self.children = collections.defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)
            self.children[s[4]].append(s)
        self._ancestors = {ROOT: frozenset()}

    def ancestors(self, sid) -> frozenset:
        """Names of all spans enclosing span ``sid`` (across threads)."""
        memo, by_id = self._ancestors, self.by_id
        chain, cur = [], sid
        while cur not in memo:
            chain.append(cur)
            parent = by_id[cur][4]
            cur = parent if parent in by_id else ROOT
        for cid in reversed(chain):
            parent = by_id[cid][4]
            memo[cid] = (memo[parent] | {by_id[parent][1]}
                         if parent in by_id else frozenset())
        return memo[sid]

    def outermost(self, name):
        return [s for s in self.by_name[name] if name not in self.ancestors(s[0])]

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def total_s(self, name) -> float:
        """Inclusive time of ``name``, nested calls of itself counted once."""
        return sum((s[3] - s[2] for s in self.outermost(name)), 0.0)

    def sum_s(self, name) -> float:
        """Summed durations of every ``name`` span (thread-seconds)."""
        return sum((s[3] - s[2] for s in self.by_name[name]), 0.0)

    def self_s(self, name) -> float:
        """Duration minus the part of it covered by child spans."""
        out = 0.0
        for s in self.by_name[name]:
            kids = [(c[2], c[3]) for c in self.children[s[0]]]
            out += (s[3] - s[2]) - _union_length(kids)
        return out

    def calls_under(self, name, ancestor) -> int:
        return sum(1 for s in self.by_name[name]
                   if ancestor in self.ancestors(s[0]))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced repetition (name -> value)."""
    ix = SpanIndex(tracer.spans)
    apply_calls = ix.calls("transfer.apply")
    apply_s = ix.sum_s("transfer.apply")
    flops = bytes_ = 0
    for op, calls in tracer.apply_ops.values():
        f, b = apply_cost(op)
        flops += calls * f
        bytes_ += calls * b
    ens_s = ix.total_s("montecarlo.run_ensemble")
    orbit_steps = sum(s * n for s, n, _, _ in tracer.ensembles)
    return {
        "transfer.resolve_measure_s": ix.total_s("transfer.resolve_measure"),
        "transfer.ulam_matrix_s": ix.total_s("transfer.ulam_matrix"),
        "transfer.stationary_vector_s": ix.total_s("transfer.stationary_vector"),
        "observables.build_s": ix.total_s("observables.build"),
        "transfer.make_backend_calls": ix.calls("transfer.make_backend"),
        "transfer.make_backend_misses": len(tracer.backends_seen),
        "transfer.apply_calls": apply_calls,
        "transfer.apply_s": apply_s,
        "transfer.apply_us": 1e6 * apply_s / apply_calls if apply_calls else 0.0,
        "transfer.apply_flops_computed": flops,
        "transfer.apply_bytes_computed": bytes_,
        "gordin.decompose_s": ix.total_s("gordin.decompose"),
        "gordin.decompose_apply_calls": ix.calls_under("transfer.apply",
                                                       "gordin.decompose"),
        "gordin.decompose_self_s": ix.self_s("gordin.decompose"),
        "gordin.coboundary_s": ix.total_s("gordin.coboundary"),
        "gordin.coboundary_apply_calls": ix.calls_under("transfer.apply",
                                                        "gordin.coboundary"),
        "decay.report_s": ix.total_s("decay.report"),
        "decay.apply_calls": ix.calls_under("transfer.apply", "decay.report"),
        "montecarlo.green_kubo_s": ix.total_s("montecarlo.green_kubo"),
        "montecarlo.green_kubo_apply_calls": ix.calls_under(
            "transfer.apply", "montecarlo.green_kubo"),
        "montecarlo.run_ensemble_calls": ix.calls("montecarlo.run_ensemble"),
        "montecarlo.run_ensemble_s": ens_s,
        "montecarlo.self_s": (ix.self_s("montecarlo.run_ensemble")
                              + ix.self_s(POOL_SPAN)),
        "montecarlo.orbit_steps": orbit_steps,
        "montecarlo.burnin_steps": sum(b for _, _, b, _ in tracer.ensembles),
        "montecarlo.orbit_steps_per_s": orbit_steps / ens_s if ens_s else 0.0,
        "montecarlo.dropped_orbits": sum(d for _, _, _, d in tracer.ensembles),
        "maps.forward_calls": ix.calls("maps.forward"),
        "maps.forward_s": ix.sum_s("maps.forward"),
        "function_space.calls": sum(ix.calls(n) for n in ix.by_name
                                    if n.startswith("function_space.")),
        "function_space.s": sum(ix.sum_s(n) for n in ix.by_name
                                if n.startswith("function_space.")),
        "observables.eval_calls": ix.calls("observables.eval"),
        "observables.eval_s": ix.sum_s("observables.eval"),
        "stats.ks_calls": ix.calls("stats.ks"),
        "stats.ks_s": ix.total_s("stats.ks"),
        "cli.self_s": ix.self_s("cli.main"),
    }


def apply_cost(op):
    """Computed (flops, bytes) of one ``op.apply``: a CSR matvec plus the
    diagonal scaling, 2*nnz + 2*N flops; CSR data, indices and row
    pointers plus three N-vectors of float64.  Cache misses are ignored."""
    mat = getattr(op, "matrix", None)
    if mat is None:
        mat = op.ulam.matrix
    n = op.grid.size
    nnz = mat.nnz
    flops = 2 * nnz + 2 * n
    bytes_ = (nnz * (mat.data.itemsize + mat.indices.itemsize)
              + (n + 1) * mat.indptr.itemsize + 3 * n * 8)
    return flops, bytes_
