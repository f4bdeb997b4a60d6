import collections
import dataclasses
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from ergolab import (
    EnsembleConfig,
    GridFunction,
    PathEnsemble,
    build_observable,
    builtin_map,
    lp_norm,
    make_backend,
    resolve_measure,
    run_ensemble,
    sigma_green_kubo,
    sigma_variance_growth,
)
from ergolab.errors import (
    ConfigurationError, ConvergenceError, DomainError, EnsembleRunError,
    PreconditionError,
)
from ergolab import montecarlo
from ergolab.gordin import solve_poisson
from ergolab.montecarlo import (
    _MAX_DROP_FRACTION, BATCH_SIZE, MIN_BURNIN, _batches, _groups, _points,
    _streams,
)


def _cfg(**kw):
    base = dict(samples=2048, n=64, seed=123)
    base.update(kw)
    return EnsembleConfig(**base)


def _whole_batches(cfg):
    """Every batch of ``cfg`` as one (batch index, size, 0, size) slice."""
    return [(bidx, size, 0, size) for bidx, size in _batches(cfg)]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EnsembleConfig(samples=50, n=64, seed=1)
    with pytest.raises(ConfigurationError):
        EnsembleConfig(samples=200, n=0, seed=1)
    for threads in (0, -3):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(samples=200, n=8, seed=1, threads=threads)
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(samples=200, n=8, seed=seed)
    # the burn-in floor holds wherever the burn-in sampler is chosen
    short = EnsembleConfig(samples=200, n=8, seed=1, burnin=10)
    with pytest.raises(ConfigurationError):
        short.resolved_mode(builtin_map("lsv:0.25"))
    with pytest.raises(ConfigurationError):
        run_ensemble(builtin_map("lsv:0.25"), lambda y: y, short)
    # maps that never burn in are not held to it
    assert short.resolved_mode(builtin_map("doubling")) == "bit-queue"
    assert short.resolved_mode(builtin_map("chebyshev:2")) == "inverse-cdf"


def test_default_burnin_is_the_floor():
    assert EnsembleConfig(samples=200, n=8, seed=1).burnin == MIN_BURNIN


def test_mode_resolution():
    cfg = _cfg()
    assert cfg.resolved_mode(builtin_map("doubling")) == "bit-queue"
    assert cfg.resolved_mode(builtin_map("chebyshev:2")) == "inverse-cdf"
    assert cfg.resolved_mode(builtin_map("lsv:0.25")) == "burn-in-orbit"


def test_determinism_across_threads():
    m = builtin_map("doubling")
    h = lambda y: np.cos(2 * np.pi * y)
    a = run_ensemble(m, h, _cfg(samples=8192, threads=1))
    b = run_ensemble(m, h, _cfg(samples=8192, threads=4))
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.sup, b.sup)
    assert np.array_equal(a.occupation, b.occupation)


@pytest.mark.parametrize("spec", ["lsv:0.25", "chebyshev:2"])
def test_point_modes_deterministic_across_threads(spec):
    # burn-in-orbit and inverse-cdf modes; 9000 samples leave an uneven
    # last batch, and 1, 2 and 3 threads group the batches differently
    m = builtin_map(spec)
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(samples=9000, n=32, burnin=MIN_BURNIN)
    runs = [run_ensemble(m, h, dataclasses.replace(cfg, threads=t))
            for t in (1, 2, 3)]
    for run in runs[1:]:
        assert np.array_equal(runs[0].S, run.S)
        assert np.array_equal(runs[0].sup, run.sup)
        assert np.array_equal(runs[0].occupation, run.occupation)
    # one wide start equals the batches' starts drawn one at a time
    mode = cfg.resolved_mode(m)
    per_batch = [next(_points(m, cfg, mode, _streams(cfg, [piece])))
                 for piece in _whole_batches(cfg)]
    whole = next(_points(m, cfg, mode, _streams(cfg, _whole_batches(cfg))))
    assert np.array_equal(whole, np.concatenate(per_batch))


@pytest.mark.parametrize("samples", [100, 4096, 5000, 9000, 20000, 100000])
def test_groups_split_the_orbits_evenly(samples):
    for threads in range(1, 6):
        cfg = _cfg(samples=samples, threads=threads)
        groups = _groups(cfg)
        assert len(groups) == min(threads, len(_batches(cfg)))
        # every slice draws its batch at the batch's full size
        batches = dict(_batches(cfg))
        assert all(batches[bidx] == size and 0 <= lo < hi <= size
                   for g in groups for bidx, size, lo, hi in g)
        orbits = np.concatenate([np.arange(lo, hi) + bidx * BATCH_SIZE
                                 for g in groups for bidx, _, lo, hi in g])
        assert np.array_equal(orbits, np.arange(samples))
        sizes = [sum(hi - lo for _, _, lo, hi in g) for g in groups]
        assert max(sizes) - min(sizes) <= 1


def _assert_runs_equal(a, b):
    for name in ("S", "sup", "occupation", "checkpoints"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# 9001 samples put the group boundaries inside batches at 2 to 5 threads
# (4500 | 4501; 3000 | 3000 | 3001), and n = 130 takes the bit queue past
# two 64-step refills
@pytest.mark.parametrize("spec,n", [("doubling", 130), ("chebyshev:2", 32),
                                    ("lsv:0.25", 32)])
def test_split_batches_are_bit_equal_across_threads(spec, n):
    m = builtin_map(spec)
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(samples=9001, n=n)
    assert any(lo > 0 for g in _groups(dataclasses.replace(cfg, threads=2))
               for _, _, lo, _ in g)
    runs = [run_ensemble(m, h, dataclasses.replace(cfg, threads=t),
                         checkpoints=[n // 4, n // 2, n])
            for t in range(1, 6)]
    for run in runs[1:]:
        _assert_runs_equal(runs[0], run)


def test_split_batches_are_bit_equal_on_threads(monkeypatch):
    # the fallback where the platform cannot fork runs the groups on threads
    m, n = builtin_map("doubling"), 130
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(samples=9001, n=n)
    ref = run_ensemble(m, h, cfg, checkpoints=[n // 2, n])
    monkeypatch.setattr(montecarlo, "_FORK", False)
    run = run_ensemble(m, h, dataclasses.replace(cfg, threads=3),
                       checkpoints=[n // 2, n])
    _assert_runs_equal(ref, run)


def _word_stream_points(cfg):
    """The doubling orbit points of the whole ensemble at steps 0..n-1,
    rebuilt from each batch's stream: the start word, then one word per 64
    steps, whose bits enter the queue most significant first."""
    batches = []
    for bidx, size in _batches(cfg):
        rng = np.random.default_rng([cfg.seed, bidx])
        words = [rng.integers(0, 2**64, size=size, dtype=np.uint64)
                 for _ in range(1 + -(-(cfg.n - 1) // 64))]
        steps = []
        for j in range(cfg.n):
            q, r = divmod(j, 64)
            state = words[q]
            if r:
                state = ((state << np.uint64(r))
                         | (words[q + 1] >> np.uint64(64 - r)))
            steps.append(state * 2.0**-64)
        batches.append(steps)
    for j in range(cfg.n):
        yield np.concatenate([steps[j] for steps in batches])


@pytest.mark.parametrize("threads", [1, 3])
def test_bit_queue_word_stream(threads):
    # n = 130 crosses two refill boundaries and 9000 samples leave an
    # uneven last batch
    cfg = _cfg(samples=9000, n=130, threads=threads)
    run = run_ensemble(builtin_map("doubling"), lambda y: y, cfg)
    assert np.array_equal(run.S, sum(_word_stream_points(cfg)))


# n = 600 crosses two 255-step flushes of the uint8 occupation counters
@pytest.mark.parametrize("threads,n,tie_steps", [
    pytest.param(1, 130, 20, id="1"), pytest.param(3, 130, 20, id="3"),
    pytest.param(1, 600, 40, id="1-n600"), pytest.param(3, 600, 40, id="3-n600"),
])
def test_occupation_counts_exact_ties_half(threads, n, tie_steps):
    # h = +-1 makes every S_k an integer, exactly 0 at about one step in
    # sixteen at n = 130 and one in thirty-three at n = 600; the occupation
    # counters must give (pos + ties / 2) / n exactly
    h = lambda y: np.where(y < 0.5, 1.0, -1.0)
    cfg = _cfg(samples=9000, n=n, threads=threads)
    run = run_ensemble(builtin_map("doubling"), h, cfg)
    S = np.zeros(cfg.samples)
    pos = np.zeros(cfg.samples, dtype=np.int64)
    ties = np.zeros(cfg.samples, dtype=np.int64)
    for y in _word_stream_points(cfg):
        S += h(y)
        pos += S > 0
        ties += S == 0
    assert ties.sum() > cfg.samples * cfg.n // tie_steps
    assert np.array_equal(run.S, S)
    assert np.array_equal(run.occupation, (pos + 0.5 * ties) / cfg.n)


def test_nan_sum_gives_nan_occupation():
    # a NaN sum stays NaN, and its occupation is NaN, as sign(NaN) made it
    h = lambda y: np.where(y < 0.05, np.nan, y - 0.5)
    run = run_ensemble(builtin_map("doubling"), h, _cfg(samples=200, n=8))
    nan = np.isnan(run.S)
    assert nan.any() and not nan.all()
    assert np.array_equal(np.isnan(run.occupation), nan)


def _overshooting(imap, step, overshoot):
    """``imap`` whose forward map, at its ``step``-th call, moves the orbits
    keyed in ``overshoot`` (index -> point) to the given points; the
    returned list records the input of every later call."""
    calls, seen = [0], []

    def forward(y):
        calls[0] += 1
        if calls[0] > step:
            seen.append(y.copy())
        out = imap.forward(y)
        if calls[0] == step:
            out[list(overshoot)] = list(overshoot.values())
        return out

    return dataclasses.replace(imap, forward=forward), seen


_DROP_CFG = dict(samples=4000, n=8, burnin=MIN_BURNIN)


def test_escaped_orbits_are_dropped_and_parked():
    # the forward map's call MIN_BURNIN + 3 makes step 3 of the measured
    # orbit; 3 escapes in 4000 orbits are below the 1e-3 drop bound
    m = builtin_map("lsv:0.25")
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(**_DROP_CFG)
    escapes = {3: 1.0 + 1e-9, 17: -1e-9, 3999: 2.0}
    bad, seen = _overshooting(m, MIN_BURNIN + 3, escapes)
    run = run_ensemble(bad, h, cfg)
    base = run_ensemble(m, h, cfg)
    keep = np.ones(cfg.samples, dtype=bool)
    keep[list(escapes)] = False
    assert run.dropped == len(escapes)
    assert np.array_equal(run.S, base.S[keep])
    assert np.array_equal(run.sup, base.sup[keep])
    assert np.array_equal(run.occupation, base.occupation[keep])
    # dropped orbits are parked at the midpoint and stay in the domain
    assert np.all(seen[0][list(escapes)] == 0.5)


def test_burn_in_escape_is_dropped():
    # the forward map's call 3 is a burn-in step: the escaped orbit must be
    # dropped, not clipped onto the fixed point y = 1 and kept
    m = builtin_map("lsv:0.25")
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(**_DROP_CFG)
    bad, _ = _overshooting(m, 3, {17: 2.0})
    run = run_ensemble(bad, h, cfg)
    keep = np.ones(cfg.samples, dtype=bool)
    keep[17] = False
    assert run.dropped == 1
    assert np.array_equal(run.S, run_ensemble(m, h, cfg).S[keep])


def test_only_maps_names_the_escape_tolerance():
    # the domain policy of an orbit step lives in IntervalMap.step alone
    src = Path(__file__).resolve().parents[1] / "src" / "ergolab"
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "maps.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "_ESCAPE_TOL" in line]
    assert not offenders, "\n".join(offenders)


def test_roundoff_overshoot_is_clipped_not_dropped():
    m = builtin_map("lsv:0.25")
    cfg = _cfg(**_DROP_CFG)
    bad, seen = _overshooting(m, MIN_BURNIN + 3, {5: 1.0 + 1e-12, 9: -1e-12})
    run = run_ensemble(bad, lambda y: y, cfg)
    assert run.dropped == 0 and run.S.shape == (cfg.samples,)
    assert seen[0][5] == 1.0 and seen[0][9] == 0.0


def test_too_many_escapes_raise():
    m = builtin_map("lsv:0.25")
    cfg = _cfg(**_DROP_CFG)
    limit = int(_MAX_DROP_FRACTION * cfg.samples)
    bad, _ = _overshooting(m, MIN_BURNIN + 3,
                           {i: 1.5 for i in range(limit + 1)})
    with pytest.raises(EnsembleRunError):
        run_ensemble(bad, lambda y: y, cfg)


# 9001 samples at threads=2 make two groups, of 4500 and 4501 orbits, split
# inside batch 1; their lengths differ, so _escaping_per_group below counts
# each group's calls apart on the thread path too
_GROUPS_CFG = dict(samples=9001, n=8, burnin=MIN_BURNIN, threads=2)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="groups run on threads where fork is unavailable")
def test_groups_run_in_forked_workers():
    # n = 1 makes S the one value of h, here the id of the process that ran it
    cfg = _cfg(**dict(_GROUPS_CFG, n=1))
    pid = lambda y: np.full(y.shape, float(os.getpid()))
    run = run_ensemble(builtin_map("lsv:0.25"), pid, cfg)
    workers = set(run.S.tolist())
    assert len(workers) == 2 and float(os.getpid()) not in workers


def _escaping_per_group(imap, count):
    """``imap`` whose forward map, at its call MIN_BURNIN + 3 on an array,
    sends the first ``count`` points of that array out of the domain.  Calls
    are counted per array length, so each group counts its own calls in
    whichever worker (process or thread) runs it."""
    calls = collections.Counter()

    def forward(y):
        calls[y.size] += 1
        out = imap.forward(y)
        if calls[y.size] == MIN_BURNIN + 3:
            out[:count] = 1.5
        return out

    return dataclasses.replace(imap, forward=forward)


def test_drops_from_several_groups_are_summed():
    m = builtin_map("lsv:0.25")
    h = lambda y: y * (1.0 - y)
    cfg = _cfg(**_GROUPS_CFG)
    sizes = [sum(hi - lo for _, _, lo, hi in g) for g in _groups(cfg)]
    assert sizes == [4500, 4501]
    limit = int(_MAX_DROP_FRACTION * cfg.samples)
    assert 2 * 4 <= limit < 2 * 5
    run = run_ensemble(_escaping_per_group(m, 4), h, cfg)
    base = run_ensemble(m, h, cfg)
    keep = np.ones(cfg.samples, dtype=bool)
    keep[[0, 1, 2, 3, 4500, 4501, 4502, 4503]] = False
    assert run.dropped == 8
    assert np.array_equal(run.S, base.S[keep])
    assert np.array_equal(run.sup, base.sup[keep])
    assert np.array_equal(run.occupation, base.occupation[keep])
    # 5 drops per group stay below the bound in each group, not in total
    with pytest.raises(EnsembleRunError, match="10/9001"):
        run_ensemble(_escaping_per_group(m, 5), h, cfg)


def test_nan_at_the_last_step_raises():
    # the forward map's call MIN_BURNIN + n - 1 makes the last step, after
    # which no map call follows: its NaN must still fail the step's check
    m = builtin_map("lsv:0.25")
    cfg = _cfg(samples=200, n=50)
    bad, _ = _overshooting(m, MIN_BURNIN + cfg.n - 1, {0: np.nan})
    with pytest.raises(DomainError, match="outside the map domain"):
        run_ensemble(bad, lambda y: y, cfg)


@pytest.mark.parametrize("n", [1, 8])
def test_inverse_cdf_start_outside_the_domain_raises(n):
    # the start points are checked once, before any step: n = 1 takes none
    m = builtin_map("chebyshev:2")
    wide = dataclasses.replace(m, sampler=lambda u: 1.5 * m.sampler(u))
    with pytest.raises(DomainError, match="outside the map domain"):
        run_ensemble(wide, lambda y: y, _cfg(samples=200, n=n))


def test_typed_error_in_a_worker_reaches_the_caller():
    # a forward map that returns NaN fails the domain check of its step
    m = builtin_map("lsv:0.25")
    nan = dataclasses.replace(m, forward=lambda y: np.full(y.shape, np.nan))
    with pytest.raises(DomainError):
        run_ensemble(nan, lambda y: y, _cfg(**_GROUPS_CFG))


def test_concurrent_callers_match_their_serial_runs():
    # three callers at once, two workers each: a worker that ran another
    # caller's published work would break the equality with the serial run
    cases = [(builtin_map("lsv:0.25"), lambda y: y * (1.0 - y)),
             (builtin_map("doubling"), lambda y: np.cos(2 * np.pi * y)),
             (builtin_map("chebyshev:2"), lambda y: y**3)]
    cfg = _cfg(**dict(_GROUPS_CFG, n=64))
    serial = [run_ensemble(m, h, cfg) for m, h in cases]
    results = [None] * len(cases)
    barrier = threading.Barrier(len(cases))

    def call(i):
        barrier.wait()
        results[i] = run_ensemble(*cases[i], cfg)

    callers = [threading.Thread(target=call, args=(i,))
               for i in range(len(cases))]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
        assert not t.is_alive()
    for run, ref in zip(results, serial):
        assert np.array_equal(run.S, ref.S)
        assert np.array_equal(run.sup, ref.sup)
        assert np.array_equal(run.occupation, ref.occupation)


def test_seed_changes_samples():
    m = builtin_map("doubling")
    h = lambda y: np.cos(2 * np.pi * y)
    a = run_ensemble(m, h, _cfg(seed=1))
    b = run_ensemble(m, h, _cfg(seed=2))
    assert not np.array_equal(a.S, b.S)


def test_checkpoint_validation():
    m = builtin_map("doubling")
    with pytest.raises(ConfigurationError):
        run_ensemble(m, lambda y: y, _cfg(), checkpoints=[0])
    with pytest.raises(ConfigurationError):
        run_ensemble(m, lambda y: y, _cfg(), checkpoints=[100])


def test_checkpoints_and_paths_consistent():
    m = builtin_map("doubling")
    h = lambda y: np.cos(2 * np.pi * y)
    run = run_ensemble(m, h, _cfg(), checkpoints=[16, 64])
    # the final checkpoint equals the terminal sum
    assert np.allclose(run.checkpoints[:, 1], run.S)
    # recording checkpoints leaves the orbits untouched
    bare = run_ensemble(m, h, _cfg())
    assert np.array_equal(run.S, bare.S)
    assert np.array_equal(run.sup, bare.sup)
    assert np.array_equal(run.occupation, bare.occupation)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_without_checkpoints(threads):
    run = run_ensemble(builtin_map("doubling"), lambda y: y,
                       _cfg(samples=5000, threads=threads))
    assert run.checkpoints.shape == (5000, 0)
    assert run.checkpoint_ns == [] and run.variance_growth() == []


@pytest.mark.parametrize("spec,burnin", [("lsv:0.25", MIN_BURNIN),
                                         ("chebyshev:2", 0)])
def test_no_step_after_the_last_point(spec, burnin):
    # n points take burnin + n - 1 steps of the forward map
    m = builtin_map(spec)
    calls = [0]

    def forward(y):
        calls[0] += 1
        return m.forward(y)

    cfg = _cfg(samples=200, n=8, threads=1)
    run_ensemble(dataclasses.replace(m, forward=forward), lambda y: y, cfg)
    assert calls[0] == burnin + cfg.n - 1


def test_zero_observable_occupation_convention():
    # S_n = 0 throughout; ties counted half keeps occupation unbiased
    m = builtin_map("doubling")
    run = run_ensemble(m, lambda y: np.zeros_like(np.asarray(y, float)), _cfg())
    assert np.allclose(run.occupation, 0.5)
    assert np.allclose(run.sup, 0.0)


def _sample_invariant(m, cfg):
    """The ensemble's starting points: S_1 of a one-step run with h = id."""
    return run_ensemble(m, lambda y: y, dataclasses.replace(cfg, n=1)).S


@pytest.mark.parametrize("spec", ["doubling", "chebyshev:2", "lsv:0.25"])
def test_sample_invariant_is_the_ensemble_start(spec):
    # the start states drawn batch by batch, as points of the interval
    m = builtin_map(spec)
    cfg = _cfg(n=1, burnin=1000)
    mode = cfg.resolved_mode(m)
    starts = [next(_points(m, cfg, mode, _streams(cfg, [piece])))
              for piece in _whole_batches(cfg)]
    assert np.array_equal(_sample_invariant(m, cfg), np.concatenate(starts))


def test_sample_invariant_uniform():
    m = builtin_map("doubling")
    y = _sample_invariant(m, _cfg(samples=20000))
    assert abs(y.mean() - 0.5) < 0.02
    assert abs(np.mean(y**2) - 1.0 / 3.0) < 0.02


def test_sample_invariant_arcsine():
    m = builtin_map("chebyshev:2")
    y = _sample_invariant(m, _cfg(samples=20000))
    assert abs(y.mean()) < 0.02
    assert abs(np.mean(y**2) - 0.5) < 0.02


def test_green_kubo_doubling_exact(doubling, doubling_nu):
    obs = build_observable("cos1", doubling, doubling_nu)
    gk = sigma_green_kubo(doubling, doubling_nu, obs.grid_function)
    # orthogonality kills every cross term: sigma^2 = ||h||_2^2 = 1/2
    assert abs(gk.sigma2 - 0.5) < 1e-6
    assert gk.residual <= 1e-10 * lp_norm(obs.grid_function, 2)


def _lag_series_sigma2(op, h, lags=256):
    """int h^2 dnu + 2 sum_{k=1}^{lags} <P^k h, h>."""
    masses = op.measure.masses
    total, g = float((h * h) @ masses), h
    for _ in range(lags):
        g = op.apply(g)
        total += 2.0 * float((g * h) @ masses)
    return total


@pytest.mark.parametrize("spec,obs,cells", [
    ("lsv:0.25", "lip1", 1024),
    ("chebyshev:2", "cos1", 4096),
    ("doubling", "cos1", 4096),
])
def test_green_kubo_matches_lag_series(spec, obs, cells):
    m = builtin_map(spec)
    nu = resolve_measure(m, m.default_grid(cells))
    h = build_observable(obs, m, nu).grid_function
    reference = _lag_series_sigma2(make_backend(m, nu), h.values)
    gk = sigma_green_kubo(m, nu, h)
    assert abs(gk.sigma2 - reference) <= 1e-10 * abs(reference)


def test_green_kubo_requires_centered(doubling, doubling_nu):
    from ergolab import GridFunction

    h = GridFunction.from_callable(lambda y: y, doubling_nu)
    with pytest.raises(PreconditionError):
        sigma_green_kubo(doubling, doubling_nu, h)


@pytest.mark.parametrize("spec,c", [("doubling", 2 * np.pi), ("lsv:0.25", 1.0)],
                         ids=["doubling-2*pi", "lsv:0.25-1"])
def test_solver_breakdown_is_a_convergence_error(spec, c):
    # a constant centred by its quadrature mean, which rounds apart here,
    # is a roundoff-level h on which a Krylov scalar of the Poisson solve
    # vanishes: dot(r0, v) on doubling, rho on lsv.  Its mean is all of its
    # norm, so the analyses reject it as not centred before they solve.
    imap = builtin_map(spec)
    nu = resolve_measure(imap, imap.default_grid(1024))
    v = np.full(1024, c)
    h = GridFunction(v - v @ nu.masses, nu)
    assert 0 < np.abs(h.values).max() < 1e-14
    with pytest.raises(PreconditionError, match="not centered"):
        sigma_green_kubo(imap, nu, h)
    with pytest.raises(ConvergenceError, match="broke down"):
        solve_poisson(make_backend(imap, nu), h.values)


def test_variance_growth_doubling():
    m = builtin_map("doubling")
    vg = sigma_variance_growth(
        m, lambda y: np.cos(2 * np.pi * y), [64, 256], _cfg(samples=8000, n=256)
    )
    assert [n for n, _ in vg] == [64, 256]
    for _, s in vg:
        assert abs(s - np.sqrt(0.5)) < 0.03


def test_variance_growth_requires_increasing():
    m = builtin_map("doubling")
    with pytest.raises(PreconditionError):
        sigma_variance_growth(m, lambda y: y, [64, 64], _cfg())


def test_variance_growth_schedule_must_end_within_n():
    # the run keeps cfg.n; a longer schedule is not silently run further
    m = builtin_map("doubling")
    with pytest.raises(ConfigurationError, match=r"checkpoints must lie in"):
        sigma_variance_growth(m, lambda y: y, [64, 512], _cfg(n=256))


def test_path_ensemble_scaling():
    m = builtin_map("doubling")
    h = lambda y: np.cos(2 * np.pi * y)
    run = run_ensemble(m, h, _cfg())
    pe = PathEnsemble.from_run(run, sigma=np.sqrt(0.5), m=16)
    assert np.allclose(pe.terminal, run.S / (np.sqrt(0.5) * 8.0))
    header = pe.functionals_csv().splitlines()[0]
    assert header == "sample_index,sup,terminal,occupation"
