"""Ensemble simulation of Birkhoff sums, rescaled paths, and sigma estimates.

All randomness flows from a master seed; sample streams are keyed by
(seed, batch index) with a fixed batch layout, so ensembles are
bit-identical across reruns and independent of the worker count.

The orbits are split into ``min(threads, batches)`` contiguous groups of
near-equal size, and each group is advanced as one wide array.  A group
boundary may fall inside a batch: every group that holds part of a batch
draws that batch's start (and, in bit-queue mode, its refill words) from
the batch's own stream at the batch's full size and keeps its own slice,
so every orbit sees the same numbers in any group, while the burn-in and
every step run on the whole group at once.  Each operation on the orbits
is elementwise and gives the same bits at any array length, so the
grouping never changes a result.

Two or more groups run in parallel, one worker per group.  Where the
platform can fork, each worker is a process started with the ``fork``
context: a step makes a dozen or more numpy calls, and worker threads
would hand the GIL over at every one of them, which on lsv made two
threads slower than one.  The work (map, observable, configuration,
sampler mode, checkpoints) is the pool initializer's argument, which a
forked worker inherits without pickling, so an arbitrary observable
callable needs none; each worker returns only its group's arrays, merged
in group order.  Without fork the groups run on threads, each calling
``_run_group`` with the work bound in.  A single group runs in the
calling thread.

The doubling map gets a dedicated bit-queue mode: its floating-point
orbits collapse to 0 within ~53 iterations, so the orbit is instead driven
as an exact binary shift on a queue of fresh random bits, with the state
reconstructed from the leading 64 bits at every step.  The queue is fed
one uniform 64-bit word per orbit every 64 steps, read most significant
bit first.

Maps with neither a bit queue nor a closed-form sampler (lsv,
Manneville-Pomeau) start their orbits from Lebesgue measure and burn them
in for ``MIN_BURNIN`` = 1000 steps by default.  The limit law of
S_n / sqrt(n) is the same for every absolutely continuous start
(Zweimüller, J. Theor. Probab. 2007), so burn-in only trims the finite-n
start bias; at M = 50 000 lsv:0.25 orbits a 1000-step start lies within
the KS noise floor of a 10 000-step one.

Every mode runs through one accumulation loop over one generator,
``_points``, which yields a group's orbit points at steps 0 .. n-1 and
advances only between two of them: bit-queue states, or inverse-CDF or
burned-in points stepped by ``IntervalMap.step``.  One run records
terminal sums, FCLT functionals and variance-growth checkpoints together,
so ``ergolab verify`` simulates its ensemble once.

The occupation time counts, per orbit, the steps with S > 0 and with
S < 0 in two uint8 counters, which add the comparisons' bools through
uint8 views.  Every 255 steps, before a counter can overflow, and at the
end they are flushed into a float accumulator ``sgn``, the sum of
sign(S_k), which only ever holds exact integers.  The occupation is
``((n + sgn) / 2) / n``: ``n + sgn`` is twice the number of positive
steps plus the number of ties, an exact integer, so this equals
``(positive + ties / 2) / n`` bit for bit, and ties count half.

The start points are checked once, since an inverse-CDF sampler may
leave the domain.  Every burn-in and measured step of a point mode is
``IntervalMap.step`` with the group's ``alive`` mask, so an orbit that
escapes at any step, burn-in included, is dropped and counted.

FCLT path functionals (sup, occupation fraction) are computed from the
full n-step prefix-sum resolution rather than from the coarse m-point
path: the coarse-grid laws of both functionals carry an O(m^-1/2) atom at
the boundary (paths that never cross zero), which at m = 64 already sits
0.05-0.07 away from the continuous reference laws in Kolmogorov distance.
At full resolution the gap is ~1e-2 and the reference laws apply.
"""

from __future__ import annotations

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError, DomainError, EnsembleRunError, PreconditionError,
)
from .function_space import GridFunction, MeasureDensity, _dot
from .gordin import solve_poisson
from .maps import IntervalMap, _inside
from .transfer import _backend_for

__all__ = [
    "EnsembleConfig",
    "PathEnsemble",
    "GreenKuboResult",
    "EnsembleRun",
    "run_ensemble",
    "sigma_green_kubo",
    "sigma_variance_growth",
]

_MAX_DROP_FRACTION = 1e-3
BATCH_SIZE = 4096  # the batch layout keys the random streams (see _batches)
MIN_BURNIN = 1000
_FLUSH = 255  # steps that a uint8 occupation counter holds before a flush

_FORK = "fork" in multiprocessing.get_all_start_methods()
_WORK = None  # a forked worker's (imap, h, cfg, mode, cp), set by _publish


@dataclass(frozen=True)
class EnsembleConfig:
    samples: int
    n: int
    seed: int
    burnin: int = MIN_BURNIN
    threads: int = 1

    def __post_init__(self):
        if self.samples < 100:
            raise ConfigurationError("need at least 100 samples")
        if self.n < 1:
            raise ConfigurationError("Birkhoff length must be >= 1")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        # the streams are keyed by default_rng([seed, batch]), which takes
        # only non-negative integers
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}")

    def resolved_mode(self, imap: IntervalMap) -> str:
        """The sampler for ``imap``: the bit queue for doubling, inverse-CDF
        points when the map carries a sampler, burned-in orbits otherwise."""
        if imap.name == "doubling":
            return "bit-queue"
        if imap.sampler is not None:
            return "inverse-cdf"
        if self.burnin < MIN_BURNIN:
            raise ConfigurationError(
                f"{imap.label} starts its orbits by burn-in, which needs "
                f"burnin >= {MIN_BURNIN}, got {self.burnin}"
            )
        return "burn-in-orbit"


def _batches(cfg: EnsembleConfig) -> List[tuple]:
    """The fixed (batch index, size) layout that keys the sample streams."""
    return [(bidx, min(BATCH_SIZE, cfg.samples - start))
            for bidx, start in enumerate(range(0, cfg.samples, BATCH_SIZE))]


def _groups(cfg: EnsembleConfig) -> List[list]:
    """The orbits split into min(threads, batches) contiguous groups of
    near-equal size, each advanced as one wide array by one worker.  A group
    is a list of (batch index, batch size, lo, hi) slices: it keeps orbits
    lo..hi-1 of each batch it touches, so a boundary may fall inside a batch."""
    batches = _batches(cfg)
    k = min(cfg.threads, len(batches))
    bounds = [cfg.samples * i // k for i in range(k + 1)]
    return [[(bidx, size, max(lo - bidx * BATCH_SIZE, 0),
              min(hi - bidx * BATCH_SIZE, size))
             for bidx, size in batches[lo // BATCH_SIZE:-(-hi // BATCH_SIZE)]]
            for lo, hi in zip(bounds, bounds[1:])]


def _streams(cfg: EnsembleConfig, group) -> list:
    """(rng, size, lo, hi) per slice of ``group``, each rng keyed by
    (seed, batch)."""
    return [(np.random.default_rng([cfg.seed, bidx]), size, lo, hi)
            for bidx, size, lo, hi in group]


def _draw(streams, draw) -> np.ndarray:
    """The [lo:hi] slices of ``draw(rng, size)``, concatenated.  Each batch's
    own stream draws at the batch's full size, so that an orbit gets the same
    numbers in whichever group holds it."""
    return np.concatenate([draw(rng, size)[lo:hi]
                           for rng, size, lo, hi in streams])


def _word(rng, size) -> np.ndarray:
    """``size`` uniform 64-bit words from ``rng``."""
    return rng.integers(0, 2**64, size=size, dtype=np.uint64)


def _points(imap: IntervalMap, cfg: EnsembleConfig, mode: str, streams,
            alive: Optional[np.ndarray] = None):
    """A group's orbit points at steps 0 .. n-1, with no step after the last.

    The bit queue maps a 64-bit word to its point in [0, 1) and advances
    by shifting in the top bit of a fresh random word, one word per orbit
    drawn from each batch's stream at the first advance and every 64 after.
    The point modes start from inverse-CDF points, or from Lebesgue points
    burned in for ``cfg.burnin`` steps, and advance by ``IntervalMap.step``,
    which marks an orbit that escapes the domain dead in ``alive``.
    """
    n = cfg.n
    if mode == "bit-queue":
        one, top = np.uint64(1), np.uint64(63)
        state = _draw(streams, _word)
        yield state * 2.0**-64
        for j in range(n - 1):
            if j % 64 == 0:
                word = _draw(streams, _word)
            state <<= one
            state |= word >> top
            word <<= one
            yield state * 2.0**-64
        return
    a, b = imap.domain
    u = _draw(streams, lambda rng, size: rng.random(size))
    if mode == "inverse-cdf":
        y, burnin = np.asarray(imap.sampler(u), dtype=float), 0
    else:
        y, burnin = a + (b - a) * u, cfg.burnin
    if not _inside(y, a, b):
        raise DomainError("point outside the map domain")
    for _ in range(burnin):
        y = imap.step(y, alive)
    yield y
    for _ in range(n - 1):
        y = imap.step(y, alive)
        yield y


def _run_group(imap, h, cfg, mode, cp, group):
    """One group's dropped-orbit count and its surviving orbits'
    (S, sup, sgn, checkpoints), where sgn sums sign(S_k) over the steps."""
    streams = _streams(cfg, group)
    size = sum(hi - lo for _, _, lo, hi in group)
    alive = np.ones(size, dtype=bool)
    n = cfg.n
    S = np.zeros(size)
    sup = np.zeros(size)
    sgn = np.zeros(size)
    # steps with S > 0 and with S < 0 since the last flush into sgn, counted
    # by adding the comparisons' bools through uint8 views
    above, below = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    above8, below8 = above.view(np.uint8), below.view(np.uint8)
    n_above, n_below = np.zeros(size, np.uint8), np.zeros(size, np.uint8)
    cps = np.empty((size, len(cp)))
    cp_pos = {v: i for i, v in enumerate(cp)}
    for j, y in enumerate(_points(imap, cfg, mode, streams, alive)):
        S += h(y)
        np.maximum(sup, S, out=sup)
        np.greater(S, 0.0, out=above)
        n_above += above8
        np.less(S, 0.0, out=below)
        n_below += below8
        if (j + 1) % _FLUSH == 0 or j + 1 == n:
            sgn += n_above
            sgn -= n_below
            n_above[:] = 0
            n_below[:] = 0
        if (j + 1) in cp_pos:
            cps[:, cp_pos[j + 1]] = S
    # a sum that turns NaN stays NaN, and sum(sign(S_k)) is NaN with it
    sgn[np.isnan(S)] = np.nan
    arrays = (S, sup, sgn, cps)
    dropped = int(size - alive.sum())
    if dropped:
        arrays = tuple(x[alive] for x in arrays)
    return dropped, arrays


def _publish(work):
    """Pool initializer: a forked worker keeps the work it inherited."""
    global _WORK
    _WORK = work


def _run_published(group):
    """``_run_group`` on the work that ``_publish`` kept."""
    return _run_group(*_WORK, group)


@dataclass
class EnsembleRun:
    S: np.ndarray
    sup: np.ndarray
    occupation: np.ndarray
    checkpoints: np.ndarray  # (samples, len(checkpoint_ns))
    checkpoint_ns: List[int]
    n: int
    dropped: int

    def variance_growth(self) -> List[tuple]:
        """(n, sqrt(mean(S_n^2) / n)) at each checkpoint."""
        return [(n, float(np.sqrt(np.mean(self.checkpoints[:, i]**2) / n)))
                for i, n in enumerate(self.checkpoint_ns)]


def run_ensemble(imap: IntervalMap, h: Callable, cfg: EnsembleConfig,
                 checkpoints: Optional[Sequence[int]] = None) -> EnsembleRun:
    """Drive M orbits for n steps, accumulating Birkhoff prefix statistics."""
    mode = cfg.resolved_mode(imap)
    n = cfg.n
    cp = sorted(set(int(c) for c in checkpoints)) if checkpoints else []
    if any(c < 1 or c > n for c in cp):
        raise ConfigurationError("checkpoints must lie in [1, n]")

    work = (imap, h, cfg, mode, cp)
    groups = _groups(cfg)
    if len(groups) == 1:
        results = [_run_group(*work, groups[0])]
    elif _FORK:
        with ProcessPoolExecutor(len(groups), multiprocessing.get_context("fork"),
                                 initializer=_publish, initargs=(work,)) as ex:
            results = list(ex.map(_run_published, groups))
    else:
        with ThreadPoolExecutor(len(groups)) as ex:
            results = list(ex.map(functools.partial(_run_group, *work), groups))

    dropped = sum(d for d, _ in results)
    if dropped > _MAX_DROP_FRACTION * cfg.samples:
        raise EnsembleRunError(
            f"{dropped}/{cfg.samples} orbits escaped the domain"
        )
    S, sup, sgn, cps = (np.concatenate(col)
                        for col in zip(*(arrays for _, arrays in results)))
    occ = ((n + sgn) * 0.5) / n
    return EnsembleRun(S, sup, occ, cps, cp, n, dropped)


@dataclass
class GreenKuboResult:
    sigma2: float
    residual: float  # ||h - (I - P) f||_2 of the Poisson solve

    @property
    def sigma(self) -> float:
        return float(np.sqrt(max(self.sigma2, 0.0)))

    def to_json(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "sigma": self.sigma,
            "residual": self.residual,
        }


def sigma_green_kubo(imap: IntervalMap, nu: MeasureDensity,
                     h: GridFunction) -> GreenKuboResult:
    """sigma^2 = int h^2 dnu + 2 sum_k <P^k h, h> = <h, 2f - h>, where
    (I - P) f = h is solved to residual POISSON_TOL * ||h||_2."""
    op = _backend_for(imap, nu, h)
    f, residual = solve_poisson(op, h.values)
    sigma2 = _dot(h.values * (2.0 * f - h.values), nu.masses)
    return GreenKuboResult(sigma2, residual)


def sigma_variance_growth(imap: IntervalMap, h: Callable, n_list: Sequence[int],
                          cfg: EnsembleConfig) -> List[tuple]:
    """Sample-L2 norms of S_n / sqrt(n) along an increasing n schedule in
    [1, cfg.n]."""
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise PreconditionError("n_list must be strictly increasing")
    return run_ensemble(imap, h, cfg, checkpoints=n_list).variance_growth()


@dataclass
class PathEnsemble:
    times: np.ndarray
    sup: np.ndarray
    terminal: np.ndarray
    occupation: np.ndarray
    n: int = 0
    m: int = 0
    sigma: float = 1.0

    @classmethod
    def from_run(cls, run: EnsembleRun, sigma: float, m: int) -> "PathEnsemble":
        """Functionals of ``run`` rescaled by sigma sqrt(n)."""
        scale = 1.0 / (sigma * np.sqrt(run.n))
        return cls(
            times=np.arange(m + 1) / m,
            sup=run.sup * scale,
            terminal=run.S * scale,
            occupation=run.occupation,
            n=run.n,
            m=m,
            sigma=sigma,
        )

    def functionals_csv(self) -> str:
        rows = zip(self.sup.tolist(), self.terminal.tolist(),
                   self.occupation.tolist())
        return "sample_index,sup,terminal,occupation\n" + "".join(
            f"{i},{s!r},{t!r},{o!r}\n" for i, (s, t, o) in enumerate(rows)
        )
