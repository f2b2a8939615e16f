"""Seeded Markov-chain samplers for the occupancy models.

Two kernels, one per counting convention:

* the grand-canonical sampler walks the occupation number of a single
  level with +-1 proposals and acceptance min(1, e^{lambda dr}), so its
  stationary law is the bare Gibbs weight e^{lambda r} and its mean
  converges to the closed-form mean occupation; whether a step is taken
  does not depend on r short of the walls, so the walk is the clipped sum
  r <- min(d, max(0, r + x_i)), run as a prefix scan of clip maps;
* the fixed-agent-count dynamics moves one agent from a uniformly
  random occupied position to a uniformly random vacant position with
  acceptance min(1, e^{-beta dE}) for either sign of beta: at beta > 0
  salary-raising moves are always taken and salary-cutting ones survive
  with Boltzmann probability, at beta < 0 the roles swap, and the
  stationary law is exactly the position-count measure of
  :func:`hierstat.hierarchy.exact_canonical`.

All randomness flows through ``numpy.random.default_rng`` (PCG64, a
documented and portable generator); every result carries its seed, and
the proposal streams are pre-drawn whole and walked a block of steps at a
time, so identical seeds give bit-identical outputs regardless of the path
taken or the block size.  Every sampler reduces its kept states to means
and standard errors through one function, ``_estimates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError, check_int, check_real
from .gentile import GibbsParams, OccupancyLevel, activity
from .hierarchy import HierarchySpec, _check_agents

__all__ = [
    "GrandCanonicalSample",
    "CanonicalRun",
    "LaserRun",
    "PHASE_NAMES",
    "sample_grand_canonical",
    "pumped_relaxation",
    "simulate_canonical",
]

PHASE_NAMES = ("equilibrate", "pump", "relax")
_BLOCK = 2 ** 14  # steps of streams the chain loop lists at a time; rows of _energies


def _estimates(history: np.ndarray):
    """Per-column means and standard errors of a one-row-per-step history, one
    column per level.  From four rows on the errors are of 32 batch means
    (autocorrelation safe), from int64 sums over each batch's transposed copy,
    exact below 2**53 and so the doubles a float copy's sums give; below four
    rows they are the plain standard deviation over the root of the row count."""
    n = len(history)
    if n < 4:
        return history.mean(axis=0), history.std(axis=0) / math.sqrt(n)
    nb = min(32, n // 2)
    m = n // nb
    # (levels, batches), C-contiguous: std sums a contiguous axis pairwise, a strided one not
    sums = np.stack([np.ascontiguousarray(history[b * m:(b + 1) * m].T).sum(axis=1, dtype=np.int64)
                     for b in range(nb)], axis=1)
    total = sums.sum(axis=1) + history[nb * m:].sum(axis=0, dtype=np.int64)
    return total / n, (sums / m).std(axis=1, ddof=1) / math.sqrt(nb)


def _energies(spec: HierarchySpec, occupancies: np.ndarray) -> np.ndarray:
    """Energy -sum_j salary_j * k_j of each occupancy row, added level by level
    from 0 as a per-row -sum(s * k) adds: the trajectory pins depend on that
    order.  A block of rows at a time, so each float temporary is one block."""
    energy = np.zeros(len(occupancies))
    for a in range(0, len(occupancies), _BLOCK):
        for s, k in zip(spec.salaries.tolist(), occupancies[a:a + _BLOCK].T):
            energy[a:a + _BLOCK] += s * k
    return np.negative(energy, out=energy)


def _clipped_walk(x: np.ndarray, d: int, r: int) -> np.ndarray:
    """The int64 states of r <- min(d, max(0, r + x_i)) over the steps x, from r.

    A step is the map r -> min(h, max(l, r + a)) at (a, l, h) = (x_i, 0, d), and
    g after f is (a_f + a_g, clip(l_f + a_g, l_g, h_g), clip(h_f + a_g, l_g, h_g)).
    Blocks of 64 steps take a Hillis-Steele scan of these maps, r is carried
    through the block ends, and each block's prefix maps take its start."""
    steps = x.size
    # a dtype that holds l + a and h + a, from -64 to d + 64
    a = np.zeros((-(-steps // 64), 64), dtype=np.min_scalar_type(-d - 65))
    a.ravel()[:steps] = x
    lo = np.zeros_like(a)
    hi = np.full_like(a, d)
    for s in (1, 2, 4, 8, 16, 32):
        a_g, lo_g, hi_g = a[:, s:], lo[:, s:], hi[:, s:]
        lo_gf = np.minimum(np.maximum(lo[:, :-s] + a_g, lo_g), hi_g)
        hi_gf = np.minimum(np.maximum(hi[:, :-s] + a_g, lo_g), hi_g)
        a_g += a[:, :-s]
        lo_g[...], hi_g[...] = lo_gf, hi_gf
    starts = []
    for a_b, lo_b, hi_b in zip(a[:, -1].tolist(), lo[:, -1].tolist(), hi[:, -1].tolist()):
        starts.append(r)
        r = min(hi_b, max(lo_b, r + a_b))
    a += np.array(starts, dtype=a.dtype)[:, None]
    np.maximum(a, lo, out=a)
    np.minimum(a, hi, out=a)
    return a.ravel()[:steps].astype(np.int64)


@dataclass(frozen=True)
class GrandCanonicalSample:
    """Chain output for one level: kept samples, empirical law and moments."""

    samples: np.ndarray
    probabilities: np.ndarray
    mean: float
    stderr: float
    steps: int
    burn_in: int
    seed: int


def sample_grand_canonical(level: OccupancyLevel, params: GibbsParams,
                           steps: int, seed: int, *,
                           burn_in_fraction: float = 0.1) -> GrandCanonicalSample:
    """Sample the occupation number of one level at its activity.

    Proposals move r by one; a proposal outside [0, d] leaves the chain
    in place (symmetric proposal with rejection at the walls).  The steps
    x_i in {-1, 0, 1}, the moves that pass the acceptance test, are drawn
    first, and the chain is their clipped walk r <- min(d, max(0, r + x_i)).
    The first ``burn_in_fraction`` of the chain is discarded; the mean and
    its standard error are ``_estimates`` of the kept int64 states as a
    one-column history.
    """
    problems = []
    steps = check_int(steps, "steps", problems, 10_000)
    seed = check_int(seed, "seed", problems, 0)
    burn_in_fraction = check_real(burn_in_fraction, "burn_in_fraction", problems,
                                  0, 1, open_high=True)
    if problems:
        raise ValidationError(problems)
    lam = activity(level, params)
    d = level.capacity

    rng = np.random.default_rng(seed)
    up = rng.integers(0, 2, size=steps) == 1
    u = rng.random(steps)
    x = np.zeros(steps, dtype=np.int8)
    x[up & (u < (1.0 if lam >= 0.0 else math.exp(lam)))] = 1
    x[~up & (u < (1.0 if lam <= 0.0 else math.exp(-lam)))] = -1
    out = _clipped_walk(x, d, d // 2)

    burn = int(steps * burn_in_fraction)
    kept = out[burn:]
    (mean,), (stderr,) = _estimates(kept[:, None])
    return GrandCanonicalSample(
        samples=kept, probabilities=np.bincount(kept, minlength=d + 1) / kept.size,
        mean=float(mean), stderr=float(stderr), steps=steps, burn_in=burn, seed=seed)


def _initial_occupancy(spec: HierarchySpec, agents: int,
                       rng: np.random.Generator) -> list:
    """Uniformly random set of occupied positions, as level counts."""
    caps = spec.capacities
    chosen = rng.permutation(spec.total_positions)[:agents]
    level_of = np.searchsorted(np.cumsum(caps), chosen, side="right")
    return np.bincount(level_of, minlength=len(caps)).tolist()


def _run_position_chain(spec: HierarchySpec, beta: float, r: list,
                        steps: int, rng: np.random.Generator):
    """Position-swap Metropolis for ``steps`` moves from state ``r``.

    Returns (int32 occupancy history, one row per step; accepted count; final r).
    """
    caps = spec.capacities.tolist()
    sals = spec.salaries.tolist()
    n_levels = len(caps)
    agents = sum(r)
    vacant = sum(caps) - agents

    # agents and vacant stay fixed: one numpy product per stream, same bits as
    # u * agents; its floor is the rank of the picked agent (vacancy), in the
    # smallest type that holds agents (vacant), where a product can round up
    # to; the loop lists the streams one block of steps at a time
    k_src = (rng.random(steps) * agents).astype(np.min_scalar_type(agents))
    k_tgt = (rng.random(steps) * vacant).astype(np.min_scalar_type(vacant))
    u_acc = rng.random(steps)

    # acceptance min(1, e^{-beta * cut}) of src -> tgt at code src * n_levels
    # + tgt, certain (u < 1.0) where beta * cut <= 0, so exp never overflows;
    # the loop records code + 1 per move (0: none) through a memoryview,
    # cheaper than a numpy item store, and the histories are rebuilt from the
    # codes afterwards
    accept = [1.0 if beta * (s_src - s_tgt) <= 0.0
              else math.exp(-beta * (s_src - s_tgt))
              for s_src in sals for s_tgt in sals]
    codes = np.zeros(steps, dtype=np.min_scalar_type(n_levels ** 2))
    record = memoryview(codes)
    # occ[j] / vac[j]: agents / vacancies in levels 0..j.  held[k] / free[k]:
    # the level of the rank-k agent / vacancy in level order, the first j
    # with k < occ[j] (k < vac[j]), where a running-sum scan stops; each
    # list ends with the last level at rank agents / vacant, the scan's
    # fallback for a product that rounds up to the total.  A move src -> tgt
    # shifts occ and vac by one at each j between them, and only the ranks
    # at those boundaries change level.  An empty (full) level makes two
    # boundaries share a rank, so the writes run in the order that leaves
    # the scan's answer there: held with j ascending and free with j
    # descending when src < tgt, the reverse when src > tgt.  spans[code]
    # pairs the two orders, as (j, j + 1, k) when src < tgt and (j, k, k + 1)
    # when src > tgt, held written at j and free at k.
    spans = [tuple(zip(range(src, tgt), range(src + 1, tgt + 1), range(tgt - 1, src - 1, -1)))
             if src < tgt else
             tuple(zip(range(src - 1, tgt - 1, -1), range(tgt, src), range(tgt + 1, src + 1)))
             for src in range(n_levels) for tgt in range(n_levels)]
    last = n_levels - 1
    held = [j for j in range(n_levels) for _ in range(r[j])] + [last]
    free = [j for j in range(n_levels) for _ in range(caps[j] - r[j])] + [last]
    occ = np.cumsum(r).tolist()
    vac = (np.cumsum(caps) - occ).tolist()
    # a same-level pick moves nothing and is always taken (u < 1.0); a move
    # between adjacent levels is the span loops below written out for one j
    accepted = rejected = 0
    if agents and vacant:
        i = -1
        for ks, kt, u in chain.from_iterable(
                zip(k_src[a:a + _BLOCK].tolist(), k_tgt[a:a + _BLOCK].tolist(),
                    u_acc[a:a + _BLOCK].tolist()) for a in range(0, steps, _BLOCK)):
            i += 1
            src = held[ks]
            tgt = free[kt]
            if src == tgt:
                continue
            code = src * n_levels + tgt
            if u >= accept[code]:
                rejected += 1
                continue
            record[i] = code + 1
            if src < tgt:
                if tgt - src == 1:
                    occ[src] -= 1
                    held[occ[src]] = tgt
                    free[vac[src]] = src
                    vac[src] += 1
                    continue
                for j, j1, k in spans[code]:
                    occ[j] -= 1
                    held[occ[j]] = j1
                    free[vac[k]] = k
                    vac[k] += 1
            elif src - tgt == 1:
                held[occ[tgt]] = tgt
                occ[tgt] += 1
                vac[tgt] -= 1
                free[vac[tgt]] = src
            else:
                for j, k, k1 in spans[code]:
                    held[occ[j]] = j
                    occ[j] += 1
                    vac[k] -= 1
                    free[vac[k]] = k1
        accepted = steps - rejected

    del k_src, k_tgt, u_acc  # about 10 bytes a step; free them before the history
    # row 0 starts from r, each move adds -1/+1, one cumulative sum does the rest
    hist = np.zeros((steps, n_levels), dtype=np.int32)
    hist[:1] = r
    moved = np.flatnonzero(codes)
    src, tgt = np.divmod(codes[moved] - 1, n_levels)
    hist[moved, src] -= 1
    hist[moved, tgt] += 1
    np.cumsum(hist, axis=0, out=hist)
    return hist, accepted, np.diff(occ, prepend=0).tolist()


def _check_chain_args(spec, agents, beta, seed, record_every, problems):
    """(agents, beta, seed, record_every) checked for both hierarchy
    chains; violations go to ``problems``."""
    return (_check_agents(spec, agents, problems),
            check_real(beta, "beta", problems),
            check_int(seed, "seed", problems, 0),
            check_int(record_every, "record_every", problems, 1))


@dataclass(frozen=True)
class CanonicalRun:
    """Fixed-agent-count trajectory plus stationary estimates.

    ``recorded_steps``/``occupancies``/``energies`` are the thinned
    trajectory; the estimates use every post-burn-in step.
    """

    recorded_steps: np.ndarray
    occupancies: np.ndarray
    energies: np.ndarray
    mean_occupancy: np.ndarray
    stderr: np.ndarray
    acceptance_rate: float
    steps: int
    burn_in: int
    seed: int
    beta: float
    agents: int


def simulate_canonical(spec: HierarchySpec, agents: int, beta: float,
                       steps: int, seed: int, *,
                       burn_in_fraction: float = 0.1,
                       record_every: int = 1) -> CanonicalRun:
    """Position-swap Metropolis dynamics of a hierarchy at fixed agent count."""
    problems = []
    agents, beta, seed, record_every = _check_chain_args(spec, agents, beta, seed,
                                                         record_every, problems)
    steps = check_int(steps, "steps", problems, 1)
    burn_in_fraction = check_real(burn_in_fraction, "burn_in_fraction", problems,
                                  0, 1, open_high=True)
    if problems:
        raise ValidationError(problems)
    rng = np.random.default_rng(seed)
    r0 = _initial_occupancy(spec, agents, rng)
    hist, accepted, _ = _run_position_chain(spec, beta, r0, steps, rng)
    burn = int(steps * burn_in_fraction)
    means, errs = _estimates(hist[burn:])
    idx = np.arange(0, steps, record_every)
    occ = np.ascontiguousarray(hist[::record_every])
    return CanonicalRun(
        recorded_steps=idx, occupancies=occ, energies=_energies(spec, occ),
        mean_occupancy=means, stderr=errs,
        acceptance_rate=accepted / steps, steps=steps, burn_in=burn,
        seed=seed, beta=beta, agents=agents)


@dataclass(frozen=True)
class LaserRun:
    """Pump-and-release trajectory: equilibrate, invert, relax.

    ``phases`` holds an index into :data:`PHASE_NAMES` per recorded row.
    The relax-phase estimates use the second half of that phase.
    """

    recorded_steps: np.ndarray
    occupancies: np.ndarray
    energies: np.ndarray
    phases: np.ndarray
    pumped_moves: int
    relax_mean_occupancy: np.ndarray
    relax_stderr: np.ndarray
    seed: int
    beta: float
    agents: int
    pump_fraction: float


def pumped_relaxation(spec: HierarchySpec, agents: int, beta: float,
                      pump_fraction: float, equilibration_steps: int,
                      relax_steps: int, seed: int, *,
                      record_every: int = 1) -> LaserRun:
    """Equilibrate, force a population inversion, then watch the collapse.

    The chain equilibrates for ``equilibration_steps`` (>= 0) moves.  The
    pump then moves round(pump_fraction * agents) agents, drawn from the
    lowest level indices that still hold anyone, into vacancies at the
    highest level indices (the lowest salaries), and the chain relaxes for
    ``relax_steps`` (>= 1) moves.  A zero fraction is a plain equilibrium
    run; this is a demonstration scenario, not a quantitative estimator.
    """
    problems = []
    agents, beta, seed, record_every = _check_chain_args(spec, agents, beta, seed,
                                                         record_every, problems)
    equilibration_steps = check_int(equilibration_steps, "equilibration_steps",
                                    problems, 0)
    relax_steps = check_int(relax_steps, "relax_steps", problems, 1)
    pump_fraction = check_real(pump_fraction, "pump_fraction", problems, 0, 1)
    if problems:
        raise ValidationError(problems)
    rng = np.random.default_rng(seed)
    caps = spec.capacities.tolist()

    r = _initial_occupancy(spec, agents, rng)
    hist_eq, _, r = _run_position_chain(spec, beta, r, equilibration_steps, rng)

    # population inversion: drain top-salary levels into bottom vacancies
    pump_rows = []
    for _ in range(round(pump_fraction * agents)):
        src = next((j for j in range(len(caps)) if r[j] > 0), None)
        tgt = next((j for j in reversed(range(len(caps))) if r[j] < caps[j]), None)
        if src is None or tgt is None or tgt <= src:
            break
        r[src] -= 1
        r[tgt] += 1
        pump_rows.append(list(r))

    hist_rx, _, _ = _run_position_chain(spec, beta, r, relax_steps, rng)

    idx_eq = np.arange(0, equilibration_steps, record_every)
    idx_rx = np.arange(0, relax_steps, record_every)
    n_pump = len(pump_rows)
    pumped = np.array(pump_rows, dtype=np.int32).reshape(n_pump, len(caps))
    occ = np.concatenate([hist_eq[::record_every], pumped, hist_rx[::record_every]])
    recorded = np.concatenate([idx_eq, np.full(n_pump, equilibration_steps),
                               equilibration_steps + idx_rx])
    phases = np.repeat(np.arange(len(PHASE_NAMES), dtype=np.int8),
                       (idx_eq.size, n_pump, idx_rx.size))
    means, errs = _estimates(hist_rx[relax_steps // 2:])
    return LaserRun(recorded_steps=recorded, occupancies=occ,
                    energies=_energies(spec, occ), phases=phases, pumped_moves=n_pump,
                    relax_mean_occupancy=means, relax_stderr=errs,
                    seed=seed, beta=beta, agents=agents,
                    pump_fraction=pump_fraction)
