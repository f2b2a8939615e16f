"""Seeded Markov-chain samplers for the occupancy models.

Two kernels, one per counting convention:

* the grand-canonical sampler walks the occupation number of a single
  level with +-1 proposals and acceptance min(1, e^{lambda dr}), so its
  stationary law is the bare Gibbs weight e^{lambda r} and its mean
  converges to the closed-form mean occupation;
* the fixed-agent-count dynamics moves one agent from a uniformly
  random occupied position to a uniformly random vacant position with
  acceptance min(1, e^{-beta dE}); salary-raising moves are therefore
  always taken, salary-cutting ones survive with Boltzmann probability,
  and the stationary law is exactly the position-count measure of
  :func:`hierstat.hierarchy.exact_canonical`.

All randomness flows through ``numpy.random.default_rng`` (PCG64, a
documented and portable generator); every result carries its seed, and
the proposal streams are pre-drawn so identical seeds give bit-identical
outputs regardless of the path taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _batch_stderr(x: np.ndarray) -> float:
    """Standard error of the mean by 32 batch means (autocorrelation safe)."""
    n = x.size
    if n < 4:
        return float(np.std(x) / math.sqrt(max(n, 1)))
    nb = min(32, n // 2)
    m = n // nb
    bm = x[:nb * m].reshape(nb, m).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(nb))


def _estimates(history: np.ndarray):
    """Per-level means and batch standard errors of a one-row-per-step history."""
    kept = history.astype(float)
    return kept.mean(axis=0), np.array([_batch_stderr(col) for col in kept.T])


def _energies(spec: HierarchySpec, occupancies: np.ndarray) -> np.ndarray:
    """Energy -sum_j salary_j * k_j of each occupancy row, added level by level
    from 0 as a per-row -sum(s * k) adds: the trajectory pins depend on that order."""
    return -sum(s * k for s, k in zip(spec.salaries.tolist(), occupancies.T))


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
    in place (symmetric proposal with rejection at the walls).  The
    first ``burn_in_fraction`` of the chain is discarded.
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
    ups = (rng.integers(0, 2, size=steps) == 1).tolist()
    us = rng.random(steps).tolist()
    accept_up = 1.0 if lam >= 0.0 else math.exp(lam)
    accept_dn = 1.0 if lam <= 0.0 else math.exp(-lam)

    r = d // 2
    moves = bytearray(steps)  # 1 = up, 255 = down (-1 as int8)
    for i in range(steps):
        if ups[i]:
            if r < d and us[i] < accept_up:
                r += 1
                moves[i] = 1
        elif r > 0 and us[i] < accept_dn:
            r -= 1
            moves[i] = 255
    out = np.cumsum(np.frombuffer(moves, dtype=np.int8), dtype=np.int64) + d // 2

    burn = int(steps * burn_in_fraction)
    kept = out[burn:]
    counts = np.bincount(kept, minlength=d + 1)
    pmf = counts / kept.size
    return GrandCanonicalSample(
        samples=kept, probabilities=pmf, mean=float(kept.mean()),
        stderr=_batch_stderr(kept.astype(float)), steps=steps,
        burn_in=burn, seed=seed)


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
    # u * agents; its floor is the rank of the picked agent (vacancy)
    k_src = (rng.random(steps) * agents).astype(np.intp).tolist()
    k_tgt = (rng.random(steps) * vacant).astype(np.intp).tolist()
    u_acc = rng.random(steps).tolist()

    # acceptance of src -> tgt at code src * n_levels + tgt: certain (u < 1.0)
    # unless the move cuts the salary at beta > 0; the loop records code + 1
    # per move (0: none) through a memoryview, cheaper than a numpy item
    # store, and the histories are rebuilt from the codes afterwards
    accept = [1.0 if s_src - s_tgt <= 0.0 or beta <= 0.0
              else math.exp(-beta * (s_src - s_tgt))
              for s_src in sals for s_tgt in sals]
    codes = np.zeros(steps, dtype=np.min_scalar_type(n_levels ** 2))
    record = memoryview(codes)
    hist = np.zeros((steps, n_levels), dtype=np.int32)
    hist[:1] = r
    # occ[j] / vac[j]: agents / vacancies in levels 0..j.  held[k] / free[k]:
    # the level of the rank-k agent / vacancy in level order, the first j
    # with k < occ[j] (k < vac[j]), where a running-sum scan stops; each
    # list ends with the last level at rank agents / vacant, the scan's
    # fallback for a product that rounds up to the total.  A move src -> tgt
    # shifts occ and vac by one at each j between them, and only the ranks
    # at those boundaries change level.  An empty (full) level makes two
    # boundaries share a rank, so the writes run in the order that leaves
    # the scan's answer there: held with j ascending and free with j
    # descending when src < tgt, the reverse when src > tgt.
    last = n_levels - 1
    held = [j for j in range(n_levels) for _ in range(r[j])] + [last]
    free = [j for j in range(n_levels) for _ in range(caps[j] - r[j])] + [last]
    occ = np.cumsum(r).tolist()
    vac = (np.cumsum(caps) - occ).tolist()
    accepted = 0
    if agents and vacant:
        for i in range(steps):
            src = held[k_src[i]]
            tgt = free[k_tgt[i]]
            code = src * n_levels + tgt
            if u_acc[i] < accept[code]:
                accepted += 1
                if src < tgt:
                    for j in range(src, tgt):
                        occ[j] -= 1
                        held[occ[j]] = j + 1
                    for j in range(tgt - 1, src - 1, -1):
                        free[vac[j]] = j
                        vac[j] += 1
                    record[i] = code + 1
                elif src > tgt:
                    for j in range(src - 1, tgt - 1, -1):
                        held[occ[j]] = j
                        occ[j] += 1
                    for j in range(tgt, src):
                        vac[j] -= 1
                        free[vac[j]] = j + 1
                    record[i] = code + 1

    del k_src, k_tgt, u_acc  # up to ~100 bytes a step; free them before the rebuild
    # row 0 starts from r, each move adds -1/+1, one cumulative sum does the rest
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
    occ = hist[idx]
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
    occ = np.concatenate([hist_eq[idx_eq], pumped, hist_rx[idx_rx]])
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
