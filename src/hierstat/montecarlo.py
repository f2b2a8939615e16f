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
from .hierarchy import HierarchySpec

__all__ = [
    "GrandCanonicalSample",
    "CanonicalRun",
    "LaserRun",
    "PHASE_NAMES",
    "sample_grand_canonical",
    "pumped_relaxation",
    "simulate_canonical",
    "social_laser_scenario",
]

PHASE_NAMES = ("equilibrate", "pump", "relax")


def _batch_stderr(x: np.ndarray, nbatches: int = 32) -> float:
    """Standard error of the mean by batch means (autocorrelation safe)."""
    n = x.size
    if n < 4:
        return float(np.std(x) / math.sqrt(max(n, 1)))
    nb = min(nbatches, n // 2)
    m = n // nb
    bm = x[:nb * m].reshape(nb, m).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(nb))


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
    out = np.empty(steps, dtype=np.int64)
    for i in range(steps):
        if ups[i]:
            if r < d and us[i] < accept_up:
                r += 1
        else:
            if r > 0 and us[i] < accept_dn:
                r -= 1
        out[i] = r

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

    Returns (occupancy history, energy history, accepted count, final r).
    """
    caps = spec.capacities.tolist()
    sals = spec.salaries.tolist()
    n_levels = len(caps)
    total = sum(caps)
    agents = sum(r)
    vacant = total - agents

    hist = np.empty((steps, n_levels), dtype=np.int32)
    energies = np.empty(steps)
    if steps == 0:
        return hist, energies, 0, list(r)

    u_src = rng.random(steps).tolist()
    u_tgt = rng.random(steps).tolist()
    u_acc = rng.random(steps).tolist()

    r = list(r)
    accepted = 0
    frozen = agents == 0 or vacant == 0
    for i in range(steps):
        if not frozen:
            t = u_src[i] * agents
            cum = 0.0
            src = n_levels - 1
            for j in range(n_levels):
                cum += r[j]
                if t < cum:
                    src = j
                    break
            t = u_tgt[i] * vacant
            cum = 0.0
            tgt = n_levels - 1
            for j in range(n_levels):
                cum += caps[j] - r[j]
                if t < cum:
                    tgt = j
                    break
            d_energy = sals[src] - sals[tgt]
            if d_energy <= 0.0 or u_acc[i] < math.exp(-beta * d_energy):
                accepted += 1
                if src != tgt:
                    r[src] -= 1
                    r[tgt] += 1
        hist[i] = r
        energies[i] = -sum(s * k for s, k in zip(sals, r))
    return hist, energies, accepted, r


def _check_chain_args(spec, agents, beta, seed, record_every, problems):
    """(agents, beta, seed, record_every) checked for both hierarchy
    chains; violations go to ``problems``."""
    total = spec.total_positions if isinstance(spec, HierarchySpec) else None
    if total is None:
        problems.append("spec must be a HierarchySpec")
    return (check_int(agents, "agents", problems, 0, total),
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
    hist, energies, accepted, _ = _run_position_chain(spec, beta, r0, steps, rng)
    burn = int(steps * burn_in_fraction)
    kept = hist[burn:].astype(float)
    means = kept.mean(axis=0)
    errs = np.array([_batch_stderr(kept[:, j]) for j in range(kept.shape[1])])
    idx = np.arange(0, steps, record_every)
    return CanonicalRun(
        recorded_steps=idx, occupancies=hist[idx], energies=energies[idx],
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


def social_laser_scenario(spec: HierarchySpec, beta: float,
                          pump_fraction: float, steps: int, seed: int, *,
                          record_every: int = 1) -> LaserRun:
    """Equilibrate, force a population inversion, then watch the collapse.

    The pump moves round(pump_fraction * agents) agents, drawn from the
    lowest level indices that still hold anyone, into vacancies at the
    highest level indices (the lowest salaries).  A zero fraction is a
    plain equilibrium run; this is a demonstration scenario, not a
    quantitative estimator.  The agent count defaults to half the
    positions, and both phases run ``steps`` moves; use
    :func:`pumped_relaxation` to choose them.
    """
    return pumped_relaxation(spec, spec.total_positions // 2, beta,
                             pump_fraction, steps, steps, seed,
                             record_every=record_every)


def pumped_relaxation(spec: HierarchySpec, agents: int, beta: float,
                      pump_fraction: float, equilibration_steps: int,
                      relax_steps: int, seed: int, *,
                      record_every: int = 1) -> LaserRun:
    """Like :func:`social_laser_scenario` but with an explicit agent count
    and phase lengths (``relax_steps`` >= 1, ``equilibration_steps`` >= 0)."""
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
    sals = spec.salaries.tolist()

    r = _initial_occupancy(spec, agents, rng)
    hist_eq, en_eq, _, r = _run_position_chain(spec, beta, r, equilibration_steps, rng)

    # population inversion: drain top-salary levels into bottom vacancies
    moves = int(round(pump_fraction * agents))
    pump_rows = []
    pump_energies = []
    done = 0
    while done < moves:
        src = next((j for j in range(len(caps)) if r[j] > 0), None)
        tgt = next((j for j in reversed(range(len(caps))) if r[j] < caps[j]), None)
        if src is None or tgt is None or tgt <= src:
            break
        r[src] -= 1
        r[tgt] += 1
        done += 1
        pump_rows.append(list(r))
        pump_energies.append(-sum(s * k for s, k in zip(sals, r)))

    hist_rx, en_rx, _, r = _run_position_chain(spec, beta, r, relax_steps, rng)

    idx_eq = np.arange(0, hist_eq.shape[0], record_every)
    idx_rx = np.arange(0, hist_rx.shape[0], record_every)
    n_pump = len(pump_rows)
    occ = np.concatenate([
        hist_eq[idx_eq],
        np.array(pump_rows, dtype=np.int32).reshape(n_pump, len(caps)),
        hist_rx[idx_rx],
    ])
    energies = np.concatenate([en_eq[idx_eq], np.array(pump_energies),
                               en_rx[idx_rx]])
    steps_eq = idx_eq
    steps_pump = np.full(n_pump, hist_eq.shape[0])
    steps_rx = hist_eq.shape[0] + idx_rx
    recorded = np.concatenate([steps_eq, steps_pump, steps_rx])
    phases = np.concatenate([
        np.zeros(idx_eq.size, dtype=np.int8),
        np.ones(n_pump, dtype=np.int8),
        np.full(idx_rx.size, 2, dtype=np.int8),
    ])

    tail = hist_rx[hist_rx.shape[0] // 2:].astype(float)
    relax_err = np.array([_batch_stderr(tail[:, j]) for j in range(tail.shape[1])])
    return LaserRun(recorded_steps=recorded, occupancies=occ,
                    energies=energies, phases=phases, pumped_moves=done,
                    relax_mean_occupancy=tail.mean(axis=0), relax_stderr=relax_err,
                    seed=seed, beta=beta, agents=agents,
                    pump_fraction=pump_fraction)
