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
the proposal streams are pre-drawn whole, made a block of steps at a time
into integer ranks of about 3 bytes a step, and walked through memoryviews.
The fixed-agent-count chain walks them on its level counts, which are
themselves a Markov chain: where that chain's transition table is small
against the step count, one list lookup a step on the table, elsewhere a
step loop on lists of the picked ranks' levels.  Both walks take ranks
below their totals, record the move codes the history (end state
included) is rebuilt from and return the refusal count; identical seeds
give bit-identical outputs whatever the walk, the path or the block size.
Every sampler reduces its kept states to means and standard errors through
one function, ``_estimates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, check_real, checked
from .gentile import _VECTOR_MAX_CAPACITY, GibbsParams, OccupancyLevel, activity
from .hierarchy import _INT64_MAX, HierarchySpec, _check_agents

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
_BLOCK = 2 ** 14  # steps of the chain's numpy passes at a time; rows of _energies


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
    one-column history.  The level's capacity must be at most
    ``gentile._VECTOR_MAX_CAPACITY`` = 10**7: ``probabilities`` holds d + 1
    doubles (80 MB at the bound), and past int64 the walk has no integer dtype.
    """
    problems = []
    steps = check_int(steps, "steps", problems, 10_000, _INT64_MAX)
    seed = check_int(seed, "seed", problems, 0)
    burn_in_fraction = check_real(burn_in_fraction, "burn_in_fraction", problems,
                                  0, 1, open_high=True)
    if problems:
        raise ValidationError(problems)
    lam = activity(level, params)
    d = checked(check_int, level.capacity, "capacity", 1, _VECTOR_MAX_CAPACITY)

    rng = np.random.default_rng(seed)
    up = rng.integers(0, 2, size=steps) == 1
    u = rng.random(steps)
    # x = [taken up] - [taken down], the bools' bytes read as int8 0 / 1,
    # by an int8 negate and add: _clipped_walk adds in int8 too, where an
    # int8 subtract would map 64 KB more of numpy's code and raise the
    # process's peak RSS
    x = (up & (u < (1.0 if lam >= 0.0 else math.exp(lam)))).view(np.int8)
    down = (~up & (u < (1.0 if lam <= 0.0 else math.exp(-lam)))).view(np.int8)
    x += np.negative(down, out=down)
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


def _ranked_draws(spec: HierarchySpec, beta: float, agents: int, vacant: int,
                  steps: int, rng: np.random.Generator):
    """The chain's three proposal streams, made into integer ranks.

    Returns (codes, zeroed, one per step; k_src; k_tgt; q_acc; need): the
    ranks of the picked agent, the picked vacancy and the acceptance draw,
    and need[code], the least acceptance rank that refuses move ``code``.
    A pick rank is the floor of u * n for a draw u of ``rng.random`` and the
    total n; u <= 1 - 2**-53, and fl(u * n) < n for every such u and integer
    n >= 1, so every rank is below its total.
    """
    sals = spec.salaries.tolist()
    n_levels = len(sals)
    # agents and vacant stay fixed: one numpy product per stream, same bits as
    # u * agents; its floor is the rank of the picked agent (vacancy), in the
    # smallest type that holds agents (vacant).  Each stream is scaled in
    # place and freed before the next draw: the expression rng.random(steps)
    # * agents leaves about 0.5 MB more resident after its first call.  The
    # move codes the walk records outlive the streams, so they are allocated
    # first: the streams' blocks then free next to each other, into room the
    # history can take.
    codes = np.zeros(steps, dtype=np.min_scalar_type(n_levels ** 2))
    x = rng.random(steps)
    x *= agents
    k_src = x.astype(np.min_scalar_type(agents))
    del x
    x = rng.random(steps)
    x *= vacant
    k_tgt = x.astype(np.min_scalar_type(vacant))
    del x

    # acceptance min(1, e^{-beta * cut}) of src -> tgt at code src * n_levels
    # + tgt, certain (u < 1.0) where beta * cut <= 0, so exp never overflows.
    # The walks compare integer ranks: q, the number of distinct acceptance
    # values <= u, reaches need[code], the number <= accept[code], exactly
    # when u >= accept[code]; numpy makes the same float comparisons once, a
    # block at a time.  The top value is 1.0 (a same-level pick), which no
    # u < 1.0 reaches, so q is the number of passes u >= v it meets over the
    # values below it, counted in at least int16 (an int8 or uint8 add maps
    # 64 KB more of numpy's code into a `hierstat simulate` process) and
    # stored in the smallest type that holds the count of values.
    accept = [1.0 if beta * (s_src - s_tgt) <= 0.0
              else math.exp(-beta * (s_src - s_tgt))
              for s_src in sals for s_tgt in sals]
    levels = sorted(set(accept))  # np.unique would import numpy.ma, about 0.5 MB
    need = np.searchsorted(levels, accept, side="right").tolist()
    u = rng.random(steps)
    q_acc = np.empty(steps, dtype=np.min_scalar_type(len(levels)))
    count_type = np.promote_types(np.int16, q_acc.dtype)
    for a in range(0, steps, _BLOCK):
        counts = np.zeros(min(_BLOCK, steps - a), dtype=count_type)
        for v in levels[:-1]:
            counts += u[a:a + _BLOCK] >= v
        q_acc[a:a + _BLOCK] = counts
        del counts
    del u
    return codes, k_src, k_tgt, q_acc, need


def _walk_loop(caps: list, r: list, k_src, k_tgt, q_acc, need: list, codes):
    """The chain's moves, one step at a time, on lists of the picked ranks' levels.

    Stores code + 1 of each taken move in ``codes`` (0: none) and returns
    the number of refused moves.  Needs at least one agent and one vacancy.
    """
    n_levels = len(caps)
    # the loop records through a memoryview, cheaper than a numpy item store
    record = memoryview(codes)
    # occ[j] / vac[j]: agents / vacancies in levels 0..j.  held[k] / free[k]:
    # the level of the rank-k agent / vacancy in level order, the first j
    # with k < occ[j] (k < vac[j]), where a running-sum scan stops.  A move
    # src -> tgt shifts occ and vac by one at each j between them, and only
    # the ranks at those boundaries change level.  An empty (full) level
    # makes two boundaries share a rank, so the writes run in the order that
    # leaves the scan's answer there: held with j ascending and free with j
    # descending when src < tgt, the reverse when src > tgt.  spans[code]
    # pairs the two orders, as (j, j + 1, k) when src < tgt and (j, k, k + 1)
    # when src > tgt, held written at j and free at k.
    spans = [tuple(zip(range(src, tgt), range(src + 1, tgt + 1), range(tgt - 1, src - 1, -1)))
             if src < tgt else
             tuple(zip(range(src - 1, tgt - 1, -1), range(tgt, src), range(tgt + 1, src + 1)))
             for src in range(n_levels) for tgt in range(n_levels)]
    held = [j for j in range(n_levels) for _ in range(r[j])]
    free = [j for j in range(n_levels) for _ in range(caps[j] - r[j])]
    occ = np.cumsum(r).tolist()
    vac = (np.cumsum(caps) - occ).tolist()
    # a same-level pick moves nothing and is always taken (u < 1.0, so q
    # stays below the need of 1.0); a move between adjacent levels is the
    # span loops below written out for one j.  The streams are walked
    # through memoryviews, which yield Python ints without listing them
    rejected = 0
    i = -1
    for ks, kt, q in zip(memoryview(k_src), memoryview(k_tgt), memoryview(q_acc)):
        i += 1
        src = held[ks]
        tgt = free[kt]
        if src == tgt:
            continue
        code = src * n_levels + tgt
        if q >= need[code]:
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
    return rejected


def _lumped_states(caps: list, agents: int, most: int):
    """Every level-count vector with ``agents`` agents, 0 <= r_j <= caps[j], in
    lexicographic order, or None once a level has more than ``most`` prefixes.
    A prefix stays only if the levels after it can hold the agents it leaves,
    so no level has more prefixes than there are vectors."""
    states = [()]
    room = sum(caps)
    for c in caps:
        room -= c
        states = [st + (k,) for st in states
                  for k in range(max(0, agents - sum(st) - room), min(c, agents - sum(st)) + 1)]
        if len(states) > most:
            return None
    return states


def _walk_table(caps: list, r: list, k_src, k_tgt, q_acc, need: list, codes, states: list):
    """The chain's moves as a walk on the lumped chain's transition table.

    The level counts alone are a Markov chain (Kemeny and Snell, *Finite
    Markov Chains*, 1960, ch. 6), and a step's next counts depend only on the
    counts, the two pick ranks and the acceptance rank.  So a list holds, at
    entry s + x with x = (k_src * vacant + k_tgt) * Q + q, the offset s' of
    the next counts, and one lookup a step walks it; a gather on the entries
    walked then fills ``codes``.  Takes and returns what ``_walk_loop`` does,
    and ``states``, the ``_lumped_states`` of its counts; an entry's picks are
    the levels of its ranks in level order, as in the loop's rank lists.
    """
    n_levels = len(caps)
    agents = sum(r)
    vacant = sum(caps) - agents
    n_q = max(need)  # the need of 1.0, the top acceptance value
    stride = agents * vacant * n_q
    counts = np.array(states)
    level = np.tile(np.arange(n_levels), len(states))
    held = np.repeat(level, counts.ravel()).reshape(len(states), agents, 1)
    free = np.repeat(level, (np.array(caps) - counts).ravel()).reshape(len(states), 1, vacant)
    code = held * n_levels + free
    # dest[i, code]: the state that move `code` leads to from state i, found
    # by a search of the big-endian rows, whose byte order is the states'
    # order; no pick makes a move from an empty or into a full level, so
    # what such a move finds is never read
    eye = np.eye(n_levels, dtype=np.int64)
    move = (eye - eye[:, None]).reshape(-1, n_levels)  # row code: -1 at src, +1 at tgt
    row = np.dtype((np.void, 8 * n_levels))
    dest = np.searchsorted(counts.astype(">i8").view(row).ravel(),
                           (counts[:, None] + move).astype(">i8").view(row)[..., 0])
    taken = np.arange(n_q) < np.array(need)[code][..., None]
    # a taken move goes to its destination, a refused one stays
    to = np.take_along_axis(dest, code.reshape(len(states), -1), 1).reshape(code.shape)
    nxt = np.where(taken, to[..., None], np.arange(len(states))[:, None, None, None])
    nxt = (nxt * stride).ravel().tolist()
    # a same-level pick records its code too, as its move-table row is zero,
    # so a 0 in ``codes`` marks exactly a refusal
    record = np.where(taken, code[..., None] + 1, 0).astype(codes.dtype).ravel()
    del counts, level, held, free, code, dest, taken, to

    # x's type holds vacant, Q and every x, and is at least 16 bits: a uint8
    # multiply or add maps 64 KB more of numpy's code into a `hierstat
    # simulate` process
    x_type = np.promote_types(np.uint16, np.min_scalar_type(stride))
    entry_type = np.min_scalar_type(len(nxt))
    s = states.index(tuple(r)) * stride
    for a in range(0, len(codes), _BLOCK):
        x = k_src[a:a + _BLOCK].astype(x_type)
        x *= vacant
        x += k_tgt[a:a + _BLOCK]
        x *= n_q
        x += q_acc[a:a + _BLOCK]
        path = np.empty(len(x) + 1, dtype=entry_type)  # the offsets before and after each step
        path[0] = s
        path[1:] = [s := nxt[s + step] for step in memoryview(x)]
        entry = path[:-1]
        entry += x
        codes[a:a + _BLOCK] = record[entry]
    return len(codes) - int(np.count_nonzero(codes))


def _history(codes: np.ndarray, r: list) -> np.ndarray:
    """The int32 occupancy history, one row per step, of the moves ``codes``
    from ``r``: row code + 1 of the move table is the move's change, -1 at src
    and +1 at tgt (row 0: none); row 0 of the history adds r, and one
    cumulative sum does the rest."""
    n_levels = len(r)
    eye = np.eye(n_levels, dtype=np.int32)
    delta = np.concatenate((np.zeros_like(eye[:1]), (eye - eye[:, None]).reshape(-1, n_levels)))
    hist = delta[codes]
    if len(hist):
        hist[0] += r
    np.cumsum(hist, axis=0, out=hist)
    return hist


def _run_position_chain(spec: HierarchySpec, beta: float, r: list,
                        steps: int, rng: np.random.Generator):
    """Position-swap Metropolis for ``steps`` moves from state ``r``.

    Returns (int32 occupancy history, one row per step; accepted count).
    """
    caps = spec.capacities.tolist()
    agents = sum(r)
    vacant = sum(caps) - agents
    codes, k_src, k_tgt, q_acc, need = _ranked_draws(spec, beta, agents, vacant, steps, rng)
    rejected = steps  # no move without an agent and a vacancy
    if agents and vacant:
        # The table walk takes about 50-60 ns a step on the golden spec
        # against the loop's 120-150, and its table about 30 ns an entry to
        # build past a fixed 0.1-0.2 ms (shared 2-core VM).  A bigger
        # table's lookups are slower too, so over the specs (1, 3, c) at
        # 120,000 steps the walks break even between steps // 4 and
        # steps // 2 entries; steps // 8 stays a factor of two or more below
        # that.  The states are enumerated only while they fit that bound.
        limit = steps // 8
        stride = agents * vacant * max(need)
        states = stride <= limit and _lumped_states(caps, agents, limit // stride)
        rejected = (_walk_table(caps, r, k_src, k_tgt, q_acc, need, codes, states) if states
                    else _walk_loop(caps, r, k_src, k_tgt, q_acc, need, codes))
    del k_src, k_tgt, q_acc  # about 3 bytes a step; free them before the history
    return _history(codes, r), steps - rejected


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
    steps = check_int(steps, "steps", problems, 1, _INT64_MAX)
    burn_in_fraction = check_real(burn_in_fraction, "burn_in_fraction", problems,
                                  0, 1, open_high=True)
    if problems:
        raise ValidationError(problems)
    rng = np.random.default_rng(seed)
    r0 = _initial_occupancy(spec, agents, rng)
    hist, accepted = _run_position_chain(spec, beta, r0, steps, rng)
    burn = int(steps * burn_in_fraction)
    means, errs = _estimates(hist[burn:])
    # when record_every > 1 the full history is dropped before _energies;
    # recorded_steps is built last
    occ = np.ascontiguousarray(hist[::record_every])
    del hist
    energies = _energies(spec, occ)
    return CanonicalRun(
        recorded_steps=np.arange(0, steps, record_every), occupancies=occ, energies=energies,
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
                                    problems, 0, _INT64_MAX)
    relax_steps = check_int(relax_steps, "relax_steps", problems, 1, _INT64_MAX)
    pump_fraction = check_real(pump_fraction, "pump_fraction", problems, 0, 1)
    if problems:
        raise ValidationError(problems)
    rng = np.random.default_rng(seed)
    caps = spec.capacities.tolist()

    r = _initial_occupancy(spec, agents, rng)
    hist_eq = _run_position_chain(spec, beta, r, equilibration_steps, rng)[0]
    r = hist_eq[-1].tolist() if equilibration_steps else r

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

    hist_rx = _run_position_chain(spec, beta, r, relax_steps, rng)[0]

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
