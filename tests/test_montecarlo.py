"""Seeded samplers against their closed-form and exact references."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (BIG, DEEP, L3, ONE, S17, S23, S24, birth_death_chain, lumped_chain,
                      poisson_variance, spy)

import hierstat.montecarlo as montecarlo
from hierstat import (
    GibbsParams,
    HierarchySpec,
    OccupancyLevel,
    ValidationError,
    activity,
    exact_canonical,
    pumped_relaxation,
    sample_grand_canonical,
    simulate_canonical,
)
from hierstat.gentile import gentile_mean
from hierstat.montecarlo import (
    _clipped_walk,
    _energies,
    _estimates,
    _history,
    _initial_occupancy,
    _lumped_states,
    _ranked_draws,
    _run_position_chain,
    _walk_loop,
    _walk_table,
)

class UNIT:
    """Twelve capacity-1 levels, salaries 12..1, so every level is empty or
    full.  A HierarchySpec needs growing capacities; the step loop reads
    only these three attributes."""

    capacities = np.ones(12, dtype=int)
    salaries = np.arange(12.0, 0.0, -1.0)
    total_positions = 12


# --- grand-canonical sampler --------------------------------------------------

def test_capacity_one_balanced_point():
    # at zero activity the chain emits iid fair coin flips
    level = OccupancyLevel(1, 2.0)
    params = GibbsParams(-2.0, 1.0)
    s = sample_grand_canonical(level, params, 100_000, 11)
    n = s.samples.size
    sigma = math.sqrt(0.25 / n)
    assert abs(s.probabilities[1] - 0.5) <= 3 * sigma


def test_mean_matches_closed_form_over_seeds():
    level = OccupancyLevel(3, 2.0)
    params = GibbsParams(-3.0, 1.0)  # activity -1
    exact = gentile_mean(-1.0, 3)
    for seed in range(5):
        s = sample_grand_canonical(level, params, 100_000, seed)
        assert abs(s.mean - exact) <= 3 * s.stderr


def test_sampler_deterministic():
    level = OccupancyLevel(5, 1.0)
    params = GibbsParams(-2.0, 1.5)
    a = sample_grand_canonical(level, params, 20_000, 123)
    b = sample_grand_canonical(level, params, 20_000, 123)
    assert np.array_equal(a.samples, b.samples)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_sampler_step_floor():
    with pytest.raises(ValidationError):
        sample_grand_canonical(OccupancyLevel(3, 1.0), GibbsParams(0.0, 1.0),
                               9_999, 0)


def test_sampler_error_scales_like_inverse_root_steps():
    level = OccupancyLevel(3, 2.0)
    params = GibbsParams(-3.0, 1.0)
    exact = gentile_mean(-1.0, 3)
    rms = []
    for steps in (20_000, 320_000):
        errs = [sample_grand_canonical(level, params, steps, s).mean - exact
                for s in range(10)]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    ratio = rms[0] / rms[1]
    # 16x the steps should shrink the error about 4x
    assert 2.5 <= ratio <= 8.0



# Recorded on the per-step loop that the clipped-walk scan replaced: d = 1,
# 10 and 1000, an activity above zero (alpha 0.5 at salary 2), and a chain
# of 100_003 steps, not a multiple of the scan's 64-step blocks.
@pytest.mark.parametrize("d, alpha, steps, seed, digest", [
    (1, -2.0, 20_000, 11, "4386b329288e6df7935765e7433892a619c850f17841348c63fffd09121c4269"),
    (10, -3.0, 50_000, 4, "f2e0eb249ee5bb2437364a145b7e5d0430226669415d6b90ff758641a4038a68"),
    (1000, -2.5, 60_000, 7, "aa00b1f17cac72387389a9fdc7140f7aa1808d185670a2b7c36e394a3bc419d7"),
    (10, 0.5, 40_000, 2, "05f718f0fcfcb50eb453bebac4aea0a42dcfb63c19190efb8192e68f15a7fbf3"),
    (7, -2.2, 100_003, 5, "0b0b8376e55696729eb4d06481206310b8333c5d8d08caa5d88c187e59b176a7"),
])
def test_sampler_bits_pinned(d, alpha, steps, seed, digest):
    s = sample_grand_canonical(OccupancyLevel(d, 2.0), GibbsParams(alpha, 1.0), steps, seed)
    assert s.samples.dtype == np.int64
    got = hashlib.sha256(s.samples.tobytes() + s.probabilities.tobytes())
    got.update(f"{s.mean!r} {s.stderr!r}".encode())
    assert got.hexdigest() == digest


def _batch_stderr(x):
    """Reference: standard error of the mean of a float series by 32 batch means,
    or the plain standard deviation over the root of the count below four."""
    n = x.size
    if n < 4:
        return float(np.std(x) / math.sqrt(max(n, 1)))
    nb = min(32, n // 2)
    m = n // nb
    bm = x[:nb * m].reshape(nb, m).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(nb))


@pytest.mark.parametrize("kept", [1, 2, 3, 4, 5])
def test_sampler_few_kept_samples_match_float_reference(kept):
    # burn-in fractions that keep one to five of 10_000 steps reach both
    # branches of the reduction: plain errors below four, batch means from four
    s = sample_grand_canonical(OccupancyLevel(6, 2.0), GibbsParams(-1.7, 1.0), 10_000, kept,
                               burn_in_fraction=(10_000 - kept) / 10_000)
    assert s.samples.size == kept
    ref = s.samples.astype(float)
    assert repr(s.mean) == repr(float(ref.mean()))
    assert repr(s.stderr) == repr(_batch_stderr(ref))


def _clip_loop(x, d, r):
    """Reference walk: r <- min(d, max(0, r + x_i)), one Python step at a time."""
    out = []
    for step in x.tolist():
        r = min(d, max(0, r + step))
        out.append(r)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("d", [1, 2, 3, 64, 10 ** 6])
def test_clipped_walk_matches_step_loop(d):
    rng = np.random.default_rng(d)
    for steps in (1, 63, 64, 65, 1000):
        for r in sorted({0, d // 2, d}):
            # a drift to each wall, none, and a block-long push past each
            # wall, where the scan's sums reach d + 64 and -64
            for p in ((0.6, 0.2, 0.2), (0.2, 0.2, 0.6), (1 / 3, 1 / 3, 1 / 3),
                      (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
                x = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=steps, p=p)
                got = _clipped_walk(x, d, r)
                assert got.dtype == np.int64
                assert np.array_equal(got, _clip_loop(x, d, r)), (steps, r, p)

# --- canonical dynamics ---------------------------------------------------------

def test_canonical_matches_exact_reference():
    exact = exact_canonical(L3, 8, 1.0)
    for seed in range(5):
        run = simulate_canonical(L3, 8, 1.0, 120_000, seed)
        for m, e, s in zip(run.mean_occupancy, exact.mean_occupancy, run.stderr):
            assert abs(m - e) <= 3 * s


def test_canonical_beta_zero_is_hypergeometric():
    hyper = 8 * L3.capacities / L3.total_positions
    for seed in range(5):
        run = simulate_canonical(L3, 8, 0.0, 100_000, seed)
        for m, e, s in zip(run.mean_occupancy, hyper, run.stderr):
            assert abs(m - e) <= 3 * s


def test_canonical_short_run_has_plain_stderr():
    # fewer than four kept steps make no batches: the standard error is the
    # plain standard deviation over the root of the step count
    run = simulate_canonical(L3, 8, 1.0, 3, 0)
    assert run.burn_in == 0 and run.occupancies.shape == (3, 3)
    kept = run.occupancies.astype(float)
    assert run.mean_occupancy.tolist() == kept.mean(axis=0).tolist()
    assert run.stderr.tolist() == [float(np.std(col) / math.sqrt(3)) for col in kept.T]



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 20_001])
def test_estimates_match_float_history(n):
    # integer sums against the float copy, mean and per-column batch errors
    rng = np.random.default_rng(n)
    history = rng.integers(0, 5001, size=(n, 6)).astype(np.int32)
    history[:, 0] = 3  # a constant level has zero error
    kept = history.astype(float)
    means, errs = _estimates(history)
    assert means.tobytes() == kept.mean(axis=0).tobytes()
    assert errs.tobytes() == np.array([_batch_stderr(col) for col in kept.T]).tobytes()


# Recorded on the float-copy estimates, on the pinned DEEP and S17 chains
# and the pinned pumped run below.
@pytest.mark.parametrize("name, digest", [
    ("DEEP", "b49f921eaafa744fde5288725ee74291cdb896be18d1494808adc49264ed7654"),
    ("S17", "73a66e39880d1168680789a49f5348636db549d0f9fa0030a68bf79fa371466c"),
    ("laser", "5e30539905481616a9d83fc6d5015d9583315fa0ebfcd46cbbf4860c44f924e7"),
])
def test_chain_estimates_bits_pinned(name, digest):
    if name == "laser":
        run = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 3_000, 3_000, 4)
        means, errs = run.relax_mean_occupancy, run.relax_stderr
    else:
        spec, agents, beta, steps, seed = {"DEEP": (DEEP, 100, 0.7, 20_000, 5),
                                           "S17": (S17, 70, 0.6, 4_000, 3)}[name]
        run = simulate_canonical(spec, agents, beta, steps, seed)
        means, errs = run.mean_occupancy, run.stderr
    assert hashlib.sha256(means.tobytes() + errs.tobytes()).hexdigest() == digest

def test_canonical_conserves_agents():
    run = simulate_canonical(L3, 8, 1.0, 20_000, 4)
    assert np.all(run.occupancies.sum(axis=1) == 8)
    assert np.all(run.occupancies >= 0)
    assert np.all(run.occupancies <= L3.capacities)


def test_canonical_deterministic():
    a = simulate_canonical(L3, 8, 1.0, 30_000, 9, record_every=10)
    b = simulate_canonical(L3, 8, 1.0, 30_000, 9, record_every=10)
    assert np.array_equal(a.occupancies, b.occupancies)
    assert np.array_equal(a.energies, b.energies)
    assert a.mean_occupancy.tolist() == b.mean_occupancy.tolist()


def test_canonical_cold_chain_sits_at_greedy_minimum():
    run = simulate_canonical(L3, 8, 50.0, 40_000, 2)
    tail = run.occupancies[-1000:]
    assert np.all(tail == np.array([1, 3, 4]))
    kept = run.energies[run.recorded_steps >= run.burn_in]
    assert np.all(np.diff(kept) <= 1e-12)


def test_canonical_full_history_bits_pinned():
    run = simulate_canonical(DEEP, 100, 0.7, 20_000, 5)
    digest = hashlib.sha256(run.occupancies.tobytes() + run.energies.tobytes())
    assert digest.hexdigest() \
        == "c7c4eff2f7fb671ef0d8560bdfeacfd9b13e7bcc718a93ee92136740a773852a"


def test_many_level_history_moves_one_agent_per_step():
    # 17 levels: a move from level 16 or 17 has a code beyond one byte
    run = simulate_canonical(S17, 60, 0.3, 5_000, 1)
    occ = run.occupancies.astype(np.int64)
    assert set(np.abs(np.diff(occ, axis=0)).sum(axis=1).tolist()) == {0, 2}
    assert np.any(np.diff(occ[:, 15:], axis=0) < 0)
    assert np.all(occ.sum(axis=1) == 60)
    assert np.allclose(run.energies, -(occ @ S17.salaries), rtol=1e-14)


# Recorded before the step loop picked levels by bisection, as is the pumped
# run below; 17 levels take move codes above one byte.
def test_many_level_full_history_bits_pinned():
    run = simulate_canonical(S17, 70, 0.6, 4_000, 3, record_every=1)
    digest = hashlib.sha256(run.occupancies.tobytes() + run.energies.tobytes())
    digest.update(run.acceptance_rate.hex().encode())
    assert digest.hexdigest() \
        == "3f7d7b06bddd0ce3c406a2bcf1c754c61955cd9224ba3c37564656113a75fc0e"


def _scan(counts, t):
    """First level whose running count exceeds t, else the last level."""
    cum = 0.0
    for j, k in enumerate(counts):
        cum += k
        if t < cum:
            return j
    return len(counts) - 1


def _linear_scan_chain(spec, beta, r, steps, rng, picks=None):
    """Reference step loop: a running-sum scan per pick, one row per step.

    ``picks``, when given, receives (src, tgt, taken) for every step that
    picks an agent and a vacancy."""
    caps = spec.capacities.tolist()
    sals = spec.salaries.tolist()
    agents = sum(r)
    vacant = sum(caps) - agents
    u_src = rng.random(steps).tolist()
    u_tgt = rng.random(steps).tolist()
    u_acc = rng.random(steps).tolist()
    r = list(r)
    rows, energies, accepted = [], [], 0
    for i in range(steps):
        if agents and vacant:
            src = _scan(r, u_src[i] * agents)
            tgt = _scan([c - k for c, k in zip(caps, r)], u_tgt[i] * vacant)
            cut = sals[src] - sals[tgt]
            taken = u_acc[i] < (1.0 if beta * cut <= 0.0 else math.exp(-beta * cut))
            if picks is not None:
                picks.append((src, tgt, taken))
            if taken:
                accepted += 1
                r[src] -= 1
                r[tgt] += 1
        rows.append(list(r))
        energies.append(-sum(s * k for s, k in zip(sals, r)))
    return np.array(rows, dtype=np.int32), np.array(energies), accepted, r


def _branch(src, tgt, taken):
    """The branch of the step loop that a reference pick goes through."""
    if src == tgt:
        return "same level"
    if not taken:
        return "rejected"
    return ("adjacent " if abs(tgt - src) == 1 else "multi-level ") \
        + ("down" if src < tgt else "up")


_BRANCHES = {"same level", "rejected", "adjacent down", "adjacent up",
             "multi-level down", "multi-level up"}


def _walk_chain(walk):
    """``_run_position_chain`` with its walk fixed: the same draws and
    history around ``walk``, for a state with an agent and a vacancy; the
    table walk gets every lumped state."""
    def chain(spec, beta, r, steps, rng):
        caps = spec.capacities.tolist()
        agents = sum(r)
        codes, k_src, k_tgt, q_acc, need = _ranked_draws(spec, beta, agents, sum(caps) - agents,
                                                         steps, rng)
        args = (caps, r, k_src, k_tgt, q_acc, need, codes)
        if walk is _walk_table:
            args += (_lumped_states(caps, agents, math.inf),)
        rejected = walk(*args)
        return _history(codes, r), steps - rejected
    return chain


def _assert_same_run(spec, got, want, *context):
    """A chain's (history, accepted) against ``_linear_scan_chain``'s (rows,
    energies, accepted, end state); the end state is the history's last row."""
    hist, accepted = got
    assert np.array_equal(hist, want[0]), context
    assert _energies(spec, hist).tobytes() == want[1].tobytes(), context
    assert accepted == want[2] and hist[-1].tolist() == want[3], context


def _table_entries(spec, agents, beta):
    """Entries of the lumped chain's transition table: level-count vectors x
    agent ranks x vacancy ranks x acceptance ranks; None above 2**17."""
    caps = spec.capacities.tolist()
    vacant = sum(caps) - agents
    need = _ranked_draws(spec, beta, agents, vacant, 0, np.random.default_rng(0))[-1]
    stride = agents * vacant * max(need)
    states = _lumped_states(caps, agents, 2 ** 17 // stride)
    return None if states is None else len(states) * stride


@pytest.mark.parametrize("name", ["L3", "DEEP", "S17", "S23", "S24", "ONE", "BIG", "UNIT"])
def test_step_loop_matches_linear_scan(name):
    # UNIT's moves cross only empty or full levels, whose boundaries share
    # ranks in the loop's rank lists.  Each case runs the chain as it picks
    # its walk, and each walk on its own: the loop on every case with an
    # agent and a vacancy, the table on those whose table has at most 2**17
    # entries.  That is every spec at 1 and total - 1 agents, except S23 and
    # S24 (254 and 277 acceptance values) away from beta = 0, and half full
    # only L3, ONE and, at beta = 0, UNIT
    spec = {"L3": L3, "DEEP": DEEP, "S17": S17, "S23": S23, "S24": S24, "ONE": ONE, "BIG": BIG,
            "UNIT": UNIT}[name]
    total = spec.total_positions
    cases = [(agents, beta, seed, 1_500)
             for agents in sorted({0, 1, total // 2, total - 1, total})
             for beta in (1.0, 0.0, -0.5, 50.0) for seed in (0, 1)]
    if name == "DEEP":
        cases.append((127, 0.65, 2, 20_000))  # the benchmark's 8-level chain
    picks = []
    tables = 0
    for agents, beta, seed, steps in cases:
        rng = np.random.default_rng(seed)
        want = _linear_scan_chain(spec, beta, _initial_occupancy(spec, agents, rng), steps, rng,
                                  picks)
        chains = [_run_position_chain]
        if 0 < agents < total:
            chains.append(_walk_chain(_walk_loop))
            if _table_entries(spec, agents, beta) is not None:
                chains.append(_walk_chain(_walk_table))
                tables += 1
        for chain in chains:
            rng = np.random.default_rng(seed)
            got = chain(spec, beta, _initial_occupancy(spec, agents, rng), steps, rng)
            _assert_same_run(spec, got, want, chain, agents, beta, seed)
    assert tables == {"S23": 4, "S24": 4, "L3": 24, "ONE": 24, "UNIT": 18}.get(name, 16)
    # every branch of the loop that the spec allows was taken: one level
    # has only same-level picks, and capacity-1 levels none
    expected = {"ONE": {"same level"}, "UNIT": _BRANCHES - {"same level"}}.get(name, _BRANCHES)
    assert {_branch(*pick) for pick in picks} == expected


def test_walk_is_chosen_by_the_table_size(monkeypatch):
    # the golden spec's table: 8 level-count vectors x 8 agent ranks x 6
    # vacancy ranks x 3 acceptance ranks, walked from 8 entries a step on;
    # DEEP's at the benchmark's 127 agents would have 1.3e12.  The states
    # are enumerated only while they fit the bound
    assert len(_lumped_states([1, 3, 10], 8, 8)) == 8
    assert _lumped_states([1, 3, 10], 8, 7) is None
    assert _table_entries(L3, 8, 1.0) == 1_152
    loops = spy(monkeypatch, "_walk_loop", montecarlo)
    tables = spy(monkeypatch, "_walk_table", montecarlo)
    walked = []  # the calls of each walk so far, after each chain
    for spec, agents, beta, steps in ((L3, 8, 1.0, 8 * 1_152 - 1), (L3, 8, 1.0, 8 * 1_152),
                                      (DEEP, 127, 0.65, 120_000)):
        rng = np.random.default_rng(7)
        _run_position_chain(spec, beta, _initial_occupancy(spec, agents, rng), steps, rng)
        walked.append((len(loops), len(tables)))
    assert walked == [(1, 0), (1, 1), (2, 1)]


def test_lumped_chain_is_exact_on_the_golden_spec():
    # conftest.lumped_chain's law pi is stationary and in detailed balance.
    # Bounds, set before the run: each row sums to 1 within 1e-15, |pi P - pi|
    # and |pi_r P(r, r') - pi_r' P(r', r)| are within 1e-15, and pi's level
    # means equal exact_canonical's within 1e-14 (read: 2.2e-16, 5.6e-17,
    # 6.9e-18 and 8.9e-16)
    states, p, pi = lumped_chain(L3, 8, 1.0)
    assert len(states) == 8
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.abs(pi @ p - pi).max() <= 1e-15
    flow = pi[:, None] * p
    assert np.abs(flow - flow.T).max() <= 1e-15
    means = pi @ np.array(states, dtype=float)
    exact = exact_canonical(L3, 8, 1.0).mean_occupancy
    assert np.abs(means - exact).max() <= 1e-14


def test_poisson_error_bars_match_the_seeds_on_the_golden_spec():
    # sigma^2 of each level count by the Poisson equation (I - P + 1 pi) g =
    # f - pi f, sigma^2 = 2 pi[(f - pi f) g] - var, and tau_int = sigma^2 /
    # (2 var) (Sokal, Cargese lectures, 1996).  Bounds, set before the run:
    # sigma^2 and tau_int round to ROADMAP item 28's 0.957 / 4.91 / 5.78 and
    # 4.85 / 4.83 / 5.05; var + 2 sum_t cov(f, P^t f) over 400 lags equals
    # sigma^2 within 1e-12; over seeds 0..15 of 120k steps (108k kept), the
    # spread of the means is within [0.5, 1.6] of the predicted sd
    # sqrt(sigma^2 / 108k), a 99.8 % band for a chi-square with 15 degrees
    # of freedom, and the median batch stderr within [0.8, 1.25] of it (read:
    # spread 0.79 / 1.05 / 1.06, batch 1.05 / 1.05 / 1.02; about 0.25 s)
    states, p, pi = lumped_chain(L3, 8, 1.0)
    var, sigma2, summed = poisson_variance(p, pi, np.array(states, dtype=float))
    tau = sigma2 / (2.0 * var)
    assert np.all(np.abs(sigma2 - [0.957, 4.91, 5.78]) <= [5e-4, 5e-3, 5e-3]), sigma2
    assert np.abs(tau - [4.85, 4.83, 5.05]).max() <= 0.005, tau
    assert np.abs(summed / sigma2 - 1.0).max() <= 1e-12
    runs = [simulate_canonical(L3, 8, 1.0, 120_000, seed) for seed in range(16)]
    assert {run.steps - run.burn_in for run in runs} == {108_000}
    predicted = np.sqrt(sigma2 / 108_000)
    spread = np.std([run.mean_occupancy for run in runs], axis=0, ddof=1) / predicted
    batch = np.median([run.stderr for run in runs], axis=0) / predicted
    assert np.all((0.5 <= spread) & (spread <= 1.6)), spread
    assert np.all((0.8 <= batch) & (batch <= 1.25)), batch


def test_poisson_error_bars_match_the_seeds_of_the_grand_sampler():
    # the same for sample_grand_canonical, a birth-death chain on 0..d, at
    # d = 3 and lambda = alpha + beta * salary = -1.  Bounds, set before the
    # run: P is stochastic, and pi stationary and in detailed balance, within
    # 1e-15; pi's mean equals gentile_mean(-1, 3) within 1e-15; the mean,
    # sigma^2 and tau_int round to 0.50735, 4.006 and 3.249; 400 lagged
    # autocovariances sum to sigma^2 within 1e-12; over seeds 0..15 of 100k
    # steps (90k kept), the spread of the means is within [0.5, 1.6] of the
    # predicted sd sqrt(sigma^2 / 90k) and their median stderr within
    # [0.8, 1.25] of it (read: 0.76 and 0.98; about 0.06 s)
    level, params = OccupancyLevel(3, 2.0), GibbsParams(-3.0, 1.0)
    assert activity(level, params) == -1.0
    p, pi = birth_death_chain(3, -1.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.abs(pi @ p - pi).max() <= 1e-15
    flow = pi[:, None] * p
    assert np.abs(flow - flow.T).max() <= 1e-15
    r = np.arange(4.0)
    assert abs(pi @ r - gentile_mean(-1.0, 3)) <= 1e-15
    var, sigma2, summed = poisson_variance(p, pi, r)
    assert (round(pi @ r, 5), round(sigma2, 3), round(sigma2 / (2.0 * var), 3)) == \
        (0.50735, 4.006, 3.249)
    assert abs(summed / sigma2 - 1.0) <= 1e-12
    runs = [sample_grand_canonical(level, params, 100_000, seed) for seed in range(16)]
    assert {run.samples.size for run in runs} == {90_000}
    predicted = math.sqrt(sigma2 / 90_000)
    spread = np.std([run.mean for run in runs], ddof=1) / predicted
    batch = np.median([run.stderr for run in runs]) / predicted
    assert 0.5 <= spread <= 1.6, spread
    assert 0.8 <= batch <= 1.25, batch


class _FixedDraws:
    """Stands in for a Generator: ``random`` hands out the given streams in turn."""

    def __init__(self, *streams):
        self.streams = list(streams)

    def random(self, size):
        return np.array(self.streams.pop(0), dtype=float)


def test_step_loop_ties_match_linear_scan(monkeypatch):
    # exact products land on running counts, an empty first level included;
    # the largest draw, 1 - 2**-53, picks the last rank below the total.
    # Acceptance draws sit at 0.0, at the two values below 1.0 at beta = 1,
    # e^-1 and e^-2, and one ulp under each; from [1, 3, 0] every move is a
    # cut, of 2 from the top level and of 1 from the middle one
    top = np.nextafter(1.0, 0.0)
    cuts = (math.exp(-1.0), math.exp(-2.0))
    accepts = (0.0,) + cuts + tuple(math.nextafter(v, 0.0) for v in cuts)
    for r0 in ([0, 2, 6], [0, 2, 4], [1, 3, 0]):
        for u in (0.0, 0.125, 0.25, 0.5, 0.75, top):
            for u_acc in accepts:
                got, want = (loop(L3, 1.0, r0, 1, _FixedDraws([u], [u], [u_acc]))
                             for loop in (_run_position_chain, _linear_scan_chain))
                _assert_same_run(L3, got, want, r0, u, u_acc)
    # a chain long enough for the table whose pick streams hold the largest
    # draw, alone and at one step together: it takes the table
    loops = spy(monkeypatch, "_walk_loop", montecarlo)
    tables = spy(monkeypatch, "_walk_table", montecarlo)
    draws = np.random.default_rng(5).random((3, 8 * 1_152))
    draws[0, 100] = draws[1, 200] = top
    draws[:2, 300] = top
    got, want = (loop(L3, 1.0, [0, 2, 6], draws.shape[1], _FixedDraws(*draws))
                 for loop in (_run_position_chain, _linear_scan_chain))
    _assert_same_run(L3, got, want)
    assert (len(loops), len(tables)) == (0, 1)


def test_largest_draw_ranks_below_its_total():
    # every pick rank is below its total, which both walks rely on: the
    # largest draw of rng.random, 1 - 2**-53, gives rank n - 1, up to n =
    # 2**53, past which no chain could list its ranks
    top = np.nextafter(1.0, 0.0)
    for n in (1, 2, 3, 127, 128, 255, 256, 65_535, 65_536, 2 ** 31 - 1, 2 ** 53 - 1, 2 ** 53):
        _, k_src, k_tgt, _, _ = _ranked_draws(L3, 1.0, n, n, 1, _FixedDraws([top], [top], [top]))
        assert int(k_src[0]) == int(k_tgt[0]) == n - 1, n


def test_negative_beta_matches_exact():
    # beta < 0 favours salary cuts, and a raise is taken with probability
    # e^{-beta dE} < 1; bound stated before the seeds were run: |z| <= 4
    for beta in (-1.0, -0.4):
        exact = exact_canonical(L3, 8, beta).mean_occupancy
        for seed in (0, 1, 2):
            run = simulate_canonical(L3, 8, beta, 60_000, seed)
            z = (run.mean_occupancy - exact) / run.stderr
            assert np.all(np.abs(z) <= 4.0), (beta, seed, z)
            assert 0.0 < run.acceptance_rate < 1.0
    # at beta = -1000 e^{-beta dE} must not overflow: every raise is refused
    run = simulate_canonical(L3, 8, -1000.0, 100, 0)
    assert 0.0 < run.acceptance_rate < 1.0
    assert np.all(np.isfinite(run.energies))
    laser = pumped_relaxation(L3, 8, -1000.0, 0.5, 10, 10, 0)
    assert np.all(np.isfinite(laser.energies))


# --- pump and release -----------------------------------------------------------

LASER_SPEC = HierarchySpec(((2, 3.0), (5, 2.0), (12, 1.0)))


def test_laser_zero_pump_matches_plain_dynamics():
    run = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.0, 20_000, 20_000, 5)
    assert run.pumped_moves == 0
    exact = exact_canonical(LASER_SPEC, 9, 2.0)
    for m, e, s in zip(run.relax_mean_occupancy, exact.mean_occupancy,
                       run.relax_stderr):
        assert abs(m - e) <= 3 * s


def test_laser_pump_inverts_population():
    run = pumped_relaxation(LASER_SPEC, 9, 5.0, 0.7, 5_000, 5_000, 0)
    assert run.pumped_moves == round(0.7 * 9)
    pump_rows = run.occupancies[run.phases == 1]
    # after the last pump move the top-salary levels are drained
    assert pump_rows[-1][0] < run.occupancies[run.phases == 0][-1][0] \
        or pump_rows[-1][-1] > run.occupancies[run.phases == 0][-1][-1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laser_relaxation_energy_decreases(seed):
    # beta * salary gap = 5: upward moves are frozen out during the transient
    run = pumped_relaxation(LASER_SPEC, 9, 5.0, 0.7, 5_000, 5_000, seed)
    energies = run.energies[run.phases == 2]
    window = 100
    moving = np.convolve(energies, np.ones(window) / window, mode="valid")
    stationary = moving[-500:].mean()
    transient_end = int(np.argmax(moving <= stationary + 1e-9))
    assert transient_end > 5
    assert np.all(np.diff(moving[:transient_end]) <= 1e-9)
    assert moving[0] > stationary + 0.5


def test_laser_recovers_equilibrium_occupancy():
    # warm enough that every level keeps fluctuating, so the batch
    # standard errors stay meaningful
    exact = exact_canonical(LASER_SPEC, 9, 2.0)
    for seed in range(3):
        run = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.7, 8_000, 40_000, seed)
        for m, e, s in zip(run.relax_mean_occupancy, exact.mean_occupancy,
                           run.relax_stderr):
            assert abs(m - e) <= 3 * s


def test_laser_deterministic():
    a = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 4_000, 4_000, 3)
    b = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 4_000, 4_000, 3)
    assert np.array_equal(a.occupancies, b.occupancies)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.phases, b.phases)


# The relax phase starts from the final state the equilibration chain returns.
def test_pumped_relaxation_bits_pinned():
    run = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 3_000, 3_000, 4)
    digest = hashlib.sha256(run.occupancies.tobytes() + run.energies.tobytes()
                            + run.phases.tobytes())
    assert digest.hexdigest() \
        == "5016f6b5274f507806365bd095489651578dc2f8c5e5d827bdf3318aa3e6ad99"


def test_pump_fraction_validated():
    with pytest.raises(ValidationError):
        pumped_relaxation(LASER_SPEC, 9, 2.0, 1.5, 1_000, 1_000, 0)
    with pytest.raises(ValidationError):
        pumped_relaxation(LASER_SPEC, 9, 2.0, -0.1, 1_000, 1_000, 0)


_STEP_CALLS = {
    "canonical": (lambda n: simulate_canonical(L3, 8, 1.0, n, 0), "steps", 1),
    "grand": (lambda n: sample_grand_canonical(OccupancyLevel(3, 1.0), GibbsParams(0.0, 1.0),
                                               n, 0), "steps", 10_000),
    "pumped-equilibration": (lambda n: pumped_relaxation(L3, 8, 1.0, 0.5, n, 10, 0),
                             "equilibration_steps", 0),
    "pumped-relax": (lambda n: pumped_relaxation(L3, 8, 1.0, 0.5, 10, n, 0), "relax_steps", 1),
}


@pytest.mark.parametrize("steps", [2 ** 63, 2 ** 64])
@pytest.mark.parametrize("call", _STEP_CALLS)
def test_step_count_past_int64_is_refused(monkeypatch, call, steps):
    # a count past the int64 maximum is refused by name before any generator
    # or array is made, not numpy's bare "Maximum allowed dimension exceeded"
    run, name, low = _STEP_CALLS[call]
    made = spy(monkeypatch, "default_rng", np.random)
    with pytest.raises(ValidationError) as err:
        run(steps)
    assert str(err.value) == f"{name} must be an integer in [{low}, {2 ** 63 - 1}], got {steps}"
    assert made == []


# --- memory ---------------------------------------------------------------------

@pytest.mark.parametrize("spec, agents, beta", [(L3, 8, 1.0), (DEEP, 127, 0.65)],
                         ids=["golden", "DEEP"])
def test_canonical_peak_memory_is_about_its_outputs(spec, agents, beta):
    # the chain holds no per-step temporary beyond the arrays it returns:
    # one float stream at a time, rank streams of about 3 bytes a step,
    # walked through memoryviews, and no copy of the history in the
    # reductions.  The golden case walks the lumped-state table (1152
    # entries), DEEP the step loop
    simulate_canonical(spec, agents, beta, 1_000, 0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run = simulate_canonical(spec, agents, beta, 120_000, 3, record_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = run.occupancies.nbytes + run.energies.nbytes + run.recorded_steps.nbytes
    assert peak <= 1.25 * returned, peak / returned


@pytest.mark.parametrize("spec, agents, beta", [(L3, 8, 1.0), (DEEP, 127, 0.65)],
                         ids=["golden", "DEEP"])
def test_chain_peak_memory_is_about_its_history(spec, agents, beta):
    # bound stated before the run: 1.2 x the history's bytes (the floats of
    # the acceptance test made once into integer ranks, one float stream
    # alive at a time, the streams walked through memoryviews, the history
    # taken from a move table).  The golden case walks the lumped-state
    # table, a block of steps at a time, DEEP the step loop
    rng = np.random.default_rng(0)
    _run_position_chain(spec, beta, _initial_occupancy(spec, agents, rng), 1_000, rng)
    rng = np.random.default_rng(3)
    r0 = _initial_occupancy(spec, agents, rng)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        hist = _run_position_chain(spec, beta, r0, 120_000, rng)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * hist.nbytes, peak / hist.nbytes


def _chain_bytes():
    """Every output array of a 20 003-step chain, a 9217-step chain on the
    lumped-state table and two pumped runs, one of them with no
    equilibration steps, as bytes."""
    table = simulate_canonical(L3, 8, 1.0, 9_217, 6)
    run = simulate_canonical(DEEP, 100, 0.7, 20_003, 5, burn_in_fraction=0.3)
    lasers = (pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 5_001, 7_003, 4),
              pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 0, 7_003, 4))
    arrays = (run.recorded_steps, run.occupancies, run.energies, run.mean_occupancy,
              run.stderr) + tuple(
        a for laser in lasers
        for a in (laser.recorded_steps, laser.occupancies, laser.energies,
                  laser.phases, laser.relax_mean_occupancy, laser.relax_stderr))
    arrays += (table.occupancies, table.energies, table.mean_occupancy, table.stderr)
    return b"".join(a.tobytes() for a in arrays) + run.acceptance_rate.hex().encode() \
        + table.acceptance_rate.hex().encode()


def test_outputs_do_not_depend_on_the_block(monkeypatch):
    want = _chain_bytes()
    for block in (1, 7, montecarlo._BLOCK):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        assert _chain_bytes() == want, block
