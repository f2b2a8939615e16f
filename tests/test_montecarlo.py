"""Seeded samplers against their closed-form and exact references."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import hierstat.montecarlo as montecarlo
from hierstat import (
    GibbsParams,
    HierarchySpec,
    OccupancyLevel,
    ValidationError,
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
    _initial_occupancy,
    _run_position_chain,
)

L3 = HierarchySpec(((1, 3.0), (3, 2.0), (10, 1.0)))
DEEP = HierarchySpec(tuple((2 ** k, 0.5 * (8 - k)) for k in range(8)))
S17 = HierarchySpec(tuple((1 + k, 17.0 - k) for k in range(17)))
BIG = HierarchySpec(((10, 4.0), (100, 3.0), (1000, 2.0), (5000, 1.0)))
ONE = HierarchySpec(((7, 2.0),))


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
    spec = HierarchySpec(tuple((2 ** k, 0.5 * (8 - k)) for k in range(8)))
    run = simulate_canonical(spec, 100, 0.7, 20_000, 5)
    digest = hashlib.sha256(run.occupancies.tobytes() + run.energies.tobytes())
    assert digest.hexdigest() \
        == "c7c4eff2f7fb671ef0d8560bdfeacfd9b13e7bcc718a93ee92136740a773852a"


def test_many_level_history_moves_one_agent_per_step():
    # 17 levels: a move from level 16 or 17 has a code beyond one byte
    spec = HierarchySpec(tuple((1 + k, 17.0 - k) for k in range(17)))
    run = simulate_canonical(spec, 60, 0.3, 5_000, 1)
    occ = run.occupancies.astype(np.int64)
    assert set(np.abs(np.diff(occ, axis=0)).sum(axis=1).tolist()) == {0, 2}
    assert np.any(np.diff(occ[:, 15:], axis=0) < 0)
    assert np.all(occ.sum(axis=1) == 60)
    assert np.allclose(run.energies, -(occ @ spec.salaries), rtol=1e-14)


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


@pytest.mark.parametrize("name", ["L3", "DEEP", "S17", "ONE", "BIG", "UNIT"])
def test_step_loop_matches_linear_scan(name):
    # UNIT's moves cross only empty or full levels, whose boundaries share
    # ranks in the loop's rank lists
    spec = {"L3": L3, "DEEP": DEEP, "S17": S17, "ONE": ONE, "BIG": BIG, "UNIT": UNIT}[name]
    total = spec.total_positions
    cases = [(agents, beta, seed, 1_500)
             for agents in sorted({0, 1, total // 2, total - 1, total})
             for beta in (1.0, 0.0, -0.5, 50.0) for seed in (0, 1)]
    if name == "DEEP":
        cases.append((127, 0.65, 2, 20_000))  # the benchmark's 8-level chain
    picks = []
    for agents, beta, seed, steps in cases:
        got, want = [], []
        for out, loop, extra in ((got, _run_position_chain, {}),
                                 (want, _linear_scan_chain, {"picks": picks})):
            rng = np.random.default_rng(seed)
            r0 = _initial_occupancy(spec, agents, rng)
            out.extend(loop(spec, beta, r0, steps, rng, **extra))
        got.insert(1, _energies(spec, got[0]))
        assert np.array_equal(got[0], want[0]), (agents, beta, seed)
        assert got[1].tobytes() == want[1].tobytes(), (agents, beta, seed)
        assert got[2:] == want[2:], (agents, beta, seed)
    # every branch of the loop that the spec allows was taken: one level
    # has only same-level picks, and capacity-1 levels none
    expected = {"ONE": {"same level"}, "UNIT": _BRANCHES - {"same level"}}.get(name, _BRANCHES)
    assert {_branch(*pick) for pick in picks} == expected


class _FixedDraws:
    """Stands in for a Generator: ``random`` hands out the given streams in turn."""

    def __init__(self, *streams):
        self.streams = list(streams)

    def random(self, size):
        return np.array(self.streams.pop(0), dtype=float)


def test_step_loop_ties_match_linear_scan():
    # exact products land on running counts, an empty first level included;
    # u = 1.0 reaches the total, where the scan falls back to the last level
    for r0 in ([0, 2, 6], [0, 2, 4]):
        for u in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0):
            got, want = (list(loop(L3, 1.0, r0, 1, _FixedDraws([u], [u], [0.0])))
                         for loop in (_run_position_chain, _linear_scan_chain))
            got.insert(1, _energies(L3, got[0]))
            assert np.array_equal(got[0], want[0]), (r0, u)
            assert got[1].tobytes() == want[1].tobytes() and got[2:] == want[2:], (r0, u)


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


# --- memory ---------------------------------------------------------------------

@pytest.mark.parametrize("spec, agents, beta", [(L3, 8, 1.0), (DEEP, 127, 0.65)],
                         ids=["golden", "DEEP"])
def test_canonical_peak_memory_is_about_its_outputs(spec, agents, beta):
    # the chain holds no per-step temporary beyond the arrays it returns:
    # streams of about 10 bytes a step, listed a block at a time, and no
    # copy of the history in the reductions
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


def _chain_bytes():
    """Every output array of a 20 003-step chain and a pumped run, as bytes."""
    run = simulate_canonical(DEEP, 100, 0.7, 20_003, 5, burn_in_fraction=0.3)
    laser = pumped_relaxation(LASER_SPEC, 9, 2.0, 0.5, 5_001, 7_003, 4)
    arrays = (run.recorded_steps, run.occupancies, run.energies, run.mean_occupancy,
              run.stderr, laser.recorded_steps, laser.occupancies, laser.energies,
              laser.phases, laser.relax_mean_occupancy, laser.relax_stderr)
    return b"".join(a.tobytes() for a in arrays) + run.acceptance_rate.hex().encode()


def test_outputs_do_not_depend_on_the_block(monkeypatch):
    want = _chain_bytes()
    for block in (1, 7, montecarlo._BLOCK):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        assert _chain_bytes() == want, block
