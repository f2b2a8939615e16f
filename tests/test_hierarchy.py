"""Exact canonical reference, hierarchy types and census entropy."""

import hashlib
import json
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import brentq

from conftest import BIG, DEEP, L3, ONE, enumerate_position_measure, spy

from hierstat import hierarchy
from hierstat import (
    EnsembleCensus,
    GibbsParams,
    HierarchySpec,
    ValidationError,
    census_entropy,
    exact_canonical,
    gentile_census,
)
from hierstat.gentile import gentile_mean

GOLDEN = Path(__file__).parent / "data" / "golden_canonical_l3.json"


# --- spec ---------------------------------------------------------------------

def test_spec_orderings_enforced():
    with pytest.raises(ValidationError) as err:
        HierarchySpec(((3, 3.0), (3, 2.0)))
    assert any("d_1 < d_2" in v for v in err.value.violations)
    with pytest.raises(ValidationError) as err:
        HierarchySpec(((1, 1.0), (3, 2.0)))
    assert any("epsilon_1 > epsilon_2" in v for v in err.value.violations)
    # both violations reported together
    with pytest.raises(ValidationError) as err:
        HierarchySpec(((5, 1.0), (3, 2.0)))
    assert len(err.value.violations) == 2


# --- exact reference ------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.0, 0.7, 1.0, 5.0])
def test_dp_matches_enumeration(beta):
    ex = exact_canonical(L3, 8, beta)
    brute = enumerate_position_measure(L3.capacities, L3.salaries, 8, beta)
    assert ex.mean_occupancy == pytest.approx(brute, rel=1e-12)
    assert float(ex.mean_occupancy.sum()) == pytest.approx(8.0, abs=1e-9)


def test_dp_matches_position_subset_enumeration():
    # first-principles check: enumerate occupied position subsets directly
    spec = HierarchySpec(((1, 2.0), (2, 1.5), (4, 1.0)))
    level_of = [i for i, lv in enumerate(spec.levels) for _ in range(lv.capacity)]
    sal = spec.salaries
    for agents, beta in ((1, 0.9), (3, 0.9), (5, 0.3)):
        num = np.zeros(len(spec))
        den = 0.0
        for occ_set in combinations(range(len(level_of)), agents):
            counts = np.bincount([level_of[p] for p in occ_set], minlength=len(spec))
            w = math.exp(beta * float(sal @ counts))
            den += w
            num += w * counts
        ex = exact_canonical(spec, agents, beta)
        assert ex.mean_occupancy == pytest.approx(num / den, rel=1e-12)


def test_dp_beta_zero_is_hypergeometric():
    ex = exact_canonical(L3, 8, 0.0)
    hyper = 8 * L3.capacities / L3.total_positions
    assert ex.mean_occupancy == pytest.approx(hyper, rel=1e-12)


def test_dp_greedy_fill_at_deep_cold():
    # salary gaps of 1 at beta = 50: levels fill from the top salary down
    ex = exact_canonical(L3, 8, 50.0)
    assert ex.mean_occupancy == pytest.approx([1.0, 3.0, 4.0], abs=1e-12)
    ex = exact_canonical(L3, 3, 50.0)
    assert ex.mean_occupancy == pytest.approx([1.0, 2.0, 0.0], abs=1e-12)


def test_dp_golden_values():
    golden = json.loads(GOLDEN.read_text())
    spec = HierarchySpec(tuple((c, s) for c, s in golden["levels"]))
    ex = exact_canonical(spec, golden["agents"], golden["beta"])
    assert ex.mean_occupancy == pytest.approx(golden["mean_occupancy"], rel=1e-12)
    assert ex.log_weight_total == pytest.approx(golden["log_weight_total"], rel=1e-12)


def test_dp_infeasible_agents():
    with pytest.raises(ValidationError):
        exact_canonical(L3, 15, 1.0)
    with pytest.raises(ValidationError):
        exact_canonical(L3, -1, 1.0)


@pytest.mark.parametrize("spec, agents, beta", [
    ("BIG", 3000, 1e305),  # beta * salary * r overflows
    ("L3", 3, 5e307),
    ("L3", 3, -5e307),
    ("L3", 14, 1e307),  # each term is finite, their sum over the levels is not
], ids=["big", "l3-hot", "l3-negative", "l3-sum"])
def test_dp_overflowing_beta_is_validation_error(spec, agents, beta):
    with pytest.raises(ValidationError, match="beta"):
        exact_canonical({"BIG": BIG, "L3": L3}[spec], agents, beta)
    # just inside the double range the reference still answers
    edge = exact_canonical(L3, 14, 9e306)
    assert edge.mean_occupancy.tolist() == [1.0, 3.0, 10.0]


def test_dp_marginal_approaches_closed_form_with_growing_reservoir():
    # merge everything but the capacity-3 level into one growing reservoir;
    # positions are distinct slots, so the grand-canonical law of a level is
    # Fermi-Dirac per position: calibrate the multiplier from the FD total
    # and compare the exact marginal with 3 FD(lambda).  The error falls like
    # 1/reservoir (measured: error x reservoir = 0.0112, 0.0120, 0.0123);
    # against gentile_mean it levels off at about 8.3e-3
    beta = 0.25

    def fermi(lam):
        return 1.0 / (1.0 + math.exp(-lam))

    for reservoir in (40, 160, 640):
        spec = HierarchySpec(((3, 1.1), (reservoir, 1.0)))
        agents = (3 + reservoir) // 2
        ex = exact_canonical(spec, agents, beta)

        def total(alpha):
            return (3 * fermi(beta * 1.1 + alpha)
                    + reservoir * fermi(beta * 1.0 + alpha) - agents)

        alpha = brentq(total, -50.0, 50.0, xtol=1e-13)
        predicted = 3 * fermi(beta * 1.1 + alpha)
        scaled = abs(ex.mean_occupancy[0] - predicted) / predicted * reservoir
        assert 0.010 <= scaled <= 0.013, (reservoir, scaled)


def test_dp_scaled_hierarchy_approaches_fermi_dirac_per_position():
    # positions are distinct slots, so as the spec ((4, 3), (10, 2), (30, 1))
    # and its 12 agents scale by m, each level's exact mean approaches
    # c_k FD(alpha* + beta s_k), alpha* from the FD total (-2.466487 at
    # beta = 1).  Bounds stated before the run: the largest relative gap
    # times the 12m agents in [0.18, 0.20] (measured 0.1876, 0.1867, 0.1865)
    # and shrinking by a factor in [3.8, 4.2] per x4 in m (measured 4.02, 4.00)
    sals = (3.0, 2.0, 1.0)

    def fermi(lam):
        return 1.0 / (1.0 + math.exp(-lam))

    gaps = []
    for m in (4, 16, 64):
        caps = (4 * m, 10 * m, 30 * m)
        ex = exact_canonical(HierarchySpec(tuple(zip(caps, sals))), 12 * m, 1.0)
        alpha = brentq(lambda a: sum(c * fermi(a + s) for c, s in zip(caps, sals)) - 12 * m,
                       -50.0, 50.0, xtol=1e-13)
        predicted = [c * fermi(alpha + s) for c, s in zip(caps, sals)]
        gaps.append(max(abs(e - p) / p for e, p in zip(ex.mean_occupancy.tolist(), predicted)))
        assert 0.18 <= gaps[-1] * 12 * m <= 0.20, (m, gaps[-1] * 12 * m)
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 3.8 <= wide / narrow <= 4.2, gaps


def _log_convolve(log_a, log_b, size):
    """Log coefficients, up to degree size - 1, of the product of two
    polynomials given by their log coefficients (-inf for a zero)."""
    terms = np.full((len(log_b), size), -np.inf)
    for r, lb in enumerate(log_b.tolist()):
        n = min(len(log_a), size - r)
        if n > 0:
            terms[r, r:r + n] = log_a[:n] + lb
    return np.logaddexp.reduce(terms, axis=0)


def test_identical_positions_approach_gentile_per_company():
    # the paper's construction: V companies of d = 5 identical positions,
    # weight e^{beta eps r} for r agents (no multiplicity), eight salaries
    # repeated V / 8 times and N = 2V agents.  The exact mean of a company
    # is sum_r r w(r) Z'_{N - r} / Z_N, Z' the others' coefficients, from a
    # log-space convolution; it approaches gentile_mean(alpha* + beta eps, 5),
    # alpha* from the Gentile total.  Bounds stated before the run: the
    # largest relative gap times V in [0.85, 0.95] (measured 0.903, 0.894,
    # 0.895) and shrinking by a factor in [3.8, 4.2] per x4 in V (measured
    # 4.04, 3.995)
    sals = (1.0, 1.3, 1.7, 2.0, 2.4, 2.9, 3.3, 4.0)
    d, beta = 5, 1.0
    gaps = []
    for v in (32, 128, 512):
        agents = 2 * v
        size = agents + 1
        weights = [beta * s * np.arange(d + 1.0) for s in sals]
        # every company but one of each salary, then each salary's others
        rest = np.zeros(1)
        for w in weights:
            for _ in range(v // 8 - 1):
                rest = _log_convolve(rest, w, size)
        others = []
        for k in range(len(sals)):
            z = rest
            for j, w in enumerate(weights):
                if j != k:
                    z = _log_convolve(z, w, size)
            others.append(z)
        log_z = _log_convolve(others[0], weights[0], size)[agents]
        exact = [float(np.sum(np.arange(d + 1.0)
                              * np.exp(w + z[agents - d:][::-1] - log_z)))
                 for w, z in zip(weights, others)]
        alpha = brentq(lambda a: v / 8 * sum(gentile_mean(a + beta * s, d) for s in sals)
                       - agents, -50.0, 50.0, xtol=1e-13)
        predicted = [gentile_mean(alpha + beta * s, d) for s in sals]
        gaps.append(max(abs(e - p) / p for e, p in zip(exact, predicted)))
        assert 0.85 <= gaps[-1] * v <= 0.95, (v, gaps[-1] * v)
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 3.8 <= wide / narrow <= 4.2, gaps


# Recorded before the convolution kept only feasible windows; a change in
# the logaddexp fold order (or in which factor it runs over) moves these.
# At 100 and 250 agents some windows are shorter on the higher-degree factor.
PINNED_EXACT = {
    ("BIG", 3000, 0.5): "16fa2cd9582b75e18ab2a2b924e4ae8311366ef74567743d4959bb2a25b4a69b",
    ("BIG", 3000, 1.0): "e747b1a6d3d1df1d0cc60f06ea82a66453122fbdf91ca1edaed8953be1e5605d",
    ("BIG", 3000, 1.5): "8a01f973f8f76634b155179b391466103d26a13b86d6f94edc9c531477ebf45e",
    ("BIG", 100, 1.0): "1b058fe515769e34d95e3a6b9ee8a399941b11eb388419ff8a6a1f71d98a373a",
    ("DEEP", 127, 0.7): "511b5152b86066604ef48ba95dbe6d63d3ab464c9264d47440522c972e16fa11",
    ("DEEP", 250, 0.7): "902a666910f25524ecc2c7dab4f826b178f3438b2170fdc1fd3af9034a22b209",
    ("L3", 0, 0.0): "14679e1999974b26647e9227ea357d815c68289a4410e7ddb598a99319f1daf5",
    ("L3", 0, -0.7): "14679e1999974b26647e9227ea357d815c68289a4410e7ddb598a99319f1daf5",
    ("L3", 0, 50.0): "14679e1999974b26647e9227ea357d815c68289a4410e7ddb598a99319f1daf5",
    ("L3", 1, 0.0): "4b4b4f6427bf20527082d84f8050f1f8893544cbdbf32ad484d638a0429b3ae8",
    ("L3", 1, -0.7): "5e40b157db2ac9d7db5ede049bc6cc94656250f422fa557f685e353a661fbe23",
    ("L3", 1, 50.0): "4ad47d99ac6f516d8efc75172c31441469953eb0553db424eecd53cbac2cb33c",
    ("L3", 13, 0.0): "f69da44d78de2297f3fade9a884dd6e6310ab7f78df9eb516ecece36c2e1adca",
    ("L3", 13, -0.7): "cd904a12d3ebad8d1daa82d189f33647db33d627ddf456117b0a5d79c03612c8",
    ("L3", 13, 50.0): "23eb290f49e450424ab99974728b5271d029572f2974a12a7848d8abb2e286f6",
    ("L3", 14, 0.0): "9c8eae938b3b2381d8bd60c1d8805e45d3465028a28d264bc28e5984c2604ed9",
    ("L3", 14, -0.7): "a21407ac6d089e1a5080ef3aea89a0e3352907beb8ca908fcdffc524ed80ece7",
    ("L3", 14, 50.0): "3ebe715bf6131e12219c5360dea62a28c1faa2220aa6608300a4daac0e1f06ac",
    ("ONE", 3, 0.9): "31c2f18b2525c8bdc15faae63de224b088aa552438c823c4323369bf80567afe",
}


def test_exact_canonical_bits_pinned():
    specs = {"BIG": BIG, "DEEP": DEEP, "L3": L3, "ONE": ONE}
    digests = {}
    for name, agents, beta in PINNED_EXACT:
        ex = exact_canonical(specs[name], agents, beta)
        digest = hashlib.sha256(ex.mean_occupancy.tobytes())
        for marg in ex.marginals:
            digest.update(marg.tobytes())
        digest.update(ex.log_weight_total.hex().encode())
        digests[name, agents, beta] = digest.hexdigest()
    assert digests == PINNED_EXACT


def _row_by_row_log_convolve(a, b, lo, hi):
    """The fold :func:`hierarchy._log_convolve` replays: one logaddexp call
    per coefficient of the lower-degree factor, ascending, skipping -inf."""
    if a[0] > b[0]:
        a, b = b, a
    (a_deg, a_lo, a_co), (b_deg, b_lo, b_co) = a, b
    out = np.full(hi - lo + 1, -np.inf)
    for k, c in enumerate(a_co.tolist(), a_lo):
        first = max(lo, k + b_lo)
        last = min(hi, k + b_lo + b_co.size - 1)
        if c == -np.inf or first > last:
            continue
        seg = out[first - lo:last - lo + 1]
        np.logaddexp(seg, b_co[first - k - b_lo:last - k - b_lo + 1] + c, out=seg)
    return a_deg + b_deg, lo, out


def _random_exact_cases(n):
    rng = np.random.default_rng(20261018)
    for i in range(n):
        levels = int(rng.integers(1, 6))
        caps = np.sort(rng.choice(np.arange(1, 80), levels, replace=False))
        salaries = np.sort(rng.uniform(0.1, 5.0, levels))[::-1]
        spec = HierarchySpec(tuple(zip(caps.tolist(), salaries.tolist())))
        total = spec.total_positions
        agents = (0, total, int(rng.integers(0, total + 1)))[i % 3]
        beta = (0.0, float(rng.uniform(-3.0, 0.0)), float(rng.uniform(0.0, 3.0)),
                40.0)[i // 3 % 4]
        yield spec, agents, beta


@pytest.mark.parametrize("block", [hierarchy._FOLD_BLOCK, 97, 1])
def test_blocked_fold_matches_row_by_row_bits(monkeypatch, block):
    monkeypatch.setattr(hierarchy, "_FOLD_BLOCK", block)
    cases = list(_random_exact_cases(240))
    assert sum(len(spec) == 1 for spec, _, _ in cases) >= 20
    folds = spy(monkeypatch, "_log_convolve", hierarchy)
    got = [exact_canonical(*case) for case in cases]
    assert any(hi - lo + 1 < min(a[2].size, b[2].size) for a, b, lo, hi in folds)
    monkeypatch.setattr(hierarchy, "_log_convolve", _row_by_row_log_convolve)
    for case, ex in zip(cases, got):
        ref = exact_canonical(*case)
        assert ex.mean_occupancy.tobytes() == ref.mean_occupancy.tobytes(), case
        assert [m.tobytes() for m in ex.marginals] == [m.tobytes() for m in ref.marginals]
        assert ex.log_weight_total.hex() == ref.log_weight_total.hex()


def test_blocked_fold_memory_stays_small():
    # unblocked, the middle product would be a 2001 x 5001 matrix (80 MB)
    spec = HierarchySpec(((2000, 3.0), (3000, 2.0), (5000, 1.0)))
    exact_canonical(L3, 5, 0.8)  # first-call set-up stays outside the trace
    tracemalloc.start()
    try:
        ex = exact_canonical(spec, 5000, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert float(ex.mean_occupancy.sum()) == pytest.approx(5000.0, rel=1e-12)
    assert peak < 4e6


def test_log_factorials_bit_identical_to_scipy():
    # scipy's gammaln is Cephes lgam; the table ports the integer branches
    from scipy.special import gammaln

    k = np.arange(200_001)
    table = hierarchy._log_factorials(k[-1])
    assert not table.flags.writeable
    assert table[:k.size].tobytes() == gammaln(k + 1.0).tobytes()
    assert hierarchy._log_factorials(10) is table  # served from the grown table
    # the Stirling branch on both sides of x = 1000 and x = 1e8, up to 1e9
    rng = np.random.default_rng(36)
    x = np.floor(np.exp(rng.uniform(math.log(13), math.log(1e9), 200_000)))
    x = np.concatenate((x, [13.0, 999.0, 1000.0, 1001.0, 1e8, 1e8 + 1, 1e9]))
    assert hierarchy._lgam_stirling(x).tobytes() == gammaln(x).tobytes()


def test_logsumexp_bit_identical_to_scipy():
    from scipy.special import logsumexp

    rng = np.random.default_rng(7)
    for _ in range(2100):
        a = rng.normal(0.0, 10 ** rng.uniform(-3, 3), int(rng.integers(1, 60)))
        a[rng.random(a.size) < 0.3] = -np.inf
        a[rng.integers(0, a.size, int(rng.integers(0, 4)))] = np.max(a)  # ties at the top
        a[0] = a[0] if np.isfinite(np.max(a)) else 0.5  # a finite maximum
        got = hierarchy._logsumexp(a)
        assert got.tobytes() == np.float64(logsumexp(a)).tobytes(), a


def test_spec_positions_bounded_by_int64():
    top = 2 ** 63 - 1
    spec = HierarchySpec(((2 ** 62 - 1, 2.0), (2 ** 62, 1.0)))
    assert spec.total_positions == top
    with pytest.raises(ValidationError,
                       match=rf"total capacity must be <= {top} \(.*\), got {top + 2}"):
        HierarchySpec(((2 ** 62, 2.0), (2 ** 62 + 1, 1.0)))
    with pytest.raises(ValidationError, match="got an integer of about 2001 digits"):
        HierarchySpec(((1, 2.0), (10 ** 2000, 1.0)))


# --- census entropy -------------------------------------------------------------

def test_census_entropy_zero_for_identical_companies():
    counts = np.zeros((2, 5))
    counts[0, 2] = 30.0
    counts[1, 4] = 20.0
    census = EnsembleCensus(counts, np.array([1.5, 0.7]))
    assert census_entropy(census) == pytest.approx(0.0, abs=1e-12)


def test_census_entropy_uniform_is_maximal_mixing():
    totals = np.array([30.0, 20.0])
    counts = np.repeat(totals[:, None] / 5.0, 5, axis=1)
    census = EnsembleCensus(counts, np.array([1.5, 0.7]))
    assert census_entropy(census) == pytest.approx(
        float(totals.sum()) * math.log(5.0), rel=1e-12)


def test_census_requires_populated_classes():
    census = EnsembleCensus(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([2.0, 1.0]))
    with pytest.raises(ValidationError):
        census_entropy(census)


def test_gentile_census_maximizes_entropy(rng):
    census = gentile_census([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8))
    v0 = census.counts.flatten()
    k = census.counts.shape[1]
    # constraints: both class totals, total elements, total energy
    A = np.zeros((4, v0.size))
    A[0, :k] = 1.0
    A[1, k:] = 1.0
    r = np.tile(np.arange(k, dtype=float), 2)
    A[2] = r
    A[3] = np.repeat(census.salaries, k) * r
    basis = null_space(A)
    assert basis.shape[1] > 0
    s0 = census_entropy(census)
    wins = 0
    for _ in range(200):
        direction = basis @ rng.normal(size=basis.shape[1])
        direction /= np.linalg.norm(direction)
        step = 0.2 * float(np.min(v0 / np.maximum(np.abs(direction), 1e-12)))
        pert = v0 + step * direction
        assert np.all(pert > 0.0)
        assert A @ pert == pytest.approx(A @ v0, rel=1e-9)
        s_pert = census_entropy(EnsembleCensus(pert.reshape(census.counts.shape),
                                               census.salaries))
        assert s_pert < s0
        wins += 1
    assert wins == 200


def test_census_entropy_invariant_under_row_permutation(rng):
    census = gentile_census([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8))
    s0 = census_entropy(census)
    counts = census.counts.copy()
    perm = rng.permutation(counts.shape[1])
    counts[0] = counts[0][perm]
    permuted = EnsembleCensus(counts, census.salaries)
    # the mixing count ignores which occupancy label carries which count,
    # but the physical constraints (elements, energy) do not
    assert census_entropy(permuted) == pytest.approx(s0, rel=1e-12)
    assert permuted.elements != pytest.approx(census.elements, rel=1e-6)


def test_census_capacity_and_energy():
    census = gentile_census([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8))
    assert census.capacity == census.counts.shape[1] - 1 == 4
    assert census.energy == -(census.salaries @ census.element_counts)
    assert census.energy < 0.0


def test_census_int_beyond_double_range_is_a_validation_error():
    # float(10**400) overflows; the count is not finite, so it gets the
    # documented message instead of an OverflowError from the conversion
    with pytest.raises(ValidationError, match="counts must be finite and >= 0"):
        EnsembleCensus([[10**400, 2]], [1])


def test_gentile_census_int_beyond_double_range_is_a_validation_error():
    with pytest.raises(ValidationError, match="class_totals must be finite and >= 0"):
        gentile_census([10**400], [1.0], 3, GibbsParams(0, 1))


def test_gentile_census_moments():
    census = gentile_census([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8))
    assert census.class_totals == pytest.approx([60.0, 40.0], rel=1e-12)
    assert census.volume == pytest.approx(100.0, rel=1e-12)
    expected_n = 60 * gentile_mean(-1.0 + 0.8 * 1.5, 4) \
        + 40 * gentile_mean(-1.0 + 0.8 * 0.7, 4)
    assert census.elements == pytest.approx(expected_n, rel=1e-12)
