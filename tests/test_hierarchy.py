"""Exact canonical reference, hierarchy types and census entropy."""

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import brentq

from conftest import enumerate_position_measure

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
L3 = HierarchySpec(((1, 3.0), (3, 2.0), (10, 1.0)))


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


def test_dp_marginal_approaches_closed_form_with_growing_reservoir():
    # merge everything but the capacity-3 level into one growing reservoir;
    # calibrate the multiplier from the closed-form total and compare the
    # exact marginal against the closed-form mean
    beta = 0.25
    errors = []
    for reservoir in (40, 160, 640):
        spec = HierarchySpec(((3, 1.1), (reservoir, 1.0)))
        agents = (3 + reservoir) // 2
        ex = exact_canonical(spec, agents, beta)

        def total(alpha):
            return (gentile_mean(beta * 1.1 + alpha, 3)
                    + gentile_mean(beta * 1.0 + alpha, reservoir) - agents)

        alpha = brentq(total, -50.0, 50.0, xtol=1e-13)
        predicted = gentile_mean(beta * 1.1 + alpha, 3)
        errors.append(abs(ex.mean_occupancy[0] - predicted) / predicted)
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.02


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


def test_gentile_census_moments():
    census = gentile_census([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8))
    assert census.class_totals == pytest.approx([60.0, 40.0], rel=1e-12)
    assert census.volume == pytest.approx(100.0, rel=1e-12)
    expected_n = 60 * gentile_mean(-1.0 + 0.8 * 1.5, 4) \
        + 40 * gentile_mean(-1.0 + 0.8 * 0.7, 4)
    assert census.elements == pytest.approx(expected_n, rel=1e-12)
