"""Acceptance gate: one test per release criterion, one printed line each."""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

from conftest import L3, CliRunner

from hierstat import (
    Delta,
    GibbsParams,
    OccupancyLevel,
    ParametricFamily,
    SingularInversion,
    TwoPoint,
    Uniform,
    activity_for_mean,
    bose_einstein,
    census_entropy,
    condensation_abscissa,
    ensemble_moments,
    exact_canonical,
    fermi_dirac,
    gentile_census,
    gentile_mean,
    gentile_mean_direct,
    invert_to_params,
    log_partition,
    maxwell_check,
    omega,
    sample_grand_canonical,
    simulate_canonical,
    thermo_state,
)
from hierstat.cli import main as cli_main
from hierstat.hierarchy import EnsembleCensus

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def test_criterion_1_limit_distributions():
    with criterion(1, "Fermi-Dirac and Bose-Einstein limits"):
        start = time.perf_counter()
        grid = np.linspace(-10.0, 10.0, 401)
        worst = max(abs(gentile_mean(float(l), 1) - fermi_dirac(float(l)))
                    for l in grid)
        assert worst < 1e-13
        for lam in grid[grid <= -0.5]:
            be = bose_einstein(float(lam))
            assert abs(gentile_mean(float(lam), 10 ** 6) - be) / be < 1e-4
        assert time.perf_counter() - start < 1.0


def test_criterion_2_closed_form_vs_direct_sum():
    with criterion(2, "closed form equals direct summation"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        draws = []
        while len(draws) < 140:
            lam = float(rng.uniform(-20, 20))
            if abs(lam) >= 1e-5:
                draws.append((lam, int(rng.integers(1, 10_001))))
        for _ in range(30):  # small activities, as drawn
            draws.append((float(rng.uniform(-1e-5, 1e-5)),
                          int(rng.integers(1, 10_001))))
        for _ in range(30):  # activities inside the series branch
            d = int(rng.integers(5, 10_001))
            draws.append((float(rng.uniform(-1, 1)) * 0.5e-4 / (d + 1), d))
        assert len(draws) == 200
        for lam, d in draws:
            closed = gentile_mean(lam, d)
            direct = gentile_mean_direct(lam, d)
            assert abs(closed - direct) <= 1e-10 * abs(direct)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_symmetry_suite():
    with criterion(3, "complement symmetry and exact midpoint"):
        rng = np.random.default_rng(7)
        for d in (1, 2, 7, 50, 50_000):
            assert gentile_mean(0.0, d) == d / 2
            for _ in range(40):
                lam = float(rng.uniform(-30, 30))
                assert abs(gentile_mean(lam, d) + gentile_mean(-lam, d) - d) \
                    <= 1e-9 * max(1.0, d)


def test_criterion_4_generating_identity():
    with criterion(4, "omega generates the occupancy"):
        d = 7
        eps0 = 1.2
        h = 1e-5
        for lam in np.linspace(-4.0, 3.0, 50):
            alpha = float(lam) - eps0
            hi = omega(Delta(eps0), d, GibbsParams(alpha + h, 1.0))
            lo = omega(Delta(eps0), d, GibbsParams(alpha - h, 1.0))
            fd = (hi - lo) / (2 * h)
            exact = gentile_mean(float(lam), d)
            assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_criterion_5_condensation_curve():
    with criterion(5, "condensation curve landmarks at d=50000"):
        start = time.perf_counter()
        d = 50_000
        assert abs(gentile_mean(0.0, d) / d - 0.5) <= 1e-9
        assert abs(math.log1p(d) / log_partition(0.0, d) - 1.0) <= 1e-9
        x10 = condensation_abscissa(d, 0.1)
        x90 = condensation_abscissa(d, 0.9)
        assert 1.24 <= x10 <= 1.28
        assert 0.57 <= x90 <= 0.61
        assert time.perf_counter() - start < 2.0


def test_criterion_6_ideal_gas_limit():
    with criterion(6, "dilute limit obeys the ideal-gas law"):
        for d in (100, 1000):
            for nv in (1e-4, 1e-3, 1e-2):
                lam = activity_for_mean(d, nv)
                om = log_partition(lam, d)  # p/T at this filling
                assert abs(om / nv - 1.0) < 1.1 * nv / 2 + 1e-6
                assert abs(om - math.log1p(nv)) / om < 1e-3


def test_criterion_7_thermostatic_identities():
    with criterion(7, "Euler and Gibbs identities, closed-form agreement"):
        rng = np.random.default_rng(11)
        for k in range(20):
            if k % 2 == 0:
                dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
            else:
                dist = Uniform(float(rng.uniform(0.2, 1.0)),
                               float(rng.uniform(1.5, 3.0)))
            params = GibbsParams(float(rng.uniform(-4, 0.5)),
                                 float(rng.uniform(0.3, 2.5)))
            volume = int(rng.integers(10, 1000))
            state = thermo_state(dist, 6, params, volume)
            res = state.residuals()
            assert res["euler_identity"] < 1e-8
            assert res["gibbs_identity"] < 1e-8
            # chain-rule path with the parameter dependence switched off
            frozen = dist
            wrapped = thermo_state(ParametricFamily(lambda a, b: frozen),
                                   6, params, volume)
            assert abs(wrapped.temperature - state.temperature) \
                <= 1e-9 * state.temperature
            assert abs(wrapped.financial_potential - state.financial_potential) \
                <= 1e-9 * max(abs(state.financial_potential), 1e-300)
            assert abs(wrapped.pressure - state.pressure) \
                <= 1e-9 * state.pressure


def test_criterion_8_maxwell_relations():
    with criterion(8, "Maxwell cross-derivative relations"):
        report = maxwell_check(TwoPoint(1.0, 3.0, 0.5), 5,
                               GibbsParams(-2.0, 1.0), 100)
        assert all(r < 1e-4 for r in report.residuals)
        assert all(o >= 1.8 for o in report.orders)


def test_criterion_9_inversion_roundtrip():
    with criterion(9, "inverse problem round trip"):
        rng = np.random.default_rng(23)
        worst = 0.0
        for k in range(50):
            if k % 2 == 0:
                dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
            else:
                dist = Uniform(float(rng.uniform(0.2, 1.0)),
                               float(rng.uniform(1.5, 3.0)))
            d = int(rng.integers(2, 12))
            params = GibbsParams(float(rng.uniform(-4, 0.5)),
                                 float(rng.uniform(0.3, 2.5)))
            mom = ensemble_moments(dist, d, params)
            rec = invert_to_params(dist, d, mom.n, mom.u)
            worst = max(worst, abs(rec.alpha - params.alpha),
                        abs(rec.beta - params.beta))
        assert worst < 1e-8
        for _ in range(3):
            with pytest.raises(SingularInversion):
                invert_to_params(Delta(2.0), 5, 1.0, -2.0)


def test_criterion_10_simulators_vs_oracles():
    with criterion(10, "samplers within three standard errors of exact"):
        start = time.perf_counter()
        level = OccupancyLevel(3, 2.0)
        params = GibbsParams(-3.0, 1.0)
        exact = gentile_mean(-1.0, 3)
        for seed in range(5):
            s = sample_grand_canonical(level, params, 100_000, seed)
            assert abs(s.mean - exact) <= 3 * s.stderr

        spec = L3
        reference = exact_canonical(spec, 8, 1.0)
        for seed in range(5):
            run = simulate_canonical(spec, 8, 1.0, 120_000, seed)
            for m, e, s in zip(run.mean_occupancy, reference.mean_occupancy,
                               run.stderr):
                assert abs(m - e) <= 3 * s

        hyper = 8 * spec.capacities / spec.total_positions
        for seed in range(5):
            run = simulate_canonical(spec, 8, 0.0, 100_000, seed)
            for m, e, s in zip(run.mean_occupancy, hyper, run.stderr):
                assert abs(m - e) <= 3 * s
        assert time.perf_counter() - start < 30.0


def test_criterion_11_census_entropy_maximal():
    with criterion(11, "entropy-maximizing census beats perturbations"):
        rng = np.random.default_rng(31)
        scenarios = (
            ([60.0, 40.0], [1.5, 0.7], 4, GibbsParams(-1.0, 0.8)),
            ([25.0, 50.0, 25.0], [2.0, 1.0, 0.5], 6, GibbsParams(-2.0, 1.3)),
        )
        for totals, salaries, cap, params in scenarios:
            census = gentile_census(totals, salaries, cap, params)
            v0 = census.counts.flatten()
            k = census.counts.shape[1]
            n_classes = len(totals)
            rows = np.zeros((n_classes + 2, v0.size))
            for s in range(n_classes):
                rows[s, s * k:(s + 1) * k] = 1.0
            occupations = np.tile(np.arange(k, dtype=float), n_classes)
            rows[n_classes] = occupations
            rows[n_classes + 1] = np.repeat(salaries, k) * occupations
            basis = null_space(rows)
            s0 = census_entropy(census)
            for _ in range(200):
                direction = basis @ rng.normal(size=basis.shape[1])
                direction /= np.linalg.norm(direction)
                step = 0.2 * float(np.min(v0 / np.maximum(np.abs(direction),
                                                          1e-12)))
                pert = EnsembleCensus((v0 + step * direction).reshape(
                    census.counts.shape), census.salaries)
                assert census_entropy(pert) < s0


def test_criterion_12_byte_identical_outputs(tmp_path):
    with criterion(12, "identical config and seed give identical bytes"):
        runner = CliRunner()
        cfg = DATA / "golden_simulate_config.json"
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            result = runner.invoke(cli_main, [
                "simulate", "--json-config", str(cfg),
                "--output-dir", str(out), "--oracle"])
            assert result.exit_code == 0
            outputs.append(out)
        assert (outputs[0] / "trajectory.csv").read_bytes() \
            == (outputs[1] / "trajectory.csv").read_bytes()
        assert (outputs[0] / "summary.json").read_bytes() \
            == (outputs[1] / "summary.json").read_bytes()
        assert (outputs[0] / "summary.json").read_bytes() \
            == (DATA / "golden_simulate_summary.json").read_bytes()

        eos_files = []
        for name in ("e1.csv", "e2.csv"):
            path = tmp_path / name
            result = runner.invoke(cli_main, [
                "eos", "-d", "500", "--points", "101", "--output", str(path)])
            assert result.exit_code == 0
            eos_files.append(path.read_bytes())
        assert eos_files[0] == eos_files[1]
