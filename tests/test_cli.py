"""Command line contract: flags, configs, exit codes, deterministic files."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hierstat.cli
import hierstat.thermostatics
from hierstat import SingularInversion
from hierstat.cli import main

DATA = Path(__file__).parent / "data"


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --- gentile -------------------------------------------------------------------

def test_gentile_grid(runner):
    result = runner.invoke(main, ["gentile", "-d", "1", "--lambda-min", "-6",
                                  "--lambda-max", "6", "--points", "121"])
    assert result.exit_code == 0
    header, rows = _rows(result.output)
    assert header == ["lambda", "f_g"]
    vals = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # FD sigmoid
    mid = vals[60]
    assert mid == pytest.approx(0.5, abs=1e-12)


def test_gentile_relative_and_pmf(runner):
    result = runner.invoke(main, ["gentile", "-d", "2", "--lambda-min", "0",
                                  "--lambda-max", "0", "--points", "1",
                                  "--relative", "--pmf"])
    assert result.exit_code == 0
    header, rows = _rows(result.output)
    assert header == ["lambda", "f_g_over_d", "p0", "p1", "p2"]
    assert float(rows[0][1]) == 0.5
    assert [float(x) for x in rows[0][2:]] == pytest.approx([1 / 3] * 3)


def test_gentile_single_point(runner):
    result = runner.invoke(main, ["gentile", "-d", "3", "--alpha", "1.0",
                                  "--beta", "1.0", "--epsilon", "2.0",
                                  "--sign", "cost"])
    assert result.exit_code == 0
    header, rows = _rows(result.output)
    assert float(rows[0][0]) == -1.0


def test_gentile_single_point_overflow_names_the_inputs(runner):
    result = runner.invoke(main, ["gentile", "-d", "3", "--alpha", "1",
                                  "--beta", "1e308", "--epsilon", "2"])
    assert result.exit_code == 2
    assert ("validation error: activity is not finite for alpha=1.0, "
            "beta=1e+308, money_scale=2.0") in result.output


def test_gentile_empty_grid_rejected(runner):
    result = runner.invoke(main, ["gentile", "-d", "3", "--points", "0"])
    assert result.exit_code == 2
    assert "grid is empty" in result.output


def test_gentile_config_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": 2, "points": 3,
                               "lambda_min": -1.0, "lambda_max": 1.0}))
    result = runner.invoke(main, ["gentile", "--json-config", str(cfg),
                                  "--points", "5"])
    assert result.exit_code == 0
    _, rows = _rows(result.output)
    assert len(rows) == 5  # flag wins over the file value


# --- figures -------------------------------------------------------------------

def test_figures_unknown_id(runner, tmp_path):
    result = runner.invoke(main, ["figures", "--figure", "9",
                                  "--output-dir", str(tmp_path)])
    assert result.exit_code == 2


def test_fig1_share_decreases_with_cost(runner, tmp_path):
    result = runner.invoke(main, ["figures", "--figure", "1",
                                  "--output-dir", str(tmp_path)])
    assert result.exit_code == 0
    header, rows = _rows((tmp_path / "fig1.csv").read_text())
    assert header == ["epsilon", "share"]
    shares = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(shares, shares[1:]))
    assert (tmp_path / "fig1.svg").read_text().startswith("<svg")


def test_fig3_overlay_matches_kernel(runner, tmp_path):
    from hierstat import gentile_mean
    result = runner.invoke(main, ["figures", "--figure", "3",
                                  "--output-dir", str(tmp_path)])
    assert result.exit_code == 0
    header, rows = _rows((tmp_path / "fig3.csv").read_text())
    assert header == ["lambda", "f_g_d1", "f_g_d2", "f_g_d5", "f_g_d20"]
    for r in rows[::40]:
        lam = float(r[0])
        for col, d in zip(r[1:], (1, 2, 5, 20)):
            assert float(col) == pytest.approx(gentile_mean(lam, d), rel=1e-12)


def test_fig5_ideal_gas_slope(runner, tmp_path):
    result = runner.invoke(main, ["figures", "--figure", "5",
                                  "--output-dir", str(tmp_path)])
    assert result.exit_code == 0
    header, rows = _rows((tmp_path / "fig5.csv").read_text())
    assert header == ["d", "lambda", "n_over_V", "n_over_Vd", "p_over_T"]
    seen = set()
    for r in rows:
        d = int(r[0])
        nv, pt = float(r[2]), float(r[4])
        if nv <= 0.01:
            seen.add(d)
            assert pt / nv == pytest.approx(1.0, abs=0.01)
    assert seen == {1, 5, 50, 500, 5000, 50000}


def test_fig7_half_filling_row_for_every_capacity(runner, tmp_path):
    result = runner.invoke(main, ["figures", "--figure", "7",
                                  "--output-dir", str(tmp_path)])
    assert result.exit_code == 0
    header, rows = _rows((tmp_path / "fig7.csv").read_text())
    assert header == ["d", "lambda", "x", "n_over_d"]
    anchored = {int(r[0]) for r in rows
                if float(r[2]) == 1.0 and float(r[3]) == 0.5}
    assert anchored == {1, 5, 50, 500, 5000, 50000}


_FIGURE_SHA256 = {
    1: ("76ef0068b27ecd7aa3686b66775644789924110692ffe555aee88a453cc5053e",
        "b2165e4b352be2321e51d0143e30aa767fccd97ae9abca7a153ba2ce8f19968b"),
    2: ("386448e6c902478b1bda88ea42d8d447d52d67876a219f943de1a9314107a460",
        "3d1f5e91c63752e0bde906cc360eecc6f437295de52519af2aaf193df9ec1701"),
    3: ("4f0ea4ae21b1472fddc307137cd64c686f77c831c9430151277b5c1d15df60bc",
        "cfa1f9cc38f1001aa5c52d3923f4a903199b50c5adf91e5bde4666e270ab9df2"),
    4: ("5a75886aed1f0e6e97edec54327b3aed67091bf187c341b532216ac7e81c0441",
        "e826392221244b46d4174080126a6101cc7caae7447dc38baca79f19aa86b62c"),
    5: ("78b05ca07960530fe58b4e888a835491d13e231285720113e1befd9043ad0a5f",
        "1a06b3f9fb9966eb9b173866f739d8f93a900a8c50bcd1480771e3d0fd5fe2a2"),
    6: ("d8078d93379d4ab7928a3ca2d3d5a263256a2fa6d37d977c6bafe40c0831f4d8",
        "2053d1acaeb884b1d45827e2c63a8bb2c6a7f88cbd55b3b79c0cd815cb3e6e27"),
    7: ("44d00a264fd1bb9572226e708f7071acd05e4e54405720754600223f83e42142",
        "d8ec352e9e0fd83c040d1c9b70f6a544a4f300cfa1eee13a065eda11533a38e9"),
}


def test_figure_bytes_pinned():
    # sha256 of the CSV text and the SVG of every figure: they regenerate byte for byte
    from hierstat.figures import FIGURE_IDS, build_figure
    for fig_id in FIGURE_IDS:
        header, rows, svg = build_figure(fig_id)
        got = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (hierstat.cli._csv_text(header, rows), svg))
        assert got == _FIGURE_SHA256[fig_id], fig_id


# --- eos -----------------------------------------------------------------------

def test_eos_header_and_anchor_row(runner):
    result = runner.invoke(main, ["eos", "-d", "50000", "--lambda-min", "-0.001",
                                  "--lambda-max", "0.001", "--points", "41"])
    assert result.exit_code == 0
    header, rows = _rows(result.output)
    assert header == ["lambda", "n_over_d", "p_over_T", "mu_shifted_over_T", "x"]
    anchor = [r for r in rows if float(r[0]) == 0.0]
    assert len(anchor) == 1
    assert float(anchor[0][1]) == 0.5
    assert float(anchor[0][4]) == 1.0


def test_eos_underflowed_omega_writes_inf(runner):
    result = runner.invoke(main, ["eos", "-d", "3", "--lambda-min", "-1000",
                                  "--lambda-max", "-999", "--points", "2"])
    assert result.exit_code == 0
    _, rows = _rows(result.output)
    assert [r[4] for r in rows] == ["inf", "inf"]


def test_eos_validation(runner):
    result = runner.invoke(main, ["eos", "-d", "0", "--points", "-1"])
    assert result.exit_code == 2
    # both violations are reported
    assert result.output.count("validation error") == 2


@pytest.mark.parametrize("command", ["gentile", "eos"])
@pytest.mark.parametrize("low, high", [("-1e308", "1e308"), ("-inf", "1"), ("nan", "1")])
def test_sweep_span_not_finite_rejected(runner, command, low, high):
    # lambda-max - lambda-min overflows: one message naming both flags,
    # not a non-finite grid point
    result = runner.invoke(main, [command, "-d", "1", "--lambda-min", low,
                                  "--lambda-max", high, "--points", "3"])
    assert result.exit_code == 2
    assert result.output == (f"validation error: grid span is not finite: "
                             f"lambda-min {float(low)} to lambda-max {float(high)}\n")


def test_io_failure_exit_code(runner, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    result = runner.invoke(main, ["eos", "-d", "3", "--points", "3",
                                  "--output", str(missing)])
    assert result.exit_code == 4


# --- thermo --------------------------------------------------------------------

def _thermo_cfg(tmp_path, payload):
    cfg = tmp_path / "thermo.json"
    cfg.write_text(json.dumps(payload))
    return str(cfg)


def test_thermo_fixed_phi_temperature_is_inverse_beta(runner, tmp_path):
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "two_point", "epsilon1": 1.0,
                         "epsilon2": 3.0, "weight": 0.5},
        "d": 5, "volume": 100, "alpha": -2.0, "beta": 1.25,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 0
    state = json.loads(result.output)
    assert state["temperature"] == 1.0 / 1.25
    assert state["residuals"]["euler_identity"] < 1e-8
    assert state["residuals"]["gibbs_identity"] < 1e-8


def test_thermo_delta_with_density_energy_is_singular(runner, tmp_path):
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "delta", "epsilon0": 2.0},
        "d": 5, "volume": 100, "n": 1.0, "u": -2.0,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 3
    assert "parameterize the state by (alpha, beta) or (lambda, beta)" in result.output


def test_thermo_singular_two_point_has_no_delta_hint(runner, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularInversion("Jacobian of (n, u) with respect to (alpha, beta) "
                                "is singular at alpha=-3.0, beta=1.5")

    monkeypatch.setattr(hierstat.thermostatics, "invert_to_params", singular)
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "two_point", "epsilon1": 1.0,
                         "epsilon2": 3.0, "weight": 0.4},
        "d": 5, "volume": 100, "n": 2.5, "u": -2.4,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 3
    assert "singular at alpha=-3.0" in result.output
    assert "delta distribution" not in result.output


@pytest.mark.parametrize("dist, alpha", [
    ({"type": "uniform", "lower": 0.5, "upper": 2.5}, -760.0),
    ({"type": "two_point", "epsilon1": 1.0, "epsilon2": 3.0, "weight": 0.5}, -800.0)])
def test_thermo_underflowed_occupancy_exits_2(runner, tmp_path, dist, alpha):
    cfg = _thermo_cfg(tmp_path, {"distribution": dist, "d": 9, "volume": 100,
                                 "alpha": alpha, "beta": 1.0})
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 2, result.output
    assert f"alpha={alpha!r}, beta=1.0" in result.output


def test_thermo_underflowed_n_squared_exits_2(runner, tmp_path):
    # n ~ 1e-304 passes the moment checks; its square underflows to 0.0
    cfg = _thermo_cfg(tmp_path, {"distribution": {"type": "delta", "epsilon0": 1.0},
                                 "d": 5, "volume": 10, "alpha": -700.0, "beta": 0.001})
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 2, result.output
    assert "alpha=-700.0, beta=0.001: its square underflowed" in result.output


def test_thermo_inversion_past_underflowed_trial_exits_0(runner, tmp_path, monkeypatch):
    # a line-search trial whose occupancy underflows to 0 is halved past,
    # not a ZeroDivisionError traceback
    real = hierstat.thermostatics._moments
    calls = []

    def underflow_second(dist, d, alpha, beta):
        calls.append((alpha, beta))
        m = real(dist, d, alpha, beta)
        return [0.0, *m[1:]] if len(calls) == 2 else m

    monkeypatch.setattr(hierstat.thermostatics, "_moments", underflow_second)
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "two_point", "epsilon1": 1.0,
                         "epsilon2": 3.0, "weight": 0.4},
        "d": 5, "volume": 100, "n": 2.5, "u": -2.4,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 0, result.output
    assert len(calls) > 2
    assert json.loads(result.output)["n"] == pytest.approx(2.5, rel=1e-9)


def test_thermo_delta_lambda_beta_parameterization(runner, tmp_path):
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "delta", "epsilon0": 2.0},
        "d": 6, "volume": 10, "lambda": 0.0, "beta": 2.0,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 0
    state = json.loads(result.output)
    assert state["n"] == 3.0  # half filling at zero activity
    assert state["temperature"] == 0.5
    assert state["pressure"] == pytest.approx(math.log(7.0) / 2.0, rel=1e-12)


def test_thermo_inversion_route_and_csv(runner, tmp_path):
    target_csv = tmp_path / "state.csv"
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "two_point", "epsilon1": 1.0,
                         "epsilon2": 3.0, "weight": 0.4},
        "d": 5, "volume": 100, "n": 2.5, "u": -2.4,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg,
                                  "--out-csv", str(target_csv)])
    assert result.exit_code == 0
    state = json.loads(result.output)
    assert state["n"] == pytest.approx(2.5, rel=1e-9)
    assert state["u"] == pytest.approx(-2.4, rel=1e-9)
    header, rows = _rows(target_csv.read_text())
    assert header[:2] == ["n", "u"]
    assert float(rows[0][0]) == pytest.approx(2.5, rel=1e-9)


# --- simulate ------------------------------------------------------------------

def test_simulate_golden_summary_bit_exact(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(out), "--oracle"])
    assert result.exit_code == 0
    golden = (DATA / "golden_simulate_summary.json").read_bytes()
    assert (out / "summary.json").read_bytes() == golden


@pytest.mark.parametrize("extra, digest", [
    ([], "f26ec80e77fe9f0fbbfc59d2655cb29c2debeb675364cbbd5d687cff36a52775"),
    (["--scenario", "social_laser"],
     "773c24201c0c3433632c000606fb14a9c0b5b0e91f303183e02b22653e1ddee2"),
], ids=["canonical", "social-laser"])
def test_simulate_golden_trajectory_bytes(runner, tmp_path, extra, digest):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(out), "--oracle", *extra])
    assert result.exit_code == 0
    assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == digest


_GRAND_CANONICAL_CFG = {
    "scenario": "grand_canonical", "capacity": 3, "salary": 2.0, "alpha": -3.0,
    "beta": 1.0, "steps": 50000, "seed": 2, "record_every": 7,
}


@pytest.mark.parametrize("cfg, extra, digests", [
    (_GRAND_CANONICAL_CFG, [], {
        "trajectory.csv": "bf56d8eba5c3d7fef8a31a389d115ff22ceb8e3d4a2fa95bf5cd25f1cb8a6e65",
        "summary.json": "882e62d65ac61ce71fbb6abccd175e218cec4e863852598139d928bfd7ef119c"}),
    (None, ["--scenario", "social_laser"], {
        "summary.json": "a8e96a82d87645a181cc4703e5dbbd8746d265b23c48fc5cdcd6bf08afc3b6b0"}),
], ids=["grand-canonical-thinned", "social-laser-summary"])
def test_simulate_output_bytes_pinned(runner, tmp_path, cfg, extra, digests):
    # thinned grand-canonical steps (burn_in + i * record_every) and the
    # relax-phase estimates are in no golden file
    path = DATA / "golden_simulate_config.json"
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    result = runner.invoke(main, ["simulate", "--json-config", str(path),
                                  "--output-dir", str(out), "--oracle", *extra])
    assert result.exit_code == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_simulate_negative_beta(runner, tmp_path):
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(tmp_path / "run"), "--beta", "-1000"])
    assert result.exit_code == 0, result.output


def test_simulate_negative_beta_matches_oracle(runner, tmp_path):
    # at beta < 0 a salary raise is taken with probability e^{-beta dE} < 1;
    # bound stated before the run: every |z| under 4
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(out), "--oracle", "--beta", "-1"])
    assert result.exit_code == 0, result.output
    z_scores = json.loads((out / "summary.json").read_text())["oracle"]["z_scores"]
    assert len(z_scores) == 3 and all(abs(z) < 4.0 for z in z_scores), z_scores


def test_simulate_oracle_overflowing_beta(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(out), "--beta", "1e308", "--oracle"])
    assert result.exit_code == 2
    assert "validation error: beta" in result.output
    assert not (out / "summary.json").exists()
    assert not (out / "trajectory.csv").exists()


def test_simulate_deterministic_outputs(runner, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "scenario": "canonical",
        "levels": [{"capacity": 1, "salary": 2.0}, {"capacity": 4, "salary": 1.0}],
        "agents": 3, "beta": 0.8, "steps": 20000, "seed": 5,
        "record_every": 20,
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                      "--output-dir", str(out)])
        assert result.exit_code == 0
        outs.append(out)
    assert (outs[0] / "trajectory.csv").read_bytes() \
        == (outs[1] / "trajectory.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() \
        == (outs[1] / "summary.json").read_bytes()


def test_simulate_salary_ordering_violation_named(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "scenario": "canonical",
        "levels": [{"capacity": 1, "salary": 1.0}, {"capacity": 4, "salary": 2.0}],
        "agents": 3, "beta": 1.0, "steps": 20000, "seed": 0,
    }))
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "epsilon_1 > epsilon_2 violated" in result.output


def test_simulate_laser_emits_phase_markers(runner, tmp_path):
    cfg = tmp_path / "laser.json"
    cfg.write_text(json.dumps({
        "scenario": "social_laser",
        "levels": [{"capacity": 2, "salary": 3.0}, {"capacity": 5, "salary": 2.0},
                   {"capacity": 12, "salary": 1.0}],
        "agents": 9, "beta": 2.0, "steps": 3000, "seed": 4,
        "pump_fraction": 0.6, "record_every": 10,
    }))
    out = tmp_path / "laser"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out)])
    assert result.exit_code == 0
    header, rows = _rows((out / "trajectory.csv").read_text())
    assert header[-1] == "phase"
    phases = {r[-1] for r in rows}
    assert phases == {"equilibrate", "pump", "relax"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pumped_moves"] == round(0.6 * 9)


def test_simulate_grand_canonical_with_oracle(runner, tmp_path):
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps({
        "scenario": "grand_canonical", "capacity": 3, "salary": 2.0,
        "alpha": -3.0, "beta": 1.0, "steps": 50000, "seed": 2,
    }))
    out = tmp_path / "gc"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out), "--oracle"])
    assert result.exit_code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["oracle"]["z"]) < 3.0


def test_simulate_seed_from_environment(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "scenario": "canonical",
        "levels": [{"capacity": 1, "salary": 2.0}, {"capacity": 4, "salary": 1.0}],
        "agents": 3, "beta": 0.8, "steps": 20000,
    }))
    monkeypatch.setenv("HIERSTAT_SEED", "77")
    out = tmp_path / "env"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out)])
    assert result.exit_code == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 77
    # explicit flag wins over the environment
    out2 = tmp_path / "flag"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out2), "--seed", "3"])
    assert result.exit_code == 0
    assert json.loads((out2 / "summary.json").read_text())["seed"] == 3


# --- config value types -----------------------------------------------------------

_THERMO_AB = {"distribution": {"type": "two_point", "epsilon1": 1.0,
                               "epsilon2": 3.0, "weight": 0.5},
              "d": 5, "volume": 100, "alpha": -2.0, "beta": 1.25}
_CANONICAL = {"scenario": "canonical",
              "levels": [{"capacity": 1, "salary": 2.0},
                         {"capacity": 4, "salary": 1.0}],
              "agents": 3, "beta": 0.8, "steps": 20000, "seed": 5}
_GRAND = {"scenario": "grand_canonical", "capacity": 3, "salary": 2.0,
          "alpha": -3.0, "beta": 1.0, "steps": 20000, "seed": 2}
_POINT = {"capacity": 2, "alpha": 1.0, "beta": 1.0, "epsilon": 2.0}


@pytest.mark.parametrize("command, base, key, value", [
    ("thermo", _THERMO_AB, "d", 4.7),
    ("thermo", _THERMO_AB, "volume", 2.9),
    ("thermo", _THERMO_AB, "d", "x"),
    ("gentile", {"capacity": 2, "points": 3}, "capacity", "5"),
    ("gentile", {"capacity": 2, "points": 3}, "lambda_min", None),
    ("simulate", _CANONICAL, "steps", "many"),
    ("simulate", _CANONICAL, "seed", "x"),
    ("simulate", _GRAND, "capacity", 2.5),
    ("gentile", {"capacity": 2, "points": 3}, "relative", "false"),
    ("gentile", {"capacity": 2, "points": 3}, "pmf", 1),
    ("gentile", _POINT, "sign", "bogus"),
    ("gentile", {"capacity": 2, "points": 3}, "output", 5),
    ("figures", {"figure": 1}, "output_dir", 7),
    ("simulate", _GRAND, "record_every", 0),
    ("simulate", _GRAND, "record_every", -3),
], ids=["thermo-d-fraction", "thermo-volume-fraction", "thermo-d-string",
        "gentile-capacity-string", "gentile-lambda-min-null",
        "simulate-steps-string", "simulate-seed-string",
        "simulate-grand-capacity-fraction", "gentile-relative-string",
        "gentile-pmf-number", "gentile-point-sign-unknown",
        "gentile-output-number", "figures-output-dir-number",
        "simulate-grand-record-every-zero", "simulate-grand-record-every-negative"])
def test_config_value_of_wrong_type_is_validation_error(runner, tmp_path, command,
                                                        base, key, value):
    # neither truncated to an integer nor a traceback: exit 2, key named
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, key: value}))
    args = [command, "--json-config", str(cfg)]
    if command == "simulate":
        args += ["--output-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"validation error: {key} must be" in result.output


_OPTIONS = [(name, key) for name, parser in hierstat.cli._COMMANDS.choices.items()
            for key in vars(parser.parse_args(["--json-config", "-"]))
            if key not in ("json_config", "run")]


@pytest.mark.parametrize("command, key", _OPTIONS,
                         ids=[f"{c}-{k}" for c, k in _OPTIONS])
def test_every_option_is_a_typed_config_key(runner, tmp_path, monkeypatch,
                                            command, key):
    # a config value is checked against its option's declared type, so no
    # option's config key can reach the command untyped
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: [1]}))
    result = runner.invoke(main, [command, "--json-config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"validation error: {key} must be" in result.output


def test_config_sets_simulate_output_dir_and_oracle(runner, tmp_path):
    out = tmp_path / "from-config"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CANONICAL, "output_dir": str(out), "oracle": True}))
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"] is not None
    assert (out / "trajectory.csv").exists()


def test_config_sets_thermo_out_csv(runner, tmp_path):
    target = tmp_path / "state.csv"
    cfg = _thermo_cfg(tmp_path, {**_THERMO_AB, "out_csv": str(target)})
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 0, result.output
    header, rows = _rows(target.read_text())
    assert header[:2] == ["n", "u"] and len(rows) == 1


def test_output_flag_wins_over_config_output(runner, tmp_path):
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": 2, "points": 3,
                               "output": str(from_config)}))
    result = runner.invoke(main, ["gentile", "--json-config", str(cfg)])
    assert result.exit_code == 0 and result.output == ""
    written = from_config.read_text()
    result = runner.invoke(main, ["gentile", "--json-config", str(cfg),
                                  "--output", str(from_flag)])
    assert result.exit_code == 0
    assert from_flag.read_text() == written
    from_config.unlink()
    result = runner.invoke(main, ["gentile", "--json-config", str(cfg),
                                  "--output", "-"])
    assert result.exit_code == 0 and result.output == written
    assert not from_config.exists()


@pytest.mark.parametrize("base, message", [
    (_GRAND, "activity is not finite for alpha=-3.0, beta=1e+308, money_scale=2.0"),
    (_CANONICAL, "validation error: beta must keep every log weight"),
], ids=["grand-canonical", "canonical"])
def test_rejected_simulate_leaves_no_output_dir(runner, tmp_path, base, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base))
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out), "--beta", "1e308",
                                  "--oracle"])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def _without(cfg, *keys):
    return {k: v for k, v in cfg.items() if k not in keys}


@pytest.mark.parametrize("args, config, message", [
    (["thermo"], "{", "is not valid JSON"),
    (["thermo"], "[1]", "must hold a JSON object"),
    (["thermo"], _without(_THERMO_AB, "volume"), "config key 'volume' is required"),
    (["simulate"], _without(_GRAND, "alpha"),
     "config key 'alpha' is required for grand_canonical runs"),
    (["gentile", "--points", "3"], None, "capacity (-d) is required"),
    (["gentile", "-d", "1", "--lambda-min", "1", "--lambda-max", "0"], None,
     "grid is empty: lambda-min 1.0 exceeds lambda-max 0.0"),
    (["gentile", "-d", "3", "--alpha", "1", "--epsilon", "2"], None,
     "--beta is required for the single-point form"),
    (["gentile", "-d", "1001", "--points", "1", "--pmf"], None,
     "--pmf is limited to capacity <= 1000"),
    (["thermo"], {**_without(_THERMO_AB, "alpha"), "lambda": 1.0},
     "(lambda, beta) parameterization is only defined for the delta distribution"),
    (["thermo"], _without(_THERMO_AB, "alpha", "beta"),
     "config must supply (alpha, beta), (n, u) or (lambda, beta)"),
    (["simulate"], {**_CANONICAL, "levels": []},
     "config key 'levels' must be a non-empty list"),
    (["simulate"], {**_CANONICAL, "levels": [{"capacity": 1}]},
     "level 1 must be an object with 'capacity' and 'salary'"),
    (["gentile", "--points", "3"], '{"capacity": 1%s}' % ("0" * 5000),
     "is not valid JSON: Exceeds the limit (4300 digits)"),
    (["simulate"], {**_CANONICAL, "levels": [{"capacity": 1, "salary": 2.0},
                                             {"capacity": 10 ** 400, "salary": 1.0}]},
     "total capacity must be <= 9223372036854775807 (the int64 maximum), got 1000"),
], ids=["config-invalid-json", "config-list", "thermo-no-volume",
        "grand-canonical-no-alpha", "gentile-no-capacity", "gentile-reversed-grid",
        "gentile-point-no-beta", "gentile-pmf-too-wide", "thermo-lambda-off-delta",
        "thermo-no-parameter-pair", "simulate-no-levels", "simulate-level-no-salary",
        "config-int-5001-digits", "simulate-positions-beyond-int64"])
def test_documented_errors_exit_2(runner, tmp_path, args, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        args = args + ["--json-config", str(cfg)]
    if args[0] == "simulate":
        args = args + ["--output-dir", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("validation error: ") and message in result.output


@pytest.mark.parametrize("args, key", [
    (["gentile", "-d", str(10 ** 400), "--points", "3"], None),
    (["eos", "-d", str(10 ** 400), "--points", "3"], None),
    (["thermo"], "volume"),
    (["thermo"], "d"),
], ids=["gentile", "eos", "thermo-volume", "thermo-d"])
def test_integer_beyond_double_range_exits_2(runner, tmp_path, args, key):
    # a 401-digit capacity or volume is refused by name, not a traceback
    if key is not None:
        args = args + ["--json-config", _thermo_cfg(tmp_path, {**_THERMO_AB, key: 10 ** 400})]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    name = "volume" if key == "volume" else "capacity"
    assert result.output.startswith(f"validation error: {name} must be an integer in [1, ")


def test_simulate_seed_from_environment_must_be_an_integer(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_without(_CANONICAL, "seed")))
    monkeypatch.setenv("HIERSTAT_SEED", "x")
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "validation error: HIERSTAT_SEED must be an integer, got 'x'" in result.output


def test_simulate_agents_default_to_half_the_positions(runner, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({**_without(_CANONICAL, "agents"), "steps": 200}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--json-config", str(cfg),
                                  "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "summary.json").read_text())["agents"] == 5 // 2


def test_config_integral_float_accepted_as_integer(runner, tmp_path):
    outputs = []
    for d, volume in ((5, 100), (5.0, 100.0)):
        cfg = _thermo_cfg(tmp_path, {**_THERMO_AB, "d": d, "volume": volume})
        result = runner.invoke(main, ["thermo", "--json-config", cfg])
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


# --- parsing ---------------------------------------------------------------------

def test_negative_exponent_form_is_a_value(runner, tmp_path):
    # a negative number in any syntax float() reads is an option's value,
    # not an unknown option
    result = runner.invoke(main, ["gentile", "-d", "3", "--alpha", "-2.5e-1",
                                  "--beta", "1", "--epsilon", "2"])
    assert result.exit_code == 0, result.output
    _, rows = _rows(result.output)
    assert float(rows[0][0]) == -0.25 + 2.0
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "simulate", "--json-config", str(DATA / "golden_simulate_config.json"),
        "--output-dir", str(out), "--beta", "-1e-3"])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "summary.json").read_text())["beta"] == -1e-3


def test_abbreviated_option_is_a_usage_error(runner):
    result = runner.invoke(main, ["eos", "--poi", "3"])
    assert result.exit_code == 2


# each command's options as its --help names them
_HELP_FLAGS = {
    "gentile": ("--capacity", "-d", "--lambda-min", "--lambda-max", "--points",
                "--relative", "--pmf", "--alpha", "--beta", "--epsilon", "--sign",
                "--output", "--json-config"),
    "figures": ("--figure", "--output-dir", "--json-config"),
    "eos": ("--capacity", "-d", "--lambda-min", "--lambda-max", "--points", "--output",
            "--json-config"),
    "thermo": ("--json-config", "--out-csv"),
    "simulate": ("--json-config", "--output-dir", "--oracle", "--scenario", "--seed",
                 "--steps", "--beta", "--agents", "--pump-fraction", "--record-every"),
}


@pytest.mark.parametrize("command", sorted(_HELP_FLAGS))
def test_help_names_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    for flag in _HELP_FLAGS[command]:
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", result.output), flag


def test_help_keeps_flags_and_command_names_whole(runner, monkeypatch):
    # a command's description keeps its docstring's lines, and each command
    # name shares a line with its one-line help (at the usual 80 columns)
    monkeypatch.setenv("COLUMNS", "80")
    result = runner.invoke(main, ["gentile", "--help"])
    assert result.exit_code == 0
    assert "--lambda-min" in result.output
    listing = runner.invoke(main, ["--help"]).output
    for name in ("gentile", "figures", "eos", "thermo", "simulate"):
        assert re.search(rf"^ +{name} +\S", listing, re.MULTILINE), name


# --- import path -----------------------------------------------------------------

def test_import_loads_no_scipy():
    # scipy costs ~0.4 s to import and is only a test oracle.
    # numpy.polynomial (~10 ms) is not needed at all: the quadrature rule's
    # nodes and weights are literals.  The package's exports are lazy, so
    # every submodule is imported here explicitly
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import importlib, pkgutil, sys, hierstat, hierstat.cli; "
            "mods = [importlib.import_module(f'hierstat.{m.name}') "
            "for m in pkgutil.iter_modules(hierstat.__path__)]; "
            "assert len(mods) >= 11, len(mods); "
            "[getattr(hierstat, name) for name in hierstat.__all__]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_exact_reference_loads_no_scipy(tmp_path):
    # the exact reference and simulate --oracle on the golden config run on
    # in-house log-factorials and logsumexp
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from hierstat import HierarchySpec, exact_canonical; "
            "from hierstat.cli import main; "
            "exact_canonical(HierarchySpec(((1, 3.0), (3, 2.0), (10, 1.0))), 8, 1.0); "
            "main(['simulate', '--json-config', sys.argv[1], '--output-dir', sys.argv[2], "
            "'--oracle']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, str(DATA / "golden_simulate_config.json"),
                          str(tmp_path)], env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "summary.json").read_bytes() == \
        (DATA / "golden_simulate_summary.json").read_bytes()


def test_only_ensemble_integrates_over_phi():
    # distributions only declares phi and thermostatics only solves: every
    # integral over phi, and the quadrature behind it, belongs to ensemble
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, hierstat.distributions; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
            "or m == 'hierstat.quadrature'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    import hierstat.thermostatics as thermostatics
    integrand_names = {"_kernels", "_check_lambda", "graded_nodes", "PHI_STEP"}
    assert not integrand_names & set(vars(thermostatics))


def test_scalar_commands_load_no_numpy(tmp_path):
    # gentile, eos and figures run on the math kernels alone, so they skip
    # numpy's import (about half of a call's start-up); simulate imports it
    # inside its command, and thermo never does.  The series coefficients
    # come from a literal table of exact integers, so neither fractions nor
    # decimal (a few ms of every cold start) is loaded either
    src = Path(__file__).resolve().parent.parent / "src"
    outdir = str(tmp_path)
    calls = [["gentile", "-d", "5", "--output", f"{outdir}/g.csv"],
             ["eos", "-d", "50", "--output", f"{outdir}/e.csv"]]
    calls += [["figures", "--figure", str(k), "--output-dir", outdir] for k in range(1, 8)]
    code = ("import sys, hierstat, hierstat.cli\n"
            f"for args in {calls!r}:\n"
            "    hierstat.cli.main.main(args=args, standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'fractions', 'decimal', 'click')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("fig*.svg"))) == 7


def _loaded_numpy(code):
    """The numpy modules a fresh interpreter has loaded after running ``code``,
    and its stdout before them."""
    src = Path(__file__).resolve().parent.parent / "src"
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    *before, last = out.splitlines()
    return last, "\n".join(before)


def test_thermostatics_import_loads_no_numpy():
    # the inverse problem runs on Python floats, and ensemble's closed forms
    # and graded rule are pure Python
    assert _loaded_numpy("import hierstat.thermostatics")[0] == "[]"


def test_market_share_off_quadrature_loads_no_numpy():
    # the share is the n of a d = 1 moment pass: atoms and pieces at least
    # W_MIN wide in activity (here at least 1 wide) take no quadrature node,
    # and nothing on the way loads numpy
    code = ("from hierstat import Delta, GibbsParams, Histogram, TwoPoint, Uniform\n"
            "from hierstat.ensemble import W_MIN, fermi_market_share\n"
            "dists = (Delta(2.0), TwoPoint(1.0, 3.0, 0.4), Uniform(0.5, 2.5),\n"
            "         Histogram((0.0, 1.0, 1e10), (0.5, 0.5)))\n"
            "for alpha in (-30.0, -1.0, 0.5, 2.0, 30.0):\n"
            "    for dist in dists:\n"
            "        assert 0.0 <= fermi_market_share(dist, GibbsParams(alpha, 1.0)) <= 1.0\n"
            "print(W_MIN <= 1.0)")
    modules, out = _loaded_numpy(code)
    assert (modules, out) == ("[]", "True")


@pytest.mark.parametrize("distribution, point", [
    # atoms only, solved from (n, u)
    ({"type": "two_point", "epsilon1": 1.0, "epsilon2": 3.0, "weight": 0.4},
     {"n": 2.0, "u": -2.5}),
    # one piece 2.0 wide in activity: closed-form moments
    ({"type": "uniform", "lower": 0.5, "upper": 2.5}, {"alpha": -2.0, "beta": 1.0}),
    # a first piece 0.1 wide in activity, below W_MIN: the graded rule
    ({"type": "histogram", "edges": [0.5, 0.6, 2.5], "masses": [0.1, 0.9]},
     {"alpha": -2.0, "beta": 1.0}),
])
def test_thermo_loads_no_numpy(tmp_path, distribution, point):
    cfg = _thermo_cfg(tmp_path, {"distribution": distribution, "d": 9, "volume": 100,
                                 **point})
    args = ["thermo", "--json-config", cfg]
    modules, out = _loaded_numpy(
        f"import hierstat.cli; hierstat.cli.main.main(args={args!r}, standalone_mode=False)")
    assert modules == "[]"
    state = json.loads(out)
    assert state["residuals"]["euler_identity"] < 1e-8
