"""Command line contract: flags, configs, exit codes, deterministic files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hierstat.cli
from hierstat import SingularInversion
from hierstat.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


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


def test_eos_validation(runner):
    result = runner.invoke(main, ["eos", "-d", "0", "--points", "-1"])
    assert result.exit_code == 2
    # both violations are reported
    assert result.output.count("validation error") == 2


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
    assert "delta distribution: supply (alpha, beta) or (lambda, beta) instead" \
        in result.output


def test_thermo_singular_two_point_has_no_delta_hint(runner, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularInversion("Jacobian of (n, u) with respect to (alpha, beta) "
                                "is singular at alpha=-3.0, beta=1.5")

    monkeypatch.setattr(hierstat.cli, "invert_to_params", singular)
    cfg = _thermo_cfg(tmp_path, {
        "distribution": {"type": "two_point", "epsilon1": 1.0,
                         "epsilon2": 3.0, "weight": 0.4},
        "d": 5, "volume": 100, "n": 2.5, "u": -2.4,
    })
    result = runner.invoke(main, ["thermo", "--json-config", cfg])
    assert result.exit_code == 3
    assert "singular at alpha=-3.0" in result.output
    assert "delta distribution" not in result.output


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
], ids=["thermo-d-fraction", "thermo-volume-fraction", "thermo-d-string",
        "gentile-capacity-string", "gentile-lambda-min-null",
        "simulate-steps-string", "simulate-seed-string",
        "simulate-grand-capacity-fraction", "gentile-relative-string",
        "gentile-pmf-number"])
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


def test_config_integral_float_accepted_as_integer(runner, tmp_path):
    outputs = []
    for d, volume in ((5, 100), (5.0, 100.0)):
        cfg = _thermo_cfg(tmp_path, {**_THERMO_AB, "d": d, "volume": volume})
        result = runner.invoke(main, ["thermo", "--json-config", cfg])
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


# --- import path -----------------------------------------------------------------

def test_import_loads_no_scipy():
    # scipy costs ~0.6 s to import; only exact_canonical loads it, lazily
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, hierstat, hierstat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
