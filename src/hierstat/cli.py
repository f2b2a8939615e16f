"""Command line front end.

Subcommands: ``gentile`` (occupancy curves), ``figures`` (the seven
standard charts as CSV + SVG), ``thermo`` (one thermostatic state),
``eos`` (equation-of-state sweep) and ``simulate`` (seeded chains from a
JSON config).  Every command accepts ``--json-config FILE`` with flags
winning over file values.  Exit codes: 0 success, 2 validation,
3 numerical failure, 4 i/o.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import click
import numpy as np

from .distributions import Delta, distribution_from_json
from .errors import (
    AccuracyError,
    NoConvergence,
    SingularInversion,
    ValidationError,
    check_int,
    check_real,
)
from .figures import build_figure
from .gentile import (
    EnergySign,
    GibbsParams,
    OccupancyLevel,
    activity,
    gentile_mean,
    occupancy_probabilities,
)
from .hierarchy import HierarchySpec, exact_canonical
from .montecarlo import (
    PHASE_NAMES,
    pumped_relaxation,
    sample_grand_canonical,
    simulate_canonical,
)
from .thermostatics import EOS_COLUMNS, eos_sweep, invert_to_params, thermo_state

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SCENARIOS = ("canonical", "grand_canonical", "social_laser")


def _guard(fn):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            for line in exc.violations:
                click.echo(f"validation error: {line}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (NoConvergence, AccuracyError, SingularInversion) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return obj


def _number(value, key, kind):
    """``value`` as a ``kind`` (int, float or bool), or a ValidationError
    naming ``key``: config files may hold strings, bools or fractional
    counts.  An integral float such as 5.0 is accepted as an int."""
    problems = []
    if kind is bool and not isinstance(value, bool):
        problems.append(f"{key} must be true or false, got {value!r}")
    elif kind is int:
        integral = isinstance(value, float) and value.is_integer()
        value = check_int(int(value) if integral else value, key, problems)
    elif kind is float:
        value = check_real(value, key, problems)
    if problems:
        raise ValidationError(problems)
    return value


def _require(cfg, keys, context=""):
    missing = [f"config key {k!r} is required{context}" for k in keys if k not in cfg]
    if missing:
        raise ValidationError(missing)


def _pick(flag, cfg, key, default=None, kind=None):
    """The flag if given, else the config value (of type ``kind`` when
    ``kind`` is set), else ``default``."""
    if flag is not None:
        return flag
    if key not in cfg:
        return default
    return cfg[key] if kind is None else _number(cfg[key], key, kind)


def _resolve_seed(flag, cfg):
    if flag is not None:
        return flag
    if "seed" in cfg:
        return _number(cfg["seed"], "seed", int)
    env = os.environ.get("HIERSTAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(
                f"HIERSTAT_SEED must be an integer, got {env!r}") from None
    return 0


def _sweep_problems(capacity, lambda_min, lambda_max, points, sweep=True):
    """Violations of a required capacity and, with ``sweep``, of the
    activity grid (lambda_min, lambda_max, points)."""
    problems = []
    if capacity is None:
        problems.append("capacity (-d) is required")
    else:
        check_int(capacity, "capacity", problems, 1)
    if sweep:
        if points < 1:
            problems.append(f"grid is empty: points must be >= 1, got {points}")
        if lambda_min > lambda_max:
            problems.append(
                f"grid is empty: lambda-min {lambda_min} exceeds lambda-max {lambda_max}")
    return problems


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(path, text):
    if path in (None, "-"):
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@click.group()
def main():
    """Occupancy statistics and thermostatics of hierarchical systems."""


@main.command("gentile")
@click.option("--capacity", "-d", type=int, default=None, help="Level capacity d.")
@click.option("--lambda-min", type=float, default=None)
@click.option("--lambda-max", type=float, default=None)
@click.option("--points", type=int, default=None, help="Grid size.")
@click.option("--relative", is_flag=True, default=False,
              help="Emit mean population divided by d.")
@click.option("--pmf", is_flag=True, default=False,
              help="Append the occupation probabilities p0..pd per row.")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--sign", type=click.Choice(["cost", "salary"]), default=None)
@click.option("--output", type=str, default=None, help="CSV path, '-' for stdout.")
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_gentile(capacity, lambda_min, lambda_max, points, relative, pmf,
                alpha, beta, epsilon, sign, output, json_config):
    """Mean population of one level over an activity grid.

    Either sweep --lambda-min/--lambda-max/--points, or give
    --alpha/--beta/--epsilon (and --sign) for a single activity row.
    """
    cfg = _load_config(json_config)
    capacity = _pick(capacity, cfg, "capacity", kind=int)
    lambda_min = _pick(lambda_min, cfg, "lambda_min", -10.0, kind=float)
    lambda_max = _pick(lambda_max, cfg, "lambda_max", 10.0, kind=float)
    points = _pick(points, cfg, "points", 401, kind=int)
    relative = relative or _pick(None, cfg, "relative", False, kind=bool)
    pmf = pmf or _pick(None, cfg, "pmf", False, kind=bool)
    alpha = _pick(alpha, cfg, "alpha", kind=float)
    beta = _pick(beta, cfg, "beta", kind=float)
    epsilon = _pick(epsilon, cfg, "epsilon", kind=float)
    sign = _pick(sign, cfg, "sign", "salary")
    output = _pick(output, cfg, "output", "-")

    point_mode = any(v is not None for v in (alpha, beta, epsilon))
    problems = _sweep_problems(capacity, lambda_min, lambda_max, points,
                               sweep=not point_mode)
    if point_mode:
        for name, v in (("alpha", alpha), ("beta", beta), ("epsilon", epsilon)):
            if v is None:
                problems.append(f"--{name} is required for the single-point form")
    if pmf and capacity is not None and capacity > 1000:
        problems.append("--pmf is limited to capacity <= 1000")
    if problems:
        raise ValidationError(problems)

    if point_mode:
        level = OccupancyLevel(capacity, epsilon, EnergySign(sign))
        grid = [activity(level, GibbsParams(alpha, beta))]
    else:
        grid = [float(x) for x in np.linspace(lambda_min, lambda_max, points)]

    d = capacity
    value_col = "f_g_over_d" if relative else "f_g"
    header = ["lambda", value_col]
    if pmf:
        header += [f"p{r}" for r in range(d + 1)]
    rows = []
    for lam in grid:
        value = gentile_mean(lam, d)
        row = [lam, value / d if relative else value]
        if pmf:
            row.extend(float(p) for p in occupancy_probabilities(lam, d))
        rows.append(row)
    _emit(output, _csv_text(header, rows))


@main.command("figures")
@click.option("--figure", type=int, default=None, help="Figure id, 1..7.")
@click.option("--output-dir", type=str, default=None)
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_figures(figure, output_dir, json_config):
    """Write figN.csv and figN.svg for one standard chart."""
    cfg = _load_config(json_config)
    figure = _pick(figure, cfg, "figure", kind=int)
    output_dir = _pick(output_dir, cfg, "output_dir", ".")
    header, rows, svg = build_figure(figure)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"fig{figure}.csv").write_text(_csv_text(header, rows), encoding="utf-8")
    (out / f"fig{figure}.svg").write_text(svg, encoding="utf-8")
    click.echo(f"wrote fig{figure}.csv and fig{figure}.svg to {out}")


@main.command("eos")
@click.option("--capacity", "-d", type=int, default=None)
@click.option("--lambda-min", type=float, default=None)
@click.option("--lambda-max", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--output", type=str, default=None, help="CSV path, '-' for stdout.")
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_eos(capacity, lambda_min, lambda_max, points, output, json_config):
    """Equation-of-state sweep for a common-salary level.

    The zero activity (half filling, x = 1) is always inserted into the
    grid when the range covers it.
    """
    cfg = _load_config(json_config)
    capacity = _pick(capacity, cfg, "capacity", kind=int)
    lambda_min = _pick(lambda_min, cfg, "lambda_min", -10.0, kind=float)
    lambda_max = _pick(lambda_max, cfg, "lambda_max", 10.0, kind=float)
    points = _pick(points, cfg, "points", 401, kind=int)
    output = _pick(output, cfg, "output", "-")
    problems = _sweep_problems(capacity, lambda_min, lambda_max, points)
    if problems:
        raise ValidationError(problems)

    grid = np.linspace(lambda_min, lambda_max, points)
    if lambda_min <= 0.0 <= lambda_max:
        grid = np.unique(np.concatenate([grid, [0.0]]))
    table = eos_sweep(capacity, grid)
    _emit(output, _csv_text(EOS_COLUMNS, list(table.rows())))


_DELTA_GUIDANCE = ("delta distribution: supply (alpha, beta) or (lambda, beta) "
                   "instead")


@main.command("thermo")
@click.option("--json-config", type=str, required=True)
@click.option("--out-csv", type=str, default=None,
              help="Also write the state as a one-row CSV.")
@_guard
def cmd_thermo(json_config, out_csv):
    """Full thermostatic state from a JSON config.

    The config needs "distribution", "d", "volume" and one of
    (alpha, beta), (n, u) or, for a point mass, (lambda, beta).
    """
    cfg = _load_config(json_config)
    _require(cfg, ("distribution", "d", "volume"))
    dist = distribution_from_json(cfg["distribution"])
    d = _number(cfg["d"], "d", int)
    volume = _number(cfg["volume"], "volume", int)

    def number(key):
        return _number(cfg[key], key, float)

    has_ab = "alpha" in cfg and "beta" in cfg
    has_nu = "n" in cfg and "u" in cfg
    has_lb = "lambda" in cfg and "beta" in cfg
    if has_ab:
        params = GibbsParams(number("alpha"), number("beta"))
    elif has_lb:
        if not isinstance(dist, Delta):
            raise ValidationError(
                "(lambda, beta) parameterization is only defined for the "
                "delta distribution")
        beta = number("beta")
        params = GibbsParams(number("lambda") - beta * dist.point, beta)
    elif has_nu:
        try:
            params = invert_to_params(dist, d, number("n"), number("u"))
        except SingularInversion as exc:
            if not isinstance(dist, Delta):
                raise
            raise SingularInversion(f"{exc}; {_DELTA_GUIDANCE}") from None
    else:
        raise ValidationError(
            "config must supply (alpha, beta), (n, u) or (lambda, beta)")

    state = thermo_state(dist, d, params, volume)
    res = state.residuals()
    click.echo(_json_text({**asdict(state), "residuals": res}), nl=False)
    if out_csv is not None:
        # the CSV columns are the ThermoState fields in declaration order,
        # then the residuals in the order residuals() lists them
        header = [f.name for f in fields(state)] + [
            "res_entropy", "res_gibbs", "res_euler"]
        row = [*astuple(state), *res.values()]
        _emit(out_csv, _csv_text(header, [row]))


def _parse_levels(cfg):
    levels = cfg.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ValidationError("config key 'levels' must be a non-empty list")
    parsed = []
    problems = []
    for i, lv in enumerate(levels):
        if not isinstance(lv, dict) or "capacity" not in lv or "salary" not in lv:
            problems.append(f"level {i + 1} must be an object with "
                            "'capacity' and 'salary'")
        else:
            parsed.append((lv["capacity"], lv["salary"]))
    if problems:
        raise ValidationError(problems)
    return HierarchySpec(tuple(parsed))


def _canonical_oracle(spec, agents, beta, means, stderrs):
    """Exact reference and z-scores of the chain's level means, or None
    when the hierarchy is too large to enumerate."""
    if spec.total_positions > 10_000:
        return None
    exact = exact_canonical(spec, agents, beta)
    return {
        "mean_occupancy": [float(m) for m in exact.mean_occupancy],
        "z_scores": [float((m - e) / max(s, 1e-300))
                     for m, e, s in zip(means, exact.mean_occupancy, stderrs)],
    }


@main.command("simulate")
@click.option("--json-config", type=str, required=True)
@click.option("--output-dir", type=str, default=".")
@click.option("--oracle", is_flag=True, default=False,
              help="Compare estimates against the exact reference when feasible.")
@click.option("--scenario", type=click.Choice(_SCENARIOS), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--agents", type=int, default=None)
@click.option("--pump-fraction", type=float, default=None)
@click.option("--record-every", type=int, default=None)
@_guard
def cmd_simulate(json_config, output_dir, oracle, scenario, seed, steps, beta,
                 agents, pump_fraction, record_every):
    """Run a seeded chain and write trajectory.csv plus summary.json."""
    cfg = _load_config(json_config)
    scenario = _pick(scenario, cfg, "scenario", "canonical")
    if scenario not in _SCENARIOS:
        raise ValidationError(
            f"scenario must be one of {_SCENARIOS}, got {scenario!r}")
    seed = _resolve_seed(seed, cfg)
    steps = _pick(steps, cfg, "steps", 100_000, kind=int)
    beta = _pick(beta, cfg, "beta", 1.0, kind=float)
    record_every = _pick(record_every, cfg, "record_every", 1, kind=int)
    burn_in = _pick(None, cfg, "burn_in", 0.1, kind=float)

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if scenario == "grand_canonical":
        _require(cfg, ("capacity", "salary", "alpha"), " for grand_canonical runs")
        level = OccupancyLevel(_number(cfg["capacity"], "capacity", int),
                               _number(cfg["salary"], "salary", float))
        params = GibbsParams(_number(cfg["alpha"], "alpha", float), beta)
        sample = sample_grand_canonical(level, params, steps, seed,
                                        burn_in_fraction=burn_in)
        idx = np.arange(0, sample.samples.size, record_every)
        rows = [(int(sample.burn_in + i), int(sample.samples[i])) for i in idx]
        _emit(out / "trajectory.csv", _csv_text(["step", "r"], rows))
        summary = {
            "scenario": scenario, "seed": seed, "steps": steps,
            "burn_in": sample.burn_in,
            "capacity": level.capacity, "salary": level.money_scale,
            "alpha": params.alpha, "beta": params.beta,
            "mean": sample.mean, "stderr": sample.stderr,
            "probabilities": [float(p) for p in sample.probabilities],
            "oracle": None,
        }
        if oracle:
            exact = gentile_mean(activity(level, params), level.capacity)
            summary["oracle"] = {
                "mean": exact,
                "z": (sample.mean - exact) / max(sample.stderr, 1e-300),
            }
    else:  # canonical or social_laser: a chain over a hierarchy
        spec = _parse_levels(cfg)
        agents = _pick(agents, cfg, "agents", spec.total_positions // 2, kind=int)
        header = ["step"] + [f"r_{i + 1}" for i in range(len(spec))] + ["energy"]
        summary = {
            "scenario": scenario, "seed": seed, "steps": steps,
            "agents": agents, "beta": beta,
            "levels": [{"capacity": lv.capacity, "salary": lv.salary}
                       for lv in spec.levels],
        }
        if scenario == "canonical":
            run = simulate_canonical(spec, agents, beta, steps, seed,
                                     burn_in_fraction=burn_in,
                                     record_every=record_every)
            rows = [(int(s), *(int(r) for r in occ), float(e))
                    for s, occ, e in zip(run.recorded_steps, run.occupancies,
                                         run.energies)]
            kept = run.recorded_steps >= run.burn_in
            if not kept.any():  # trajectory thinned past the burn-in window
                kept[-1] = True
            means, stderrs = run.mean_occupancy, run.stderr
            summary.update(
                burn_in=run.burn_in, acceptance_rate=run.acceptance_rate,
                mean_occupancy=[float(m) for m in means],
                stderr=[float(s) for s in stderrs],
                energy_mean=float(run.energies[kept].mean()))
        else:
            pump = _pick(pump_fraction, cfg, "pump_fraction", 0.5, kind=float)
            run = pumped_relaxation(spec, agents, beta, pump, steps, steps, seed,
                                    record_every=record_every)
            header.append("phase")
            rows = [(int(s), *(int(r) for r in occ), float(e), PHASE_NAMES[p])
                    for s, occ, e, p in zip(run.recorded_steps, run.occupancies,
                                            run.energies, run.phases)]
            means, stderrs = run.relax_mean_occupancy, run.relax_stderr
            summary.update(
                pump_fraction=pump, pumped_moves=run.pumped_moves,
                relax_mean_occupancy=[float(m) for m in means],
                relax_stderr=[float(s) for s in stderrs])
        _emit(out / "trajectory.csv", _csv_text(header, rows))
        summary["oracle"] = (_canonical_oracle(spec, agents, beta, means, stderrs)
                             if oracle else None)

    _emit(out / "summary.json", _json_text(summary))
    click.echo(f"wrote trajectory.csv and summary.json to {out}")


if __name__ == "__main__":  # pragma: no cover
    main()
