"""Command line front end.

Subcommands: ``gentile`` (occupancy curves), ``figures`` (the seven
standard charts as CSV + SVG), ``thermo`` (one thermostatic state),
``eos`` (equation-of-state sweep) and ``simulate`` (seeded chains from a
JSON config).  Every command accepts ``--json-config FILE``: each
option's name is a config key typed like the option, and a flag wins
over the file.  Exit codes: 0 success, 2 validation, 3 numerical
failure, 4 i/o.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import click

from .errors import (
    NoConvergence,
    SingularInversion,
    ValidationError,
    check_int,
    check_real,
    checked,
)
from .figures import build_figure
from .gentile import (
    EOS_COLUMNS,
    EnergySign,
    GibbsParams,
    OccupancyLevel,
    _grid,
    activity,
    eos_sweep,
    gentile_mean,
    occupancy_probabilities,
)

# gentile, eos, figures and thermo run on the scalar kernels alone, and
# simulate imports numpy inside its command

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SCENARIOS = ("canonical", "grand_canonical", "social_laser")


def _guard(fn):
    """Merge ``--json-config`` into the options and map package errors onto
    the documented exit codes.

    Each option left at its default takes the config value stored under the
    option's name, checked against the option's type.  The command gets the
    loaded config as its first argument, for its config-only keys.
    """

    @functools.wraps(fn)
    def wrapper(json_config, **options):
        try:
            cfg = _load_config(json_config)
            ctx = click.get_current_context()
            for param in ctx.command.params:
                if (param.name in options and param.name in cfg
                        and ctx.get_parameter_source(param.name)
                        is click.core.ParameterSource.DEFAULT):
                    options[param.name] = _option_value(param, cfg[param.name])
            return fn(cfg, **options)
        except ValidationError as exc:
            for line in exc.violations:
                click.echo(f"validation error: {line}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (NoConvergence, SingularInversion) as exc:
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


def _option_value(param, value):
    """The config ``value`` for option ``param``, typed like the option: a
    flag takes a bool, an int or float option a number, a choice one of its
    choices and any other option a string."""
    kind = {"boolean": bool, "integer": int, "float": float}.get(param.type.name)
    if kind is not None:
        return _number(value, param.name, kind)
    if isinstance(param.type, click.Choice):
        if value not in param.type.choices:
            raise ValidationError(f"{param.name} must be one of "
                                  f"{tuple(param.type.choices)}, got {value!r}")
    elif not isinstance(value, str):
        raise ValidationError(f"{param.name} must be a string, got {value!r}")
    return value


def _resolve_seed(seed):
    """``seed`` when a flag or the config gives one, else ``HIERSTAT_SEED``,
    else 0."""
    if seed is not None:
        return seed
    env = os.environ.get("HIERSTAT_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"HIERSTAT_SEED must be an integer, got {env!r}") from None


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
        elif not math.isfinite(lambda_max - lambda_min):
            problems.append(f"grid span is not finite: lambda-min {lambda_min} "
                            f"to lambda-max {lambda_max}")
    return problems


def _fmt(value):
    if isinstance(value, float):
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
@click.option("--lambda-min", type=float, default=-10.0)
@click.option("--lambda-max", type=float, default=10.0)
@click.option("--points", type=int, default=401, help="Grid size.")
@click.option("--relative", is_flag=True, default=False,
              help="Emit mean population divided by d.")
@click.option("--pmf", is_flag=True, default=False,
              help="Append the occupation probabilities p0..pd per row.")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--sign", type=click.Choice(["cost", "salary"]), default="salary")
@click.option("--output", type=str, default="-", help="CSV path, '-' for stdout.")
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_gentile(cfg, capacity, lambda_min, lambda_max, points, relative, pmf,
                alpha, beta, epsilon, sign, output):
    """Mean population of one level over an activity grid.

    Either sweep --lambda-min/--lambda-max/--points, or give
    --alpha/--beta/--epsilon (and --sign) for a single activity row.
    """
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
        grid = _grid(lambda_min, lambda_max, points)

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
@click.option("--output-dir", type=str, default=".")
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_figures(cfg, figure, output_dir):
    """Write figN.csv and figN.svg for one standard chart."""
    header, rows, svg = build_figure(figure)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"fig{figure}.csv").write_text(_csv_text(header, rows), encoding="utf-8")
    (out / f"fig{figure}.svg").write_text(svg, encoding="utf-8")
    click.echo(f"wrote fig{figure}.csv and fig{figure}.svg to {out}")


@main.command("eos")
@click.option("--capacity", "-d", type=int, default=None)
@click.option("--lambda-min", type=float, default=-10.0)
@click.option("--lambda-max", type=float, default=10.0)
@click.option("--points", type=int, default=401)
@click.option("--output", type=str, default="-", help="CSV path, '-' for stdout.")
@click.option("--json-config", type=str, default=None)
@_guard
def cmd_eos(cfg, capacity, lambda_min, lambda_max, points, output):
    """Equation-of-state sweep for a common-salary level.

    The zero activity (half filling, x = 1) is always inserted into the
    grid when the range covers it.
    """
    problems = _sweep_problems(capacity, lambda_min, lambda_max, points)
    if problems:
        raise ValidationError(problems)

    grid = _grid(lambda_min, lambda_max, points, zero=lambda_min <= 0.0 <= lambda_max)
    table = eos_sweep(capacity, grid)
    _emit(output, _csv_text(EOS_COLUMNS, list(table.rows())))


@main.command("thermo")
@click.option("--json-config", type=str, required=True)
@click.option("--out-csv", type=str, default=None,
              help="Also write the state as a one-row CSV.")
@_guard
def cmd_thermo(cfg, out_csv):
    """Full thermostatic state from a JSON config.

    The config needs "distribution", "d", "volume" and one of
    (alpha, beta), (n, u) or, for a point mass, (lambda, beta).
    """
    from .distributions import Delta, distribution_from_json
    from .thermostatics import invert_to_params, thermo_state

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
        params = invert_to_params(dist, d, number("n"), number("u"))
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
    from .hierarchy import HierarchySpec

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


def _z_scores(estimates, exact, stderrs):
    """(estimate - exact) / stderr per entry; a zero stderr counts as 1e-300."""
    return [float((m - e) / max(s, 1e-300)) for m, e, s in zip(estimates, exact, stderrs)]


@main.command("simulate")
@click.option("--json-config", type=str, required=True)
@click.option("--output-dir", type=str, default=".")
@click.option("--oracle", is_flag=True, default=False,
              help="Compare estimates against the exact reference when feasible.")
@click.option("--scenario", type=click.Choice(_SCENARIOS), default="canonical")
@click.option("--seed", type=int, default=None)
@click.option("--steps", type=int, default=100_000)
@click.option("--beta", type=float, default=1.0)
@click.option("--agents", type=int, default=None)
@click.option("--pump-fraction", type=float, default=0.5)
@click.option("--record-every", type=int, default=1)
@_guard
def cmd_simulate(cfg, output_dir, oracle, scenario, seed, steps, beta,
                 agents, pump_fraction, record_every):
    """Run a seeded chain and write trajectory.csv plus summary.json."""
    from .hierarchy import exact_canonical
    from .montecarlo import (PHASE_NAMES, pumped_relaxation, sample_grand_canonical,
                             simulate_canonical)

    seed = _resolve_seed(seed)
    burn_in = _number(cfg.get("burn_in", 0.1), "burn_in", float)
    summary = {"scenario": scenario, "seed": seed, "steps": steps, "beta": beta,
               "oracle": None}

    if scenario == "grand_canonical":
        _require(cfg, ("capacity", "salary", "alpha"), " for grand_canonical runs")
        level = OccupancyLevel(_number(cfg["capacity"], "capacity", int),
                               _number(cfg["salary"], "salary", float))
        params = GibbsParams(_number(cfg["alpha"], "alpha", float), beta)
        record_every = checked(check_int, record_every, "record_every", 1)
        sample = sample_grand_canonical(level, params, steps, seed,
                                        burn_in_fraction=burn_in)
        header = ["step", "r"]
        columns = [range(sample.burn_in, sample.steps, record_every),
                   sample.samples[::record_every].tolist()]
        summary.update(
            burn_in=sample.burn_in, capacity=level.capacity, salary=level.money_scale,
            alpha=params.alpha, mean=sample.mean, stderr=sample.stderr,
            probabilities=sample.probabilities.tolist())
        if oracle:
            exact = gentile_mean(activity(level, params), level.capacity)
            summary["oracle"] = {"mean": exact, "z": _z_scores(
                [sample.mean], [exact], [sample.stderr])[0]}
    else:  # canonical or social_laser: a chain over a hierarchy
        spec = _parse_levels(cfg)
        if agents is None:
            agents = spec.total_positions // 2
        header = ["step"] + [f"r_{i + 1}" for i in range(len(spec))] + ["energy"]
        summary.update(agents=agents, levels=[
            {"capacity": lv.capacity, "salary": lv.salary} for lv in spec.levels])
        if scenario == "canonical":
            run = simulate_canonical(spec, agents, beta, steps, seed,
                                     burn_in_fraction=burn_in,
                                     record_every=record_every)
            tags = []
            # energies from the burn-in on, or the last one if thinned past it
            kept = min(run.recorded_steps.searchsorted(run.burn_in), len(run.energies) - 1)
            means, stderrs = run.mean_occupancy, run.stderr
            summary.update(
                burn_in=run.burn_in, acceptance_rate=run.acceptance_rate,
                mean_occupancy=means.tolist(), stderr=stderrs.tolist(),
                energy_mean=float(run.energies[kept:].mean()))
        else:
            run = pumped_relaxation(spec, agents, beta, pump_fraction, steps, steps, seed,
                                    record_every=record_every)
            header.append("phase")
            tags = [[PHASE_NAMES[p] for p in run.phases.tolist()]]
            means, stderrs = run.relax_mean_occupancy, run.relax_stderr
            summary.update(
                pump_fraction=pump_fraction, pumped_moves=run.pumped_moves,
                relax_mean_occupancy=means.tolist(), relax_stderr=stderrs.tolist())
        columns = [run.recorded_steps.tolist(), *run.occupancies.T.tolist(),
                   run.energies.tolist(), *tags]
        if oracle and spec.total_positions <= 10_000:  # beyond, the exact sum is too slow
            exact = exact_canonical(spec, agents, beta).mean_occupancy
            summary["oracle"] = {"mean_occupancy": exact.tolist(),
                                 "z_scores": _z_scores(means, exact, stderrs)}

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _emit(out / "trajectory.csv", _csv_text(header, zip(*columns)))
    _emit(out / "summary.json", _json_text(summary))
    click.echo(f"wrote trajectory.csv and summary.json to {out}")


if __name__ == "__main__":  # pragma: no cover
    main()
