"""Command line front end.

Subcommands: ``gentile`` (occupancy curves), ``figures`` (the seven
standard charts as CSV + SVG), ``thermo`` (one thermostatic state),
``eos`` (equation-of-state sweep) and ``simulate`` (seeded chains from a
JSON config).  Each command declares its options once, in one table that
its ``argparse`` parser is built from at import.  Every command accepts
``--json-config FILE``: each option's name is a config key typed like
the option, and a flag wins over the file.  Exit codes: 0 success, 2
usage or validation, 3 numerical failure, 4 i/o.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import NamedTuple

from .errors import (_DOUBLE_MAX, NoConvergence, SingularInversion, ValidationError,
                     check_int, check_real, checked)
from .figures import build_figure
from .gentile import (EOS_COLUMNS, EnergySign, GibbsParams, OccupancyLevel, _grid, activity,
                      eos_sweep, gentile_mean, occupancy_probabilities)

# gentile, eos, figures and thermo run on the scalar kernels alone, and
# simulate imports numpy inside its command

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _Opt(NamedTuple):
    """One row of a command's option table.  ``name``, with dashes for
    underscores, is the flag and also the config key; ``kind`` is int,
    float, str, or bool for a flag."""

    name: str
    kind: type = str
    default: object = None
    choices: tuple | None = None
    short: str | None = None
    help: str | None = None


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Descriptions as written; the command names' indent counted in the help column."""

    def add_argument(self, action):
        super().add_argument(action)
        self._action_max_length += 2 * (action.nargs == argparse.PARSER)


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, ``--help`` alone, and every token ``float()`` reads is a
    value (argparse's own rule takes ``-1e-3`` and ``-inf`` for options)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


_PARSER = _Parser(prog="hierstat", description="Occupancy statistics and "
                  "thermostatics of hierarchical systems.")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def _command(name, *table, config_required=False):
    """Declare command ``name`` with the option ``table``.  Every parser
    default is None, so :func:`_resolve` can tell an option left unset."""

    def declare(fn):
        lines = [line.strip() for line in fn.__doc__.splitlines()]
        parser = _COMMANDS.add_parser(name, help=lines[0], description="\n".join(lines))
        for opt in table:
            flags = ["--" + opt.name.replace("_", "-")] + ([opt.short] if opt.short else [])
            kind = ({"action": "store_const", "const": True} if opt.kind is bool
                    else {"type": opt.kind, "choices": opt.choices})
            parser.add_argument(*flags, help=opt.help, **kind)
        parser.add_argument("--json-config", required=config_required)
        parser.set_defaults(run=_guard(fn, table))
        return fn

    return declare


def main(argv=None):
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names.
    Returns on success; raises SystemExit with the exit code on failure."""
    flags = vars(_PARSER.parse_args(argv))
    flags.pop("run")(**flags)


# the older programmatic call, main.main(args=argv, standalone_mode=False)
main.main = lambda args=None, **_: main(args)


def _guard(fn, table):
    """``fn`` run on the loaded config (for its config-only keys) and its
    options as :func:`_resolve` gives them; package errors become exit codes."""

    def run(json_config, **flags):
        try:
            cfg = _load_config(json_config)
            return fn(cfg, **{opt.name: _resolve(opt, flags[opt.name], cfg)
                              for opt in table})
        except ValidationError as exc:
            for line in exc.violations:
                print(f"validation error: {line}", file=sys.stderr)
            sys.exit(EXIT_VALIDATION)
        except (NoConvergence, SingularInversion) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            sys.exit(EXIT_NUMERICAL)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            sys.exit(EXIT_IO)

    return run


def _resolve(opt, flag, cfg):
    """Option ``opt``'s value: its ``flag``, else its config value typed by
    the table, else ``HIERSTAT_SEED`` for the seed, else its default."""
    if flag is not None:
        return flag
    if opt.name in cfg:
        return _typed(cfg, opt.name, opt.kind, opt.choices)
    env = os.environ.get("HIERSTAT_SEED") if opt.name == "seed" else None
    if env is None:
        return opt.default
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"HIERSTAT_SEED must be an integer, got {env!r}") from None


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an int too long to read
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return obj


def _typed(cfg, key, kind, choices=None):
    """``cfg[key]`` as a ``kind`` (int, float, str or bool) and one of the
    ``choices`` if given, or a ValidationError naming ``key``: config files
    may hold strings, bools or fractional counts.  An integral float such
    as 5.0 is accepted as an int."""
    value = cfg[key]
    if choices is not None and value not in choices:
        raise ValidationError(f"{key} must be one of {choices}, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    if kind is bool and not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    if kind is str or kind is bool:
        return value
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return checked(check_int if kind is int else check_real, value, key)


def _require(cfg, keys, context=""):
    missing = [f"config key {k!r} is required{context}" for k in keys if k not in cfg]
    if missing:
        raise ValidationError(missing)


def _sweep_problems(capacity, lambda_min, lambda_max, points, sweep=True):
    """Violations of a required capacity and, with ``sweep``, of the
    activity grid (lambda_min, lambda_max, points)."""
    problems = []
    if capacity is None:
        problems.append("capacity (-d) is required")
    else:
        check_int(capacity, "capacity", problems, 1, _DOUBLE_MAX)
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


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _emit(path, text):
    if path in (None, "-"):
        print(text, end="", flush=True)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@_command(
    "gentile",
    _Opt("capacity", int, short="-d", help="Level capacity d."),
    _Opt("lambda_min", float, -10.0),
    _Opt("lambda_max", float, 10.0),
    _Opt("points", int, 401, help="Grid size."),
    _Opt("relative", bool, False, help="Emit mean population divided by d."),
    _Opt("pmf", bool, False, help="Append the occupation probabilities p0..pd per row."),
    _Opt("alpha", float),
    _Opt("beta", float),
    _Opt("epsilon", float),
    _Opt("sign", str, "salary", ("cost", "salary")),
    _Opt("output", str, "-", help="CSV path, '-' for stdout."),
)
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
    header = ["lambda", "f_g_over_d" if relative else "f_g"]
    header += [f"p{r}" for r in range(d + 1)] if pmf else []
    rows = []
    for lam in grid:
        value = gentile_mean(lam, d)
        row = [lam, value / d if relative else value]
        if pmf:
            row.extend(float(p) for p in occupancy_probabilities(lam, d))
        rows.append(row)
    _emit(output, _csv_text(header, rows))


@_command("figures",
          _Opt("figure", int, help="Figure id, 1..7."),
          _Opt("output_dir", str, "."))
def cmd_figures(cfg, figure, output_dir):
    """Write figN.csv and figN.svg for one standard chart."""
    header, rows, svg = build_figure(figure)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"fig{figure}.csv").write_text(_csv_text(header, rows), encoding="utf-8")
    (out / f"fig{figure}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote fig{figure}.csv and fig{figure}.svg to {out}")


@_command("eos",
          _Opt("capacity", int, short="-d"),
          _Opt("lambda_min", float, -10.0),
          _Opt("lambda_max", float, 10.0),
          _Opt("points", int, 401),
          _Opt("output", str, "-", help="CSV path, '-' for stdout."))
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


@_command("thermo",
          _Opt("out_csv", help="Also write the state as a one-row CSV."),
          config_required=True)
def cmd_thermo(cfg, out_csv):
    """Full thermostatic state from a JSON config.

    The config needs "distribution", "d", "volume" and one of
    (alpha, beta), (n, u) or, for a point mass, (lambda, beta).
    """
    from .distributions import Delta, distribution_from_json
    from .thermostatics import invert_to_params, thermo_state

    _require(cfg, ("distribution", "d", "volume"))
    dist = distribution_from_json(cfg["distribution"])
    d = _typed(cfg, "d", int)
    volume = _typed(cfg, "volume", int)
    if "alpha" in cfg and "beta" in cfg:
        params = GibbsParams(_typed(cfg, "alpha", float), _typed(cfg, "beta", float))
    elif "lambda" in cfg and "beta" in cfg:
        if not isinstance(dist, Delta):
            raise ValidationError(
                "(lambda, beta) parameterization is only defined for the "
                "delta distribution")
        beta = _typed(cfg, "beta", float)
        params = GibbsParams(_typed(cfg, "lambda", float) - beta * dist.point, beta)
    elif "n" in cfg and "u" in cfg:
        params = invert_to_params(dist, d, _typed(cfg, "n", float),
                                  _typed(cfg, "u", float))
    else:
        raise ValidationError(
            "config must supply (alpha, beta), (n, u) or (lambda, beta)")

    state = thermo_state(dist, d, params, volume)
    res = state.residuals()
    _emit(None, _json_text({**asdict(state), "residuals": res}))
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
    parsed, problems = [], []
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


@_command(
    "simulate",
    _Opt("output_dir", str, "."),
    _Opt("oracle", bool, False,
         help="Compare estimates against the exact reference when feasible."),
    _Opt("scenario", str, "canonical", ("canonical", "grand_canonical", "social_laser")),
    _Opt("seed", int, 0),
    _Opt("steps", int, 100_000),
    _Opt("beta", float, 1.0),
    _Opt("agents", int),
    _Opt("pump_fraction", float, 0.5),
    _Opt("record_every", int, 1),
    config_required=True,
)
def cmd_simulate(cfg, output_dir, oracle, scenario, seed, steps, beta,
                 agents, pump_fraction, record_every):
    """Run a seeded chain and write trajectory.csv plus summary.json."""
    from .hierarchy import exact_canonical
    from .montecarlo import (PHASE_NAMES, pumped_relaxation, sample_grand_canonical,
                             simulate_canonical)

    burn_in = _typed(cfg, "burn_in", float) if "burn_in" in cfg else 0.1
    summary = {"scenario": scenario, "seed": seed, "steps": steps, "beta": beta,
               "oracle": None}

    if scenario == "grand_canonical":
        _require(cfg, ("capacity", "salary", "alpha"), " for grand_canonical runs")
        level = OccupancyLevel(_typed(cfg, "capacity", int), _typed(cfg, "salary", float))
        params = GibbsParams(_typed(cfg, "alpha", float), beta)
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
    print(f"wrote trajectory.csv and summary.json to {out}")


if __name__ == "__main__":  # pragma: no cover
    main()
