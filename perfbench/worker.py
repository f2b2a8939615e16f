"""One workload of the hierstat benchmark, run in a fresh interpreter.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --workdir DIR [--rounds R]

run.py starts this file once per benchmark run, so the workload's import
cost and peak memory belong to it alone.  A workload is a stream of
rounds whose inputs are drawn in order from one generator seeded with
``--seed``, so the same seed always gives the same inputs.  Every
operation is timed from outside the package and its output checked; an
operation that raises, exits nonzero or fails its check is logged, counted
as failed and enters every latency percentile as infinitely slow.  It
never ends the run.

Untraced (``--trace 0``), a run does a fixed number of rounds, set by
``--seconds`` and the workload's nominal round time but never fewer than
both reported medians need for ten samples beyond them.  A run never
stops on the clock, so the same seed and ``--seconds`` always attempt the
same operations and meet the same failures.  Latencies are in calibrated
seconds (calibration.py).  Traced (``--trace 1``), a
fixed number of rounds runs twice on the same inputs, first plain and then
with the tracer installed; the per-layer metrics come from the second pass
and ``trace.overhead_s`` is the difference in wall time.  The last stdout
line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Package functions are looked up on the package at call time (hs.name), so
# that the tracer's wrappers, installed on the package namespace, see them.
import hierstat as hs
from hierstat import (
    GibbsParams,
    HierarchySpec,
    Histogram,
    OccupancyLevel,
    TwoPoint,
    Uniform,
    distribution_to_json,
)
from hierstat.figures import EOS_D_VALUES
from hierstat.thermostatics import EOS_COLUMNS

import calibration
from tracer import Tracer, layer_metrics

INF = math.inf


def percentile(values, q):
    """Nearest-rank percentile, or None without ten samples beyond it."""
    xs = sorted(values)
    k = max(1, math.ceil(q * len(xs)))
    if len(xs) - k < 10:
        return None
    return xs[k - 1]


def median(values):
    return statistics.median(values) if values else 0.0


class Failed(Exception):
    """A command exited nonzero; the message carries its stderr."""


class Recorder:
    """Times operations, checks their outputs and keeps the failure log."""

    def __init__(self, workload: str, seed: int, log_path: Path | None, *,
                 calibrated: bool):
        self.workload = workload
        self.calibrated = calibrated
        self.seed = seed
        self.log_path = log_path
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracer = None

    def op(self, stream: str, index: int, fn, check):
        """Run ``fn`` as one timed operation; ``check`` returns a problem or None.

        Returns the latency, in reference seconds when calibrated (see
        calibration.py) and plain seconds otherwise, or INF when the
        operation failed.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op(stream)
        try:
            if self.calibrated:
                out, dt = calibration.timed(fn)
            else:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failing operation is data, never the end of the run
            self._log(stream, index, type(exc).__name__, str(exc), wrong=False)
            self.samples[stream].append(INF)
            return INF
        try:
            problem = check(out)
        except Exception as exc:  # unreadable output is a wrong output
            problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self._log(stream, index, "WrongOutput", problem, wrong=True)
            self.samples[stream].append(INF)
            return INF
        self.samples[stream].append(dt)
        return dt

    def _log(self, stream, index, error, message, *, wrong):
        self.failed += 1
        self.wrong += wrong
        entry = {"workload": self.workload, "seed": self.seed, "draw": index,
                 "op": stream, "error": error, "message": message[:2000]}
        line = json.dumps(entry, sort_keys=True)
        print(f"FAILED {line}", file=sys.stderr, flush=True)
        if self.log_path is not None:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# --------------------------------------------------------------------------
# thermo-inverse: the numerics path, kernel -> quadrature -> moments -> Newton

VOLUME = 100
MAXWELL = (TwoPoint(1.0, 3.0, 0.5), 5, GibbsParams(-2.0, 1.0), VOLUME)
DISCRETE_PER_ROUND = 5


def _criterion9_point(rng, dist):
    """d and (alpha, beta) from the box of acceptance criterion 9."""
    d = int(rng.integers(2, 12))
    params = GibbsParams(float(rng.uniform(-4, 0.5)), float(rng.uniform(0.3, 2.5)))
    return (dist, d, params, hs.ensemble_moments(dist, d, params))


def _check_solve(params):
    def check(out):
        rec, state = out
        err = max(abs(rec.alpha - params.alpha), abs(rec.beta - params.beta))
        if not err < 1e-8:
            return f"round trip misses (alpha, beta) by {err!r} (bound 1e-8)"
        res = state.residuals()
        if not (res["euler_identity"] < 1e-8 and res["gibbs_identity"] < 1e-8):
            return f"thermostatic identities violated: {res}"
        return None
    return check


def _solve(case):
    dist, d, _, mom = case
    rec = hs.invert_to_params(dist, d, mom.n, mom.u)
    return rec, hs.thermo_state(dist, d, rec, VOLUME)


def _check_maxwell(report):
    if not all(r < 1e-4 for r in report.residuals):
        return f"Maxwell residuals {report.residuals} not all < 1e-4"
    if not all(o >= 1.8 for o in report.orders):
        return f"Maxwell orders {report.orders} not all >= 1.8"
    return None


class ThermoInverse:
    """A Uniform solve, five TwoPoint solves and a maxwell_check per round."""

    headline = "continuous"
    nominal_round_s = 1.5
    untraced_round_s = 1.5
    #: one Uniform solve per round; its median needs 20 samples
    min_rounds = 20

    def __init__(self, root: Path, workdir: Path, seed: int):
        pass

    def draw(self, rng, index):
        cont = _criterion9_point(rng, Uniform(float(rng.uniform(0.2, 1.0)),
                                              float(rng.uniform(1.5, 3.0))))
        disc = [_criterion9_point(rng, TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8))))
                for _ in range(DISCRETE_PER_ROUND)]
        return cont, disc

    def run_round(self, rec: Recorder, index, inputs):
        cont, disc = inputs
        total = 0.0
        for stream, case in [("continuous", cont)] + [("discrete", c) for c in disc]:
            total += rec.op(stream, index, lambda c=case: _solve(c), _check_solve(case[2]))
        total += rec.op("maxwell", index, lambda: hs.maxwell_check(*MAXWELL), _check_maxwell)
        rec.samples["round"].append(total)

    def details(self, s):
        return {
            "invert_continuous_s.p50": (percentile(s["continuous"], 0.5), "s"),
            "invert_discrete_s.p50": (percentile(s["discrete"], 0.5), "s"),
            "invert_discrete_s.p90": (percentile(s["discrete"], 0.9), "s"),
            "maxwell_s.p50": (percentile(s["maxwell"], 0.5), "s"),
        }


# --------------------------------------------------------------------------
# chains: Metropolis samplers against the exact convolution reference

CHAIN_STEPS = 120_000
GRAND_STEPS = 100_000
#: standard errors a chain mean may sit from the exact value; batch means
#: over 32 batches put |z| > 8 at about 1e-8 per comparison
Z_BOUND = 8.0
DEEP = HierarchySpec(tuple((2 ** k, 0.5 * (8 - k)) for k in range(8)))
DEEP_AGENTS = 127
BIG = HierarchySpec(((10, 4.0), (100, 3.0), (1000, 2.0), (5000, 1.0)))
BIG_AGENTS = 3000


def _check_chain(means, errs, exact, label):
    for i, (m, s, e) in enumerate(zip(means, errs, exact)):
        if not abs(m - e) <= Z_BOUND * s:
            return (f"{label}: level {i + 1} mean {m!r} is {abs(m - e) / max(s, 1e-300):.2f} "
                    f"standard errors from exact {e!r} (bound {Z_BOUND})")
    return None


class Chains:
    """Two canonical chains, one grand-canonical chain, two exact references."""

    headline = "exact"
    nominal_round_s = 0.85
    untraced_round_s = 1.35
    #: one large exact_canonical per round; its median needs 20 samples
    min_rounds = 20

    def __init__(self, root: Path, workdir: Path, seed: int):
        golden = json.loads((root / "tests/data/golden_canonical_l3.json").read_text())
        self.gold = HierarchySpec(tuple((c, s) for c, s in golden["levels"]))
        self.gold_agents = golden["agents"]
        self.gold_beta = golden["beta"]
        self.gold_means = golden["mean_occupancy"]
        self.gold_log_total = golden["log_weight_total"]

    def draw(self, rng, index):
        seeds = [int(x) for x in rng.integers(0, 2 ** 31, size=3)]
        deep_beta = float(rng.uniform(0.3, 1.0))
        level = OccupancyLevel(int(rng.integers(2, 11)), 2.0)
        params = GibbsParams(float(rng.uniform(-4.0, 0.0)), 1.0)
        big_beta = float(rng.uniform(0.5, 1.5))
        deep_exact = hs.exact_canonical(DEEP, DEEP_AGENTS, deep_beta).mean_occupancy.tolist()
        grand_exact = hs.gentile_mean(params.alpha + params.beta * level.money_scale,
                                      level.capacity)
        return seeds, deep_beta, deep_exact, level, params, grand_exact, big_beta

    def run_round(self, rec: Recorder, index, inputs):
        seeds, deep_beta, deep_exact, level, params, grand_exact, big_beta = inputs
        chains = (
            (lambda: hs.simulate_canonical(self.gold, self.gold_agents, self.gold_beta,
                                           CHAIN_STEPS, seeds[0]),
             lambda run: _check_chain(run.mean_occupancy, run.stderr, self.gold_means,
                                      "golden spec"),
             CHAIN_STEPS),
            (lambda: hs.simulate_canonical(DEEP, DEEP_AGENTS, deep_beta, CHAIN_STEPS,
                                           seeds[1]),
             lambda run: _check_chain(run.mean_occupancy, run.stderr, deep_exact,
                                      "deep spec"),
             CHAIN_STEPS),
            (lambda: hs.sample_grand_canonical(level, params, GRAND_STEPS, seeds[2]),
             lambda s: _check_chain([s.mean], [s.stderr], [grand_exact], "grand canonical"),
             GRAND_STEPS),
        )
        chain_s = 0.0
        steps = 0
        for fn, check, n in chains:
            dt = rec.op("chain", index, fn, check)
            chain_s += dt
            steps += n if dt < INF else 0
        rec.samples["chain_steps"].append(steps)
        rec.samples["chain_s"].append(chain_s)
        small = rec.op("exact_small", index,
                       lambda: hs.exact_canonical(self.gold, self.gold_agents, self.gold_beta),
                       self._check_gold)
        big = rec.op("exact", index,
                     lambda: hs.exact_canonical(BIG, BIG_AGENTS, big_beta), self._check_big)
        rec.samples["round"].append(chain_s + small + big)

    def _check_gold(self, ex):
        if not all(_rel(a, b) <= 1e-12 for a, b in zip(ex.mean_occupancy, self.gold_means)):
            return f"golden spec means {ex.mean_occupancy.tolist()} != {self.gold_means}"
        if not _rel(ex.log_weight_total, self.gold_log_total) <= 1e-12:
            return f"golden spec log weight {ex.log_weight_total!r} != {self.gold_log_total!r}"
        return None

    @staticmethod
    def _check_big(ex):
        means = ex.mean_occupancy
        if not _rel(float(means.sum()), BIG_AGENTS) <= 1e-9:
            return f"level means sum to {float(means.sum())!r}, not {BIG_AGENTS}"
        for i, (m, marg) in enumerate(zip(means, ex.marginals)):
            cap = BIG.levels[i].capacity
            if not (0.0 <= m <= cap and abs(float(marg.sum()) - 1.0) <= 1e-9):
                return f"level {i + 1}: mean {m!r} or marginal mass {float(marg.sum())!r} invalid"
        return None

    def details(self, s):
        return {
            "chain_steps_per_s": (median([n / t for n, t in zip(s["chain_steps"], s["chain_s"])]),
                                  "steps/s"),
            "exact_canonical_s.p50": (percentile(s["exact"], 0.5), "s"),
        }


# --------------------------------------------------------------------------
# cli-mix: the command line tool, interpreter start and import included

FIGURE_HEADERS = {
    1: "epsilon,share", 2: "epsilon,share",
    3: "lambda,f_g_d1,f_g_d2,f_g_d5,f_g_d20",
    4: "lambda,rel_d1,rel_d2,rel_d5,rel_d20",
    5: "d,lambda,n_over_V,n_over_Vd,p_over_T",
    6: "d,lambda,n_over_Vd,mu_shifted_over_T",
    7: "d,lambda,x,n_over_d",
}
THERMO_CSV_HEADER = ("n,u,psi,entropy_total,temperature,financial_potential,pressure,"
                     "gibbs_free_energy,volume,elements,energy_total,omega,alpha,beta,"
                     "res_entropy,res_gibbs,res_euler")
#: in-process passes over the round's commands per subprocess pass
INPROCESS_PASSES = 5


def _csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_thermo(stdout, expect, csv_path=None):
    """Residuals below 1e-8 and each (key, want, tol) within tol of want."""
    state = json.loads(stdout)
    bad = {k: v for k, v in state["residuals"].items() if not v < 1e-8}
    if bad:
        return f"thermo residuals {bad} not < 1e-8"
    for key, want, tol in expect:
        if not abs(state[key] - want) <= tol:
            return f"thermo {key} = {state[key]!r}, expected {want!r} within {tol!r}"
    if csv_path is not None:
        header, rows = _csv(csv_path)
        if header != THERMO_CSV_HEADER or len(rows) != 1:
            return f"thermo CSV has header {header!r} and {len(rows)} rows"
    return None


class CliMix:
    """Six CLI calls per round as subprocesses, then the same six in-process."""

    headline = "call"
    #: in-process passes only, as in a traced run
    nominal_round_s = 0.3 * INPROCESS_PASSES
    #: six subprocess calls of ~0.95 s plus the in-process passes
    untraced_round_s = 6 * 0.95 + nominal_round_s
    #: 4 rounds give 24 call samples and 20 pass samples
    min_rounds = 4

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.dir = workdir
        self.golden_cfg = root / "tests/data/golden_simulate_config.json"
        self.golden_summary = (root / "tests/data/golden_simulate_summary.json").read_bytes()
        self.figure_offset = seed % 7
        from hierstat.cli import main
        self.main = main

    def draw(self, rng, index):
        """The round's command inputs: capacities, figure id, two thermo states."""
        d_gentile = int(rng.integers(1, 1001))
        d_eos = int(rng.integers(1, 50_001))
        figure = (self.figure_offset + index) % 7 + 1
        if index % 2 == 0:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        else:
            widths = rng.uniform(0.3, 1.0, size=4)
            edges = np.concatenate(([float(rng.uniform(0.0, 1.0))], widths)).cumsum()
            masses = rng.dirichlet(np.ones(4)).tolist()
            masses[-1] = 1.0 - sum(masses[:-1])
            dist = Histogram(tuple(edges.tolist()), tuple(masses))
        ab = _criterion9_point(rng, dist)
        nu = _criterion9_point(rng, TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8))))
        return d_gentile, d_eos, figure, ab, nu

    def commands(self, inputs):
        """The round's six commands as (name, argv, check) triples.

        The thermo configs are written here, untimed; the (n, u) targets
        come from forward moments, so they are attainable.
        """
        d_gentile, d_eos, figure, ab, nu = inputs
        d = self.dir
        for name, (dist, cap, params, mom) in (("ab", ab), ("nu", nu)):
            cfg = {"distribution": distribution_to_json(dist), "d": cap, "volume": VOLUME}
            if name == "ab":
                cfg.update(alpha=params.alpha, beta=params.beta)
            else:
                cfg.update(n=mom.n, u=mom.u)
            (d / f"thermo_{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        mom = ab[3]
        forward = [(k, getattr(mom, k), 1e-12 * abs(getattr(mom, k))) for k in ("n", "u", "omega")]
        target = nu[2]
        return [
            ("gentile", ["gentile", "-d", str(d_gentile), "--points", "401",
                         "--output", str(d / "gentile.csv")],
             lambda out: self._check_gentile(d_gentile)),
            ("eos", ["eos", "-d", str(d_eos), "--lambda-min", "-0.001",
                     "--lambda-max", "0.001", "--points", "201",
                     "--output", str(d / "eos.csv")],
             lambda out: self._check_eos()),
            ("figures", ["figures", "--figure", str(figure), "--output-dir", str(d / "fig")],
             lambda out: self._check_figure(figure)),
            ("thermo", ["thermo", "--json-config", str(d / "thermo_ab.json"),
                        "--out-csv", str(d / "thermo.csv")],
             lambda out: _check_thermo(out, forward, d / "thermo.csv")),
            ("thermo", ["thermo", "--json-config", str(d / "thermo_nu.json")],
             lambda out: _check_thermo(out, (("alpha", target.alpha, 1e-8),
                                             ("beta", target.beta, 1e-8)))),
            ("simulate", ["simulate", "--json-config", str(self.golden_cfg),
                          "--output-dir", str(d / "sim"), "--oracle"],
             lambda out: self._check_simulate()),
        ]

    # -- the two ways to call a command -------------------------------------------

    def subprocess_call(self, argv):
        proc = subprocess.run([sys.executable, "-m", "hierstat.cli", *argv],
                              cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise Failed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def inprocess_call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=argv, prog_name="hierstat", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise Failed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def _fresh(self):
        for name in ("gentile.csv", "eos.csv", "thermo.csv"):
            (self.dir / name).unlink(missing_ok=True)
        for sub in ("fig", "sim"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)

    def run_round(self, rec: Recorder, index, inputs, *, subprocesses=True):
        commands = self.commands(inputs)
        if subprocesses:
            for _, argv, check in commands:
                self._fresh()
                rec.op("call", index, lambda a=argv: self.subprocess_call(a), check)
        for _ in range(INPROCESS_PASSES):
            total = 0.0
            per_command = defaultdict(float)
            for name, argv, check in commands:
                self._fresh()
                dt = rec.op("inprocess", index, lambda a=argv: self.inprocess_call(a), check)
                per_command[name] += dt
                total += dt
            rec.samples["round"].append(total)
            for name, dt in per_command.items():
                rec.samples[f"work.{name}"].append(dt)

    # -- output checks ------------------------------------------------------------

    def _check_gentile(self, d):
        header, rows = _csv(self.dir / "gentile.csv")
        if header != "lambda,f_g" or len(rows) != 401:
            return f"gentile CSV has header {header!r} and {len(rows)} rows (want 401)"
        if float(rows[0][0]) != -10.0 or float(rows[-1][0]) != 10.0:
            return "gentile grid does not span [-10, 10]"
        if not all(0.0 < float(r[1]) < d for r in rows):
            return f"gentile mean outside (0, {d})"
        return None

    def _check_eos(self):
        header, rows = _csv(self.dir / "eos.csv")
        if header != ",".join(EOS_COLUMNS) or len(rows) not in (201, 202):
            return f"eos CSV has header {header!r} and {len(rows)} rows (want 201 or 202)"
        zero = [r for r in rows if float(r[0]) == 0.0]
        if len(zero) != 1 or float(zero[0][1]) != 0.5 or float(zero[0][4]) != 1.0:
            return f"eos zero-activity row is {zero}, want n_over_d 0.5 and x 1.0"
        return None

    def _check_figure(self, fig):
        header, rows = _csv(self.dir / "fig" / f"fig{fig}.csv")
        if header != FIGURE_HEADERS[fig]:
            return f"fig{fig}.csv header {header!r} != {FIGURE_HEADERS[fig]!r}"
        if fig in (1, 2, 3, 4):
            want = 201 if fig <= 2 else 401
            if len(rows) != want:
                return f"fig{fig}.csv has {len(rows)} rows, want {want}"
        else:
            per_d = defaultdict(int)
            for r in rows:
                per_d[int(r[0])] += 1
            if sorted(per_d) != sorted(EOS_D_VALUES) or \
                    not all(n in (301, 302) for n in per_d.values()):
                return f"fig{fig}.csv rows per capacity {dict(per_d)}, want 301 or 302 each"
        svg = (self.dir / "fig" / f"fig{fig}.svg").read_text(encoding="utf-8")
        if "<svg" not in svg[:200]:
            return f"fig{fig}.svg is not an SVG document"
        return None

    def _check_simulate(self):
        if (self.dir / "sim" / "summary.json").read_bytes() != self.golden_summary:
            return "simulate summary.json differs from golden_simulate_summary.json"
        header, rows = _csv(self.dir / "sim" / "trajectory.csv")
        if header != "step,r_1,r_2,r_3,energy" or len(rows) != 1200:
            return f"trajectory.csv has header {header!r} and {len(rows)} rows (want 1200)"
        return None

    def details(self, s):
        return {"cli_call_s.p50": (percentile(s["call"], 0.5), "s")}


WORKLOADS = {"cli-mix": CliMix, "thermo-inverse": ThermoInverse, "chains": Chains}

# --------------------------------------------------------------------------
# running

def draw_rounds(workload, seed, count):
    """The first ``count`` rounds of inputs for a seed."""
    rng = np.random.default_rng(seed)
    return [workload.draw(rng, i) for i in range(count)]


def untraced_rounds(wl, seconds):
    """Rounds of an untraced run: a function of ``--seconds`` alone, never the clock."""
    return max(wl.min_rounds, round(seconds / wl.untraced_round_s))


def run_untraced(wl, rec, seed, rounds):
    rng = np.random.default_rng(seed)
    for i in range(rounds):
        wl.run_round(rec, i, wl.draw(rng, i))
    return rounds


def _fresh_process_s(code, repeats=5):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return median(times)


def run_traced(name, wl, rec, seed, rounds, trace_path):
    """Plain pass and traced pass over the same rounds; per-layer metrics."""
    inputs = draw_rounds(wl, seed, rounds)
    kwargs = {"subprocesses": False} if name == "cli-mix" else {}

    t0 = time.perf_counter()
    for i, x in enumerate(inputs):
        wl.run_round(rec, i, x, **kwargs)
    plain_s = time.perf_counter() - t0
    plain_samples = rec.samples
    rec.samples = defaultdict(list)

    tracer = Tracer()
    rec.tracer = tracer
    t0 = time.perf_counter()
    with tracer:
        for i, x in enumerate(inputs):
            wl.run_round(rec, i, x, **kwargs)
    traced_s = time.perf_counter() - t0
    rec.tracer = None
    tracer.dump(trace_path)

    metrics = layer_metrics(tracer.merged())
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    if name == "cli-mix":
        cli["cli.interpreter_s"] = _fresh_process_s("pass")
        cli["cli.import_s"] = _fresh_process_s("import hierstat.cli")
    for key, value in cli.items():
        metrics[key] = (value, "s")
    for cmd in ("gentile", "eos", "figures", "thermo", "simulate"):
        metrics[f"cli.work_s.{cmd}"] = (median(plain_samples.get(f"work.{cmd}", [])), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--rounds", type=int, default=None,
                    help="fixed round count instead of the time budget")
    ap.add_argument("--workdir", required=True, type=Path)
    args = ap.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.root, args.workdir, args.seed)
    rec = Recorder(args.workload, args.seed, args.workdir.parent / "failures.jsonl",
                   calibrated=not args.trace)

    if args.trace:
        rounds = args.rounds or max(1, round(args.seconds / 2 / wl.nominal_round_s))
        trace_path = args.workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = run_traced(args.workload, wl, rec, args.seed, rounds, trace_path)
        metrics["fail_frac"] = (rec.failed / max(rec.attempted, 1), "ratio")
        details = {}
    else:
        rounds = run_untraced(wl, rec, args.seed,
                              args.rounds or untraced_rounds(wl, args.seconds))
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" \
            else resource.RUSAGE_SELF
        metrics = {
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
            "op_s.p50": (percentile(rec.samples[wl.headline], 0.5), "s"),
            "round_s.p50": (percentile(rec.samples["round"], 0.5), "s"),
        }
        details = wl.details(rec.samples)
        details["fail_frac"] = (rec.failed / max(rec.attempted, 1), "ratio")
    result = {
        "attempted": rec.attempted, "failed": rec.failed, "wrong": rec.wrong,
        "rounds": rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
