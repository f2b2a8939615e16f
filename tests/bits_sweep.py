"""One sha256 per group of outputs over fixed grids, to compare two commits.

Run it on both commits and diff the lines: a group whose hash moved names
the outputs whose bits moved.

    PYTHONPATH=src python tests/bits_sweep.py

The groups are ``exact_canonical`` (means, marginals, total log weight and
the refusal texts on about 60 specs), the ``canonical``, ``grand`` and
``pumped`` samplers, ``long_chains`` (full histories over several blocks of
the chain loop's streams), ``cli`` (the bytes each command writes),
``kernels`` (the fused (f, f', log Z) of ``gentile._kernels``),
``huge_kernels`` (the same at capacities from 1e154 to the largest double,
or the name of what a call raised), ``moments`` (the moment integrals per
phi kind and activity width band) and ``thermo``
(the fields and identity residuals of ``thermo_state`` and the residuals
of ``maxwell_check``, or the refusal) and ``solver`` (the forward moments
and ``invert_to_params`` on the draws of the two round-trip boxes of
``tests/test_thermostatics.py``, or the refusal).  The specs and draws it
shares with the tests come from ``tests/conftest.py``.  It is a tool, not a
test: nothing here is collected or pinned.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import BIG, DEEP, L3, ROUND_TRIP_BOXES, S17, S24, box_draws
from hierstat import (Delta, GibbsParams, HierarchySpec, HierstatError, Histogram,
                      OccupancyLevel, ParametricFamily, TwoPoint, Uniform, ValidationError,
                      ensemble_moments, exact_canonical, invert_to_params, maxwell_check,
                      pumped_relaxation, sample_grand_canonical, simulate_canonical,
                      thermo_state)
from hierstat.cli import main
from hierstat.ensemble import moment_integrals
from hierstat.gentile import _kernels

DATA = Path(__file__).resolve().parent / "data"


class _Digest:
    """sha256 over a stream of values: arrays by dtype, shape and bytes,
    anything else by its repr."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self.sha.update(f"{v.dtype}{v.shape}".encode())
                self.sha.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, bytes):
                self.sha.update(v)
            else:
                self.sha.update(repr(v).encode())

    def hexdigest(self):
        return self.sha.hexdigest()


def _specs():
    """Fixed hierarchies: the golden three levels, then seeded ones with
    one to six levels and capacities from 1 to 40 000."""
    specs = [L3]
    rng = np.random.default_rng(2026)
    while len(specs) < 60:
        n = int(rng.integers(1, 7))
        top = 40_000 if len(specs) % 10 == 0 else 300
        caps = np.unique(rng.integers(1, top, n))
        sal = np.sort(rng.uniform(0.1, 8.0, caps.size))[::-1]
        if caps.size == n and np.all(np.diff(sal) < 0):
            specs.append(HierarchySpec(tuple(zip(caps.tolist(), sal.tolist()))))
    return specs


def exact_group():
    digest = _Digest()
    for spec in _specs():
        total = spec.total_positions
        # mid fillings only where the windows stay narrow enough to be quick
        fills = (0, 1, 2, total - 1, total) if total > 5000 else \
            (0, 1, total // 3, total // 2, total - 1, total)
        for agents in fills + (total + 1,):
            for beta in (-2.0, 0.0, 0.5, 1.0, 3.0, 1e308):
                try:
                    ex = exact_canonical(spec, agents, beta)
                except ValidationError as exc:
                    digest.add(str(exc))
                    continue
                digest.add(ex.mean_occupancy, *ex.marginals, ex.log_weight_total)
    return digest.hexdigest()


_CHAIN_SPECS = (L3,
                HierarchySpec(((1, 8.0), (2, 7.0), (4, 6.0), (8, 5.0), (16, 4.0), (32, 3.0))),
                HierarchySpec(((2, 1.5), (50, 1.0))))


def canonical_group():
    digest = _Digest()
    for spec in _CHAIN_SPECS:
        for agents in (1, spec.total_positions // 2, spec.total_positions - 1):
            for beta in (-1.0, 0.0, 1.0, 2.5):
                for seed in (0, 1):
                    run = simulate_canonical(spec, agents, beta, 4000, seed,
                                             burn_in_fraction=0.25, record_every=7)
                    digest.add(run.recorded_steps, run.occupancies, run.energies,
                               run.mean_occupancy, run.stderr, run.acceptance_rate,
                               run.burn_in)
    return digest.hexdigest()


def grand_group():
    digest = _Digest()
    for d in (1, 2, 6, 64, 1000, 10**5):
        for alpha in (-4.0, -1.0, 0.0, 0.5):
            for seed in (0, 1, 2):
                for steps, burn in ((10_000, 0.1), (10_000, 0.9996), (20_003, 0.5)):
                    s = sample_grand_canonical(OccupancyLevel(d, 2.0), GibbsParams(alpha, 1.0),
                                               steps, seed, burn_in_fraction=burn)
                    digest.add(s.samples, s.probabilities, s.mean, s.stderr, s.burn_in)
    return digest.hexdigest()


def pumped_group():
    digest = _Digest()
    for spec in _CHAIN_SPECS:
        for fraction in (0.0, 0.5, 1.0):
            for beta in (0.5, 2.0):
                run = pumped_relaxation(spec, spec.total_positions // 2, beta, fraction,
                                        1500, 3000, 9, record_every=11)
                digest.add(run.recorded_steps, run.occupancies, run.energies, run.phases,
                           run.pumped_moves, run.relax_mean_occupancy, run.relax_stderr)
    return digest.hexdigest()


# the golden spec's chains walk the lumped-state table (1152 entries), the
# others the step loop
_LONG_SPECS = ((L3, 8, 1.0), (L3, 8, -0.7), (DEEP, 127, 0.65),
               (S17, 70, 0.6),  # 17 levels: move codes need uint16
               # irregular salary gaps: 277 distinct acceptance values, so
               # acceptance ranks need uint16
               (S24, 150, 1.0),
               # 3000 agents and 3110 vacancies: the pick ranks need uint16
               (BIG, 3000, 1.0))


def long_chains_group():
    # 50 003 steps span several 2**14-step blocks of the loop's streams
    digest = _Digest()
    for spec, agents, beta in _LONG_SPECS:
        for seed in (0, 1):
            run = simulate_canonical(spec, agents, beta, 50_003, seed, record_every=1)
            digest.add(run.recorded_steps, run.occupancies, run.energies,
                       run.mean_occupancy, run.stderr, run.acceptance_rate, run.burn_in)
        run = pumped_relaxation(spec, agents, beta, 0.5, 20_000, 20_000, 3)
        digest.add(run.recorded_steps, run.occupancies, run.energies, run.phases,
                   run.pumped_moves, run.relax_mean_occupancy, run.relax_stderr)
    return digest.hexdigest()


def _cli_runs(tmp):
    """(argv, files written) of each command on fixed inputs."""
    def config(name, obj):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    laser = {"scenario": "social_laser", "levels": [{"capacity": 1, "salary": 3.0},
             {"capacity": 3, "salary": 2.0}, {"capacity": 10, "salary": 1.0}],
             "agents": 8, "beta": 1.0, "steps": 20000, "seed": 5, "pump_fraction": 0.5}
    grand = {"scenario": "grand_canonical", "capacity": 10, "salary": 2.0, "alpha": -3.0,
             "steps": 200000, "seed": 3}
    two_point = {"distribution": {"type": "two_point", "epsilon1": 1.0, "epsilon2": 3.0,
                                  "weight": 0.4}, "d": 5, "volume": 100, "n": 2.5, "u": -2.4}
    uniform = {"distribution": {"type": "uniform", "lower": 0.5, "upper": 2.5}, "d": 9,
               "volume": 100, "n": 2.5, "u": -2.0}
    runs = [(["gentile", "-d", "5", "--points", "41"], ()),
            (["gentile", "-d", "3", "--points", "9", "--pmf", "--relative"], ()),
            (["gentile", "-d", "4", "--alpha", "0.3", "--beta", "1.2", "--epsilon", "2"], ()),
            (["eos", "-d", "50", "--points", "61"], ()),
            (["thermo", "--json-config", config("two_point", two_point)], ()),
            (["thermo", "--json-config", config("uniform", uniform)], ())]
    for fig in range(1, 8):
        runs.append((["figures", "--figure", str(fig), "--output-dir", str(tmp)],
                     (f"fig{fig}.csv", f"fig{fig}.svg")))
    for name, cfg in (("golden", str(DATA / "golden_simulate_config.json")),
                      ("laser", config("laser", laser)), ("grand", config("grand", grand))):
        runs.append((["simulate", "--json-config", cfg, "--output-dir", str(tmp / name),
                      "--oracle"], (f"{name}/trajectory.csv", f"{name}/summary.json")))
    return runs


def cli_group():
    digest = _Digest()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv, files in _cli_runs(tmp):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(argv)
            digest.add(*argv[:2], out.getvalue() if not files else "")
            digest.add(*((tmp / f).read_bytes() for f in files))
    return digest.hexdigest()


def kernels_group():
    # d up to 1e150; huge_kernels takes the capacities above
    digest = _Digest()
    magnitudes = np.concatenate(([0.0, 1e-300, 1e-12], np.logspace(-6, np.log10(700.0), 60)))
    lams = np.concatenate((-magnitudes[::-1], magnitudes[1:])).tolist()
    for d in (1, 2, 3, 5, 10, 99, 1000, 10**6, 10**9, 10**15, 10**50, 10**100, 10**150):
        for lam in lams + [s * 2.0 / (d + 1.0) * (1.0 + e) for s in (-1.0, 1.0)
                           for e in (-1e-15, 0.0, 1e-15)]:  # the series switch
            digest.add(_kernels(lam, d))
    return digest.hexdigest()


def huge_kernels_group():
    # where (d + 1)^2 overflows, on both branches and both signs, and where
    # lambda (d + 1) overflows too; a call that raises adds the exception's
    # name, so a commit whose kernels raise there still hashes
    digest = _Digest()
    for d in (10**154, 10**155, 10**163, 10**200, 10**300, int(sys.float_info.max)):
        xs = [1e-6, 0.5, 1.99, 2.01, 5.0, 40.0, 700.0, 1e5]
        bigs = [b for b in (4.0 * (sys.float_info.max / (d + 1.0)), 1e9, 1e109)
                if math.isinf(b * (d + 1.0))]
        for lam_abs in [x / (d + 1.0) for x in xs] + bigs:
            for lam in (-lam_abs, lam_abs):
                try:
                    digest.add(_kernels(lam, d))
                except ArithmeticError as exc:
                    digest.add(type(exc).__name__)
    return digest.hexdigest()


def _drifting(alpha, beta):
    return TwoPoint(1.0, 3.0, 0.4 + 0.25 * np.tanh(0.5 * alpha + 0.25 * (beta - 1.0)))


_MOMENT_DISTS = (Delta(1.0), Uniform(0.5, 2.5), TwoPoint(1.0, 3.0, 0.4),
                 Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3)),
                 Histogram((0.0, 0.01, 1.0, 1.02, 3.0), (0.1, 0.4, 0.2, 0.3)),
                 ParametricFamily(_drifting))
#: activity widths beta * 1 of a unit salary span, across the closed forms'
#: W_MIN = 0.3 and down to where a piece is a near point
_WIDTHS = (1e-9, 1e-3, 0.05, 0.2, 0.3 * (1.0 - 2.0 ** -52), 0.3, 0.35, 1.0, 5.0, 40.0)


def moments_group():
    # the activity at the support's middle runs from deep negative to past 0,
    # where f' peaks and the closed forms can cancel at large d
    digest = _Digest()
    for dist in _MOMENT_DISTS:
        for beta in _WIDTHS:
            for mid in (-20.0, -2.0, -0.1, 0.0, 0.1, 2.0):
                for d in (1, 9, 1000, 10**6, 10**12):
                    try:
                        m = moment_integrals(dist, d, GibbsParams(mid - 1.5 * beta, beta))
                    except HierstatError as exc:
                        digest.add(type(exc).__name__, str(exc))
                        continue
                    digest.add(*m.items())
    return digest.hexdigest()


_THERMO_DISTS = (Delta(1.0), Uniform(0.5, 2.5), TwoPoint(1.0, 3.0, 0.4),
                 Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3)))


def thermo_group():
    digest = _Digest()
    for dist in _THERMO_DISTS:
        for d in (1, 3, 9, 50, 10**6):
            for alpha, beta in ((-3.0, 0.5), (-1.0, 1.0), (0.0, 1.5), (0.5, 2.0),
                                (-10.0, 0.3), (2.0, 1.0), (-800.0, 1.0)):
                for call in (thermo_state, maxwell_check):
                    try:
                        out = call(dist, d, GibbsParams(alpha, beta), 100)
                    except HierstatError as exc:
                        digest.add(type(exc).__name__, str(exc))
                        continue
                    digest.add(*dataclasses.astuple(out))
                    if call is thermo_state:
                        digest.add(out.residuals())
    return digest.hexdigest()


def solver_group():
    # the inverse problem on the draws of the committed round-trip boxes
    digest = _Digest()
    for seed, capacities in ROUND_TRIP_BOXES:
        for dist, d, params in box_draws(seed, capacities):
            try:
                mom = ensemble_moments(dist, d, params)
                digest.add(*dataclasses.astuple(mom))
                digest.add(*dataclasses.astuple(invert_to_params(dist, d, mom.n, mom.u)))
            except HierstatError as exc:
                digest.add(type(exc).__name__, str(exc))
    return digest.hexdigest()


GROUPS = {"exact_canonical": exact_group, "canonical": canonical_group,
          "grand": grand_group, "pumped": pumped_group, "long_chains": long_chains_group,
          "cli": cli_group, "kernels": kernels_group, "huge_kernels": huge_kernels_group,
          "moments": moments_group, "thermo": thermo_group, "solver": solver_group}


if __name__ == "__main__":
    import time

    for name, group in GROUPS.items():
        start = time.perf_counter()
        print(f"{name:16s} {group()}  ({time.perf_counter() - start:.1f} s)")
