"""Shared test helpers: brute-force oracles kept independent of the
library code paths they check, the hierarchy specs and seeded draws that
several files and ``bits_sweep.py`` share, a spy that counts or fakes the
calls of a private function, an in-process CLI runner and a probe that runs
code in a fresh interpreter."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hierstat import GibbsParams, HierarchySpec, TwoPoint, Uniform

#: the golden spec of criterion 10 and of tests/data/golden_canonical_l3.json
L3 = HierarchySpec(((1, 3.0), (3, 2.0), (10, 1.0)))
DEEP = HierarchySpec(tuple((2 ** k, 0.5 * (8 - k)) for k in range(8)))
BIG = HierarchySpec(((10, 4.0), (100, 3.0), (1000, 2.0), (5000, 1.0)))
ONE = HierarchySpec(((7, 2.0),))
#: 17 levels: move codes need uint16
S17 = HierarchySpec(tuple((1 + k, 17.0 - k) for k in range(17)))
# irregular salary gaps: 277 distinct acceptance values at beta = 1, so the
# acceptance ranks need a type wider than uint8; S23's 254 fill uint8, most
# draws ranking above 127
S24 = HierarchySpec(tuple((1 + k, 24.0 - k + 0.3 * math.sqrt(k)) for k in range(24)))
S23 = HierarchySpec(tuple((1 + k, 23.0 - k + 0.3 * math.sqrt(k)) for k in range(23)))

#: the seeds and capacities of the two inverse round-trip boxes (box_draws)
ROUND_TRIP_BOXES = ((5, (2, 5, 20, 50, 200, 500, 1000)), (6, (10**4, 10**5, 10**6)))


def mixed_draws(seed, count):
    """Acceptance criterion 9's recipe: ``count`` (distribution, capacity,
    params) draws from ``default_rng(seed)``, alternating TwoPoint(1, 3, w),
    w in [0.2, 0.8], and Uniform(lo, hi), lo in [0.2, 1], hi in [1.5, 3],
    with d in [2, 11], alpha in [-4, 0.5] and beta in [0.3, 2.5]."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(count):
        if k % 2 == 0:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
        else:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        d = int(rng.integers(2, 12))
        params = GibbsParams(float(rng.uniform(-4, 0.5)), float(rng.uniform(0.3, 2.5)))
        draws.append((dist, d, params))
    return draws


def box_draws(seed, capacities):
    """The 240 (distribution, capacity, params) draws of an inverse round-trip
    box: alternating Uniform(0.5, 2.5) and TwoPoint(1, 3, w), w in [0.1, 0.9],
    with d from ``capacities``, alpha in [-8, 2] and beta in [0.1, 5], from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(240):
        if k % 2 == 0:
            dist = Uniform(0.5, 2.5)
        else:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.1, 0.9)))
        d = int(rng.choice(capacities))
        params = GibbsParams(float(rng.uniform(-8, 2)), float(rng.uniform(0.1, 5)))
        draws.append((dist, d, params))
    return draws


def midpoint_integral(f, a, b, n=100_000):
    """Dense composite-midpoint quadrature oracle."""
    h = (b - a) / n
    xs = a + h * (np.arange(n) + 0.5)
    return float(sum(f(x) for x in xs) * h)


def mp_kernels(mpmath, lam, d):
    """log Z, f and f' of a capacity-d level at activity ``lam`` from their
    closed forms, at the caller's ``mpmath.workdps``: exact at lam = 0, for
    either sign, and for capacities too large to sum (the complement
    identities f(lam) = d - f(-lam), log Z(lam) = lam d + log Z(-lam))."""
    a, dd = abs(mpmath.mpf(lam)), mpmath.mpf(d) + 1
    if not a:
        return mpmath.log(dd), mpmath.mpf(d) / 2, (dd ** 2 - 1) / 12

    def log1mexp(t):  # log(1 - e^-t), without rounding 1 - e^-t to 1 at large t
        return mpmath.log(-mpmath.expm1(-t)) if t < 1 else mpmath.log1p(-mpmath.exp(-t))

    log_z = log1mexp(a * dd) - log1mexp(a)
    mean = 1 / mpmath.expm1(a) - dd / mpmath.expm1(a * dd)
    var = (mpmath.exp(a) / mpmath.expm1(a) ** 2
           - dd ** 2 * mpmath.exp(a * dd) / mpmath.expm1(a * dd) ** 2)
    if lam > 0:
        return log_z + a * d, d - mean, var
    return log_z, mean, var


def enumerate_position_measure(capacities, salaries, agents, beta):
    """Exact level means by enumerating occupancy vectors with binomial
    position multiplicities (independent of the DP implementation)."""
    num = np.zeros(len(capacities))
    den = 0.0
    for occ in product(*[range(c + 1) for c in capacities]):
        if sum(occ) != agents:
            continue
        w = math.exp(beta * float(np.dot(salaries, occ)))
        for c, r in zip(capacities, occ):
            w *= math.comb(int(c), int(r))
        den += w
        num += w * np.array(occ)
    return num / den


def lumped_chain(spec, agents, beta):
    """The level counts r of the position-swap chain as a Markov chain
    (Kemeny and Snell, Finite Markov Chains, 1960, ch. 6): its states, in
    ``montecarlo._lumped_states``' order, its transition matrix P and its
    law pi.  An agent picked in level i moves to a vacancy picked in level j
    with probability r_i (c_j - r_j) / (A V) min(1, e^{-beta (s_i - s_j)}),
    A agents and V vacancies, and stays otherwise; pi(r) ~ prod_k
    C(c_k, r_k) e^{beta s_k r_k}."""
    from hierstat.montecarlo import _lumped_states

    caps, salaries = spec.capacities.tolist(), spec.salaries.tolist()
    pairs = agents * (sum(caps) - agents)
    states = _lumped_states(caps, agents, math.inf)
    index = {r: k for k, r in enumerate(states)}
    p = np.zeros((len(states), len(states)))
    for k, r in enumerate(states):
        for i in range(len(caps)):
            for j in range(len(caps)):
                pick = r[i] * (caps[j] - r[j]) / pairs
                accept = min(1.0, math.exp(-beta * (salaries[i] - salaries[j])))
                if i != j and pick:
                    to = list(r)
                    to[i] -= 1
                    to[j] += 1
                    p[k, index[tuple(to)]] += pick * accept
                    p[k, k] += pick * (1.0 - accept)
                else:
                    p[k, k] += pick
    pi = np.array([math.prod(math.comb(c, n) * math.exp(beta * s * n)
                             for c, s, n in zip(caps, salaries, r)) for r in states])
    return states, p, pi / pi.sum()


def birth_death_chain(d, lam):
    """The occupation number r = 0..d of ``sample_grand_canonical`` as a
    Markov chain: its transition matrix P and its law pi.  A step proposes
    r + 1 or r - 1 with probability 1/2 each and accepts it with probability
    min(1, e^{lam}) or min(1, e^{-lam}); a refused move, or one past 0 or d,
    stays.  pi(r) ~ e^{lam r}."""
    p = np.zeros((d + 1, d + 1))
    for r in range(d + 1):
        if r < d:
            p[r, r + 1] = 0.5 * min(1.0, math.exp(lam))
        if r > 0:
            p[r, r - 1] = 0.5 * min(1.0, math.exp(-lam))
        p[r, r] = 1.0 - p[r].sum()
    pi = np.exp(lam * np.arange(d + 1))
    return p, pi / pi.sum()


def poisson_variance(p, pi, f):
    """The variance var of f (one column per observable) under the law pi and
    the asymptotic variance sigma^2 of its chain mean under the transition
    matrix P, by the Poisson equation (I - P + 1 pi) g = f - pi f: sigma^2 =
    2 pi[(f - pi f) g] - var (Sokal, Cargese lectures, 1996).  Returns var,
    sigma^2 and, to check it, var + 2 sum_{t=1}^{400} cov(f, P^t f)."""
    centred = f - pi @ f
    var = pi @ centred ** 2
    g = np.linalg.solve(np.eye(len(pi)) - p + pi, centred)
    lagged, summed = centred, var
    for _ in range(400):
        lagged = p @ lagged
        summed = summed + 2.0 * (pi @ (centred * lagged))
    return var, 2.0 * (pi @ (centred * g)) - var, summed


def spy(monkeypatch, name, *modules, answer=None):
    """Wrap ``getattr(modules[0], name)`` once and set the wrapper on ``name``
    in every listed module; a class works as a module, so ``"__init__"``
    counts the records built.  Returns the list of each call's positional
    arguments, appended as the call begins.  A call returns ``answer(*args)``
    when ``answer`` is given, which may read that list to fake the k-th call,
    and the real function's result otherwise."""
    calls = []
    call = answer or getattr(modules[0], name)

    def spied(*args, **kwargs):
        calls.append(args)
        return call(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spied)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def fresh_python(code, *args):
    """The stdout of ``code`` run in a fresh interpreter with ``src`` on its
    path and ``args`` as its ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True).stdout


class CliResult(NamedTuple):
    exit_code: int
    output: str


class CliRunner:
    """Runs the CLI in-process: ``invoke(main, args)`` calls ``main(args)``
    and gives its exit code and its stdout and stderr interleaved, in the
    order they were written.  A ``config``, a dict or raw text, is written
    to a JSON file in ``tmp_path`` whose path ``args`` gain as
    ``--json-config``."""

    def __init__(self, tmp_path=None):
        self.tmp_path = tmp_path

    def config_args(self, config):
        path = self.tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        return ["--json-config", str(path)]

    def invoke(self, main, args, config=None):
        if config is not None:
            args = [*args, *self.config_args(config)]
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return CliResult(code, output.getvalue())


@pytest.fixture
def runner(tmp_path):
    return CliRunner(tmp_path)
