"""Shared test helpers: brute-force oracles kept independent of the
library code paths they check, the hierarchy specs several files share, a
spy that counts or fakes the calls of a private function, and an in-process
CLI runner."""

import contextlib
import io
import json
import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from hierstat import HierarchySpec

#: the golden spec of criterion 10 and of tests/data/golden_canonical_l3.json
L3 = HierarchySpec(((1, 3.0), (3, 2.0), (10, 1.0)))
DEEP = HierarchySpec(tuple((2 ** k, 0.5 * (8 - k)) for k in range(8)))
BIG = HierarchySpec(((10, 4.0), (100, 3.0), (1000, 2.0), (5000, 1.0)))
ONE = HierarchySpec(((7, 2.0),))


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
