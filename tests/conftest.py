"""Shared test helpers: brute-force oracles kept independent of the
library code paths they check, a spy that counts or fakes the calls of a
private function, and an in-process CLI runner."""

import contextlib
import io
import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest


def midpoint_integral(f, a, b, n=100_000):
    """Dense composite-midpoint quadrature oracle."""
    h = (b - a) / n
    xs = a + h * (np.arange(n) + 0.5)
    return float(sum(f(x) for x in xs) * h)


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
    order they were written."""

    def invoke(self, main, args):
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return CliResult(code, output.getvalue())


@pytest.fixture
def runner():
    return CliRunner()
