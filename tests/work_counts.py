"""Deterministic work counts per round of the ``thermo-inverse`` benchmark
workload, to compare two commits.

It draws the first 20 rounds of seed 101 with the workload's own
``ThermoInverse.draw`` from ``perfbench/worker.py``, runs each round with
its ``run_round`` and prints, per round: the moment passes
(``ensemble._moment_pass``), the kernel calls of the moment passes
(``ensemble._kernels``), the ``_pieces`` calls, the records built, by
type, and the ``ensemble._phi_terms`` calls.  The draws themselves are not
counted.  Run it on both commits and diff the lines:

    PYTHONPATH=src python tests/work_counts.py

It is a tool, not a test: nothing here is collected or gated.
"""

import sys
from pathlib import Path

import pytest

import hierstat.distributions as distributions
import hierstat.ensemble as ensemble
import hierstat.thermostatics as thermostatics
from conftest import spy
from hierstat import (EnsembleMoments, GibbsParams, MaxwellReport, ThermoDerivatives,
                      ThermoState)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import worker  # noqa: E402  (perfbench/ is not a package)

SEED = 101
ROUNDS = 20
#: the counted functions: a name and the modules that hold it under that name
FUNCTIONS = (("moment passes", "_moment_pass", (ensemble,)),
             ("ensemble._kernels calls", "_kernels", (ensemble,)),
             ("_pieces calls", "_pieces", (distributions, ensemble)),
             ("_phi_terms calls", "_phi_terms", (ensemble, thermostatics)))
#: the records a round may build, counted by their ``__init__``
RECORDS = (GibbsParams, EnsembleMoments, ThermoDerivatives, ThermoState, MaxwellReport)


def main():
    workload = worker.ThermoInverse(ROOT, ROOT, SEED)
    rounds = worker.draw_rounds(workload, SEED, ROUNDS)
    recorder = worker.Recorder("thermo-inverse", SEED, None, calibrated=False)
    monkeypatch = pytest.MonkeyPatch()
    counts = {label: spy(monkeypatch, name, *modules) for label, name, modules in FUNCTIONS}
    counts.update((f"{cls.__name__} built", spy(monkeypatch, "__init__", cls)) for cls in RECORDS)
    for index, inputs in enumerate(rounds):
        workload.run_round(recorder, index, inputs)
    print(f"per round, over the first {ROUNDS} thermo-inverse rounds of seed {SEED}:")
    for label, calls in counts.items():
        print(f"{label:28s} {len(calls) / ROUNDS:g}")
    print(f"{'failed operations':28s} {recorder.failed} of {recorder.attempted}")


if __name__ == "__main__":
    main()
