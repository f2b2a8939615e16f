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
from collections import Counter
from pathlib import Path

import hierstat.distributions as distributions
import hierstat.ensemble as ensemble
import hierstat.thermostatics as thermostatics
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


def _counting(counts, label, real):
    def counted(*args, **kwargs):
        counts[label] += 1
        return real(*args, **kwargs)
    return counted


def main():
    workload = worker.ThermoInverse(ROOT, ROOT, SEED)
    rounds = worker.draw_rounds(workload, SEED, ROUNDS)
    recorder = worker.Recorder("thermo-inverse", SEED, None, calibrated=False)
    counts = Counter()
    for label, name, modules in FUNCTIONS:
        real = getattr(modules[0], name)
        for module in modules:
            setattr(module, name, _counting(counts, label, real))
    for cls in RECORDS:
        cls.__init__ = _counting(counts, f"{cls.__name__} built", cls.__init__)
    for index, inputs in enumerate(rounds):
        workload.run_round(recorder, index, inputs)
    labels = [label for label, _, _ in FUNCTIONS] + [f"{c.__name__} built" for c in RECORDS]
    print(f"per round, over the first {ROUNDS} thermo-inverse rounds of seed {SEED}:")
    for label in labels:
        print(f"{label:28s} {counts[label] / ROUNDS:g}")
    print(f"{'failed operations':28s} {recorder.failed} of {recorder.attempted}")


if __name__ == "__main__":
    main()
