"""Public names: every export resolves and every re-export is declared;
malformed numeric arguments raise only ValidationError."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hierstat
from hierstat import (
    GibbsParams,
    HierarchySpec,
    OccupancyLevel,
    Uniform,
    ValidationError,
    activity_for_mean,
    condensation_abscissa,
    critical_temperature,
    exact_canonical,
    gentile_census,
    gentile_mean,
    invert_to_params,
    pumped_relaxation,
    sample_grand_canonical,
    simulate_canonical,
    social_laser_scenario,
)
from hierstat.errors import check_int, check_real

MODULES = sorted(m.name for m in pkgutil.iter_modules(hierstat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"hierstat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _reexports():
    """(submodule, name) for each ``from .submodule import name`` in hierstat."""
    tree = ast.parse(Path(hierstat.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_reexports_are_in_submodule_all():
    reexports = _reexports()
    assert reexports
    undeclared = [f"{module}.{name}" for module, name in reexports
                  if not name.startswith("_")
                  and name not in getattr(importlib.import_module(f"hierstat.{module}"),
                                          "__all__", ())]
    assert undeclared == []


# --- argument checking -------------------------------------------------------------

_SPEC = HierarchySpec(((1, 2.0), (4, 1.0)))
_LEVEL = OccupancyLevel(3, 1.0)
_PARAMS = GibbsParams(0.0, 1.0)

# each call must fail argument checking with ValidationError, not escape
# as a TypeError, a plain ValueError or a silently wrong result
_MALFORMED = {
    "gibbs-alpha-string": lambda: GibbsParams("x", 1.0),
    "gibbs-alpha-none": lambda: GibbsParams(None, 1.0),
    "gibbs-alpha-bool": lambda: GibbsParams(True, 1.0),
    "level-money-scale-bool": lambda: OccupancyLevel(1, True),
    "gentile-mean-string": lambda: gentile_mean("x", 2),
    "gentile-mean-none": lambda: gentile_mean(None, 2),
    "activity-for-mean-none": lambda: activity_for_mean(3, None),
    "condensation-abscissa-none": lambda: condensation_abscissa(3, None),
    "critical-temperature-string": lambda: critical_temperature(3, "x"),
    "exact-canonical-beta-string": lambda: exact_canonical(_SPEC, 1, "x"),
    "invert-n-target-string": lambda: invert_to_params(Uniform(0, 1), 3, "x", -0.5),
    "canonical-seed-string": lambda: simulate_canonical(_SPEC, 2, 1.0, 100, "x"),
    "canonical-burn-in-string": lambda: simulate_canonical(
        _SPEC, 2, 1.0, 100, 0, burn_in_fraction="x"),
    "canonical-beta-bool": lambda: simulate_canonical(_SPEC, 2, True, 100, 0),
    "grand-canonical-seed-fraction": lambda: sample_grand_canonical(
        _LEVEL, _PARAMS, 10_000, 1.5),
    "grand-canonical-burn-in-none": lambda: sample_grand_canonical(
        _LEVEL, _PARAMS, 10_000, 0, burn_in_fraction=None),
    "pumped-relax-steps-zero": lambda: pumped_relaxation(_SPEC, 2, 1.0, 0.5, 100, 0, 0),
    "pumped-relax-steps-negative": lambda: pumped_relaxation(
        _SPEC, 2, 1.0, 0.5, 100, -5, 0),
    "social-laser-steps-string": lambda: social_laser_scenario(_SPEC, 1.0, 0.5, "x", 0),
    "gentile-census-capacity-fraction": lambda: gentile_census([1.0], [1.0], 2.5, _PARAMS),
}


@pytest.mark.parametrize("call", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_checkers_types_ranges_and_messages():
    problems = []
    assert type(check_int(np.int64(3), "k", problems, 1)) is int
    assert type(check_real(np.float64(0.5), "x", problems, 0, 1)) is float
    assert check_real(2, "x", problems) == 2.0
    assert problems == []
    assert check_int(True, "k", problems) is None
    assert check_int(2.0, "k", problems) is None
    assert check_int(0, "k", problems, 1) is None
    assert check_real(False, "x", problems) is None
    assert check_real(math.nan, "x", problems) is None
    assert check_real(10 ** 400, "x", problems) is None
    assert check_real(1.0, "x", problems, 0, 1, open_high=True) is None
    assert check_real(np.array([0.5]), "x", problems) is None
    # one violation per failed check, naming the argument and its range
    assert problems == [
        "k must be an integer, got True",
        "k must be an integer, got 2.0",
        "k must be an integer >= 1, got 0",
        "x must be a finite number, got False",
        "x must be a finite number, got nan",
        f"x must be a finite number, got {10 ** 400!r}",
        "x must be a finite number in [0, 1), got 1.0",
        "x must be a finite number, got array([0.5])",
    ]
