"""Public names: every export resolves and every re-export is declared;
malformed arguments raise only ValidationError."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import hierstat
from hierstat import (
    Delta,
    EnsembleCensus,
    GibbsParams,
    HierarchyLevel,
    HierarchySpec,
    Histogram,
    OccupancyLevel,
    ParametricFamily,
    TwoPoint,
    Uniform,
    ValidationError,
    activity,
    activity_for_mean,
    census_entropy,
    condensation_abscissa,
    critical_temperature,
    distribution_from_json,
    ensemble_moments,
    eos_sweep,
    exact_canonical,
    fermi_market_share,
    gentile_census,
    gentile_mean,
    invert_to_params,
    maxwell_check,
    omega,
    pumped_relaxation,
    sample_grand_canonical,
    simulate_canonical,
    thermo_derivatives,
    thermo_state,
)
from hierstat.ensemble import moment_integrals
from hierstat.errors import check_int, check_real

MODULES = sorted(m.name for m in pkgutil.iter_modules(hierstat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"hierstat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _reexports():
    """(submodule, name) for each name in hierstat's lazy export table."""
    return [(module, name) for module, names in hierstat._EXPORTS.items()
            for name in names]


def test_reexports_are_in_submodule_all():
    reexports = _reexports()
    assert reexports
    undeclared = [f"{module}.{name}" for module, name in reexports
                  if not name.startswith("_")
                  and name not in getattr(importlib.import_module(f"hierstat.{module}"),
                                          "__all__", ())]
    assert undeclared == []


def test_package_exports_resolve_and_are_cached():
    # PEP 562 exports: each name is its submodule's object, cached on first
    # access so that later lookups are plain attribute hits
    for name in hierstat.__all__:
        module = importlib.import_module(f"hierstat.{hierstat._MODULE_OF[name]}")
        assert getattr(hierstat, name) is getattr(module, name)
        assert name in vars(hierstat) and name in dir(hierstat)
    with pytest.raises(AttributeError):
        hierstat.no_such_name


@pytest.mark.parametrize("module", MODULES)
def test_numerics_take_no_tolerance_options(module):
    # one quadrature rule, one Newton tolerance and one Maxwell step: nothing
    # to tune
    mod = importlib.import_module(f"hierstat.{module}")
    taking = [f"{name}({param})" for name in getattr(mod, "__all__", ())
              if inspect.isfunction(getattr(mod, name))
              for param in inspect.signature(getattr(mod, name)).parameters
              if param in ("rel_tol", "max_depth", "derivatives", "step")]
    assert taking == []


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
    "exact-canonical-spec-list": lambda: exact_canonical([(1, 3.0)], 1, 1.0),
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
    "pumped-relax-steps-string": lambda: pumped_relaxation(
        _SPEC, 2, 1.0, 0.5, "x", "x", 0),
    "gentile-census-capacity-fraction": lambda: gentile_census([1.0], [1.0], 2.5, _PARAMS),
    "gentile-census-mismatched-vectors": lambda: gentile_census([1.0, 2.0], [1.0], 2, _PARAMS),
    "census-counts-vector": lambda: EnsembleCensus([1.0, 2.0], [1.0]),
    "census-salary-per-row": lambda: EnsembleCensus([[1.0, 2.0]], [1.0, 2.0]),
    "hierarchy-spec-empty": lambda: HierarchySpec(()),
    "level-sign-string": lambda: OccupancyLevel(1, 1.0, "salary"),
    "family-build-not-callable": lambda: ParametricFamily(5),
    "histogram-one-edge": lambda: Histogram((0.0,), ()),
    "histogram-mass-count": lambda: Histogram((0.0, 1.0, 2.0), (1.0,)),
    "distribution-json-list": lambda: distribution_from_json([]),
    "histogram-mass-bool": lambda: Histogram((0, 1), (True,)),
    "histogram-edges-strings": lambda: Histogram(("0", "1"), (1.0,)),
    "histogram-json-edges-number": lambda: distribution_from_json(
        {"type": "histogram", "edges": 5, "masses": [1.0]}),
    "eos-sweep-grid-strings": lambda: eos_sweep(3, ["0.1", "x"]),
    "eos-sweep-grid-numeric-strings": lambda: eos_sweep(3, ["0.1", "0.2"]),
    "eos-sweep-grid-bool": lambda: eos_sweep(3, [0.1, True]),
    "eos-sweep-grid-not-iterable": lambda: eos_sweep(3, 5),
    # object arguments of the wrong type
    "ensemble-moments-params-none": lambda: ensemble_moments(Uniform(0, 1), 3, None),
    "omega-params-none": lambda: omega(Uniform(0, 1), 3, None),
    "moment-integrals-params-none": lambda: moment_integrals(Uniform(0, 1), 3, None),
    "thermo-derivatives-params-none": lambda: thermo_derivatives(Uniform(0, 1), 3, None),
    "maxwell-check-params-none": lambda: maxwell_check(Uniform(0, 1), 3, None, 10),
    "market-share-params-none": lambda: fermi_market_share(Uniform(0, 1), None),
    "thermo-state-params-tuple": lambda: thermo_state(Uniform(0, 1), 3, (1.0, 2.0), 10),
    "gentile-census-params-none": lambda: gentile_census([1.0], [1.0], 3, None),
    "activity-level-none": lambda: activity(None, _PARAMS),
    "grand-canonical-level-none": lambda: sample_grand_canonical(None, _PARAMS, 10_000, 0),
    "grand-canonical-params-none": lambda: sample_grand_canonical(_LEVEL, None, 10_000, 0),
    "census-entropy-list": lambda: census_entropy([[1, 2]]),
    "hierarchy-spec-int": lambda: HierarchySpec(5),
    "hierarchy-spec-level-int": lambda: HierarchySpec((5,)),
    "hierarchy-spec-level-short": lambda: HierarchySpec(((1,),)),
    # census inputs go through the shared rules: no ragged rows, bools or strings
    "census-counts-ragged": lambda: EnsembleCensus([[1, 2], [3]], [1, 2]),
    "census-counts-string": lambda: EnsembleCensus([["a", 2]], [1]),
    "census-counts-bool": lambda: EnsembleCensus([[True, 2.0]], [1.0]),
    "census-salary-bool": lambda: EnsembleCensus([[1.0, 2.0]], [True]),
    "census-salary-numeric-string": lambda: EnsembleCensus([[1.0, 2.0]], ["3"]),
    "gentile-census-total-bool": lambda: gentile_census([True], [1.0], 3, _PARAMS),
    # an integer beyond the double range cannot enter a float formula
    "gentile-mean-capacity-huge": lambda: gentile_mean(0.5, 10 ** 400),
    "eos-sweep-capacity-huge": lambda: eos_sweep(10 ** 400, [0.1]),
    "activity-for-mean-capacity-huge": lambda: activity_for_mean(10 ** 400, 1.0),
    "ensemble-moments-capacity-huge": lambda: ensemble_moments(Uniform(0, 1), 10 ** 400, _PARAMS),
    "invert-capacity-huge": lambda: invert_to_params(Uniform(0, 1), 10 ** 400, 1.0, -0.5),
    "thermo-state-volume-huge": lambda: thermo_state(Uniform(0, 1), 3, _PARAMS, 10 ** 400),
    "critical-temperature-capacity-huge": lambda: critical_temperature(10 ** 400, 1.0),
    "condensation-abscissa-capacity-huge": lambda: condensation_abscissa(10 ** 400, 0.5),
    "grand-canonical-capacity-huge": lambda: sample_grand_canonical(
        OccupancyLevel(10 ** 400, 2.0), _PARAMS, 10_000, 0),
    # a level the sampler cannot hold: its law vector has d + 1 doubles
    "grand-canonical-2**64-capacity-huge": lambda: sample_grand_canonical(
        OccupancyLevel(2 ** 64, 2.0), GibbsParams(-3.0, 1.0), 10_000, 0),
    "grand-canonical-above-bound-capacity-huge": lambda: sample_grand_canonical(
        OccupancyLevel(10 ** 7 + 1, 2.0), GibbsParams(-3.0, 1.0), 10_000, 0),
    # an int beyond Python's 4300-digit print limit is named by its size
    "gentile-mean-capacity-5001-digits": lambda: gentile_mean(0.5, 10 ** 5000),
    "gentile-mean-activity-5001-digits": lambda: gentile_mean(10 ** 5000, 5),
    "gibbs-alpha-5001-digits": lambda: GibbsParams(10 ** 5000, 1.0),
    "census-entropy-5001-digits": lambda: census_entropy(10 ** 5000),
    # a hierarchy's capacities enter int64 arrays
    "hierarchy-spec-capacity-huge": lambda: HierarchySpec(((1, 2.0), (10 ** 400, 1.0))),
    "hierarchy-spec-positions-beyond-int64": lambda: HierarchySpec(
        ((2 ** 62, 2.0), (2 ** 62 + 1, 1.0))),
}

#: the argument each object-type and census case must name in its message
_NAMED = {
    **dict.fromkeys([key for key in _MALFORMED if "params" in key], "params"),
    "activity-level-none": "level", "grand-canonical-level-none": "level",
    "census-entropy-list": "census", "hierarchy-spec-int": "levels",
    "hierarchy-spec-level-int": "levels", "hierarchy-spec-level-short": "levels",
    "census-counts-ragged": "counts",
    "census-counts-string": "counts", "census-counts-bool": "counts",
    "census-salary-bool": "salaries", "census-salary-numeric-string": "salaries",
    "gentile-census-total-bool": "class_totals",
    **{key: key.split("-")[-2] for key in _MALFORMED if key.endswith("-huge")},
    **{key: key.split("-")[-3] for key in _MALFORMED if key.endswith("-5001-digits")},
    "census-entropy-5001-digits": "census",
    "hierarchy-spec-positions-beyond-int64": "total capacity",
}


@pytest.mark.parametrize("key", list(_MALFORMED))
def test_malformed_arguments_raise_validation_error(key):
    with pytest.raises(ValidationError) as err:
        _MALFORMED[key]()
    assert _NAMED.get(key, "") in str(err.value)


# a record reports every check it fails, in the order it checks them;
# Delta and EnsembleCensus stop at their first failed check
@pytest.mark.parametrize("make, violations", [
    (lambda: GibbsParams("x", 0), [
        "alpha must be a finite number, got 'x'",
        "beta must be a finite number > 0, got 0"]),
    (lambda: OccupancyLevel(0, -1.0, "salary"), [
        "capacity must be an integer in [1, 1.7976931348623157e+308], got 0",
        "money_scale must be a finite number >= 0, got -1.0",
        "sign must be an EnergySign, got 'salary'"]),
    (lambda: Delta(-1.0), ["point must be a finite number >= 0, got -1.0"]),
    (lambda: TwoPoint(-1.0, -1.0, 1.5), [
        "epsilon1 must be a finite number >= 0, got -1.0",
        "epsilon2 must be a finite number >= 0, got -1.0",
        "weight must be a finite number in (0, 1), got 1.5"]),
    (lambda: TwoPoint(2.0, 2.0, 0.0), [
        "epsilon1 and epsilon2 must differ (use Delta otherwise)",
        "weight must be a finite number in (0, 1), got 0.0"]),
    (lambda: Uniform(2.0, 1.0), ["need lower < upper, got [2.0, 1.0]"]),
    (lambda: Uniform(-1.0, None), [
        "lower must be a finite number >= 0, got -1.0",
        "upper must be a finite number >= 0, got None"]),
    (lambda: Histogram((0.0, 0.0), (0.5,)), [
        "edges must be strictly ascending",
        "masses must sum to 1 within 1e-12, got 0.5"]),
    (lambda: Histogram((1.0, -1.0, 0.5), (0.7, True, 0.2)), [
        "edges[1] must be a finite number >= 0, got -1.0",
        "masses[1] must be a finite number >= 0, got True",
        "need exactly 2 masses for 3 edges, got 3"]),
    (lambda: Histogram((0.0,), (0.5,)), [
        "need at least two bin edges",
        "need exactly 0 masses for 1 edges, got 1",
        "masses must sum to 1 within 1e-12, got 0.5"]),
    (lambda: HierarchyLevel(0, -1.0), [
        "capacity must be an integer >= 1, got 0",
        "salary must be a finite number >= 0, got -1.0"]),
    (lambda: HierarchySpec(((2, 1.0), (1, 2.0))), [
        "capacity ordering d_1 < d_2 violated (2 >= 1)",
        "salary ordering epsilon_1 > epsilon_2 violated (1.0 <= 2.0)"]),
    (lambda: HierarchySpec(((2, 1.0), (1, 2.0), (2 ** 63, 0.5))), [
        "capacity ordering d_1 < d_2 violated (2 >= 1)",
        "salary ordering epsilon_1 > epsilon_2 violated (1.0 <= 2.0)",
        "total capacity must be <= 9223372036854775807 (the int64 maximum), "
        "got 9223372036854775811"]),
    (lambda: EnsembleCensus([1.0, True], [True]),
     ["counts must be a rectangular array of real numbers"]),
    (lambda: EnsembleCensus([1.0, 2.0], [1.0, 2.0]),
     ["counts must be a 2-d matrix (classes x occupancies)"]),
    (lambda: EnsembleCensus([[1.0, 2.0]], [[1.0], [2.0]]), ["need one salary per class row"]),
])
def test_records_list_every_violation_in_order(make, violations):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.violations == violations


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
    assert check_int(10 ** 5000, "k", problems, 1, 10) is None
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
        "k must be an integer in [1, 10], got an integer of about 5001 digits",
    ]
