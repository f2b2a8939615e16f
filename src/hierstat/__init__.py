"""Occupancy statistics and thermostatics of hierarchical systems.

Levels of a hierarchy hold at most d elements each; their occupation
follows the intermediate (Gentile) statistics between Fermi-Dirac and
Bose-Einstein.  On top of the single-level kernels the package builds
ensemble integrals over salary distributions, the full thermostatic
state (temperature, financial potential, pressure, entropy, equations
of state), exact and Monte Carlo occupancy references, and a CLI.
"""

from importlib import import_module

#: submodule -> the public names the package re-exports from it.  Each is
#: imported on first access (PEP 562), so ``import hierstat`` loads no
#: numpy; only the submodules a caller reaches do.
_EXPORTS = {
    "distributions": ("Delta", "Histogram", "ParametricFamily", "SalaryDistribution",
                      "TwoPoint", "Uniform", "distribution_from_json",
                      "distribution_to_json"),
    "ensemble": ("EnsembleMoments", "ensemble_moments", "fermi_market_share", "omega"),
    "errors": ("HierstatError", "NoConvergence", "SingularInversion", "ValidationError"),
    "gentile": ("EnergySign", "GibbsParams", "OccupancyLevel", "activity",
                "activity_for_mean", "bose_einstein", "fermi_dirac", "gentile_mean",
                "gentile_mean_direct", "gentile_mean_dlambda", "log_partition",
                "occupancy_probabilities", "partition", "EosTable", "eos_sweep"),
    "hierarchy": ("CanonicalExpectations", "EnsembleCensus", "HierarchyLevel",
                  "HierarchySpec", "census_entropy", "exact_canonical", "gentile_census"),
    "montecarlo": ("CanonicalRun", "GrandCanonicalSample", "LaserRun", "pumped_relaxation",
                   "sample_grand_canonical", "simulate_canonical"),
    "thermostatics": ("MaxwellReport", "ThermoDerivatives", "ThermoState",
                      "condensation_abscissa", "critical_temperature",
                      "entropy_per_element", "invert_to_params", "maxwell_check",
                      "thermo_derivatives", "thermo_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
