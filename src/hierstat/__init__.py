"""Occupancy statistics and thermostatics of hierarchical systems.

Levels of a hierarchy hold at most d elements each; their occupation
follows the intermediate (Gentile) statistics between Fermi-Dirac and
Bose-Einstein.  On top of the single-level kernels the package builds
ensemble integrals over salary distributions, the full thermostatic
state (temperature, financial potential, pressure, entropy, equations
of state), exact and Monte Carlo occupancy references, and a CLI.
"""

from .distributions import (
    Delta,
    Histogram,
    ParametricFamily,
    SalaryDistribution,
    TwoPoint,
    Uniform,
    distribution_from_json,
    distribution_to_json,
)
from .ensemble import (
    EnsembleMoments,
    ensemble_moments,
    fermi_market_share,
    omega,
)
from .errors import (
    AccuracyError,
    HierstatError,
    ImbalancedEntry,
    NoConvergence,
    SingularInversion,
    ValidationError,
)
from .gentile import (
    EnergySign,
    GibbsParams,
    OccupancyLevel,
    activity,
    activity_for_mean,
    bose_einstein,
    fermi_dirac,
    gentile_mean,
    gentile_mean_direct,
    gentile_mean_dlambda,
    log_partition,
    occupancy_probabilities,
    partition,
)
from .hierarchy import (
    CanonicalExpectations,
    EnsembleCensus,
    HierarchyLevel,
    HierarchySpec,
    census_entropy,
    exact_canonical,
    gentile_census,
)
from .ledger import (
    BalanceReport,
    LedgerEntry,
    Transaction,
    TransactionLedger,
    ledger_audit,
    subset_balance,
)
from .montecarlo import (
    CanonicalRun,
    GrandCanonicalSample,
    LaserRun,
    pumped_relaxation,
    sample_grand_canonical,
    simulate_canonical,
    social_laser_scenario,
)
from .thermostatics import (
    EosTable,
    MaxwellReport,
    ThermoDerivatives,
    ThermoState,
    condensation_abscissa,
    critical_temperature,
    eos_sweep,
    entropy_per_element,
    invert_to_params,
    maxwell_check,
    thermo_derivatives,
    thermo_state,
)

__version__ = "0.1.0"
