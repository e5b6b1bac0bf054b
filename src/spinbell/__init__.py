"""Exact correlation experiments on small Ising spin lattices.

Build a lattice (roles: two outcomes, two analyzers, hidden nodes), turn it
into an exactly enumerated Boltzmann model, and interrogate it: conditional
outcome tables and the CHSH combination, dependence measures between hidden
state, settings and outcomes, closed-form series cross-checks, clamped
analyzer equivalence, seeded sampling, and parameter search.
"""

from .bell import (
    QUANTUM_MAX_ANGLES,
    ChshReport,
    ConditionalTable,
    chsh,
    conditional_table,
    correlator,
    quantum_chsh,
    quantum_reference,
)
from .errors import (
    DegenerateModelError,
    EnumerationLimitError,
    EquivalenceViolationError,
    InsufficientPostselectionWarning,
    InvalidArgumentError,
    InvalidConfigurationError,
    LatticeDefinitionError,
    LatticeFileError,
    NumericRangeError,
    SpinbellError,
    ZeroMeasureConditionError,
)
from .freewill import (
    FreewillReport,
    assert_equivalence,
    clamp_reduce,
    clamped_independence_report,
    clamped_models,
    equivalence_discrepancy,
    ex1_table,
    ex2_table,
    freewill_report,
    partition_gap,
)
from .independence import (
    IndependenceReport,
    Witness,
    decoupling_sweep,
    factorizability_check,
    independence_report,
    measurement_dependence,
    outcome_dependence,
    pairwise_correlation_check,
    parameter_dependence,
    reevaluate,
)
from .lattice import CubicTerm, Edge, Lattice, Node, NodeRole, Spin, energy
from .latticefile import (
    format_lattice,
    load_lattice,
    load_search_config,
    parse_lattice,
    parse_search_config,
    save_lattice,
)
from .model import (
    DEFAULT_ENUM_CAP,
    ZERO_MEASURE,
    BoltzmannModel,
    build_model,
    enumeration_cap,
)
from .presets import (
    BUILTIN_LATTICES,
    ReproductionCase,
    all_cases,
    builtin_lattice,
    canonical_ladder,
    chain_lattice,
    get_case,
    grid_lattice,
    interior_analyzer_grid,
    second_neighbor_lattice,
    tuned_field_grid,
    tuned_ladder,
    uniform_coupling_grid,
)
from .sampling import ConvergenceReport, SampleRun, frequency_report, sample
from .search import (
    GridRow,
    PlacementResult,
    SearchParam,
    SearchResult,
    SearchSpace,
    grid_scan,
    maximize_chsh,
    role_permutation_search,
)
from .series import (
    SeriesCheckReport,
    SeriesContext,
    chain_md_closed,
    chain_md_per_config,
    chain_md_profile,
    series_check,
    weak_coupling_chsh,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "Node",
    "Edge",
    "CubicTerm",
    "Lattice",
    "NodeRole",
    "Spin",
    "energy",
    # model
    "BoltzmannModel",
    "build_model",
    "enumeration_cap",
    "DEFAULT_ENUM_CAP",
    "ZERO_MEASURE",
    # bell
    "ConditionalTable",
    "conditional_table",
    "correlator",
    "ChshReport",
    "chsh",
    "quantum_reference",
    "quantum_chsh",
    "QUANTUM_MAX_ANGLES",
    # independence
    "Witness",
    "IndependenceReport",
    "measurement_dependence",
    "outcome_dependence",
    "parameter_dependence",
    "factorizability_check",
    "pairwise_correlation_check",
    "independence_report",
    "reevaluate",
    "decoupling_sweep",
    # series
    "SeriesContext",
    "SeriesCheckReport",
    "series_check",
    "weak_coupling_chsh",
    "chain_md_closed",
    "chain_md_per_config",
    "chain_md_profile",
    # freewill
    "clamp_reduce",
    "clamped_models",
    "ex1_table",
    "ex2_table",
    "equivalence_discrepancy",
    "partition_gap",
    "assert_equivalence",
    "clamped_independence_report",
    "FreewillReport",
    "freewill_report",
    # presets
    "BUILTIN_LATTICES",
    "builtin_lattice",
    "canonical_ladder",
    "tuned_ladder",
    "interior_analyzer_grid",
    "uniform_coupling_grid",
    "tuned_field_grid",
    "second_neighbor_lattice",
    "grid_lattice",
    "chain_lattice",
    "ReproductionCase",
    "all_cases",
    "get_case",
    # sampling
    "SampleRun",
    "sample",
    "frequency_report",
    "ConvergenceReport",
    # search
    "SearchParam",
    "SearchSpace",
    "SearchResult",
    "maximize_chsh",
    "GridRow",
    "grid_scan",
    "PlacementResult",
    "role_permutation_search",
    # latticefile
    "parse_lattice",
    "load_lattice",
    "format_lattice",
    "save_lattice",
    "parse_search_config",
    "load_search_config",
    # errors
    "SpinbellError",
    "LatticeDefinitionError",
    "InvalidConfigurationError",
    "InvalidArgumentError",
    "EnumerationLimitError",
    "NumericRangeError",
    "ZeroMeasureConditionError",
    "DegenerateModelError",
    "EquivalenceViolationError",
    "LatticeFileError",
    "InsufficientPostselectionWarning",
]
