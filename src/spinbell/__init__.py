"""Exact correlation experiments on small Ising spin lattices.

Build a lattice (roles: two outcomes, two analyzers, hidden nodes), turn it
into an exactly enumerated Boltzmann model, and interrogate it: conditional
outcome tables and the CHSH combination, dependence measures between hidden
state, settings and outcomes, closed-form series cross-checks, clamped
analyzer equivalence, seeded sampling, and parameter search.

Exports load lazily: `import spinbell` loads no submodule and not numpy.
The first use of an exported name, or of a submodule such as
`spinbell.presets`, imports its home module.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "lattice": ("Node", "Edge", "CubicTerm", "Lattice", "NodeRole", "Spin", "energy"),
    "model": ("BoltzmannModel", "build_model", "enumeration_cap", "DEFAULT_ENUM_CAP", "ZERO_MEASURE"),
    "bell": (
        "ConditionalTable",
        "conditional_table",
        "ChshReport",
        "chsh",
        "quantum_reference",
        "quantum_chsh",
        "QUANTUM_MAX_ANGLES",
    ),
    "independence": (
        "Witness",
        "IndependenceReport",
        "measurement_dependence",
        "independence_report",
        "reevaluate",
        "decoupling_sweep",
    ),
    "series": (
        "SeriesContext",
        "SeriesCheckReport",
        "series_check",
        "chain_md_closed",
        "chain_md_per_config",
        "chain_md_profile",
    ),
    "freewill": (
        "clamp_reduce",
        "clamped_models",
        "assert_equivalence",
        "clamped_independence_report",
        "FreewillReport",
        "freewill_report",
    ),
    "presets": (
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
    ),
    "sampling": ("SampleRun", "sample", "frequency_report", "ConvergenceReport"),
    "search": (
        "SearchParam",
        "SearchSpace",
        "SearchResult",
        "maximize_chsh",
        "GridRow",
        "grid_scan",
        "PlacementResult",
        "role_permutation_search",
    ),
    "latticefile": (
        "parse_lattice",
        "load_lattice",
        "format_lattice",
        "save_lattice",
        "parse_search_config",
        "load_search_config",
    ),
    "errors": (
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
