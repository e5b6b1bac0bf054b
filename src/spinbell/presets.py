"""Built-in lattices and the registry of reproduction cases.

All two-row lattices here live on the same 2 x C grid of positions (top row
t0..t4, bottom row u0..u4 for C = 5); the named presets differ in where the
Bell roles sit and in their field/coupling sets:

- canonical_ladder: roles at the four corners (outcome 1 top left, outcome 2
  top right, analyzers below them), hidden 3,4,5 across the top and 6,7,8
  across the bottom. The closed forms in the series module assume exactly
  this layout.
- tuned_ladder: same layout with a strongly asymmetric field/coupling set
  that pushes the Bell combination close to its lattice maximum while the
  hidden marginal stays nearly setting-deterministic.
- interior_analyzer_grid family: outcomes at the top corners, analyzers at
  interior bottom positions (mirror symmetric). This placement reproduces
  the published grid maxima; the corner placement does not.
- second_neighbor_lattice: the ladder plus eight diagonal couplings, roles
  clustered in the leftmost 2 x 2 block with analyzers on top.
- chain_lattice: open chain 1-a-3-4-...-n-b-2.

Reproduction cases pin published reference values with tolerances; run them
through the registry here or the reproduce CLI command.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .lattice import Lattice, NodeRole
from ._format import check_counts

__all__ = [
    "canonical_ladder",
    "tuned_ladder",
    "interior_analyzer_grid",
    "uniform_coupling_grid",
    "tuned_field_grid",
    "second_neighbor_lattice",
    "chain_lattice",
    "grid_lattice",
    "grid_positions",
    "grid_edge_pairs",
    "diagonal_pairs",
    "BUILTIN_LATTICES",
    "builtin_lattice",
    "Quantity",
    "QuantityResult",
    "ReproductionCase",
    "all_cases",
    "get_case",
]

_ROLE_BY_ID = {
    "1": NodeRole.OUTCOME_1,
    "2": NodeRole.OUTCOME_2,
    "a": NodeRole.ANALYZER_A,
    "b": NodeRole.ANALYZER_B,
}

#: declaration order shared by every two-row preset
_NODE_ORDER = ("1", "2", "a", "b", "3", "4", "5", "6", "7", "8")


def grid_positions(columns: int = 5) -> tuple[str, ...]:
    """Position names of the 2 x columns grid, top row then bottom row."""
    check_counts(columns=columns)
    return tuple(f"t{c}" for c in range(columns)) + tuple(f"u{c}" for c in range(columns))


def grid_edge_pairs(columns: int = 5) -> tuple[tuple[str, str], ...]:
    """Nearest-neighbor position pairs: rungs, then top row, then bottom row."""
    rungs = tuple((f"t{c}", f"u{c}") for c in range(columns))
    top = tuple((f"t{c}", f"t{c + 1}") for c in range(columns - 1))
    bottom = tuple((f"u{c}", f"u{c + 1}") for c in range(columns - 1))
    return rungs + top + bottom


def diagonal_pairs(columns: int = 5) -> tuple[tuple[str, str], ...]:
    """Second-neighbor diagonals of the grid, both orientations."""
    down = tuple((f"t{c}", f"u{c + 1}") for c in range(columns - 1))
    up = tuple((f"u{c}", f"t{c + 1}") for c in range(columns - 1))
    return down + up


def _renamed_two_row(
    rename: Mapping[str, str],
    couplings: Mapping[tuple[str, str], float],
    fields: Mapping[str, float],
    beta: float,
    diagonal_j: float | None = None,
) -> Lattice:
    nodes = [
        (nid, _ROLE_BY_ID.get(nid, NodeRole.HIDDEN), fields.get(nid, 0.0))
        for nid in _NODE_ORDER
    ]
    edges = []
    for pa, pb in grid_edge_pairs():
        a, b = rename[pa], rename[pb]
        edges.append((a, b, couplings[(pa, pb)]))
    if diagonal_j is not None:
        for pa, pb in diagonal_pairs():
            edges.append((rename[pa], rename[pb], diagonal_j))
    return Lattice.from_parts(nodes, edges, beta=beta)


_LADDER_RENAME = {
    "t0": "1", "t1": "3", "t2": "4", "t3": "5", "t4": "2",
    "u0": "a", "u1": "6", "u2": "7", "u3": "8", "u4": "b",
}

_INTERIOR_RENAME = {
    "t0": "1", "t1": "3", "t2": "4", "t3": "5", "t4": "2",
    "u0": "6", "u1": "a", "u2": "7", "u3": "b", "u4": "8",
}

_BLOCK_RENAME = {
    "t0": "a", "t1": "b", "t2": "3", "t3": "4", "t4": "5",
    "u0": "1", "u1": "2", "u2": "6", "u3": "7", "u4": "8",
}


def canonical_ladder(
    j: float = 1.0,
    beta: float = 1.0,
    fields: Mapping[str, float] | None = None,
) -> Lattice:
    """The 2 x 5 ladder with Bell roles at the four corners.

    Homogeneous coupling j on all 13 edges, zero fields unless given.
    """
    uniform = {pair: j for pair in grid_edge_pairs()}
    return _renamed_two_row(_LADDER_RENAME, uniform, fields or {}, beta)


def tuned_ladder(beta: float = 1.0) -> Lattice:
    """Corner-role ladder with the heterogeneous set tuned for a large Bell
    combination with near-deterministic hidden response."""
    couplings = {
        ("t0", "u0"): 2.0,  # 1-a
        ("t1", "u1"): 1.0,  # 3-6
        ("t2", "u2"): 4.0,  # 4-7
        ("t3", "u3"): 1.0,  # 5-8
        ("t4", "u4"): 2.0,  # 2-b
        ("t0", "t1"): 2.0,  # 1-3
        ("t1", "t2"): 1.0,  # 3-4
        ("t2", "t3"): 1.0,  # 4-5
        ("t3", "t4"): 2.0,  # 5-2
        ("u0", "u1"): 3.0,  # a-6
        ("u1", "u2"): 4.0,  # 6-7
        ("u2", "u3"): 4.0,  # 7-8
        ("u3", "u4"): 3.0,  # 8-b
    }
    fields = {
        "1": 3.0, "2": 3.0,
        "3": 1.0, "4": 1.0, "5": 1.0,
        "6": -1.0, "7": -1.0, "8": -1.0,
        "a": -1.0, "b": -1.0,
    }
    return _renamed_two_row(_LADDER_RENAME, couplings, fields, beta)


def interior_analyzer_grid(
    j: float,
    fields: Mapping[str, float],
    beta: float = 1.0,
) -> Lattice:
    """Grid with outcomes at the top corners and analyzers at interior
    bottom positions (top row 1 3 4 5 2, bottom row 6 a 7 b 8)."""
    uniform = {pair: j for pair in grid_edge_pairs()}
    return _renamed_two_row(_INTERIOR_RENAME, uniform, fields, beta)


def uniform_coupling_grid(beta: float = 1.0) -> Lattice:
    """Interior-analyzer grid at the uniform maximum: j = 1.4, all h = 1."""
    return interior_analyzer_grid(1.4, {nid: 1.0 for nid in _NODE_ORDER}, beta)


def tuned_field_grid(beta: float = 1.0) -> Lattice:
    """Interior-analyzer grid at the two-level field maximum: j = 2,
    fields 1.9 on the outcomes and the bottom corners, 0.4 elsewhere."""
    fields = {nid: (1.9 if nid in ("1", "2", "6", "8") else 0.4) for nid in _NODE_ORDER}
    return interior_analyzer_grid(2.0, fields, beta)


def second_neighbor_lattice(
    j1: float = 1.0,
    j2: float = 0.5,
    h: float = 1.0,
    beta: float = 1.0,
) -> Lattice:
    """Ladder plus all eight second-neighbor diagonals; Bell roles form the
    leftmost 2 x 2 block with the analyzers on top."""
    couplings = {pair: j1 for pair in grid_edge_pairs()}
    fields = {nid: h for nid in _NODE_ORDER}
    return _renamed_two_row(_BLOCK_RENAME, couplings, fields, beta, diagonal_j=j2)


def grid_lattice(
    placement: Mapping[str, str],
    j: float,
    fields: Mapping[str, float] | float = 0.0,
    beta: float = 1.0,
    columns: int = 5,
    diagonal_j: float | None = None,
) -> Lattice:
    """Two-row grid with nodes named by position and roles by placement.

    placement maps a position (t0..) to a role label ("outcome1", ...).
    fields is a position -> h mapping or one shared value. Used by the
    role-permutation search; the named presets are renamed instances of the
    same topology.
    """
    positions = grid_positions(columns)
    for pos, role in placement.items():
        if pos not in positions:
            raise InvalidArgumentError(f"unknown grid position {pos!r}")
        NodeRole.from_label(role)
    if isinstance(fields, Mapping):
        for pos in fields:
            if pos not in positions:
                raise InvalidArgumentError(f"unknown grid position {pos!r} in fields")
        field_of = dict(fields)
    else:
        field_of = {pos: float(fields) for pos in positions}
    nodes = [
        (pos, placement.get(pos, NodeRole.HIDDEN.value), field_of.get(pos, 0.0))
        for pos in positions
    ]
    edges = [(a, b, j) for a, b in grid_edge_pairs(columns)]
    if diagonal_j is not None:
        edges += [(a, b, diagonal_j) for a, b in diagonal_pairs(columns)]
    return Lattice.from_parts(nodes, edges, beta=beta)


def chain_lattice(n: int, j: float = 1.0, beta: float = 1.0, h: float = 0.0) -> Lattice:
    """Open chain 1-a-3-4-...-n-b-2: outcomes at the two ends, analyzers
    just inside them, hidden path 3..n in between. n >= 3 hidden labels."""
    check_counts(n=n)
    if n < 3:
        raise InvalidArgumentError(f"chain needs n >= 3, got {n}")
    hidden = [str(i) for i in range(3, n + 1)]
    nodes = [
        ("1", NodeRole.OUTCOME_1, h),
        ("2", NodeRole.OUTCOME_2, h),
        ("a", NodeRole.ANALYZER_A, h),
        ("b", NodeRole.ANALYZER_B, h),
    ] + [(nid, NodeRole.HIDDEN, h) for nid in hidden]
    path = ["1", "a", *hidden, "b", "2"]
    edges = [(s, t, j) for s, t in zip(path, path[1:])]
    return Lattice.from_parts(nodes, edges, beta=beta)


BUILTIN_LATTICES: dict[str, Callable[[], Lattice]] = {
    "ladder": canonical_ladder,
    "ladder-tuned": tuned_ladder,
    "grid-uniform": uniform_coupling_grid,
    "grid-tuned": tuned_field_grid,
    "second-neighbor": second_neighbor_lattice,
    "chain-8": lambda: chain_lattice(8),
    "chain-12": lambda: chain_lattice(12),
}


def builtin_lattice(name: str) -> Lattice:
    try:
        builder = BUILTIN_LATTICES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown built-in lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}"
        ) from None
    return builder()


# -- reproduction cases --------------------------------------------------------


@dataclass(frozen=True)
class Quantity:
    """One pinned value: kind 'abs' checks |value - expected| <= tol, kind
    'min' checks value > expected. Contingent quantities report CONTINGENT
    instead of FAIL when missed (layout-dependent published values)."""

    label: str
    expected: float
    tol: float
    kind: str = "abs"
    contingent: bool = False


@dataclass(frozen=True)
class QuantityResult:
    quantity: Quantity
    value: float

    @property
    def label(self) -> str:
        return self.quantity.label

    @property
    def passed(self) -> bool:
        q = self.quantity
        if q.kind == "min":
            return self.value > q.expected
        return abs(self.value - q.expected) <= q.tol

    @property
    def verdict(self) -> str:
        if self.passed:
            return "PASS"
        return "CONTINGENT" if self.quantity.contingent else "FAIL"

    def describe(self) -> str:
        q = self.quantity
        if q.kind == "min":
            target = f"> {q.expected:g}"
        else:
            target = f"{q.expected:g} +/- {q.tol:g}"
        return f"{self.label}: {self.value:.10g} (target {target}) {self.verdict}"


@dataclass(frozen=True)
class ReproductionCase:
    id: str
    title: str
    source: str
    quantities: tuple[Quantity, ...]
    runner: Callable[[], dict[str, float]]

    def run(self) -> list[QuantityResult]:
        values = self.runner()
        return [QuantityResult(q, float(values[q.label])) for q in self.quantities]


# The runners import the analysis modules when they run, so that the
# lattices and the case registry load without them (and without numpy).


def _run_ladder_uniform() -> dict[str, float]:
    from .bell import chsh, conditional_table
    from .model import build_model

    model = build_model(canonical_ladder())
    table = conditional_table(model)
    lam_plus = {nid: 1 for nid in ("3", "4", "5", "6", "7", "8")}
    return {
        "P(+,+|+,+)": table.entry(1, 1, 1, 1),
        "x_bi": chsh(table).x_bi,
        "P(lambda all +|+,+)": model.conditional(lam_plus, {"a": 1, "b": 1}),
        "P(lambda all +|-,-)": model.conditional(lam_plus, {"a": -1, "b": -1}),
    }


def _run_ladder_tuned() -> dict[str, float]:
    from .bell import chsh, conditional_table
    from .independence import measurement_dependence
    from .model import build_model

    model = build_model(tuned_ladder())
    md, _ = measurement_dependence(model)
    return {"x_bi": chsh(conditional_table(model)).x_bi, "md": md}


def _run_grid_maxima() -> dict[str, float]:
    from .bell import chsh, conditional_table
    from .model import build_model

    x_uniform = chsh(conditional_table(build_model(uniform_coupling_grid()))).x_bi
    x_tuned = chsh(conditional_table(build_model(tuned_field_grid()))).x_bi
    return {"x_bi uniform couplings": x_uniform, "x_bi tuned fields": x_tuned}


def _run_second_neighbor() -> dict[str, float]:
    from .bell import chsh, conditional_table
    from .independence import independence_report
    from .model import build_model

    model = build_model(second_neighbor_lattice())
    rep = independence_report(model)
    return {
        "x_bi": chsh(conditional_table(model)).x_bi,
        "md": rep.md,
        "od": rep.od,
        "pd": rep.pd,
        "od max single cell": rep.od_max_cell,
        "pd outcome2 side": rep.pd_sides["outcome2_vs_analyzer_a"],
    }


def _run_chain_screening() -> dict[str, float]:
    from .independence import independence_report
    from .model import build_model
    from .series import chain_md_closed

    n = 8
    model = build_model(chain_lattice(n))
    rep = independence_report(model)
    closed = chain_md_closed(n, math.tanh(1.0))
    return {"od": rep.od, "pd": rep.pd, "md vs closed form": abs(rep.md - closed)}


def _run_quantum_cosine() -> dict[str, float]:
    from .bell import QUANTUM_MAX_ANGLES, quantum_chsh

    return {"x at reference angles": quantum_chsh(*QUANTUM_MAX_ANGLES)}


def _run_free_will() -> dict[str, float]:
    from .freewill import freewill_report
    from .model import build_model

    return {"route discrepancy": freewill_report(build_model(tuned_ladder())).max_discrepancy}


def _run_weak_coupling() -> dict[str, float]:
    from .bell import chsh, conditional_table
    from .model import build_model

    k = 0.05
    model = build_model(canonical_ladder(j=math.atanh(k)))
    x = chsh(conditional_table(model)).x_bi
    return {"x_bi residual against -2K^2": abs(x - (-2.0 * k * k))}


_CASES: tuple[ReproductionCase, ...] = (
    ReproductionCase(
        id="ladder-uniform",
        title="Homogeneous corner-role ladder, J = beta = 1",
        source="published reference values for the homogeneous ladder",
        quantities=(
            Quantity("P(+,+|+,+)", 0.95, 0.005),
            Quantity("x_bi", -0.667, 0.0005),
            Quantity("P(lambda all +|+,+)", 0.973, 0.0005),
            Quantity("P(lambda all +|-,-)", 0.0012, 0.00005),
        ),
        runner=_run_ladder_uniform,
    ),
    ReproductionCase(
        id="ladder-tuned",
        title="Tuned heterogeneous ladder",
        source="published reference values for the tuned ladder",
        quantities=(
            Quantity("x_bi", 2.87, 0.01),
            Quantity("md", 1.99, 0.01),
        ),
        runner=_run_ladder_tuned,
    ),
    ReproductionCase(
        id="grid-maxima",
        title="Interior-analyzer grid maxima",
        source="published grid maxima; role placement reconstructed, so both "
        "values are layout contingent",
        quantities=(
            Quantity("x_bi uniform couplings", 2.24, 0.02, contingent=True),
            Quantity("x_bi tuned fields", 2.883, 0.005, contingent=True),
        ),
        runner=_run_grid_maxima,
    ),
    ReproductionCase(
        id="second-neighbor",
        title="Second-neighbor lattice with clustered roles",
        source="published second-neighbor values; role placement and the "
        "od/pd reading conventions reconstructed",
        quantities=(
            Quantity("x_bi", 2.0, 0.0, kind="min"),
            Quantity("md", 0.01, 0.0, kind="min"),
            Quantity("od", 0.01, 0.0, kind="min"),
            Quantity("pd", 0.01, 0.0, kind="min"),
            Quantity("x_bi", 2.32, 0.01, contingent=True),
            Quantity("md", 0.03, 0.01, contingent=True),
            Quantity("od max single cell", 0.15, 0.01, contingent=True),
            Quantity("pd outcome2 side", 0.78, 0.01, contingent=True),
        ),
        runner=_run_second_neighbor,
    ),
    ReproductionCase(
        id="chain-screening",
        title="Open chain: outcome screening and closed-form hidden response",
        source="derived from the chain closed forms",
        quantities=(
            Quantity("od", 0.0, 1e-9),
            Quantity("pd", 0.0, 1e-9),
            Quantity("md vs closed form", 0.0, 1e-9),
        ),
        runner=_run_chain_screening,
    ),
    ReproductionCase(
        id="quantum-cosine",
        title="Cosine reference at the maximizing angles",
        source="textbook value 2*sqrt(2)",
        quantities=(Quantity("x at reference angles", 2.0 * math.sqrt(2.0), 1e-12),),
        runner=_run_quantum_cosine,
    ),
    ReproductionCase(
        id="free-will",
        title="Postselection vs clamped-analyzer ensembles on the tuned ladder",
        source="dual-derivation identity",
        quantities=(Quantity("route discrepancy", 0.0, 1e-12),),
        runner=_run_free_will,
    ),
    ReproductionCase(
        id="weak-coupling",
        title="Weak-coupling Bell combination approaches -2K^2",
        source="derived cubic-order bound, coefficient frozen at 0.25",
        quantities=(Quantity("x_bi residual against -2K^2", 0.0, 0.25 * 0.05**3),),
        runner=_run_weak_coupling,
    ),
)


def all_cases() -> tuple[ReproductionCase, ...]:
    return _CASES


def get_case(case_id: str) -> ReproductionCase:
    for case in _CASES:
        if case.id == case_id:
            return case
    raise InvalidArgumentError(
        f"unknown case {case_id!r}; choose from {[c.id for c in _CASES]}"
    )


# A quantity label may appear twice (threshold and pinned target); the
# duplicate-label run() lookup is fine because both read the same value.
