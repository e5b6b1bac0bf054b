"""Two derivations of the outcome table that must agree exactly.

Route one (ex1) postselects: P(s1, s2 | sa, sb) as a ratio of ensemble weight
sums over the full enumeration. Route two (ex2) clamps: for each of the four
analyzer settings, the analyzer spins are frozen at those values, couplings
and triples involving them collapse into fields and constants on the free
nodes, and the 2^(N-2) remaining configurations are enumerated afresh with
their own restricted partition sum Z*.

Both routes share one stabilization shift (the parent model's energy
minimum), so their ratios agree to machine precision rather than merely to
rounding; the summation orders and index spaces are otherwise independent.
The restricted sums also satisfy sum over settings of Z* = Z, a partition of
unity that is checked alongside the table comparison.

The same clamped ensembles yield hidden-variable conditionals, so every
independence measure can be re-derived through the clamped route and compared
against the direct one (clamped_independence_report).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bell import ConditionalTable, conditional_table
from .errors import (
    EquivalenceViolationError,
    InvalidArgumentError,
    ZeroMeasureConditionError,
)
from .lattice import CubicTerm, Edge, Lattice, Node, Spin, _check_config
from .model import ZERO_MEASURE, BoltzmannModel, _weights
from .independence import IndependenceReport, _lambda_ids, report_from_weights
from ._format import SPINS, csv_table, fmt

__all__ = [
    "clamp_reduce",
    "ClampedModel",
    "clamped_models",
    "ex1_table",
    "ex2_table",
    "equivalence_discrepancy",
    "partition_gap",
    "assert_equivalence",
    "clamped_independence_report",
    "FreewillReport",
    "freewill_report",
]


def clamp_reduce(lattice: Lattice, clamp: Mapping[str, Spin]) -> Lattice:
    """Lattice over the free nodes once the clamped spins are frozen.

    Couplings to a clamped node become fields, couplings between two clamped
    nodes become constants, and triples lose their clamped members the same
    way. The reduced lattice reproduces the original energies of the clamped
    sector exactly.
    """
    _check_config(lattice, clamp, require_full=False)
    if not clamp:
        raise InvalidArgumentError("clamp needs at least one node")
    free = [n for n in lattice.nodes if n.id not in clamp]
    if not free:
        raise InvalidArgumentError("clamp freezes every node")

    h = {n.id: n.h for n in free}
    offset = lattice.offset
    # the clamped nodes' own field terms are sector constants
    for nid, s in clamp.items():
        offset -= lattice.node(nid).h * s
    # surviving pair couplings, keyed and ordered by first encounter
    pairs: dict[tuple[str, str], float] = {}

    def pair_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    for e in lattice.edges:
        in_a, in_b = e.a in clamp, e.b in clamp
        if in_a and in_b:
            offset -= e.j * clamp[e.a] * clamp[e.b]
        elif in_a:
            h[e.b] += e.j * clamp[e.a]
        elif in_b:
            h[e.a] += e.j * clamp[e.b]
        else:
            key = pair_key(e.a, e.b)
            pairs[key] = pairs.get(key, 0.0) + e.j

    cubic: list[CubicTerm] = []
    for t in lattice.cubic:
        clamped = [nid for nid in t.nodes if nid in clamp]
        loose = [nid for nid in t.nodes if nid not in clamp]
        sign = 1
        for nid in clamped:
            sign *= clamp[nid]
        if len(loose) == 3:
            cubic.append(t)
        elif len(loose) == 2:
            # +c s_c s_i s_j acts as a pair coupling of strength -c s_c
            key = pair_key(loose[0], loose[1])
            pairs[key] = pairs.get(key, 0.0) - t.c * sign
        elif len(loose) == 1:
            # +c s_c1 s_c2 s_i acts as a field of strength -c s_c1 s_c2
            h[loose[0]] -= t.c * sign
        else:
            offset += t.c * sign

    nodes = tuple(Node(n.id, n.role, h[n.id]) for n in free)
    edges = tuple(Edge(a, b, j) for (a, b), j in pairs.items())
    return Lattice(nodes=nodes, edges=edges, beta=lattice.beta, cubic=tuple(cubic), offset=offset)


@dataclass(frozen=True)
class ClampedModel:
    """Restricted ensemble with the analyzers frozen at one setting.

    inner enumerates the free nodes only; its weights use the parent model's
    stabilization shift, so z_star / (parent z_shifted) is an exact
    probability ratio.
    """

    clamp: tuple[tuple[str, Spin], ...]
    inner: BoltzmannModel = field(repr=False)

    @property
    def z_star(self) -> float:
        return self.inner.z_shifted


def _clamped_model(model: BoltzmannModel, clamp: Mapping[str, Spin]) -> ClampedModel:
    reduced = clamp_reduce(model.lattice, clamp)
    weights, _ = _weights(reduced, model.shift)
    inner = BoltzmannModel(reduced, weights, model.shift)
    return ClampedModel(clamp=tuple(sorted(clamp.items())), inner=inner)


_Clamped = dict[tuple[Spin, Spin], ClampedModel]


def clamped_models(model: BoltzmannModel) -> _Clamped:
    """The four analyzer-clamped ensembles, keyed by (sa, sb)."""
    _, _, ida, idb = model.lattice.bell_ids()
    return {
        (sa, sb): _clamped_model(model, {ida: sa, idb: sb})
        for sa in SPINS
        for sb in SPINS
    }


def ex1_table(model: BoltzmannModel) -> ConditionalTable:
    """Outcome table by postselection: conditional weight ratios over the
    full enumeration."""
    return conditional_table(model)


def ex2_table(model: BoltzmannModel) -> ConditionalTable:
    """Outcome table from the four clamped ensembles: restricted weight sums
    over Z*."""
    return _ex2_table(model, clamped_models(model))


def _ex2_table(model: BoltzmannModel, clamped: _Clamped) -> ConditionalTable:
    id1, id2, _, _ = model.lattice.bell_ids()
    values = np.empty((2, 2, 2, 2))
    for (sa, sb), cm in clamped.items():
        w = cm.inner.weight_table([id1, id2])
        z_star = float(w.sum())
        if z_star < ZERO_MEASURE:
            raise ZeroMeasureConditionError(
                f"clamped setting (sa={sa:+d}, sb={sb:+d}) has zero weight"
            )
        values[:, :, (sa + 1) // 2, (sb + 1) // 2] = w / z_star
    return ConditionalTable(values)


def equivalence_discrepancy(model: BoltzmannModel) -> float:
    """max over the 16 cells of |ex1 - ex2|."""
    return _discrepancy(model, clamped_models(model))


def _discrepancy(model: BoltzmannModel, clamped: _Clamped) -> float:
    one = ex1_table(model).values
    two = _ex2_table(model, clamped).values
    return float(np.max(np.abs(one - two)))


def partition_gap(model: BoltzmannModel) -> float:
    """Relative gap |sum of Z* - Z| / Z over the four settings."""
    return _partition_gap(model, clamped_models(model))


def _partition_gap(model: BoltzmannModel, clamped: _Clamped) -> float:
    total = sum(cm.z_star for cm in clamped.values())
    return abs(total - model.z_shifted) / model.z_shifted


def assert_equivalence(model: BoltzmannModel, tol: float = 1e-12) -> float:
    """Check both the 16-cell table identity and the partition of unity.

    Returns the max cell discrepancy; raises EquivalenceViolationError if
    either it or the partition gap exceeds tol.
    """
    clamped = clamped_models(model)
    disc = _discrepancy(model, clamped)
    gap = _partition_gap(model, clamped)
    if disc > tol or gap > tol:
        raise EquivalenceViolationError(
            f"postselection and clamped routes disagree: cell discrepancy "
            f"{disc:.3e}, partition gap {gap:.3e}, tolerance {tol:.1e}"
        )
    return disc


def _clamped_weight_array(model: BoltzmannModel, lam_ids: Sequence[str]) -> np.ndarray:
    """(s1, s2, sa, sb, lambda-flat) weights assembled from the four clamped
    ensembles instead of the direct enumeration."""
    id1, id2, _, _ = model.lattice.bell_ids()
    m = 1 << len(lam_ids)
    w5 = np.empty((2, 2, 2, 2, m))
    for (sa, sb), cm in clamped_models(model).items():
        w = cm.inner.weight_table([id1, id2, *lam_ids]).reshape(2, 2, m)
        w5[:, :, (sa + 1) // 2, (sb + 1) // 2, :] = w
    return w5


def clamped_independence_report(
    model: BoltzmannModel,
    lam: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> IndependenceReport:
    """Independence measures derived through the clamped ensembles.

    Must agree with independence_report to the equivalence tolerance;
    exercised as a dual-route check in the test suite.
    """
    lam_ids = _lambda_ids(model, lam)
    id1, id2, _, _ = model.lattice.bell_ids()
    return report_from_weights(_clamped_weight_array(model, lam_ids), lam_ids, id1, id2, tol)


@dataclass(frozen=True)
class FreewillReport:
    """Cell-by-cell comparison of the two routes."""

    cells: tuple[tuple[int, int, int, int, float, float], ...]
    max_discrepancy: float
    partition_gap: float

    CSV_FIELDS = ("s1", "s2", "sa", "sb", "postselected", "clamped", "difference")

    def csv(self, precision: int | None = None) -> str:
        rows = [
            (*(f"{s:+d}" for s in spins), one, two, one - two)
            for *spins, one, two in self.cells
        ]
        return csv_table(self.CSV_FIELDS, rows, precision)

    def to_text(self, precision: int | None = 6) -> str:
        lines = ["s1 s2 sa sb  postselected  clamped  difference"]
        for s1, s2, sa, sb, one, two in self.cells:
            lines.append(
                f"{s1:+d} {s2:+d} {sa:+d} {sb:+d}  "
                f"{fmt(one, precision)}  {fmt(two, precision)}  {fmt(one - two, precision)}"
            )
        lines.append(f"max discrepancy = {fmt(self.max_discrepancy, None)}")
        lines.append(f"partition gap   = {fmt(self.partition_gap, None)}")
        return "\n".join(lines)


def freewill_report(model: BoltzmannModel) -> FreewillReport:
    clamped = clamped_models(model)
    one = ex1_table(model)
    two = _ex2_table(model, clamped)
    cells = [
        (s1, s2, sa, sb, one.entry(s1, s2, sa, sb), two.entry(s1, s2, sa, sb))
        for sa, sb, s1, s2 in itertools.product(SPINS, repeat=4)
    ]
    disc = max(abs(c[4] - c[5]) for c in cells)
    return FreewillReport(
        cells=tuple(cells),
        max_discrepancy=disc,
        partition_gap=_partition_gap(model, clamped),
    )
