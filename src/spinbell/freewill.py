"""Two derivations of the outcome table that must agree exactly.

Route one postselects: P(s1, s2 | sa, sb) as a ratio of ensemble weight sums
over the full enumeration, conditional_table(model). Route two clamps: for
each of the four analyzer settings, the analyzer spins are frozen at those
values, couplings and triples involving them collapse into fields and
constants on the free nodes, and the 2^(N-2) remaining configurations are
enumerated afresh with their own restricted partition sum Z*.

The four clamped ensembles are stacked into one model (clamped_models): the
parent lattice with the analyzers moved to the top two bits, so each setting
owns one contiguous quarter of the weights. Every clamped quantity is then
the ordinary API read on that model: the outcome table is
conditional_table(clamped_models(model)), the four Z* its weight_table over
the analyzers, and the clamped independence report its independence_report.
A setting without weight is skipped or refused exactly as on the direct
route. freewill_report compares the two tables cell by cell.

Both routes share one stabilization shift (the parent model's energy
minimum), so their ratios agree to machine precision rather than merely to
rounding; the summation orders and index spaces are otherwise independent.
The restricted sums also satisfy sum over settings of Z* = Z, a partition of
unity that is checked alongside the table comparison.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .bell import conditional_table
from .errors import EquivalenceViolationError, InvalidArgumentError
from .lattice import CubicTerm, Edge, Lattice, Node, Spin, _check_config
from .model import BoltzmannModel, _weights
from .independence import IndependenceReport, independence_report
from ._format import SPINS, check_tol, csv_table, fmt

__all__ = [
    "clamp_reduce",
    "clamped_models",
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


def clamped_models(model: BoltzmannModel) -> BoltzmannModel:
    """The four analyzer-clamped ensembles, stacked into one model.

    Its lattice is the parent's with the free nodes first, in declaration
    order, then analyzer b, then analyzer a at the top bit, so setting
    (sa, sb) owns quarter 2 * (sa index) + (sb index) of the weights. Each
    quarter is that setting's clamp_reduce lattice enumerated with the
    parent's stabilization shift, so a quarter's sum Z* over the parent's
    z_shifted is an exact probability ratio. Each quarter is built in place.
    """
    lattice = model.lattice
    _, _, ida, idb = lattice.bell_ids()
    free = [n for n in lattice.nodes if n.id not in (ida, idb)]
    stacked = replace(lattice, nodes=(*free, lattice.node(idb), lattice.node(ida)))
    weights = np.empty(1 << lattice.n)
    for quarter, (sa, sb) in zip(weights.reshape(4, -1), itertools.product(SPINS, repeat=2)):
        _weights(clamp_reduce(lattice, {ida: sa, idb: sb}), model.shift, out=quarter)
    return BoltzmannModel(stacked, weights, model.shift)


def assert_equivalence(model: BoltzmannModel, tol: float = 1e-12) -> float:
    """Check both the 16-cell table identity and the partition of unity.

    Returns the max cell discrepancy; raises EquivalenceViolationError if
    either it or the partition gap exceeds tol, a finite number >= 0.
    """
    check_tol(tol)
    report = freewill_report(model)
    disc, gap = report.max_discrepancy, report.partition_gap
    if disc > tol or gap > tol:
        raise EquivalenceViolationError(
            f"postselection and clamped routes disagree: cell discrepancy "
            f"{disc:.3e}, partition gap {gap:.3e}, tolerance {tol:.1e}"
        )
    return disc


def clamped_independence_report(
    model: BoltzmannModel,
    lam: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> IndependenceReport:
    """Independence measures derived through the clamped ensembles: the
    direct report read on the stacked clamped model. Must agree with
    independence_report to the equivalence tolerance; exercised as a
    dual-route check in the test suite.
    """
    return independence_report(clamped_models(model), lam, tol)


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
    one = conditional_table(model)
    clamped = clamped_models(model)
    two = conditional_table(clamped)
    cells = [
        (s1, s2, sa, sb, one.entry(s1, s2, sa, sb), two.entry(s1, s2, sa, sb))
        for sa, sb, s1, s2 in itertools.product(SPINS, repeat=4)
    ]
    _, _, ida, idb = model.lattice.bell_ids()
    total = 0.0
    # the four Z* in (sa, sb) order, left to right: sum() compensates on Python >= 3.12
    for z_star in clamped.weight_table([ida, idb]).ravel():
        total += float(z_star)
    return FreewillReport(
        cells=tuple(cells),
        max_discrepancy=max(abs(c[4] - c[5]) for c in cells),
        partition_gap=abs(total - model.z_shifted) / model.z_shifted,
    )
