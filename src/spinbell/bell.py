"""CHSH quantities from the exact outcome/analyzer table.

The central object is the 16-entry conditional table P(s1, s2 | sa, sb) over
the two outcome spins given the two analyzer spins. Setting values are spins:
the unprimed settings a and b are +1, the primed a' and b' are -1, and the
Bell combination is

    X = M(a,b) + M(a',b) + M(a,b') - M(a',b')

with M the two-outcome correlator under the given settings. The maximum of
|X| over the four choices of which term carries the minus sign is exposed as
a diagnostic next to the fixed-convention value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ZeroMeasureConditionError
from .model import ZERO_MEASURE, BoltzmannModel
from ._format import SPINS, csv_table, fmt, pm, spin_index, spin_of

__all__ = [
    "ConditionalTable",
    "ChshReport",
    "conditional_table",
    "chsh",
    "quantum_reference",
    "quantum_chsh",
    "QUANTUM_MAX_ANGLES",
]

#: Analyzer angle set (a, a', b, b') at which the cosine reference reaches 2*sqrt(2).
QUANTUM_MAX_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

_COLUMN_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalTable:
    """P(s1, s2 | sa, sb) as a (2, 2, 2, 2) array.

    Axes are (outcome1, outcome2, analyzer_a, analyzer_b); index 1 = spin +1.
    Every setting column must be a distribution to within 1e-10.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2, 2, 2, 2):
            raise InvalidArgumentError(f"conditional table has shape {v.shape}, want (2,2,2,2)")
        _check_columns(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def entry(self, s1: int, s2: int, sa: int, sb: int) -> float:
        """P(s1, s2 | sa, sb), spins in {-1, +1}."""
        return float(self.values[spin_index(s1), spin_index(s2), spin_index(sa), spin_index(sb)])

    def column(self, sa: int, sb: int) -> np.ndarray:
        """The (2, 2) outcome distribution under one setting pair."""
        return self.values[:, :, spin_index(sa), spin_index(sb)]

    def as_dict(self) -> dict[tuple[int, int, int, int], float]:
        return {
            (s1, s2, sa, sb): self.entry(s1, s2, sa, sb)
            for sa, sb, s1, s2 in itertools.product(SPINS, repeat=4)
        }

    def csv(self, precision: int | None = None) -> str:
        rows = sorted(self.as_dict().items(), reverse=True)
        return csv_table(("s1", "s2", "sa", "sb", "p"), [(*key, p) for key, p in rows], precision)

    def to_text(self, precision: int | None = 6) -> str:
        lines = ["P(s1,s2|sa,sb):"]
        for sa, sb in itertools.product((1, -1), repeat=2):
            cells = ", ".join(
                f"({pm(s1)},{pm(s2)})={fmt(self.entry(s1, s2, sa, sb), precision)}"
                for s1, s2 in itertools.product((1, -1), repeat=2)
            )
            lines.append(f"  a={pm(sa)} b={pm(sb)}: {cells}")
        return "\n".join(lines)


def _check_columns(v: np.ndarray) -> None:
    """Raise unless every setting column of P over (s1, s2, sa, sb, ...) is
    a distribution to within 1e-10; trailing axes stack tables, and an
    empty stack passes. Each check is written to fail on NaN, which
    compares false with everything and propagates through min and max."""
    low, high = np.min(v, initial=0.0), np.max(v, initial=1.0)
    if not (low >= -_COLUMN_TOL and high <= 1.0 + _COLUMN_TOL):
        raise InvalidArgumentError("conditional table entries leave [0, 1]")
    deviation = np.max(np.abs(v.sum(axis=(0, 1)) - 1.0), initial=0.0)
    if not deviation <= _COLUMN_TOL:
        raise InvalidArgumentError(f"conditional table columns deviate from 1 by {deviation:.3e}")


def conditional_table(model: BoltzmannModel) -> ConditionalTable:
    """Exact P(s1, s2 | sa, sb) for a model whose lattice carries Bell roles."""
    id1, id2, ida, idb = model.lattice.bell_ids()
    w = model.weight_table([id1, id2, ida, idb])
    mass = w.sum(axis=(0, 1))
    for ia in (0, 1):
        for ib in (0, 1):
            if mass[ia, ib] < ZERO_MEASURE:
                raise ZeroMeasureConditionError(
                    f"setting (sa={pm(spin_of(ia))}, sb={pm(spin_of(ib))}) "
                    "has zero weight; conditional outcome table undefined"
                )
    return ConditionalTable(w / mass)


def _correlators(v: np.ndarray) -> np.ndarray:
    """M(sa, sb) from P over (s1, s2, sa, sb, ...); trailing axes stack
    tables."""
    return v[1, 1] + v[0, 0] - v[1, 0] - v[0, 1]


def _bell_terms(m) -> tuple[tuple, object, object]:
    """((m_ab, m_apb, m_abp, m_apbp), their sum, x_bi) from correlators
    indexed [sa][sb]: nested lists of floats, or an array whose trailing
    axes stack tables.

    The sum is added left to right: builtin sum() compensates on
    Python >= 3.12, so its last bit would depend on the interpreter.
    """
    (m_apbp, m_apb), (m_abp, m_ab) = m  # index 0 is spin -1
    total = ((m_ab + m_apb) + m_abp) + m_apbp
    return (m_ab, m_apb, m_abp, m_apbp), total, total - 2.0 * m_apbp


def _x_bi_rows(weights: np.ndarray) -> np.ndarray:
    """chsh(conditional_table(...)).x_bi of each weight table over (P, s1,
    s2, sa, sb) whose every setting has weight, with the same operations,
    and -inf for the others."""
    masses = weights.sum(axis=(1, 2))
    keep = ~(masses < ZERO_MEASURE).any(axis=(1, 2))
    tables = weights[keep]
    tables /= masses[keep][:, None, None]
    tables = np.moveaxis(tables, 0, -1)  # (s1, s2, sa, sb, table)
    _check_columns(tables)
    x_bi = np.full(len(keep), -np.inf)
    x_bi[keep] = _bell_terms(_correlators(tables))[2]
    return x_bi


@dataclass(frozen=True)
class ChshReport:
    """The four setting correlators and their Bell combination.

    m_ab uses settings (+1, +1), m_apb (-1, +1), m_abp (+1, -1),
    m_apbp (-1, -1); x_bi = m_ab + m_apb + m_abp - m_apbp. x_max_abs is the
    maximum |X| over the four placements of the minus sign.
    """

    m_ab: float
    m_apb: float
    m_abp: float
    m_apbp: float
    x_bi: float
    x_max_abs: float
    convention: str = "a=b=+1, a'=b'=-1"

    CSV_FIELDS = ("m_ab", "m_apb", "m_abp", "m_apbp", "x_bi")

    def csv(self, precision: int | None = None) -> str:
        return csv_table(self.CSV_FIELDS, [[getattr(self, f) for f in self.CSV_FIELDS]], precision)

    def to_text(self, precision: int | None = 6) -> str:
        lines = [
            f"m_ab    = {fmt(self.m_ab, precision)}",
            f"m_apb   = {fmt(self.m_apb, precision)}",
            f"m_abp   = {fmt(self.m_abp, precision)}",
            f"m_apbp  = {fmt(self.m_apbp, precision)}",
            f"x_bi    = {fmt(self.x_bi, precision)}  ({self.convention})",
            f"max |X| over sign choices = {fmt(self.x_max_abs, precision)}",
        ]
        return "\n".join(lines)


def chsh(table: ConditionalTable) -> ChshReport:
    """Bell combination of the four correlators of a conditional table."""
    terms, total, x_bi = _bell_terms(_correlators(table.values).tolist())
    x_max_abs = max(abs(total - 2.0 * t) for t in terms)
    return ChshReport(*terms, x_bi, x_max_abs)


def quantum_reference(a: float, b: float) -> float:
    """Reference analyzer-angle correlator cos(a - b)."""
    return math.cos(a - b)


def quantum_chsh(a: float, ap: float, b: float, bp: float) -> float:
    """CHSH combination of the cosine reference at four analyzer angles.

    Reaches 2*sqrt(2) at QUANTUM_MAX_ANGLES.
    """
    return (
        quantum_reference(a, b)
        + quantum_reference(ap, b)
        + quantum_reference(a, bp)
        - quantum_reference(ap, bp)
    )
