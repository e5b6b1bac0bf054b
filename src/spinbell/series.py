"""High-temperature closed forms for homogeneous zero-field lattices.

Everything here is an independent analytic route to quantities the
enumeration engine computes numerically; the two routes are kept separate on
purpose and compared in tests. All forms are polynomials in K = tanh(beta J)
with the global factor alpha = cosh(beta J)^(edge count); they are exact for
the specific topologies below, not truncations.

Ladder forms assume the canonical 2x5 ladder (presets.canonical_ladder):
outcome 1 and analyzer a on the left column, outcome 2 and analyzer b on the
right, hidden nodes 3,4,5 along the outcome row and 6,7,8 along the analyzer
row. Chain forms assume the open chain 1-a-3-4-...-N-b-2
(presets.chain_lattice): outcome 1 hangs off analyzer a, outcome 2 off
analyzer b, and the hidden path 3..N connects the analyzers.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from .errors import InvalidArgumentError, NumericRangeError, ZeroMeasureConditionError
from .lattice import Lattice
from .model import ZERO_MEASURE, BoltzmannModel, build_model
from ._format import check_spins, csv_table, fmt, fmt_assignment, spin_of

__all__ = [
    "SeriesContext",
    "ladder_joint_numerator",
    "ladder_setting_marginal",
    "ladder_partition_sum",
    "ladder_conditional",
    "ladder_lambda_conditional",
    "ladder_outcome1_factor",
    "ladder_outcome2_factor",
    "ladder_factor_forms",
    "chain_setting_marginal",
    "chain_lambda_conditional",
    "chain_outcome_factors",
    "chain_joint_outcomes",
    "weak_coupling_chsh",
    "chain_md_closed",
    "chain_md_per_config",
    "chain_md_profile",
    "ChainMdRow",
    "profile_csv",
    "DEFAULT_K_GRID",
    "SeriesCheckRow",
    "SeriesCheckReport",
    "series_check",
]

_LADDER_EDGE_COUNT = 13

#: hidden-hidden ladder edges entering the lambda conditional, by node label
_LADDER_HH_EDGES = (("3", "6"), ("3", "4"), ("6", "7"), ("4", "7"), ("4", "5"), ("7", "8"), ("5", "8"))


def _check_chain_n(n: int) -> None:
    if n < 5:
        raise InvalidArgumentError(f"chain forms need n >= 5, got {n}")


@dataclass(frozen=True)
class SeriesContext:
    """K and the cosh prefactor for one homogeneous zero-field lattice."""

    k: float
    alpha: float
    edge_count: int
    beta: float = 1.0
    j: float = 1.0

    @classmethod
    def build(cls, edge_count: int, j: float = 1.0, beta: float = 1.0) -> "SeriesContext":
        bj = beta * j
        return cls(
            k=math.tanh(bj),
            alpha=math.cosh(bj) ** edge_count,
            edge_count=edge_count,
            beta=beta,
            j=j,
        )

    @classmethod
    def ladder(cls, j: float = 1.0, beta: float = 1.0) -> "SeriesContext":
        return cls.build(_LADDER_EDGE_COUNT, j, beta)

    @classmethod
    def chain(cls, n: int, j: float = 1.0, beta: float = 1.0) -> "SeriesContext":
        _check_chain_n(n)
        # spins 1, 2, a, b plus hidden 3..n; path has n+1 bonds
        return cls.build(n + 1, j, beta)

    @classmethod
    def from_lattice(cls, lattice: Lattice) -> "SeriesContext":
        """Context for a homogeneous zero-field lattice; refuses anything else."""
        if lattice.cubic or lattice.offset != 0.0:
            raise InvalidArgumentError("closed forms cover pair couplings only")
        for node in lattice.nodes:
            if node.h != 0.0:
                raise InvalidArgumentError(
                    f"closed forms require zero fields; node {node.id!r} has h={node.h}"
                )
        js = {e.j for e in lattice.edges}
        if len(js) != 1:
            raise InvalidArgumentError(f"closed forms require one shared coupling, got {sorted(js)}")
        return cls.build(len(lattice.edges), js.pop(), lattice.beta)


# -- canonical ladder ---------------------------------------------------------


def _ladder_joint_bracket(k: float, s1: int, s2: int, sa: int, sb: int) -> float:
    """Polynomial bracket of the four-spin joint numerator."""
    k3, k4, k5, k6, k7, k8 = k**3, k**4, k**5, k**6, k**7, k**8
    return (
        1.0
        + (k3 + k5 + 2 * k7) * (s1 * sa + s2 * sb)
        + (k4 + 3 * k6) * (s1 * s2 + sa * sb)
        + (k6 + 3 * k8) * (s1 * s2 * sa * sb)
        + (3 * k5 + k7) * (s1 * sb + s2 * sa)
        + 2 * k4
        + k6
    )


def _ladder_setting_bracket(k: float, sa: int, sb: int) -> float:
    k4, k6, k8, k10 = k**4, k**6, k**8, k**10
    return 1.0 + sa * sb * (k4 + 10 * k6 + 5 * k8) + 4 * k4 + 3 * k6 + 5 * k8 + 3 * k10


def ladder_joint_numerator(ctx: SeriesContext, s1: int, s2: int, sa: int, sb: int) -> float:
    """Z * P(s1, s2, sa, sb) on the canonical ladder."""
    check_spins(s1, s2, sa, sb)
    k = ctx.k
    return (
        ctx.alpha
        * (1.0 + k * s1 * sa)
        * (1.0 + k * s2 * sb)
        * 64.0
        * _ladder_joint_bracket(k, s1, s2, sa, sb)
    )


def ladder_setting_marginal(ctx: SeriesContext, sa: int, sb: int) -> float:
    """Z * P(sa, sb) on the canonical ladder."""
    check_spins(sa, sb)
    return ctx.alpha * 256.0 * _ladder_setting_bracket(ctx.k, sa, sb)


def ladder_partition_sum(ctx: SeriesContext) -> float:
    """Z of the canonical ladder."""
    k = ctx.k
    return ctx.alpha * 1024.0 * (1.0 + 4 * k**4 + 3 * k**6 + 5 * k**8 + 3 * k**10)


def ladder_conditional(ctx: SeriesContext, s1: int, s2: int, sa: int, sb: int) -> float:
    """P(s1, s2 | sa, sb) on the canonical ladder (ratio of the two forms)."""
    check_spins(s1, s2, sa, sb)
    k = ctx.k
    num = (1.0 + k * s1 * sa) * (1.0 + k * s2 * sb) * _ladder_joint_bracket(k, s1, s2, sa, sb)
    return num / (4.0 * _ladder_setting_bracket(k, sa, sb))


def ladder_lambda_conditional(ctx: SeriesContext, lam: Sequence[int], sa: int, sb: int) -> float:
    """P(lambda | sa, sb) on the canonical ladder, outcomes summed out.

    lam gives the six hidden spins in label order (s3, s4, s5, s6, s7, s8).
    """
    if len(lam) != 6:
        raise InvalidArgumentError(f"ladder lambda needs 6 spins, got {len(lam)}")
    check_spins(*lam, sa, sb)
    s = dict(zip(("3", "4", "5", "6", "7", "8"), lam))
    k = ctx.k
    num = (
        (1.0 + k * k * sa * s["3"])
        * (1.0 + k * k * sb * s["5"])
        * (1.0 + k * sa * s["6"])
        * (1.0 + k * s["8"] * sb)
    )
    for a, b in _LADDER_HH_EDGES:
        num *= 1.0 + k * s[a] * s[b]
    return num / (64.0 * _ladder_setting_bracket(k, sa, sb))


def ladder_outcome1_factor(ctx: SeriesContext, s1: int, s3: int, sa: int) -> float:
    """P(s1 | s3, sa): outcome 1 is screened by its two neighbors."""
    check_spins(s1, s3, sa)
    k = ctx.k
    return (1.0 + k * s1 * sa) * (1.0 + k * s1 * s3) / (2.0 * (1.0 + k * k * sa * s3))


def ladder_outcome2_factor(ctx: SeriesContext, s2: int, s5: int, sb: int) -> float:
    """P(s2 | s5, sb): outcome 2 is screened by its two neighbors."""
    check_spins(s2, s5, sb)
    k = ctx.k
    return (1.0 + k * s2 * sb) * (1.0 + k * s2 * s5) / (2.0 * (1.0 + k * k * sb * s5))


def ladder_factor_forms(
    ctx: SeriesContext, s1: int, s2: int, s3: int, s5: int, sa: int, sb: int
) -> tuple[float, float, float]:
    """(joint, factor1, factor2) with joint = factor1 * factor2.

    joint is P(s1, s2 | s3, s5, sa, sb): conditioned on the neighboring
    hidden spins the two outcomes decouple into one-sided factors.
    """
    f1 = ladder_outcome1_factor(ctx, s1, s3, sa)
    f2 = ladder_outcome2_factor(ctx, s2, s5, sb)
    return f1 * f2, f1, f2


# -- open chain ---------------------------------------------------------------


def _chain_denominator(ctx: SeriesContext, n: int, sa: int, sb: int) -> float:
    return 1.0 + ctx.k ** (n - 1) * sa * sb


def chain_lambda_conditional(
    n: int, ctx: SeriesContext, lam: Sequence[int], sa: int, sb: int
) -> float:
    """P(lambda | sa, sb) on the 1-a-3-...-n-b-2 chain.

    lam gives the hidden path spins (s3, ..., sn) in order; n >= 5.
    """
    _check_chain_n(n)
    if len(lam) != n - 2:
        raise InvalidArgumentError(f"chain lambda needs {n - 2} spins, got {len(lam)}")
    check_spins(*lam, sa, sb)
    k = ctx.k
    num = 1.0 + k * sa * lam[0]
    for left, right in zip(lam, lam[1:]):
        num *= 1.0 + k * left * right
    num *= 1.0 + k * lam[-1] * sb
    value = num / (_pow2(n - 2, n, ctx) * _chain_denominator(ctx, n, sa, sb))
    return _chain_finite(value, n, ctx)


def chain_setting_marginal(n: int, ctx: SeriesContext, sa: int, sb: int) -> float:
    """Z * P(sa, sb) on the chain: the path between the analyzers telescopes
    to a single K^(n-1) term."""
    _check_chain_n(n)
    check_spins(sa, sb)
    return _chain_finite(ctx.alpha * _pow2(n, n, ctx) * _chain_denominator(ctx, n, sa, sb), n, ctx)


def _chain_finite(value: float, n: int, ctx: SeriesContext) -> float:
    """value (a float, or an array on a spin grid), unless a chain closed
    form at n left the float range."""
    if not np.isfinite(value).all():
        raise NumericRangeError(f"chain closed form at n={n}, k={ctx.k} leaves the float range")
    return value


def _pow2(e: int, n: int, ctx: SeriesContext) -> float:
    """2.0**e, checked as a chain form at n (2.0**e raises a bare
    OverflowError past the float range)."""
    return _chain_finite(2.0**e if e < sys.float_info.max_exp else math.inf, n, ctx)


def chain_outcome_factors(
    ctx: SeriesContext, s1: int, s2: int, sa: int, sb: int
) -> tuple[float, float]:
    """One-sided outcome factors (P(s1 | sa), P(s2 | sb)) on the chain.

    Each endpoint outcome is screened by its own analyzer alone, for every
    hidden configuration.
    """
    check_spins(s1, s2, sa, sb)
    k = ctx.k
    return (1.0 + k * s1 * sa) / 2.0, (1.0 + k * s2 * sb) / 2.0


def chain_joint_outcomes(ctx: SeriesContext, s1: int, s2: int, sa: int, sb: int) -> float:
    """P(s1, s2 | sa, sb, lambda) on the chain: the product of the one-sided
    factors, independent of lambda."""
    f1, f2 = chain_outcome_factors(ctx, s1, s2, sa, sb)
    return f1 * f2


def weak_coupling_chsh(ctx: SeriesContext) -> float:
    """Leading weak-coupling Bell combination of the canonical ladder, -2K^2."""
    return -2.0 * ctx.k * ctx.k


# -- chain measurement dependence, two readings -------------------------------

def _spin_grid(d: int) -> np.ndarray:
    """d +-1 int arrays spanning the (2,)*d grid, stacked on a first axis;
    index 1 on an axis means spin +1."""
    return np.indices((2,) * d) * 2 - 1


def _chain_edge_gap(n: int, k: float, s3, sn, pair_one, pair_two):
    """Difference of endpoint-weight ratios between two setting pairs."""
    (sa, sb), (ja, jb) = pair_one, pair_two
    one = (1.0 + k * sa * s3) * (1.0 + k * sn * sb) / (1.0 + k ** (n - 1) * sa * sb)
    two = (1.0 + k * ja * s3) * (1.0 + k * sn * jb) / (1.0 + k ** (n - 1) * ja * jb)
    return one - two


def _chain_gaps(n: int, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|_chain_edge_gap| on (sa, sb, a', b', s3, sn) axes, with the s3 and
    sn spin grids; each cell equals the scalar call bit for bit."""
    sa, sb, ja, jb, s3, sn = _spin_grid(6)
    return np.abs(_chain_edge_gap(n, k, s3, sn, (sa, sb), (ja, jb))), s3, sn


def _check_chain_k(k: float) -> None:
    if not -1.0 < k < 1.0:
        raise InvalidArgumentError(f"k must lie in (-1, 1), got {k}")


def chain_md_closed(n: int, k: float) -> float:
    """Measurement dependence of the chain, summed reading, closed form.

    sup over setting pairs of sum_lambda |P(lambda|a,b) - P(lambda|a',b')|;
    the interior path spins collapse into the weight
    (1 + s3 sn K^(n-3)) / 4 on the two boundary hidden spins.
    """
    _check_chain_n(n)
    _check_chain_k(k)
    gap, s3, sn = _chain_gaps(n, k)
    terms = (1.0 + s3 * sn * k ** (n - 3)) / 4.0 * gap
    # summed over (s3, sn) in the order (-,-), (-,+), (+,-), (+,+)
    total = terms[..., 0, 0] + terms[..., 0, 1] + terms[..., 1, 0] + terms[..., 1, 1]
    return float(total.max())


# Longest chain of the per-configuration reading: 2^(n-2) is a finite float
# up to here, and (1+K)^(n-3) < 2^(n-3) for every K in (-1, 1).
_CHAIN_PER_CONFIG_N_MAX = 1025


def chain_md_per_config(n: int, k: float) -> float:
    """Measurement dependence of the chain, per-configuration reading.

    sup over setting pairs and single hidden configurations of
    |P(lambda|a,b) - P(lambda|a',b')|; the best interior assignment consistent
    with the boundary parity carries weight (1+K)^(n-3) or (1+K)^(n-4)(1-K)
    over 2^(n-2).
    """
    _check_chain_n(n)
    _check_chain_k(k)
    if n > _CHAIN_PER_CONFIG_N_MAX:
        raise NumericRangeError(
            f"per-configuration chain md at n={n}, k={k}: 2^(n-2) exceeds the float range "
            f"(n <= {_CHAIN_PER_CONFIG_N_MAX})"
        )
    gap, s3, sn = _chain_gaps(n, k)
    interior = np.where(s3 * sn == 1, (1.0 + k) ** (n - 3), (1.0 + k) ** (n - 4) * (1.0 - k))
    return float((gap * interior / 2.0 ** (n - 2)).max())


@dataclass(frozen=True)
class ChainMdRow:
    n: int
    md_summed: float
    md_per_config: float


def chain_md_profile(n_values: Iterable[int], k: float) -> list[ChainMdRow]:
    """Both readings of chain measurement dependence across chain lengths.

    The summed reading approaches 2K from above as the chain grows; the
    per-configuration reading decays geometrically to zero. Neither limit is
    asserted here; the rows simply tabulate both so the divergence between
    the readings is visible.
    """
    return [ChainMdRow(int(n), chain_md_closed(int(n), k), chain_md_per_config(int(n), k)) for n in n_values]


def profile_csv(rows: Iterable[ChainMdRow], precision: int | None = None) -> str:
    return csv_table(("n", "md_summed", "md_per_config"), map(astuple, rows), precision)


# -- closed forms against enumeration ------------------------------------------

DEFAULT_K_GRID = tuple(round(0.1 * i, 1) for i in range(10))


@dataclass(frozen=True)
class SeriesCheckRow:
    name: str
    k: float
    max_rel_dev: float


@dataclass(frozen=True)
class SeriesCheckReport:
    """Max relative deviation of every closed form from enumeration, per K."""

    rows: tuple[SeriesCheckRow, ...]
    chain_n: int

    def by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.rows:
            out[r.name] = max(out.get(r.name, 0.0), r.max_rel_dev)
        return out

    def overall(self) -> float:
        return max((r.max_rel_dev for r in self.rows), default=0.0)

    def ok(self, tol: float = 1e-9) -> bool:
        return self.overall() <= tol

    def csv(self, precision: int | None = None) -> str:
        rows = [(r.name, fmt(r.k, 3), r.max_rel_dev) for r in self.rows]
        return csv_table(("name", "k", "max_rel_dev"), rows, precision)

    def to_text(self, precision: int | None = 3) -> str:
        lines = [f"closed forms vs enumeration (chain n = {self.chain_n})"]
        for name, dev in sorted(self.by_name().items()):
            lines.append(f"  {name:28s} max rel dev {fmt(dev, precision)}")
        lines.append(f"  overall max = {fmt(self.overall(), precision)}")
        return "\n".join(lines)


def _closed_grid(form: Callable[..., float], d: int) -> np.ndarray:
    """A closed form at every assignment of its d spin arguments, on (2,)*d
    leading axes with index 1 meaning spin +1; a tuple-valued form adds one
    last axis.

    The form runs once, on d +-1 arrays spanning the grid, and evaluates
    each cell with the operations of its scalar call, so every cell equals
    that call bit for bit.
    """
    values = form(*_spin_grid(d))
    return np.stack(values, axis=-1) if isinstance(values, tuple) else values


def _exact_conditional(
    model: BoltzmannModel, targets: Sequence[str], given: Sequence[str]
) -> np.ndarray:
    """P(targets | given) at every assignment, with axes targets + given.

    Raises ZeroMeasureConditionError, as model.conditional does, when some
    assignment of the given nodes carries no weight.
    """
    w = model.weight_table([*targets, *given])
    mass = w.sum(axis=tuple(range(len(targets))))
    if mass.min() < ZERO_MEASURE:
        cell = np.unravel_index(int(mass.argmin()), mass.shape)
        event = {nid: spin_of(int(i)) for nid, i in zip(given, cell)}
        raise ZeroMeasureConditionError(
            f"conditioning event {fmt_assignment(event)} has weight {float(mass.min())!r}"
        )
    return w / mass


def _max_rel_dev(closed: np.ndarray, exact: np.ndarray) -> float:
    """Largest |closed - exact| / max(|closed|, |exact|), counting 0 where
    both are 0. closed broadcasts over trailing axes of exact it lacks."""
    closed = closed.reshape(closed.shape + (1,) * (exact.ndim - closed.ndim))
    denom = np.maximum(np.abs(closed), np.abs(exact))
    rel = np.divide(np.abs(closed - exact), denom, out=np.zeros(denom.shape), where=denom > 0.0)
    return float(rel.max())


def series_check(
    k_values: Sequence[float] = DEFAULT_K_GRID,
    chain_n: int = 8,
    beta: float = 1.0,
) -> SeriesCheckReport:
    """Compare every closed form against exact enumeration over a K grid.

    Each K is realized as a homogeneous coupling j = atanh(K)/beta on the
    canonical ladder and on a chain of length chain_n. Each closed form is
    evaluated at every spin-argument combination and compared cell by cell
    with one weight table of the model; the worst relative deviation is
    recorded.
    """
    from .presets import canonical_ladder, chain_lattice

    _check_chain_n(chain_n)
    rows: list[SeriesCheckRow] = []
    for k in k_values:
        if not 0.0 <= k < 1.0:
            raise InvalidArgumentError(f"k grid values must lie in [0, 1), got {k}")
        j = math.atanh(k) / beta
        ladder = build_model(canonical_ladder(j=j, beta=beta))
        lctx = SeriesContext.ladder(j=j, beta=beta)
        chain = build_model(chain_lattice(chain_n, j=j, beta=beta))
        cctx = SeriesContext.chain(chain_n, j=j, beta=beta)
        hidden = [str(i) for i in range(3, chain_n + 1)]
        ab = ["a", "b"]

        def row(name: str, exact: np.ndarray, form: Callable[..., float], d: int = 0) -> None:
            # d spin arguments, by default one per axis of the exact table
            closed = _closed_grid(form, d or exact.ndim)
            rows.append(SeriesCheckRow(name, k, _max_rel_dev(closed, exact)))

        row("joint-numerator", ladder.z * ladder.joint_table(["1", "2", *ab]),
            partial(ladder_joint_numerator, lctx))
        row("setting-marginal", ladder.z * ladder.joint_table(ab),
            partial(ladder_setting_marginal, lctx))
        row("outcome-conditional", _exact_conditional(ladder, ["1", "2"], ab),
            partial(ladder_conditional, lctx))
        row("lambda-conditional", _exact_conditional(ladder, list("345678"), ab),
            lambda *s: ladder_lambda_conditional(lctx, s[:-2], *s[-2:]))
        row("outcome1-factor", _exact_conditional(ladder, ["1"], ["3", "a"]),
            partial(ladder_outcome1_factor, lctx))
        row("outcome2-factor", _exact_conditional(ladder, ["2"], ["5", "b"]),
            partial(ladder_outcome2_factor, lctx))
        row("outcome-factor-joint", _exact_conditional(ladder, ["1", "2"], ["3", "5", *ab]),
            lambda *s: ladder_factor_forms(lctx, *s)[0])
        row("chain-setting-marginal", chain.z * chain.joint_table(ab),
            partial(chain_setting_marginal, chain_n, cctx))
        row("chain-lambda-conditional", _exact_conditional(chain, hidden, ab),
            lambda *s: chain_lambda_conditional(chain_n, cctx, s[:-2], *s[-2:]))
        # independent of lambda: the closed form broadcasts over the lambda axes
        row("chain-outcome-joint", _exact_conditional(chain, ["1", "2"], [*ab, *hidden]),
            partial(chain_joint_outcomes, cctx), d=4)
        # both one-sided factors at every (s1, s2, sa, sb), stacked on a last axis
        factors = np.broadcast_arrays(
            _exact_conditional(chain, ["1"], ["a"])[:, None, :, None],
            _exact_conditional(chain, ["2"], ["b"])[None, :, None, :],
        )
        row("chain-outcome-factors", np.stack(factors, axis=-1),
            partial(chain_outcome_factors, cctx), d=4)

    return SeriesCheckReport(rows=tuple(rows), chain_n=chain_n)
