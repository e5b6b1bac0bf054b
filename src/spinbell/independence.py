"""Setting/outcome independence measures over a hidden-variable set.

For a lattice with Bell roles and a hidden set lambda (default: every hidden
node), the three measures are suprema of L1-type discrepancies:

- measurement dependence: sup over setting pairs of
  sum_lambda |P(lambda|a,b) - P(lambda|a',b')| (range [0, 2]);
- outcome dependence: sup over settings and lambda of
  sum_{s1,s2} |P(s1,s2|a,b,lambda) - P(s1|a,b,lambda) P(s2|a,b,lambda)|;
- parameter dependence: sup over lambda, the fixed remote setting, and the
  local outcome of |P(s2|a,b,lambda) - P(s2|a',b,lambda)|, taken over both
  sides (outcome 2 against analyzer a and outcome 1 against analyzer b).

Cells whose stabilized weight falls below the zero-measure threshold are
skipped and counted; the count rides on the witness. Every sup returns a
witness that reproduces the value when re-evaluated with plain conditional
calls (see reevaluate). All suprema scan their grids in a fixed lexicographic
order and keep the first maximizer, so witnesses are deterministic.

The reductions are pure functions of a stabilized weight array over
(s1, s2, sa, sb, lambda); report_from_weights accepts such an array directly
so that alternative ensemble constructions (for example clamped-analyzer
ensembles) can be pushed through identical arithmetic.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidArgumentError
from .lattice import Lattice, NodeRole
from .model import ZERO_MEASURE, BoltzmannModel, build_model
from ._format import SPINS, csv_table, fmt, pm, spin_of

__all__ = [
    "Witness",
    "IndependenceReport",
    "measurement_dependence",
    "outcome_dependence",
    "parameter_dependence",
    "factorizability_check",
    "pairwise_correlation_check",
    "independence_report",
    "report_from_weights",
    "decoupling_sweep",
    "reevaluate",
]


@dataclass(frozen=True)
class Witness:
    """Location of a supremum, in spin values.

    settings is (sa, sb). For measurement dependence alt_settings is the
    second setting pair. For parameter dependence alt_settings is the same
    pair with the varied analyzer flipped, and outcome names the local
    outcome node and its spin. lam is the hidden assignment (empty for
    measurement dependence, whose sum runs over all lambda).
    """

    kind: str
    settings: tuple[int, int]
    alt_settings: tuple[int, int] | None = None
    lam: tuple[tuple[str, int], ...] = ()
    outcome: tuple[str, int] | None = None
    value: float = 0.0
    skipped_cells: int = 0

    def describe(self) -> str:
        def pair(p: tuple[int, int]) -> str:
            return f"({pm(p[0])},{pm(p[1])})"

        parts = [f"{self.kind} sup at settings {pair(self.settings)}"]
        if self.alt_settings is not None:
            parts.append(f"vs {pair(self.alt_settings)}")
        if self.lam:
            lam = ",".join(f"{n}:{pm(s)}" for n, s in self.lam)
            parts.append(f"lambda {{{lam}}}")
        if self.outcome is not None:
            parts.append(f"outcome {self.outcome[0]}:{pm(self.outcome[1])}")
        if self.skipped_cells:
            parts.append(f"[{self.skipped_cells} zero-measure cells skipped]")
        return " ".join(parts)


def _lambda_ids(model: BoltzmannModel, lam: Sequence[str] | None) -> tuple[str, ...]:
    if lam is None:
        return model.lattice.hidden_ids
    ids = tuple(lam)
    if len(set(ids)) != len(ids):
        raise InvalidArgumentError(f"repeated nodes in lambda set: {list(ids)}")
    bell = set(model.lattice.bell_ids())
    known = set(model.lattice.node_ids)
    for nid in ids:
        if nid not in known:
            raise InvalidArgumentError(f"unknown node {nid!r} in lambda set")
        if nid in bell:
            raise InvalidArgumentError(f"lambda set may not contain role node {nid!r}")
    return ids


def _bell_lambda_weights(model: BoltzmannModel, lam_ids: Sequence[str]) -> np.ndarray:
    """Stabilized weights over (s1, s2, sa, sb, lambda-flat); the lambda axes
    are flattened in C order so lam_ids[0] is the most significant bit."""
    ids = list(model.lattice.bell_ids()) + list(lam_ids)
    w = model.weight_table(ids)
    return w.reshape(2, 2, 2, 2, -1)


def _decode_lambda(lam_ids: Sequence[str], flat: int) -> tuple[tuple[str, int], ...]:
    if not lam_ids:
        return ()
    bits = np.unravel_index(flat, (2,) * len(lam_ids))
    return tuple((nid, spin_of(int(b))) for nid, b in zip(lam_ids, bits))


# -- core reductions over a (2, 2, 2, 2, M) weight array ----------------------


def _md_pairs(mass_ab_lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_lambda |P(lambda|a,b) - P(lambda|a',b')| for all 16 ordered
    setting pairs, from weights over (..., sa, sb, lambda-flat).

    Returns (diff, pair_valid), both (..., 2, 2, 2, 2); diff is -1 where
    either setting has zero weight. Leading axes stack independent models.
    """
    mass_ab = mass_ab_lam.sum(axis=-1)  # (..., 2, 2)
    valid = mass_ab >= ZERO_MEASURE
    if not valid.any(axis=(-2, -1)).all():
        raise DegenerateModelError("every analyzer setting carries zero weight")
    safe = np.where(valid, mass_ab, 1.0)
    p = mass_ab_lam / safe[..., None]
    diff = np.subtract(p[..., :, :, None, None, :], p[..., None, None, :, :, :])
    diff = np.abs(diff, out=diff).sum(axis=-1)
    pair_valid = valid[..., :, :, None, None] & valid[..., None, None, :, :]
    return np.where(pair_valid, diff, -1.0), pair_valid


def _md_core(w5: np.ndarray, lam_ids: Sequence[str]) -> tuple[float, Witness]:
    diff, pair_valid = _md_pairs(w5.sum(axis=(0, 1)))
    skipped = int((~pair_valid).sum())
    ia, ib, ja, jb = np.unravel_index(int(np.argmax(diff)), (2, 2, 2, 2))
    value = float(diff[ia, ib, ja, jb])
    witness = Witness(
        kind="md",
        settings=(spin_of(int(ia)), spin_of(int(ib))),
        alt_settings=(spin_of(int(ja)), spin_of(int(jb))),
        value=value,
        skipped_cells=skipped,
    )
    return value, witness


def _cell_distributions(w5: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p12, valid) with p12 = P(s1, s2 | sa, sb, lambda), zeroed on invalid
    cells. The od, pd and factorization cores read p12 and never write it."""
    mass_cell = w5.sum(axis=(0, 1))  # (2, 2, M)
    valid = mass_cell >= ZERO_MEASURE
    safe = np.where(valid, mass_cell, 1.0)
    p12 = w5 / safe
    p12 *= valid
    return p12, valid


def _od_core(
    cells: tuple[np.ndarray, np.ndarray], lam_ids: Sequence[str]
) -> tuple[float, Witness, float]:
    p12, valid = cells
    if not valid.any():
        raise DegenerateModelError("every (setting, lambda) cell carries zero weight")
    p1 = p12.sum(axis=1)  # (2, 2, 2, M)
    p2 = p12.sum(axis=0)
    defect = np.multiply(p1[:, None, :, :, :], p2[None, :, :, :, :])
    del p1, p2  # free before the (2, 2, M) reductions below
    np.subtract(p12, defect, out=defect)
    np.abs(defect, out=defect)
    summed = np.where(valid, defect.sum(axis=(0, 1)), -1.0)
    cellmax = np.where(valid, defect.max(axis=(0, 1)), -1.0)
    skipped = int((~valid).sum())
    ia, ib, m = np.unravel_index(int(np.argmax(summed)), summed.shape)
    value = float(summed[ia, ib, m])
    witness = Witness(
        kind="od",
        settings=(spin_of(int(ia)), spin_of(int(ib))),
        lam=_decode_lambda(lam_ids, int(m)),
        value=value,
        skipped_cells=skipped,
    )
    return value, witness, max(float(cellmax.max()), 0.0)


def _pd_core(
    cells: tuple[np.ndarray, np.ndarray], lam_ids: Sequence[str], id1: str, id2: str
) -> tuple[float, Witness, dict[str, float]]:
    p12, valid = cells

    candidates: list[tuple[float, Witness]] = []
    sides: dict[str, float] = {}
    skipped_pairs = 0

    # outcome 2 against a flip of analyzer a, at fixed (b, lambda)
    f2 = p12.sum(axis=0)  # (s2, a, b, M)
    ok_a = valid[1, :, :] & valid[0, :, :]  # (b, M)
    diff_a = np.abs(f2[:, 1, :, :] - f2[:, 0, :, :])  # (s2, b, M)
    skipped_pairs += int((~ok_a).sum())
    diff_a = np.where(ok_a[None, :, :], diff_a, -1.0)
    best_a = float(diff_a.max())
    sides["outcome2_vs_analyzer_a"] = max(best_a, 0.0)
    if best_a >= 0.0:
        s2i, ibi, mi = np.unravel_index(int(np.argmax(diff_a)), diff_a.shape)
        candidates.append(
            (
                best_a,
                Witness(
                    kind="pd",
                    settings=(1, spin_of(int(ibi))),
                    alt_settings=(-1, spin_of(int(ibi))),
                    lam=_decode_lambda(lam_ids, int(mi)),
                    outcome=(id2, spin_of(int(s2i))),
                    value=best_a,
                ),
            )
        )

    # outcome 1 against a flip of analyzer b, at fixed (a, lambda)
    f1 = p12.sum(axis=1)  # (s1, a, b, M)
    ok_b = valid[:, 1, :] & valid[:, 0, :]  # (a, M)
    diff_b = np.abs(f1[:, :, 1, :] - f1[:, :, 0, :])  # (s1, a, M)
    skipped_pairs += int((~ok_b).sum())
    diff_b = np.where(ok_b[None, :, :], diff_b, -1.0)
    best_b = float(diff_b.max())
    sides["outcome1_vs_analyzer_b"] = max(best_b, 0.0)
    if best_b >= 0.0:
        s1i, iai, mi = np.unravel_index(int(np.argmax(diff_b)), diff_b.shape)
        candidates.append(
            (
                best_b,
                Witness(
                    kind="pd",
                    settings=(spin_of(int(iai)), 1),
                    alt_settings=(spin_of(int(iai)), -1),
                    lam=_decode_lambda(lam_ids, int(mi)),
                    outcome=(id1, spin_of(int(s1i))),
                    value=best_b,
                ),
            )
        )

    if not candidates:
        raise DegenerateModelError(
            "no analyzer flip leaves both (setting, lambda) cells with weight"
        )
    # strict max; ties go to the side listed first (outcome 2 vs analyzer a)
    best_value, best_witness = candidates[0]
    for value, witness in candidates[1:]:
        if value > best_value:
            best_value, best_witness = value, witness
    return best_value, dataclasses.replace(best_witness, skipped_cells=skipped_pairs), sides


def _fact_core(w5: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> float:
    """Max defect of P(s1,s2|lambda,a,b) = P(s1|lambda,a) P(s2|lambda,b);
    the right-hand factors drop the distant analyzer entirely."""
    p12, valid = cells
    if not valid.any():
        raise DegenerateModelError("every (setting, lambda) cell carries zero weight")

    g1 = w5.sum(axis=(1, 3))  # (s1, a, M) weights, then P(s1 | a, lambda)
    mass1a = g1.sum(axis=0)
    ok1 = mass1a >= ZERO_MEASURE
    g1 /= np.where(ok1, mass1a, 1.0)
    g1 *= ok1

    g2 = w5.sum(axis=(0, 2))  # (s2, b, M) weights, then P(s2 | b, lambda)
    mass2b = g2.sum(axis=0)
    ok2 = mass2b >= ZERO_MEASURE
    g2 /= np.where(ok2, mass2b, 1.0)
    g2 *= ok2

    cell_ok = valid & ok1[:, None, :] & ok2[None, :, :]
    defect = np.multiply(g1[:, None, :, None, :], g2[None, :, None, :, :])
    np.subtract(p12, defect, out=defect)
    np.abs(defect, out=defect)
    np.copyto(defect, -1.0, where=~cell_ok[None, None, :, :, :])
    max_defect = float(defect.max())
    if max_defect < 0.0:
        raise DegenerateModelError("no factorization cell carries weight")
    return max_defect


# -- public measures -----------------------------------------------------------


def measurement_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup over setting pairs of sum_lambda |P(lambda|a,b) - P(lambda|a',b')|."""
    lam_ids = _lambda_ids(model, lam)
    return _md_core(_bell_lambda_weights(model, lam_ids), lam_ids)


def outcome_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup over settings and lambda of the summed outcome-factorization defect."""
    lam_ids = _lambda_ids(model, lam)
    cells = _cell_distributions(_bell_lambda_weights(model, lam_ids))
    value, witness, _ = _od_core(cells, lam_ids)
    return value, witness


def parameter_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup of the remote-setting sensitivity of one-sided outcome
    conditionals, over both sides."""
    lam_ids = _lambda_ids(model, lam)
    id1, id2, _, _ = model.lattice.bell_ids()
    cells = _cell_distributions(_bell_lambda_weights(model, lam_ids))
    value, witness, _ = _pd_core(cells, lam_ids, id1, id2)
    return value, witness


def factorizability_check(
    model: BoltzmannModel,
    lam: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Does P(s1, s2 | lambda, a, b) = P(s1 | lambda, a) P(s2 | lambda, b)?

    Returns (holds within tol, max absolute defect over nonnull cells).
    """
    lam_ids = _lambda_ids(model, lam)
    w5 = _bell_lambda_weights(model, lam_ids)
    defect = _fact_core(w5, _cell_distributions(w5))
    return defect <= tol, defect


def pairwise_correlation_check(
    model: BoltzmannModel, tol: float = 1e-9
) -> tuple[tuple[str, ...], np.ndarray]:
    """Pairwise factorization matrix over all nodes.

    Entry [i, j] is True when P(s_i, s_j) = P(s_i) P(s_j) holds within tol
    for all four spin pairs (diagonal True). Returns (node ids, bool matrix).
    """
    ids = model.lattice.node_ids
    n = len(ids)
    singles = {nid: model.marginal({nid: 1}) for nid in ids}
    out = np.ones((n, n), dtype=bool)
    for i in range(n):
        pi = np.array([1.0 - singles[ids[i]], singles[ids[i]]])
        for j in range(i + 1, n):
            pj = np.array([1.0 - singles[ids[j]], singles[ids[j]]])
            joint = model.joint_table([ids[i], ids[j]])
            ok = bool(np.max(np.abs(joint - np.outer(pi, pj))) <= tol)
            out[i, j] = out[j, i] = ok
    return ids, out


@dataclass(frozen=True)
class IndependenceReport:
    """The three measures, their premise booleans at a tolerance, and the
    factorizability verdict, with witnesses and diagnostics."""

    md: float
    od: float
    pd: float
    mi_holds: bool
    oi_holds: bool
    pi_holds: bool
    factorizable: bool
    tol: float
    witnesses: dict[str, Witness] = field(repr=False)
    od_max_cell: float = 0.0
    pd_sides: dict[str, float] = field(default_factory=dict, repr=False)
    factorization_defect: float = 0.0
    skipped_cells: int = 0

    CSV_FIELDS = ("md", "od", "pd", "mi_holds", "oi_holds", "pi_holds", "factorizable")

    def csv(self, precision: int | None = None) -> str:
        return csv_table(self.CSV_FIELDS, [[getattr(self, f) for f in self.CSV_FIELDS]], precision)

    def to_text(self, precision: int | None = 6) -> str:
        lines = [
            f"md = {fmt(self.md, precision)}   (measurement independence: "
            f"{'holds' if self.mi_holds else 'violated'})",
            f"od = {fmt(self.od, precision)}   (outcome independence: "
            f"{'holds' if self.oi_holds else 'violated'})",
            f"pd = {fmt(self.pd, precision)}   (parameter independence: "
            f"{'holds' if self.pi_holds else 'violated'})",
            f"factorizable = {'yes' if self.factorizable else 'no'} "
            f"(max defect {fmt(self.factorization_defect, precision)})",
            f"od max single cell = {fmt(self.od_max_cell, precision)}",
        ]
        for name, val in self.pd_sides.items():
            lines.append(f"pd {name} = {fmt(val, precision)}")
        for w in self.witnesses.values():
            lines.append(f"witness: {w.describe()}")
        if self.skipped_cells:
            lines.append(f"zero-measure cells skipped: {self.skipped_cells}")
        return "\n".join(lines)


def report_from_weights(
    w5: np.ndarray,
    lam_ids: Sequence[str],
    id1: str,
    id2: str,
    tol: float = 1e-9,
) -> IndependenceReport:
    """Full report from a stabilized weight array over (s1, s2, sa, sb,
    lambda-flat). Entry point for alternative ensemble constructions."""
    w5 = np.asarray(w5, dtype=float)
    if w5.ndim != 5 or w5.shape[:4] != (2, 2, 2, 2) or w5.shape[4] != 1 << len(lam_ids):
        raise InvalidArgumentError(f"weight array has shape {w5.shape}")
    md, w_md = _md_core(w5, lam_ids)
    cells = _cell_distributions(w5)
    od, w_od, od_max_cell = _od_core(cells, lam_ids)
    pd, w_pd, sides = _pd_core(cells, lam_ids, id1, id2)
    defect = _fact_core(w5, cells)
    return IndependenceReport(
        md=md,
        od=od,
        pd=pd,
        mi_holds=md <= tol,
        oi_holds=od <= tol,
        pi_holds=pd <= tol,
        factorizable=defect <= tol,
        tol=tol,
        witnesses={"md": w_md, "od": w_od, "pd": w_pd},
        od_max_cell=od_max_cell,
        pd_sides=sides,
        factorization_defect=defect,
        skipped_cells=w_md.skipped_cells + w_od.skipped_cells + w_pd.skipped_cells,
    )


def independence_report(
    model: BoltzmannModel,
    lam: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> IndependenceReport:
    """All three measures with premise verdicts at one tolerance."""
    lam_ids = _lambda_ids(model, lam)
    id1, id2, _, _ = model.lattice.bell_ids()
    return report_from_weights(_bell_lambda_weights(model, lam_ids), lam_ids, id1, id2, tol)


def reevaluate(model: BoltzmannModel, witness: Witness, lam: Sequence[str] | None = None) -> float:
    """Recompute the quantity a witness points at, via plain conditionals.

    Independent of the vectorized reductions; confirms that suprema are
    attained where claimed.
    """
    lam_ids = _lambda_ids(model, lam)
    id1, id2, ida, idb = model.lattice.bell_ids()
    sa, sb = witness.settings

    if witness.kind == "md":
        ja, jb = witness.alt_settings
        total = 0.0
        for flat in range(1 << len(lam_ids)):
            lam_cfg = dict(_decode_lambda(lam_ids, flat))
            p = model.conditional(lam_cfg, {ida: sa, idb: sb})
            q = model.conditional(lam_cfg, {ida: ja, idb: jb})
            total += abs(p - q)
        return total

    lam_cfg = dict(witness.lam)
    if witness.kind == "od":
        given = {ida: sa, idb: sb, **lam_cfg}
        total = 0.0
        for s1 in SPINS:
            for s2 in SPINS:
                joint = model.conditional({id1: s1, id2: s2}, given)
                m1 = model.conditional({id1: s1}, given)
                m2 = model.conditional({id2: s2}, given)
                total += abs(joint - m1 * m2)
        return total

    if witness.kind == "pd":
        ja, jb = witness.alt_settings
        node, s = witness.outcome
        p = model.conditional({node: s}, {ida: sa, idb: sb, **lam_cfg})
        q = model.conditional({node: s}, {ida: ja, idb: jb, **lam_cfg})
        return abs(p - q)

    raise InvalidArgumentError(f"unknown witness kind {witness.kind!r}")


def decoupling_sweep(
    lattice: Lattice,
    s_values: Iterable[float],
    lam: Sequence[str] | None = None,
) -> list[tuple[float, float]]:
    """Measurement dependence as every analyzer-incident coupling is scaled.

    s = 0 disconnects both analyzers from the rest of the lattice (their
    fields stay); s = 1 is the original lattice. Returns [(s, md), ...].
    """
    analyzer_ids = {
        nid
        for nid in (lattice.role_id(NodeRole.ANALYZER_A), lattice.role_id(NodeRole.ANALYZER_B))
        if nid is not None
    }
    if not analyzer_ids:
        raise InvalidArgumentError("lattice has no analyzer nodes to decouple")
    keys = [e.key() for e in lattice.edges if analyzer_ids & {e.a, e.b}]
    out = []
    for s in s_values:
        scaled = lattice.with_scaled_edges(keys, float(s))
        md, _ = measurement_dependence(build_model(scaled), lam)
        out.append((float(s), md))
    return out
