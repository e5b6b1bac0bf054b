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

The reductions are pure functions of the stabilized weights over
(s1, s2, sa, sb, lambda). One reader walks them a block of lambda values at
a time and computes every measure from each block while it is in cache. It
is reached only through a model: every public measure takes the model's
weight_table over those axes, so the direct route, the stacked clamped model
of freewill and the grid scan of search share identical arithmetic. An
ensemble built some other way is read as a BoltzmannModel over its weights.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidArgumentError
from .lattice import Lattice, NodeRole
from .model import ZERO_MEASURE, BoltzmannModel, _each, _share, _shares, build_model
from ._format import SPINS, csv_table, fmt, pm, spin_of

__all__ = [
    "Witness",
    "IndependenceReport",
    "measurement_dependence",
    "pairwise_correlation_check",
    "independence_report",
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


def _decode_lambda(lam_ids: Sequence[str], flat: int) -> tuple[tuple[str, int], ...]:
    if not lam_ids:
        return ()
    bits = np.unravel_index(flat, (2,) * len(lam_ids))
    return tuple((nid, spin_of(int(b))) for nid, b in zip(lam_ids, bits))


# -- measurement dependence over the (..., sa, sb, lambda-flat) setting masses --

# The 6 unordered setting pairs in the order _md_pairs sums them, and for each
# of the 16 ordered pairs (setting index sa * 2 + sb) its slot in that list;
# slot 6 holds the diagonal's 0.
_PAIRS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))
_PAIR_SLOT = np.array(
    [[_PAIRS.index((min(i, j), max(i, j))) if i != j else 6 for j in range(4)] for i in range(4)]
).reshape(-1)


def _md_pairs(mass_ab_lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_lambda |P(lambda|a,b) - P(lambda|a',b')| for all 16 ordered
    setting pairs, from weights over (..., sa, sb, lambda-flat), which are
    overwritten with P(lambda | a, b).

    Returns (diff, pair_valid), both (..., 2, 2, 2, 2); diff is -1 where
    either setting has zero weight. Leading axes stack independent models.
    Only the 6 unordered pairs are summed, each over its own contiguous
    lambda row: |p - q| equals |q - p| exactly, and the diagonal is 0.
    """
    mass_ab = mass_ab_lam.sum(axis=-1)  # (..., 2, 2)
    valid = mass_ab >= ZERO_MEASURE
    if not valid.any(axis=(-2, -1)).all():
        raise DegenerateModelError("every analyzer setting carries zero weight")
    lead = mass_ab.shape[:-2]
    p = np.divide(mass_ab_lam, np.where(valid, mass_ab, 1.0)[..., None], out=mass_ab_lam)
    p = p.reshape(lead + (4, -1))
    rows = np.empty(lead + (6, p.shape[-1]))
    np.subtract(p[..., :3, :], p[..., 1:, :], out=rows[..., :3, :])
    np.subtract(p[..., :2, :], p[..., 2:, :], out=rows[..., 3:5, :])
    np.subtract(p[..., :1, :], p[..., 3:, :], out=rows[..., 5:, :])
    sums = np.zeros(lead + (7,))
    np.abs(rows, out=rows).sum(axis=-1, out=sums[..., :6])
    diff = sums[..., _PAIR_SLOT].reshape(lead + (2, 2, 2, 2))
    pair_valid = valid[..., :, :, None, None] & valid[..., None, None, :, :]
    return np.where(pair_valid, diff, -1.0), pair_valid


def _md_result(mass: np.ndarray) -> tuple[float, Witness]:
    diff, pair_valid = _md_pairs(mass)
    k = int(np.argmax(diff))  # bits of k: sa, sb, sa', sb'
    value = float(diff.flat[k])
    witness = Witness(
        kind="md",
        settings=(spin_of(k >> 3), spin_of(k >> 2 & 1)),
        alt_settings=(spin_of(k >> 1 & 1), spin_of(k & 1)),
        value=value,
        skipped_cells=16 - int(np.count_nonzero(pair_valid)),
    )
    return value, witness


# -- the block reader ------------------------------------------------------------

# lambda values per block: the reader's (2, 2, 2, 2, C) buffer then holds 2^16
# words (512 KiB), so every pass over a block runs in L2. A lambda set of at
# most this many bits is read in one block, with nothing to merge.
_LAM_BLOCK_BITS = 12


@dataclass
class _Scan:
    """What one read of a weight table leaves.

    mass is the setting mass over (sa, sb, lambda-flat) until _md_result
    consumes it: md overwrites it with P(lambda | a, b), so md runs after
    anything that reads the mass values (its size stays the cell count).
    best and at hold, per quantity and cell, the largest value and the
    smallest lambda index that reaches it: od over (sa, sb), pd against
    analyzer a over (s2, b) and pd against analyzer b over (s1, a); a cell
    without weight reads -1. A masses-only read leaves the rest unset.
    """

    mass: np.ndarray
    best: np.ndarray | None = None
    at: np.ndarray | None = None
    od_skipped: int = 0
    pd_skipped: int = 0
    od_max_cell: float = -np.inf
    defect: float = -np.inf


def _reduce_block(
    w: np.ndarray, mass: np.ndarray, work: np.ndarray, single: bool
) -> tuple[np.ndarray, int, int, float, float]:
    """od, pd and factorization reductions of one block w over (s1, s2, sa,
    sb, c) with setting masses mass; work is a buffer of w's shape.

    Every sum adds its terms in the order of numpy's sum over a C-ordered
    (s1, s2, sa, sb, lambda-flat) array. A sum over the two leading axes
    adds their four slices one after another at any block width; the sums
    onto (s1, a) and (s2, b) are spelled out, because numpy pairs their
    terms when the trailing axis has length 1 (single is set when lambda
    takes a single value). w is overwritten with P(s1, s2 | sa, sb, lambda),
    zeroed on cells without weight. Returns the per-cell values (quantity,
    2, 2, c) described on _Scan, the skipped od cells and pd pairs, the
    largest single-cell od term, and the factorization defect.
    """
    valid = mass >= ZERO_MEASURE
    invalid = ~valid
    # weights over (s1, a, c) and (s2, b, c), before w is normalized
    g1 = w[:, 0, :, 0] + w[:, 0, :, 1]
    if single:
        g1 += w[:, 1, :, 0] + w[:, 1, :, 1]
    else:
        g1 += w[:, 1, :, 0]
        g1 += w[:, 1, :, 1]
    g2 = w[0, :, 0] + w[0, :, 1]
    g2 += w[1, :, 0]
    g2 += w[1, :, 1]

    np.divide(w, np.where(valid, mass, 1.0), out=w)
    w *= valid
    p1 = w[:, 0] + w[:, 1]  # P(s1 | sa, sb, lambda)
    p2 = w[0] + w[1]  # P(s2 | sa, sb, lambda)

    values = np.empty((3,) + mass.shape)
    od, pd_a, pd_b = values
    np.multiply(p1[:, None], p2[None], out=work)
    np.subtract(w, work, out=work)
    np.abs(work, out=work)
    # a cell without weight has all-zero terms, so the largest term is the
    # largest over cells with weight, or 0
    od_max_cell = float(work.max())
    work.sum(axis=(0, 1), out=od)
    np.copyto(od, -1.0, where=invalid)

    # outcome 2 against a flip of analyzer a at fixed (b, lambda), and
    # outcome 1 against a flip of analyzer b at fixed (a, lambda)
    np.subtract(p2[:, 1], p2[:, 0], out=pd_a)
    np.abs(pd_a, out=pd_a)
    ok_a = valid[1] & valid[0]
    np.copyto(pd_a, -1.0, where=~ok_a)
    np.subtract(p1[:, :, 1], p1[:, :, 0], out=pd_b)
    np.abs(pd_b, out=pd_b)
    ok_b = valid[:, 1] & valid[:, 0]
    np.copyto(pd_b, -1.0, where=~ok_b)
    pd_skipped = ok_a.size + ok_b.size - int(np.count_nonzero(ok_a) + np.count_nonzero(ok_b))
    od_skipped = int(np.count_nonzero(invalid))

    # P(s1 | a, lambda) P(s2 | b, lambda) against P(s1, s2 | a, b, lambda).
    # A cell with weight has weight on both marginals (sums of nonnegative
    # terms are no smaller than each term), so only the cells without
    # weight are masked.
    for g in (g1, g2):
        marginal = g[0] + g[1]
        ok = marginal >= ZERO_MEASURE
        g /= np.where(ok, marginal, 1.0)
        g *= ok
    np.multiply(g1[:, None, :, None], g2[None, :, None], out=work)
    np.subtract(w, work, out=work)
    np.abs(work, out=work)
    np.copyto(work, -1.0, where=invalid)
    return values, od_skipped, pd_skipped, od_max_cell, float(work.max())


def _read(table: np.ndarray, lam_bits: int, masses_only: bool = False) -> _Scan:
    """Read a weight table one block of lambda values at a time.

    table is over (s1, s2, sa, sb, lambda...), its lambda axes in lam_ids
    order. With at most _LAM_BLOCK_BITS lambda bits the table is one block.
    Otherwise the lambda axes with the largest strides are fixed per block,
    so a block is a few contiguous runs of memory, and the blocks are split
    into shares (see model._each), each with its own buffers and running
    scan. A block then holds fewer lambda values, so the buffers of all
    shares together are no larger than one block at _LAM_BLOCK_BITS.
    Each block is copied into one (s1, s2, sa, sb, c) buffer with its inner
    lambda axes in lam_ids order, so c runs in the order of the flat lambda
    index m, and m = m_inner[c] + m_outer. A cell's running best is
    replaced by a larger value, or by an equal one at a smaller m; the
    share scans are merged by the same rule, so no field or witness depends
    on the split. With masses_only the scan holds the masses alone.
    """
    if lam_bits <= _LAM_BLOCK_BITS:
        w = np.empty((2, 2, 2, 2, 1 << lam_bits))
        np.copyto(w.reshape(table.shape), table)
        scan = _Scan(w.sum(axis=(0, 1)))
        if not masses_only:
            values, scan.od_skipped, scan.pd_skipped, scan.od_max_cell, scan.defect = (
                _reduce_block(w, scan.mass, np.empty_like(w), lam_bits == 0)
            )
            scan.best, scan.at = values.max(axis=-1), values.argmax(axis=-1)
        return scan

    shares = _shares(1 << (lam_bits - _LAM_BLOCK_BITS))
    width = max(_LAM_BLOCK_BITS - (shares - 1).bit_length(), 0)
    strides = table.strides[4:]
    by_stride = sorted(range(lam_bits), key=lambda i: (-strides[i], i))
    outer = by_stride[: lam_bits - width]
    inner = sorted(by_stride[lam_bits - width :])

    def outer_first(a: np.ndarray) -> np.ndarray:
        k = a.ndim - lam_bits
        return a.transpose([k + i for i in outer] + list(range(k)) + [k + i for i in inner])

    source = outer_first(table)
    mass_all = np.empty((2, 2, 1 << lam_bits))
    mass_targets = outer_first(mass_all.reshape((2, 2) + (2,) * lam_bits))
    m_inner = np.zeros(1, dtype=np.int64)
    for pos in inner:
        m_inner = (m_inner[:, None] + [0, 1 << (lam_bits - 1 - pos)]).reshape(-1)

    def read_share(k: int) -> _Scan:
        w = np.empty((2, 2, 2, 2, 1 << width))
        target = w.reshape((2, 2, 2, 2) + (2,) * width)
        work = np.empty_like(w)
        scan = _Scan(mass_all, np.full((3, 2, 2), -np.inf), np.zeros((3, 2, 2), dtype=np.int64))
        for q in _share(1 << len(outer), shares, k):
            idx = tuple(q >> (len(outer) - 1 - i) & 1 for i in range(len(outer)))
            np.copyto(target, source[idx])
            mass = w.sum(axis=(0, 1))
            np.copyto(mass_targets[idx], mass.reshape((2, 2) + (2,) * width))
            if masses_only:
                continue
            values, od_skipped, pd_skipped, od_max_cell, block_defect = _reduce_block(
                w, mass, work, False
            )
            at = m_inner[values.argmax(axis=-1)]
            at += sum(bit << (lam_bits - 1 - pos) for bit, pos in zip(idx, outer))
            _merge(scan, values.max(axis=-1), at, od_skipped, pd_skipped, od_max_cell, block_defect)
        return scan

    scan, *others = _each(read_share, shares)
    for o in others:
        _merge(scan, o.best, o.at, o.od_skipped, o.pd_skipped, o.od_max_cell, o.defect)
    return scan


def _merge(
    scan: _Scan,
    best: np.ndarray,
    at: np.ndarray,
    od_skipped: int,
    pd_skipped: int,
    od_max_cell: float,
    defect: float,
) -> None:
    """Fold one block's or one share's results into a running scan: counts
    add, maxima are taken, and a cell's best is replaced by a larger value
    or by an equal one at a smaller lambda index."""
    scan.od_skipped += od_skipped
    scan.pd_skipped += pd_skipped
    scan.od_max_cell = max(scan.od_max_cell, od_max_cell)
    scan.defect = max(scan.defect, defect)
    better = (best > scan.best) | ((best == scan.best) & (at < scan.at))
    np.copyto(scan.best, best, where=better)
    np.copyto(scan.at, at, where=better)


def _read_model(
    model: BoltzmannModel, lam: Sequence[str] | None, masses_only: bool = False
) -> tuple[_Scan, tuple[str, ...]]:
    """Resolve lambda and read the model's weights over (s1, s2, sa, sb,
    lambda...). With lambda every hidden node weight_table sums nothing and
    returns a transposed view of the model's own tensor."""
    lam_ids = _lambda_ids(model, lam)
    table = model.weight_table([*model.lattice.bell_ids(), *lam_ids])
    return _read(table, len(lam_ids), masses_only), lam_ids


def _first_max(scan: _Scan, k: int) -> tuple[float, int, int, int]:
    """(value, row, column, lambda index) of quantity k's first maximum in
    (cell, lambda) order."""
    flat = int(np.argmax(scan.best[k]))
    return float(scan.best[k].flat[flat]), flat >> 1, flat & 1, int(scan.at[k].flat[flat])


def _check_cells(scan: _Scan) -> None:
    if scan.od_skipped == scan.mass.size:
        raise DegenerateModelError("every (setting, lambda) cell carries zero weight")


def _od_result(scan: _Scan, lam_ids: Sequence[str]) -> tuple[float, Witness, float]:
    _check_cells(scan)
    value, ia, ib, m = _first_max(scan, 0)
    witness = Witness(
        kind="od",
        settings=(spin_of(ia), spin_of(ib)),
        lam=_decode_lambda(lam_ids, m),
        value=value,
        skipped_cells=scan.od_skipped,
    )
    return value, witness, max(scan.od_max_cell, 0.0)


def _pd_result(
    scan: _Scan, lam_ids: Sequence[str], id1: str, id2: str
) -> tuple[float, Witness, dict[str, float]]:
    best_a, s2i, ibi, ma = _first_max(scan, 1)
    best_b, s1i, iai, mb = _first_max(scan, 2)
    sides = {
        "outcome2_vs_analyzer_a": max(best_a, 0.0),
        "outcome1_vs_analyzer_b": max(best_b, 0.0),
    }
    if best_a < 0.0 and best_b < 0.0:
        raise DegenerateModelError(
            "no analyzer flip leaves both (setting, lambda) cells with weight"
        )
    # strict max; ties go to the side listed first (outcome 2 vs analyzer a)
    if best_a >= best_b:
        witness = Witness(
            kind="pd",
            settings=(1, spin_of(ibi)),
            alt_settings=(-1, spin_of(ibi)),
            lam=_decode_lambda(lam_ids, ma),
            outcome=(id2, spin_of(s2i)),
            value=best_a,
            skipped_cells=scan.pd_skipped,
        )
    else:
        witness = Witness(
            kind="pd",
            settings=(spin_of(iai), 1),
            alt_settings=(spin_of(iai), -1),
            lam=_decode_lambda(lam_ids, mb),
            outcome=(id1, spin_of(s1i)),
            value=best_b,
            skipped_cells=scan.pd_skipped,
        )
    return witness.value, witness, sides


def _fact_result(scan: _Scan) -> float:
    """Max defect of P(s1,s2|lambda,a,b) = P(s1|lambda,a) P(s2|lambda,b);
    the right-hand factors drop the distant analyzer entirely."""
    _check_cells(scan)
    return scan.defect


# -- public measures -----------------------------------------------------------


def measurement_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup over setting pairs of sum_lambda |P(lambda|a,b) - P(lambda|a',b')|."""
    return _md_result(_read_model(model, lam, masses_only=True)[0].mass)


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


def independence_report(
    model: BoltzmannModel,
    lam: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> IndependenceReport:
    """All three measures with premise verdicts at one tolerance."""
    scan, lam_ids = _read_model(model, lam)
    id1, id2, _, _ = model.lattice.bell_ids()
    md, w_md = _md_result(scan.mass)  # consumes scan.mass (see _Scan)
    od, w_od, od_max_cell = _od_result(scan, lam_ids)
    pd, w_pd, sides = _pd_result(scan, lam_ids, id1, id2)
    defect = _fact_result(scan)
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
