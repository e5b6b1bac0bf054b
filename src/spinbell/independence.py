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
reads tables made by weight_table's reduction, of a model or of a batch of
search rows (_md_rows): every public measure takes the model's weight_table
over those axes, so the direct route, the stacked clamped model of freewill,
the grid scan and the batched md of search share identical arithmetic. An
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
    either setting has zero weight, so it is -1 everywhere when every
    setting has. Leading axes stack independent models. Only the 6
    unordered pairs are summed, each over its own contiguous lambda row:
    |p - q| equals |q - p| exactly, and the diagonal is 0.
    """
    mass_ab = mass_ab_lam.sum(axis=-1)  # (..., 2, 2)
    valid = mass_ab >= ZERO_MEASURE
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
    if not pair_valid.any():
        raise DegenerateModelError("every analyzer setting carries zero weight")
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


def _md_rows(table: np.ndarray, lam_bits: int) -> np.ndarray:
    """md of P models, each == to measurement_dependence of its model (-inf
    where that raises DegenerateModelError), from a stack of their weight
    tables over (P, s1, s2, sa, sb, lambda...), each a transpose of a
    C-contiguous array as weight_table returns it. The setting masses are
    summed as _read sums them: a stack of tables with at most
    _LAM_BLOCK_BITS lambda bits in one block, a larger table by _read."""
    if lam_bits > _LAM_BLOCK_BITS:
        mass = np.stack([_read(t, lam_bits, masses_only=True).mass for t in table])
    else:
        w = np.empty((len(table), 2, 2, 2, 2, 1 << lam_bits))
        np.copyto(w.reshape(table.shape), table)
        mass = w.sum(axis=(1, 2))
    md = _md_pairs(mass)[0].reshape(len(mass), -1).max(axis=1)
    return np.where(md < 0.0, -np.inf, md)


# -- the block reader ------------------------------------------------------------

# lambda values per block: the reader's (2, 2, 2, 2, C) buffer then holds 2^16
# words (512 KiB), so every pass over a block runs in cache. A lambda set of
# at most this many bits is read in one block, with nothing to merge.
_LAM_BLOCK_BITS = 12
# blocks whose masses are written out together: 8 words, one cache line
_TILE_BITS = 3


class _Scan:
    """What one read of a weight table leaves.

    mass is the setting mass over (sa, sb, lambda-flat) until _md_result
    consumes it: md overwrites it with P(lambda | a, b), so md runs after
    anything that reads the mass values (its size stays the cell count).
    top holds, per quantity, (value, -cell, -m): its largest value over
    every cell and lambda value, the first cell in cell order that reaches
    it, and the smallest lambda index m at which that cell does. The
    quantities are od over cells (sa, sb), pd against analyzer a over
    (s2, b) and pd against analyzer b over (s1, a); a cell without weight
    reads -1. The other fields gather what _reduce_block finds in each
    block. A masses-only read leaves all but mass unset.
    """

    od_skipped = pd_skipped = 0
    od_max_cell = defect = -np.inf
    _unset = (-np.inf, 0, 0)

    def __init__(self, mass: np.ndarray) -> None:
        self.mass = mass
        self.top = [self._unset] * 3

    def offer(self, k: int, key: tuple[float, int, int]) -> None:
        """Keep quantity k's maximum (value, -cell, -m): a larger value, or
        an equal one at an earlier cell, or at the same cell and a smaller
        lambda index. This is a total order, so no result depends on how
        the blocks are split or ordered."""
        if key > self.top[k]:
            self.top[k] = key

    def add_block(
        self, buf: _Buffers, single: bool, m_inner: np.ndarray, m_outer: int
    ) -> None:
        """Reduce the block in buf and fold it in. Its lambda value c has
        the flat index m_inner[c] + m_outer."""
        values = _reduce_block(self, buf, single)
        tops = values.max(axis=-1).reshape(3, 4)
        cells = tops.argmax(axis=1)
        for k, (cell, value) in enumerate(zip(cells.tolist(), tops[(0, 1, 2), cells].tolist())):
            if value >= self.top[k][0]:
                hits = values[k].reshape(4, -1)[cell] == value
                self.offer(k, (value, -cell, -int(m_inner[hits].min()) - m_outer))

    def merge(self, other: _Scan) -> None:
        """Fold in the scan of another share."""
        self.od_skipped += other.od_skipped
        self.pd_skipped += other.pd_skipped
        self.od_max_cell = max(self.od_max_cell, other.od_max_cell)
        self.defect = max(self.defect, other.defect)
        for k in range(3):
            self.offer(k, other.top[k])


class _Buffers:
    """One share's buffers for a block w over (s1, s2, sa, sb, c) and its
    setting masses mass over (sa, sb, c): a work array of w's shape, the
    per-cell values (quantity, 2, 2, c) described on _Scan, the conditional
    outcome marginals p1 over (s1, sa, sb, c) and p2 over (s2, sa, sb, c),
    the weights g1 over (s1, sa, c) and g2 over (s2, sb, c), and their sums
    over the outcome."""

    def __init__(self, w: np.ndarray, mass: np.ndarray) -> None:
        self.w, self.mass = w, mass
        self.work = np.empty_like(w)
        self.values = np.empty((3,) + mass.shape)
        self.p = np.empty_like(w)
        self.g = np.empty((2,) + mass.shape)
        self.marginal = np.empty_like(mass)


def _reduce_block(scan: _Scan, buf: _Buffers, single: bool) -> np.ndarray:
    """od, pd and factorization reductions of the block buf.w over (s1, s2,
    sa, sb, c) with setting masses buf.mass, for scan.

    Every sum adds its terms in the order of numpy's sum over a C-ordered
    (s1, s2, sa, sb, lambda-flat) array. A sum over the two leading axes
    adds their four slices one after another at any block width; the sums
    onto (s1, a) and (s2, b) are spelled out, because numpy pairs their
    terms when the trailing axis has length 1 (single is set when lambda
    takes a single value). w is overwritten with P(s1, s2 | sa, sb, lambda),
    zero on cells without weight (a division by inf). Adds the skipped od
    cells and pd pairs, the largest single-cell od term and the
    factorization defect into scan; returns buf.values, the per-cell values.
    """
    w, work, mass, values = buf.w, buf.work, buf.mass, buf.values
    valid = mass >= ZERO_MEASURE
    every = bool(valid.all())
    # weights over (s1, a, c) and (s2, b, c), before w is normalized
    g1, g2 = buf.g
    np.add(w[:, 0, :, 0], w[:, 0, :, 1], out=g1)
    if single:
        g1 += w[:, 1, :, 0] + w[:, 1, :, 1]
    else:
        g1 += w[:, 1, :, 0]
        g1 += w[:, 1, :, 1]
    np.add(w[0, :, 0], w[0, :, 1], out=g2)
    g2 += w[1, :, 0]
    g2 += w[1, :, 1]

    np.divide(w, np.where(valid, mass, np.inf), out=w)
    p1, p2 = buf.p
    np.add(w[:, 0], w[:, 1], out=p1)  # P(s1 | sa, sb, lambda)
    np.add(w[0], w[1], out=p2)  # P(s2 | sa, sb, lambda)

    od, pd_a, pd_b = values
    # outcome 2 against a flip of analyzer a at fixed (b, lambda), and
    # outcome 1 against a flip of analyzer b at fixed (a, lambda)
    np.subtract(p2[:, 1], p2[:, 0], out=pd_a)
    np.subtract(p1[:, :, 1], p1[:, :, 0], out=pd_b)
    np.abs(values[1:], out=values[1:])

    np.multiply(p1[:, None], p2[None], out=work)
    np.subtract(w, work, out=work)
    np.abs(work, out=work)
    # a cell without weight has all-zero terms, so the largest term is the
    # largest over cells with weight, or 0
    scan.od_max_cell = max(scan.od_max_cell, float(work.max()))
    _setting_mass(work, od)
    if not every:
        np.copyto(od, -1.0, where=~valid)
        ok_a = valid[1] & valid[0]
        np.copyto(pd_a, -1.0, where=~ok_a)
        ok_b = valid[:, 1] & valid[:, 0]
        np.copyto(pd_b, -1.0, where=~ok_b)
        scan.pd_skipped += int(np.count_nonzero(~ok_a) + np.count_nonzero(~ok_b))
        scan.od_skipped += int(np.count_nonzero(~valid))

    # P(s1 | a, lambda) P(s2 | b, lambda) against P(s1, s2 | a, b, lambda).
    # A cell with weight has weight on both marginals (sums of nonnegative
    # terms are no smaller than each term), so only the cells without
    # weight are masked: their product is zeroed, like their w, and the
    # defect is the largest |difference| over cells with weight, or 0.
    g = buf.g
    marginal = np.add(g[:, 0], g[:, 1], out=buf.marginal)
    if not every:
        np.copyto(marginal, np.inf, where=marginal < ZERO_MEASURE)
    np.divide(g, marginal[:, None], out=g)
    np.multiply(g1[:, None, :, None], g2[None, :, None], out=work)
    if not every:
        work *= valid
    np.subtract(w, work, out=work)
    defect = max(float(work.max()), -float(work.min())) + 0.0  # + 0.0: no -0.0
    scan.defect = max(scan.defect, defect)
    return values


def _read(table: np.ndarray, lam_bits: int, masses_only: bool = False) -> _Scan:
    """Read a weight table one block of lambda values at a time.

    table is over (s1, s2, sa, sb, lambda...), its lambda axes in lam_ids
    order, and is a transpose of a C-contiguous array (as weight_table
    returns): axis k's stride gives the bit it holds in that array's words.
    With at most _LAM_BLOCK_BITS lambda bits the table is one block, copied
    with its lambda axes in lam_ids order, so its lambda index is the flat
    index m of _decode_lambda.

    Otherwise a block fixes every lambda bit at or above some bit: it is
    the contiguous runs of words below that bit, one run per value of the
    role bits above it. Each block is copied into one (s1, s2, sa, sb, c)
    buffer with c in memory order, a transpose of each run; no copied run
    is shorter than the span between two role bits. Lambda value c of the
    block has m = m_inner[c] + m_outer. The blocks are split into shares
    (see model._each), each with its own buffers and running scan; with
    more shares a block holds fewer lambda values, so that all buffers
    together stay below half the table's size.

    Only the masses need m order, because md sums them in it. Each block's
    masses are put in m order by one gather into its own contiguous row of
    a tile, and the blocks are read in m order of their fixed bits, a tile
    of 2^_TILE_BITS at a time; for lambda in bit order (the default) each
    tile fills runs of 8 consecutive words of the masses.
    The other quantities keep their largest value, at the first cell and
    then the smallest m that reach it (see _Scan.offer), so no field or
    witness depends on the split or the block order. A masses-only read
    copies each block the same way and skips the reductions.
    """
    if lam_bits <= _LAM_BLOCK_BITS:
        w = np.empty((2, 2, 2, 2, 1 << lam_bits))
        np.copyto(w.reshape(table.shape), table)
        scan = _Scan(w.sum(axis=(0, 1)))
        if not masses_only:
            scan.add_block(_Buffers(w, scan.mass), lam_bits == 0, np.arange(1 << lam_bits), 0)
        return scan

    shares = _shares(1 << (lam_bits - _LAM_BLOCK_BITS))
    # a share's buffers hold 108 words per lambda value of its block, the
    # table 16 words per lambda value
    width = max(min(_LAM_BLOCK_BITS, lam_bits - 4 - (shares - 1).bit_length()), 0)
    blocks = 1 << (lam_bits - width)
    ndim = table.ndim
    bit = [(s // table.itemsize).bit_length() - 1 for s in table.strides]
    # the runs are the words below bit run; with the role bits at or above
    # it they make 2^(width + 4) words
    run = max(r for r in range(ndim) if r + sum(b >= r for b in bit[:4]) == width + 4)
    memory = sorted(range(ndim), key=lambda k: -bit[k])  # the table's axes, highest bit first
    outer = [k for k in memory if k >= 4 and bit[k] >= run]
    inner = [k for k in memory if k >= 4 and bit[k] < run]
    m_outer = _flat_index(outer, ndim)
    m_inner = _flat_index(inner, ndim)
    in_order = np.argsort(m_inner)
    ranked = np.argsort(m_outer)  # the blocks in m order
    # the masses over (outer bits, sa, sb, inner bits), each group of bits
    # highest m bit first; with lambda in bit order (the default) the outer
    # bits are the lowest bits of m, so a tile of blocks fills runs of words
    tile_bits = min(_TILE_BITS, len(outer))
    mass_all = np.empty((2, 2, 1 << lam_bits))
    order = [*(k - 2 for k in sorted(outer)), 0, 1, *(k - 2 for k in sorted(inner))]
    by_rank = mass_all.reshape((2, 2) + (2,) * lam_bits).transpose(order)

    source = table.transpose(outer + [0, 1, 2, 3] + inner)
    # where (sa, sb, value in m order) sits in a block's masses
    cell = np.arange(4 << width).reshape(2, 2, -1)[:, :, in_order]

    # every share's buffers, made on the calling thread: what a pool thread
    # allocates stays with its malloc arena after it is freed
    tiles = [np.empty((1 << tile_bits, 2, 2, 1 << width)) for _ in range(shares)]
    buffers = [
        _Buffers(np.empty((2, 2, 2, 2, 1 << width)), np.empty((2, 2, 1 << width)))
        for _ in range(shares)
    ]

    def read_share(k: int) -> _Scan:
        scan = _Scan(mass_all)
        tiled = tiles[k]
        buf = buffers[k]
        target = buf.w.reshape(source.shape[len(outer) :])
        for t in _share(blocks >> tile_bits, shares, k):
            for i in range(1 << tile_bits):
                q = int(ranked[t << tile_bits | i])
                block = source[tuple(q >> (len(outer) - 1 - j) & 1 for j in range(len(outer)))]
                np.copyto(target, block)
                np.take(_setting_mass(buf.w, buf.mass), cell, out=tiled[i], mode="clip")
                if not masses_only:
                    scan.add_block(buf, False, m_inner, int(m_outer[q]))
            top = len(outer) - tile_bits
            slot = by_rank[tuple(t >> (top - 1 - j) & 1 for j in range(top))]
            np.copyto(slot, tiled.reshape(slot.shape))
        return scan

    scan, *others = _each(read_share, shares)
    for other in others:
        scan.merge(other)
    return scan


def _flat_index(axes: list[int], ndim: int) -> np.ndarray:
    """The flat lambda index m of each C-ordered value of the given lambda
    axes of an ndim-axis table: lambda axis k is bit ndim - 1 - k of m
    (lam_ids[0] on top)."""
    m = np.zeros(1, dtype=np.int64)
    for k in axes:
        m = (m[:, None] + [0, 1 << (ndim - 1 - k)]).reshape(-1)
    return m


def _setting_mass(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum of w over its two leading (outcome) axes, the four slices added
    one after another, as numpy sums a C-ordered array over them."""
    np.add(w[0, 0], w[0, 1], out=out)
    out += w[1, 0]
    out += w[1, 1]
    return out


def _read_model(
    model: BoltzmannModel, lam: Sequence[str] | None, masses_only: bool = False
) -> tuple[_Scan, tuple[str, ...]]:
    """Resolve lambda and read the model's weights over (s1, s2, sa, sb,
    lambda...). With lambda every hidden node weight_table sums nothing and
    returns a transposed view of the model's own tensor."""
    lam_ids = _lambda_ids(model, lam)
    table = model.weight_table([*model.lattice.bell_ids(), *lam_ids])
    return _read(table, len(lam_ids), masses_only), lam_ids


def _top(scan: _Scan, k: int, lam_ids: Sequence[str]) -> tuple[float, int, tuple]:
    """(value, cell, lambda assignment) of quantity k's first maximum in
    (cell, lambda) order; cell is row * 2 + column."""
    value, cell, m = scan.top[k]
    return value, -cell, _decode_lambda(lam_ids, -m)


# -- public measures -----------------------------------------------------------


def measurement_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup over setting pairs of sum_lambda |P(lambda|a,b) - P(lambda|a',b')|."""
    return _md_result(_read_model(model, lam, masses_only=True)[0].mass)


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
    if scan.od_skipped == scan.mass.size:
        raise DegenerateModelError("every (setting, lambda) cell carries zero weight")
    od, cell, lam_od = _top(scan, 0, lam_ids)
    w_od = Witness(
        kind="od",
        settings=(spin_of(cell >> 1), spin_of(cell & 1)),
        lam=lam_od,
        value=od,
        skipped_cells=scan.od_skipped,
    )
    best_a, best_b = scan.top[1][0], scan.top[2][0]
    if best_a < 0.0 and best_b < 0.0:
        raise DegenerateModelError(
            "no analyzer flip leaves both (setting, lambda) cells with weight"
        )
    # strict max; ties go to outcome 2 against analyzer a
    side_a = best_a >= best_b
    pd, cell, lam_pd = _top(scan, 1 if side_a else 2, lam_ids)
    fixed = spin_of(cell & 1)
    settings, alt = ((1, fixed), (-1, fixed)) if side_a else ((fixed, 1), (fixed, -1))
    w_pd = Witness(
        kind="pd",
        settings=settings,
        alt_settings=alt,
        lam=lam_pd,
        outcome=(id2 if side_a else id1, spin_of(cell >> 1)),
        value=pd,
        skipped_cells=scan.pd_skipped,
    )
    return IndependenceReport(
        md=md,
        od=od,
        pd=pd,
        mi_holds=md <= tol,
        oi_holds=od <= tol,
        pi_holds=pd <= tol,
        factorizable=scan.defect <= tol,
        tol=tol,
        witnesses={"md": w_md, "od": w_od, "pd": w_pd},
        od_max_cell=max(scan.od_max_cell, 0.0),
        pd_sides={
            "outcome2_vs_analyzer_a": max(best_a, 0.0),
            "outcome1_vs_analyzer_b": max(best_b, 0.0),
        },
        factorization_defect=scan.defect,
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
