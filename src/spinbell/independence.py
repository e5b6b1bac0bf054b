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
(s1, s2, sa, sb, lambda). One reader (_read) walks a stack of such tables a
block of lambda values at a time and computes every measure of every table
from each block while it is in cache; each table's results depend on it
alone. It reads tables made by weight_table's reduction: a model's is a
stack of one, and a batch of search rows (_tables) a stack of many, read at
once by the grid scan and, for their masses only, by the md objective of the
search. So the direct route, the stacked clamped model of freewill, the grid
scan and the batched md of search share identical arithmetic, and md from
setting masses gathered any other way (the placement sweep) goes through
the same _md_rows. An ensemble built some other way is read as a
BoltzmannModel over its weights.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidArgumentError
from .lattice import Lattice, NodeRole
from .model import ZERO_MEASURE, BoltzmannModel, _each, _share, _shares, build_model
from ._format import SPINS, check_tol, csv_table, fmt, pm, spin_of

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


# -- measurement dependence over the (P, sa, sb, lambda-flat) setting masses --

# The 6 unordered setting pairs in the order _md_rows sums them, and for each
# of the 16 ordered pairs (setting index sa * 2 + sb) its slot in that list;
# slot 6 holds the diagonal's 0.
_PAIRS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))
_PAIR_SLOT = np.array(
    [[_PAIRS.index((min(i, j), max(i, j))) if i != j else 6 for j in range(4)] for i in range(4)]
).reshape(-1)


def _md_rows(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """md of each row of setting masses over (P, sa, sb, lambda-flat),
    which are overwritten with P(lambda | a, b): its value, -inf where no
    setting has weight (where measurement_dependence raises), the index of
    its first maximizing pair and the number of pairs whose settings both
    have weight.

    A pair index holds sa, sb, sa', sb' from its top bit down, and a pair
    with a setting without weight reads -1. Only the 6 unordered pairs are
    summed over lambda, each over its own contiguous row: |p - q| equals
    |q - p| exactly, and the diagonal is 0.
    """
    rows = len(mass)
    mass_ab = mass.sum(axis=-1)  # (P, 2, 2)
    valid = mass_ab >= ZERO_MEASURE
    p = np.divide(mass, np.where(valid, mass_ab, 1.0)[..., None], out=mass)
    p = p.reshape(rows, 4, mass.shape[-1])
    terms = np.empty((rows, 6, p.shape[-1]))
    np.subtract(p[:, :3], p[:, 1:], out=terms[:, :3])
    np.subtract(p[:, :2], p[:, 2:], out=terms[:, 3:5])
    np.subtract(p[:, :1], p[:, 3:], out=terms[:, 5:])
    sums = np.zeros((rows, 7))
    np.abs(terms, out=terms).sum(axis=-1, out=sums[:, :6])
    valid = valid.reshape(rows, 4)
    pair_valid = (valid[:, :, None] & valid[:, None, :]).reshape(rows, 16)
    diff = np.where(pair_valid, sums[:, _PAIR_SLOT], -1.0)
    pairs = pair_valid.sum(axis=1)
    return np.where(pairs > 0, diff.max(axis=1), -np.inf), diff.argmax(axis=1), pairs


def _md_witness(md: float, k: int, pairs: int) -> Witness:
    """The witness of one table's md (see _md_rows)."""
    return Witness(
        kind="md",
        settings=(spin_of(k >> 3), spin_of(k >> 2 & 1)),
        alt_settings=(spin_of(k >> 1 & 1), spin_of(k & 1)),
        value=md,
        skipped_cells=16 - pairs,
    )


# -- the block reader ------------------------------------------------------------

# lambda values per block: the reader's (1, 2, 2, 2, 2, C) buffer then holds
# 2^16 words (512 KiB), so every pass over a block runs in cache. A lambda
# set of at most this many bits is read in one block per table, with nothing
# to merge.
_LAM_BLOCK_BITS = 12
# blocks whose masses are written out together: 8 words, one cache line
_TILE_BITS = 3
# (table, lambda value) pairs per read of a stack of one-block tables in
# _measure_rows: the read's buffers then hold 576 KiB, and a search batch of
# 2^16 words is read in four
_CHUNK_BITS = 10


class _Scan:
    """What one read of a stack of P weight tables leaves, row by row.

    mass is the setting mass over (P, sa, sb, lambda-flat) until _md_rows
    consumes it: md overwrites it with P(lambda | a, b), so md runs after
    anything that reads the mass values (its size stays the cell count).
    Its last axis gives lam_bits, the number of lambda bits. value and at
    hold, per quantity and row (3, P), the largest value over every cell
    and lambda value and where it is first reached: at is
    cell << lam_bits | m for the first cell in cell order that reaches it
    and the smallest lambda index m at which that cell does. The
    quantities are od over cells (sa, sb), pd against analyzer a over
    (s2, b) and pd against analyzer b over (s1, a); a cell without weight
    reads -1. The other fields, one value per row, gather what
    _reduce_block finds in each block; each is >= 0 once a block is in. A
    masses-only read leaves all but mass as they start.
    """

    def __init__(self, mass: np.ndarray) -> None:
        self.mass, self.lam_bits = mass, mass.shape[-1].bit_length() - 1
        floats, ints = np.zeros((5, len(mass))), np.zeros((5, len(mass)), dtype=np.int64)
        floats[:3] = -np.inf
        self.value, self.od_max_cell, self.defect = floats[:3], floats[3], floats[4]
        self.at, self.od_skipped, self.pd_skipped = ints[:3], ints[3], ints[4]

    def offer(self, value: np.ndarray, at: np.ndarray) -> None:
        """Keep, per quantity and row, the maximum (value, -at): a larger
        value, or an equal one reached earlier. This is a total order, so
        no result depends on how the blocks are split or ordered."""
        better = (value > self.value) | (value == self.value) & (at < self.at)
        np.copyto(self.value, value, where=better)
        np.copyto(self.at, at, where=better)

    def add_block(self, buf: _Buffers, m_inner: np.ndarray, m_outer: int) -> None:
        """Reduce the block in buf and fold it in. Its lambda value c has
        the flat index m_inner[c] + m_outer."""
        rows = np.arange(len(buf.w))
        values = _reduce_block(self, buf).reshape(3, len(rows), 4, -1)
        tops = values.max(axis=-1)
        value, cell = tops.max(axis=-1), tops.argmax(axis=-1)
        if not (value >= self.value).any():
            return
        hits = values[_QUANTITY, rows, cell] == value[..., None]
        m = np.where(hits, m_inner, 1 << self.lam_bits).min(axis=-1) + m_outer
        self.offer(value, cell << self.lam_bits | m)

    def merge(self, other: _Scan) -> None:
        """Fold in the scan of another share."""
        self.od_skipped += other.od_skipped
        self.pd_skipped += other.pd_skipped
        np.maximum(self.od_max_cell, other.od_max_cell, out=self.od_max_cell)
        np.maximum(self.defect, other.defect, out=self.defect)
        self.offer(other.value, other.at)


_QUANTITY = np.arange(3)[:, None]


class _Buffers:
    """One share's buffers for a block w over (R, s1, s2, sa, sb, c) of R
    tables and its setting masses mass over (R, sa, sb, c): a work array of
    w's shape, the per-cell values (quantity, R, 2, 2, c) described on
    _Scan, the conditional outcome marginals p1 over (R, s1, sa, sb, c) and
    p2 over (R, s2, sa, sb, c), the weights g1 over (R, s1, sa, c) and g2
    over (R, s2, sb, c), and their sums over the outcome."""

    def __init__(self, w: np.ndarray, mass: np.ndarray) -> None:
        rows, lam = len(w), w.shape[-1]
        self.w, self.mass = w, mass
        self.work = np.empty_like(w)
        self.values = np.empty((3, rows, 2, 2, lam))
        self.p = np.empty((2, rows, 2, 2, 2, lam))
        self.g = np.empty((2, rows, 2, 2, lam))
        self.marginal = np.empty((2, rows, 2, lam))


def _reduce_block(scan: _Scan, buf: _Buffers) -> np.ndarray:
    """od, pd and factorization reductions of the block buf.w over (R, s1,
    s2, sa, sb, c) with setting masses buf.mass, for scan.

    Every sum adds its terms in the order of numpy's sum over a C-ordered
    (s1, s2, sa, sb, lambda-flat) array. A sum over the two leading axes
    adds their four slices one after another at any block width; the sums
    onto (s1, a) and (s2, b) are spelled out, because numpy pairs their
    terms when the table's trailing axis has length 1 (scan.lam_bits ==
    0); a block one lambda value wide of a larger table still adds them
    one after another. Every operation acts on each table alone, so a
    table's results do not depend on the others in its block. w is
    overwritten with P(s1, s2 | sa, sb, lambda), zero on cells without
    weight (a division by inf). Adds each table's skipped od cells and pd
    pairs, largest single-cell od term and factorization defect into scan;
    returns buf.values, the per-cell values.
    """
    w, work, mass, values = buf.w, buf.work, buf.mass, buf.values
    valid = mass >= ZERO_MEASURE
    every = bool(valid.all())
    # weights over (s1, a, c) and (s2, b, c), before w is normalized
    g1, g2 = buf.g
    np.add(w[:, :, 0, :, 0], w[:, :, 0, :, 1], out=g1)
    if scan.lam_bits == 0:
        g1 += w[:, :, 1, :, 0] + w[:, :, 1, :, 1]
    else:
        g1 += w[:, :, 1, :, 0]
        g1 += w[:, :, 1, :, 1]
    np.add(w[:, 0, :, 0], w[:, 0, :, 1], out=g2)
    g2 += w[:, 1, :, 0]
    g2 += w[:, 1, :, 1]

    np.divide(w, np.where(valid, mass, np.inf)[:, None, None], out=w)
    p1, p2 = buf.p
    np.add(w[:, :, 0], w[:, :, 1], out=p1)  # P(s1 | sa, sb, lambda)
    np.add(w[:, 0], w[:, 1], out=p2)  # P(s2 | sa, sb, lambda)

    od, pd_a, pd_b = values
    # outcome 2 against a flip of analyzer a at fixed (b, lambda), and
    # outcome 1 against a flip of analyzer b at fixed (a, lambda)
    np.subtract(p2[:, :, 1], p2[:, :, 0], out=pd_a)
    np.subtract(p1[:, :, :, 1], p1[:, :, :, 0], out=pd_b)
    np.abs(values[1:], out=values[1:])

    terms = work.reshape(len(work), -1)
    np.multiply(p1[:, :, None], p2[:, None], out=work)
    np.subtract(w, work, out=work)
    np.abs(work, out=work)
    # a cell without weight has all-zero terms, so the largest term is the
    # largest over cells with weight, or 0
    np.maximum(scan.od_max_cell, terms.max(axis=1), out=scan.od_max_cell)
    work.sum(axis=(1, 2), out=od)
    if not every:
        np.copyto(od, -1.0, where=~valid)
        ok_a = valid[:, 1] & valid[:, 0]
        np.copyto(pd_a, -1.0, where=~ok_a[:, None])
        ok_b = valid[:, :, 1] & valid[:, :, 0]
        np.copyto(pd_b, -1.0, where=~ok_b[:, None])
        scan.pd_skipped += np.count_nonzero(~ok_a, axis=(1, 2))
        scan.pd_skipped += np.count_nonzero(~ok_b, axis=(1, 2))
        scan.od_skipped += np.count_nonzero(~valid, axis=(1, 2, 3))

    # P(s1 | a, lambda) P(s2 | b, lambda) against P(s1, s2 | a, b, lambda).
    # A cell with weight has weight on both marginals (sums of nonnegative
    # terms are no smaller than each term), so only the cells without
    # weight are masked: their product is zeroed, like their w, and the
    # defect is the largest |difference| over cells with weight, or 0.
    marginal = np.add(buf.g[:, :, 0], buf.g[:, :, 1], out=buf.marginal)
    if not every:
        np.copyto(marginal, np.inf, where=marginal < ZERO_MEASURE)
    np.divide(buf.g, marginal[:, :, None], out=buf.g)
    np.multiply(g1[:, :, None, :, None], g2[:, None, :, None], out=work)
    if not every:
        work *= valid[:, None, None]
    np.subtract(w, work, out=work)
    np.abs(work, out=work)
    np.maximum(scan.defect, terms.max(axis=1), out=scan.defect)
    return values


def _read(table: np.ndarray, masses_only: bool = False) -> _Scan:
    """Read a stack of weight tables one block of lambda values at a time.

    table is over (P, s1, s2, sa, sb, lambda...), its table.ndim - 5
    lambda axes in lam_ids order, each table a transpose of a C-contiguous
    array (as weight_table and _tables return): axis k's stride gives the
    bit it holds in that array's words. With at most _LAM_BLOCK_BITS bits
    each table is one block, copied with its lambda axes in lam_ids order,
    so its lambda index is the flat index m of _decode_lambda, and the
    whole stack is one block of _reduce_block; its buffers take 72 words
    per (table, lambda value) pair beyond the copy, which is all that a
    masses-only read needs.

    Otherwise the stack holds one table (_tables makes one row beyond 2^16
    words), and a block fixes every lambda bit at or above some bit: it is
    the contiguous runs of words below that bit, one run per value of the
    role bits above it. Each block is copied into one (1, s1, s2, sa, sb,
    c) buffer with c in memory order, a transpose of each run; no copied
    run is shorter than the span between two role bits. Lambda value c of
    the block has m = m_inner[c] + m_outer. The blocks are split into
    shares (see model._each), each with its own buffers and running scan;
    with more shares a block holds fewer lambda values, so that all buffers
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
    lam_bits = table.ndim - 5
    if lam_bits <= _LAM_BLOCK_BITS:
        w = np.empty((len(table), 2, 2, 2, 2, 1 << lam_bits))
        np.copyto(w.reshape(table.shape), table)
        scan = _Scan(w.sum(axis=(1, 2)))
        if not masses_only:
            scan.add_block(_Buffers(w, scan.mass), np.arange(1 << lam_bits), 0)
        return scan

    (table,) = table
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
    mass_all = np.empty((1, 2, 2, 1 << lam_bits))
    order = [*(k - 2 for k in sorted(outer)), 0, 1, *(k - 2 for k in sorted(inner))]
    by_rank = mass_all.reshape((2, 2) + (2,) * lam_bits).transpose(order)

    source = table.transpose(outer + [0, 1, 2, 3] + inner)
    # where (sa, sb, value in m order) sits in a block's masses
    cell = np.arange(4 << width).reshape(2, 2, -1)[:, :, in_order]

    # every share's buffers, made on the calling thread: what a pool thread
    # allocates stays with its malloc arena after it is freed
    tiles = [np.empty((1 << tile_bits, 2, 2, 1 << width)) for _ in range(shares)]
    buffers = [
        _Buffers(np.empty((1, 2, 2, 2, 2, 1 << width)), np.empty((1, 2, 2, 1 << width)))
        for _ in range(shares)
    ]

    def read_share(k: int) -> _Scan:
        scan = _Scan(mass_all)
        tiled, buf = tiles[k], buffers[k]
        target = buf.w.reshape(source.shape[len(outer) :])
        for t in _share(blocks >> tile_bits, shares, k):
            for i in range(1 << tile_bits):
                q = int(ranked[t << tile_bits | i])
                block = source[tuple(q >> (len(outer) - 1 - j) & 1 for j in range(len(outer)))]
                np.copyto(target, block)
                np.take(buf.w.sum(axis=(1, 2), out=buf.mass), cell, out=tiled[i], mode="clip")
                if not masses_only:
                    scan.add_block(buf, m_inner, int(m_outer[q]))
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


def _read_model(
    model: BoltzmannModel, lam: Sequence[str] | None, masses_only: bool = False
) -> tuple[_Scan, tuple[str, ...]]:
    """Resolve lambda and read the model's weights over (s1, s2, sa, sb,
    lambda...) as a stack of one. With lambda every hidden node
    weight_table sums nothing and returns a transposed view of the model's
    own tensor."""
    lam_ids = _lambda_ids(model, lam)
    table = model.weight_table([*model.lattice.bell_ids(), *lam_ids])
    return _read(table[None], masses_only), lam_ids


# why independence_report refuses a model, in the order it checks
_REFUSALS = (
    "every analyzer setting carries zero weight",
    "every (setting, lambda) cell carries zero weight",
    "no analyzer flip leaves both (setting, lambda) cells with weight",
)


def _report_rows(scan: _Scan) -> tuple[tuple, tuple]:
    """The md of each table of a full read (see _md_rows), and for each of
    _REFUSALS a mask of the tables that independence_report refuses for
    it."""
    md = _md_rows(scan.mass)  # consumes scan.mass (see _Scan)
    cells = 4 << scan.lam_bits
    return md, (md[2] == 0, scan.od_skipped == cells, scan.value[1:].max(axis=0) < 0.0)


def _measure_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """md, od and pd (P, 3) of each table in a stack of one-block tables,
    each == to independence_report's on its model, and a mask of the tables
    where independence_report raises DegenerateModelError. The stack is
    read 2^_CHUNK_BITS (table, lambda value) pairs at a time, and at least
    one table."""
    step = max((1 << _CHUNK_BITS) >> (table.ndim - 5), 1)
    measures, refused = np.empty((len(table), 3)), np.empty(len(table), dtype=bool)
    for lo in range(0, len(table), step):
        scan = _read(table[lo : lo + step])
        (md, _, _), (no_md, no_od, no_pd) = _report_rows(scan)
        measures[lo : lo + step] = np.stack([md, scan.value[0], scan.value[1:].max(axis=0)], axis=1)
        refused[lo : lo + step] = no_md | no_od | no_pd
    return measures, refused


def _top(scan: _Scan, k: int, lam_ids: Sequence[str]) -> tuple[float, int, tuple]:
    """(value, cell, lambda assignment) of quantity k's first maximum in
    (cell, lambda) order for the first table; cell is row * 2 + column."""
    cell, m = divmod(int(scan.at[k, 0]), 1 << scan.lam_bits)
    return float(scan.value[k, 0]), cell, _decode_lambda(lam_ids, m)


# -- public measures -----------------------------------------------------------


def measurement_dependence(
    model: BoltzmannModel, lam: Sequence[str] | None = None
) -> tuple[float, Witness]:
    """sup over setting pairs of sum_lambda |P(lambda|a,b) - P(lambda|a',b')|."""
    md, k, pairs = (v.item() for v in _md_rows(_read_model(model, lam, masses_only=True)[0].mass))
    if not pairs:
        raise DegenerateModelError(_REFUSALS[0])
    return md, _md_witness(md, k, pairs)


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
    """All three measures with premise verdicts at one tolerance, a finite
    number >= 0."""
    check_tol(tol)
    scan, lam_ids = _read_model(model, lam)
    (md, k, pairs), refused = _report_rows(scan)
    for reason, mask in zip(_REFUSALS, refused):
        if mask[0]:
            raise DegenerateModelError(reason)
    md = float(md[0])
    w_md = _md_witness(md, int(k[0]), int(pairs[0]))
    id1, id2, _, _ = model.lattice.bell_ids()
    od, cell, lam_od = _top(scan, 0, lam_ids)
    w_od = Witness(
        kind="od",
        settings=(spin_of(cell >> 1), spin_of(cell & 1)),
        lam=lam_od,
        value=od,
        skipped_cells=int(scan.od_skipped[0]),
    )
    best_a, best_b = scan.value[1:, 0].tolist()
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
        skipped_cells=int(scan.pd_skipped[0]),
    )
    defect = float(scan.defect[0])
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
        od_max_cell=max(float(scan.od_max_cell[0]), 0.0),
        pd_sides={
            "outcome2_vs_analyzer_a": max(best_a, 0.0),
            "outcome1_vs_analyzer_b": max(best_b, 0.0),
        },
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
    roles = (NodeRole.ANALYZER_A, NodeRole.ANALYZER_B)
    analyzer_ids = {lattice.role_id(role) for role in roles} - {None}
    if not analyzer_ids:
        raise InvalidArgumentError("lattice has no analyzer nodes to decouple")
    keys = [e.key() for e in lattice.edges if analyzer_ids & {e.a, e.b}]
    out = []
    for s in s_values:
        scaled = lattice.with_scaled_edges(keys, float(s))
        md, _ = measurement_dependence(build_model(scaled), lam)
        out.append((float(s), md))
    return out
