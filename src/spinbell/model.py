"""Exact Boltzmann enumeration over all 2^N spin configurations.

A configuration is encoded as an integer word: the node declared at position i
of the lattice lives at bit i, and bit value 1 means spin +1. All marginals,
conditionals and joint tables are exact sums over the full ensemble; nothing
here samples.

Numerical stabilization: weights are exp(-beta * (E - E_min)), so the largest
weight is exactly 1 and the stabilized partition sum is >= 1. The shift E_min
is recorded on the model; log Z = log(sum of stabilized weights) - beta * E_min
is always finite, while the unshifted Z may overflow for strongly coupled
lattices (requesting it then raises NumericRangeError).

Events with stabilized weight sums below ZERO_MEASURE (1e-300) are treated as
measure zero: conditioning on them raises ZeroMeasureConditionError.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import os
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TypeVar

import numpy as np

from .errors import (
    DegenerateModelError,
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidConfigurationError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from .lattice import Lattice, Spin, _check_config, _terms
from ._format import fmt_assignment, spin_index, spin_of

__all__ = [
    "ZERO_MEASURE",
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV",
    "BoltzmannModel",
    "build_model",
    "enumeration_cap",
]

ZERO_MEASURE = 1e-300
DEFAULT_ENUM_CAP = 24
ENUM_CAP_ENV = "SPINBELL_ENUM_CAP"


def enumeration_cap() -> int:
    """Current enumeration cap (env var override, else the default)."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidArgumentError(f"{ENUM_CAP_ENV}={raw!r} is not an integer") from None
    if cap < 1:
        raise InvalidArgumentError(f"{ENUM_CAP_ENV} must be >= 1, got {cap}")
    return cap


# Spin values of one node, and the products s_i s_j and s_i s_j s_k, indexed
# by bit (index 1 means spin +1), listed by term size. Each term's factor is
# one of these patterns times its coefficient, so every entry is exactly
# +-coefficient.
_FIELD = np.array([-1.0, 1.0])
_PAIR = np.multiply.outer(_FIELD, _FIELD)
_TRIPLE = np.multiply.outer(_PAIR, _FIELD)
_PATTERNS = (_FIELD, _PAIR, _TRIPLE)

# Energies are built one block of 2^_BLOCK_BITS consecutive words at a time
# (512 KiB, which fits in L2), so every term is applied to a block while it
# stays in cache. A factor on one of the lowest _DENSE_BITS nodes is
# materialized over the trailing _DENSE_BITS axes: numpy's inner loop then
# runs over 2^_DENSE_BITS entries instead of 2.
_BLOCK_BITS = 16
_DENSE_BITS = 6


# -- shares of the 2^N block passes ------------------------------------------------

# The passes over more than one block (energies, weights, the partition sum,
# the independence reader) split their blocks into one share per usable core, at most
# _MAX_SHARES; numpy releases the interpreter lock inside each block's ufunc
# calls. Every word gets the same operands in the same order in any share, so
# results are bit-identical at any share count. The count is read once.
_MAX_SHARES = 4
try:
    _SHARES = min(len(os.sched_getaffinity(0)), _MAX_SHARES)
except AttributeError:  # no sched_getaffinity on this platform
    _SHARES = min(os.cpu_count() or 1, _MAX_SHARES)

_T = TypeVar("_T")
_pool = None  # concurrent.futures.ThreadPoolExecutor, made on first use
_pool_lock = threading.Lock()
_in_pool = threading.local()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread() -> None:
    _in_pool.active = True


def _shares(blocks: int) -> int:
    """Shares for a pass over the given number of blocks."""
    return min(_SHARES, blocks)


def _share(count: int, shares: int, k: int) -> range:
    """Share k's contiguous run of count items split into shares."""
    return range(count * k // shares, count * (k + 1) // shares)


def _each(fn: Callable[[int], _T], shares: int) -> list[_T]:
    """[fn(0), ..., fn(shares - 1)]: share 0 on the calling thread, the
    others on the pool, each under the caller's numpy error state (which is
    local to a thread). A call from a pool thread runs every share inline,
    so nested use cannot deadlock. fn must call no public spinbell function:
    those are traced from the calling thread only.
    """
    if shares == 1 or getattr(_in_pool, "active", False):
        return [fn(k) for k in range(shares)]
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                _MAX_SHARES - 1, "spinbell-share", initializer=_mark_pool_thread
            )
        pool = _pool
    err = np.geterr()

    def run(k: int) -> _T:
        with np.errstate(**err):
            return fn(k)

    futures = [pool.submit(run, k) for k in range(1, shares)]
    try:
        first = fn(0)
    finally:
        for future in futures:  # wait for every share before returning or raising
            future.exception()
    return [first, *(future.result() for future in futures)]


def _factor(coef: float, bits: Sequence[int], width: int) -> np.ndarray:
    """coef times the spin product of the given bits, spanning only their
    axes of a (2,)*width tensor (bit k on axis width-1-k). The patterns are
    symmetric, so axis order within a term does not matter."""
    shape = [1] * width
    for k in bits:
        shape[width - 1 - k] = 2
    return coef * _PATTERNS[len(bits) - 1].reshape(shape)


def _energies(lattice: Lattice, out: np.ndarray | None = None) -> np.ndarray:
    """Energy of every configuration, indexed by integer word, written into
    out (a contiguous array of 2^N floats) when given.

    Each nonzero term is subtracted in place onto the (2,)*N tensor (node k
    on axis N-1-k) as a factor that spans only the term's own axes, in the
    order of lattice.energy after the offset: declaration order (fields,
    edges, triples) up to 16 spins, by highest node past them (see
    lattice._terms). Every factor entry is exactly +-coefficient, so the
    result equals lattice.energy bit for bit. A configuration and its
    global flip receive the same +-j from every edge, in the same order,
    so without fields or triples their energies are bit-identical.

    Beyond 2^_BLOCK_BITS words the tensor is filled one block at a time.
    Within a block the nodes at bit >= _BLOCK_BITS are fixed, so a term's
    factor spans only its block nodes and its sign is the parity of its
    fixed nodes at spin -1; a term on fixed nodes alone is a scalar. The
    terms before the first one that touches a fixed node are the same in
    every block and are built once, into start. Each later term has a
    level: the highest fixed bit among it and every term before it, so the
    partial sum through a level depends only on the fixed bits up to it
    and is shared by every block that agrees on those bits.

    The blocks are split into shares (see _each), each a run of a counter
    whose bit-reversed value is the block's fixed bits, so the low fixed
    bits change least often. A block recomputes only the levels at or
    above its lowest changed bit, from the partial below them. A level's
    partial is kept in the block that its share visits last among those
    that share it, until that block is reached. Every word still receives
    the same +-coefficient operands in the same order, at any share count.
    """
    n = lattice.n
    width = min(n, _BLOCK_BITS)
    terms = [(coef, bits) for coef, bits in _terms(lattice) if coef != 0.0]
    split = len(terms)
    if width < n:
        # the level of each term, after a leading -1; the terms at -1 make start
        levels = list(itertools.accumulate((max(bits) - width for _, bits in terms), max, initial=-1))
        split = levels.count(-1) - 1
    if out is None or width < n:
        start = np.full((2,) * width, float(lattice.offset))
    else:
        start = out.reshape((2,) * width)
        start.fill(lattice.offset)
    for coef, bits in terms[:split]:
        start -= _factor(coef, bits, width)
    if width == n:
        return start.reshape(-1)

    dense = min(_DENSE_BITS, width)
    steps: dict[int, list] = {}  # level -> its terms, as (f, -f, fixed bits)
    for (coef, bits), level in zip(terms[split:], levels[split + 1 :]):
        inner = [k for k in bits if k < width]
        fixed = sum(1 << (k - width) for k in bits if k >= width)
        if not inner:
            f = coef
        else:
            f = _factor(coef, inner, width)
            if min(inner) < dense:
                shape = f.shape[: width - dense] + (2,) * dense
                f = np.ascontiguousarray(np.broadcast_to(f, shape))
        steps.setdefault(level, []).append((f, -f, fixed))
    at_level, step_terms = list(steps), list(steps.values())
    e = np.empty(1 << n) if out is None else out
    blocks = e.reshape((-1,) + start.shape)
    high = n - width  # fixed bits
    rev = [int(f"{c:0{high}b}"[::-1], 2) for c in range(len(blocks))]
    shares = _shares(len(blocks))

    def fill(k: int) -> None:
        part = _share(len(blocks), shares, k)
        held = [0] * len(steps)  # the block holding each level's partial
        for c in part:
            q = rev[c]
            # the levels at or above the lowest fixed bit changed since the previous block
            first = 0 if c == part.start else bisect.bisect_left(at_level, high - (c & -c).bit_length())
            src = held[first - 1] if first else None  # None: start
            for i in range(first, len(steps)):
                # the block this share visits last among those that agree with q on
                # the fixed bits through the level
                dst = rev[min(c | ((1 << (high - 1 - at_level[i])) - 1), part.stop - 1)]
                for f, neg, fixed in step_terms[i]:
                    # an odd count of fixed nodes at spin -1 (bit 0) flips the sign
                    term = neg if (fixed & ~q).bit_count() & 1 else f
                    np.subtract(start if src is None else blocks[src], term, out=blocks[dst])
                    src = dst
                held[i] = dst
            if src != q:
                np.copyto(blocks[q], start if src is None else blocks[src])

    _each(fill, shares)
    return e


def _weights(
    lattice: Lattice, shift: float | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Stabilized weights of a lattice, built in one 2^N array (out when
    given), and the shift used (see _stabilize)."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _energies(lattice, out)
    return _stabilize(energies, lattice.beta, shift)


def _stabilize(
    energies: np.ndarray, beta: float, shift: float | np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Turn energies into stabilized weights exp(-beta * (E - shift)) in
    place, and return them with the shift used. The shift defaults to the
    energy minimum, which must be finite: NaN or -inf there means some
    energy left the double range. Within one block it may be one per row.

    Past one block of 2^_BLOCK_BITS words the minimum is taken per share
    and the three steps run one block at a time, each share on its own
    blocks (see _each).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if energies.size <= 1 << _BLOCK_BITS:
            if shift is None:
                shift = _check_shift(float(energies.min()))
            np.subtract(energies, shift, out=energies)
            np.multiply(energies, -beta, out=energies)
            return np.exp(energies, out=energies), shift

        blocks = energies.reshape(-1, 1 << _BLOCK_BITS)
        shares = _shares(len(blocks))

        def low(k: int) -> float:
            part = _share(len(blocks), shares, k)
            return blocks[part.start : part.stop].min()

        if shift is None:
            # np.min, unlike min(), keeps a NaN from any share
            shift = _check_shift(float(np.min(_each(low, shares))))

        def finish(k: int) -> None:
            for q in _share(len(blocks), shares, k):
                block = blocks[q]
                np.subtract(block, shift, out=block)
                np.multiply(block, -beta, out=block)
                np.exp(block, out=block)

        _each(finish, shares)
        return energies, shift


def _total(weights: np.ndarray) -> float:
    """weights.sum() of 2^N weights. Past one block of 2^_BLOCK_BITS words
    each block is summed on its share (see _each), and the block sums are
    added in a pairwise tree over the block index. numpy sums a contiguous
    float64 array pairwise too, halving it down to runs of 128 words, so
    with blocks of at least 128 words the two are equal bit for bit."""
    if weights.size <= 1 << _BLOCK_BITS:
        return float(weights.sum())
    blocks = weights.reshape(-1, 1 << _BLOCK_BITS)
    sums = np.empty(len(blocks))
    shares = _shares(len(blocks))

    def add(k: int) -> None:
        for q in _share(len(blocks), shares, k):
            sums[q] = blocks[q].sum()

    _each(add, shares)
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0])


def _check_shift(shift: float) -> float:
    if not math.isfinite(shift):
        raise NumericRangeError(
            f"energies leave the double range (minimum energy is {shift}); "
            "reduce the couplings, fields or offset"
        )
    return shift


class BoltzmannModel:
    """Exact distribution P(s) = exp(-beta H(s)) / Z over one lattice.

    The stabilized weight vector is exposed read-only and C-contiguous (a
    strided array is copied: the block reads take bits from the strides).
    Its reshape to a (2,)*N tensor maps the node at declaration position k
    to tensor axis N-1-k (numpy C order puts the most significant bit on
    axis 0), with index 1 on an axis meaning spin +1. Only this module reads that tensor:
    weight_table (_tables, which also reduces search batches) is the one
    reduction onto nodes, and weight_sum the single-event reference.
    """

    __slots__ = ("lattice", "weights", "shift", "z_shifted", "log_z", "_tensor", "_index")

    def __init__(self, lattice: Lattice, weights: np.ndarray, shift: float) -> None:
        self.lattice = lattice
        weights = np.ascontiguousarray(weights)
        weights.flags.writeable = False
        self.weights = weights
        self.shift = shift
        self.z_shifted = _total(weights)
        if not (self.z_shifted > 0.0) or not math.isfinite(self.z_shifted):
            raise NumericRangeError(f"stabilized partition sum is {self.z_shifted}")
        self.log_z = math.log(self.z_shifted) - lattice.beta * shift
        self._tensor = weights.reshape((2,) * lattice.n)
        self._index = lattice.index

    # -- encoding ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def z(self) -> float:
        """Unshifted partition sum; raises if it leaves the float range."""
        z = math.exp(self.log_z) if self.log_z < 710.0 else math.inf
        if not math.isfinite(z) or z == 0.0:
            raise NumericRangeError(
                f"partition sum exp({self.log_z:.3f}) leaves the double range; "
                "use log_z or stabilized weights"
            )
        return z

    def encode(self, config: Mapping[str, Spin]) -> int:
        """Integer word for a full configuration."""
        _check_config(self.lattice, config, require_full=True)
        word = 0
        for nid, s in config.items():
            if s == 1:
                word |= 1 << self._index[nid]
        return word

    def decode(self, word: int) -> dict[str, Spin]:
        """Full configuration for an integer word."""
        if not 0 <= word < (1 << self.n):
            raise InvalidArgumentError(f"configuration word {word} out of range")
        return {nid: spin_of((word >> k) & 1) for nid, k in self._index.items()}

    def event_mask(self, assignment: Mapping[str, Spin]) -> tuple[int, int]:
        """(mask, pattern) over words: word matches iff word & mask == pattern."""
        _check_config(self.lattice, assignment, require_full=False)
        mask = pattern = 0
        for nid, s in assignment.items():
            mask |= 1 << self._index[nid]
            if s == 1:
                pattern |= 1 << self._index[nid]
        return mask, pattern

    # -- exact quantities ----------------------------------------------------

    def probability(self, config: Mapping[str, Spin]) -> float:
        """P(full configuration)."""
        return float(self.weights[self.encode(config)]) / self.z_shifted

    def weight_sum(self, assignment: Mapping[str, Spin]) -> float:
        """Stabilized weight of an event (partial assignment). Scale-free
        callers should divide by z_shifted."""
        _check_config(self.lattice, assignment, require_full=False)
        n = self.n
        sel: list = [slice(None)] * n
        for nid, s in assignment.items():
            sel[n - 1 - self._index[nid]] = spin_index(s)
        sub = self._tensor[tuple(sel)]
        return float(sub.sum()) if getattr(sub, "ndim", 0) else float(sub)

    def marginal(self, assignment: Mapping[str, Spin]) -> float:
        """P(assignment), summing out all unassigned nodes."""
        if not assignment:
            return 1.0
        return self.weight_sum(assignment) / self.z_shifted

    def conditional(self, target: Mapping[str, Spin], given: Mapping[str, Spin]) -> float:
        """P(target | given); raises ZeroMeasureConditionError on null events."""
        overlap = set(target) & set(given)
        if overlap:
            raise InvalidConfigurationError(
                f"target and condition overlap on nodes: {sorted(overlap)}"
            )
        if not given:
            return self.marginal(target)
        w_given = self.weight_sum(given)
        if w_given < ZERO_MEASURE:
            raise ZeroMeasureConditionError(
                f"conditioning event {fmt_assignment(given)} has weight {w_given!r}"
            )
        return self.weight_sum({**target, **given}) / w_given

    def weight_table(self, node_ids: Sequence[str]) -> np.ndarray:
        """Stabilized weights summed onto the requested nodes.

        Axis j of the result belongs to node_ids[j]; index 1 means spin +1.
        The table is unnormalized (divide by its sum for a distribution).
        When every node is requested, no axis is summed and the table is a
        transposed view of the weights. Up to 2^_BLOCK_BITS words (16
        spins) it is numpy's sum over the dropped axes. Beyond, the blocks
        are folded and their tables added in a fixed pairwise tree (see
        _fold): each cell is within a relative 1e-13 of its exact sum, and
        the table is the same at any share count.
        """
        if not node_ids:
            raise InvalidArgumentError("weight_table needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise InvalidArgumentError(f"repeated nodes in table request: {list(node_ids)}")
        for nid in node_ids:
            if nid not in self._index:
                raise InvalidConfigurationError(f"unknown node {nid!r} in table request")
        return _tables(self.weights[None], self._index, node_ids)[0]

    def joint_table(self, node_ids: Sequence[str]) -> np.ndarray:
        """Exact joint distribution over the requested nodes. Same axis
        convention as weight_table."""
        w = self.weight_table(node_ids)
        total = float(w.sum())
        if total < ZERO_MEASURE:
            raise DegenerateModelError("all configurations carry zero weight")
        return w / total


def _tables(weights: np.ndarray, index: Mapping[str, int], node_ids: Sequence[str]) -> np.ndarray:
    """BoltzmannModel.weight_table over node_ids of each row of weights
    (P, 2^N), stacked on a leading axis; index maps each node id to its bit.
    Beyond 2^_BLOCK_BITS words there is one row, folded by _fold."""
    n = len(index)
    bits = [index[nid] for nid in node_ids]
    summed = weights.reshape((-1,) + (2,) * n)
    if len(bits) < n and n <= _BLOCK_BITS:
        summed = summed.sum(axis=tuple(n - k for k in range(n) if k not in bits))
    elif len(bits) < n:  # one row, folded block by block
        summed = _fold(weights[0], sorted(bits)).reshape((1,) + (2,) * len(bits))
    kept = sorted(bits, reverse=True)  # the axes of summed after the first
    return summed.transpose([0, *(1 + kept.index(k) for k in bits)])


def _fold(weights: np.ndarray, kept: Sequence[int]) -> np.ndarray:
    """The weights summed onto the kept bits (ascending), as one array in
    word order over those bits.

    Each block of 2^_BLOCK_BITS words is folded onto its kept cells by
    summing its dropped bits out highest first: each step adds the two
    halves of one bit, runs of 2^bit contiguous words, through two buffers
    per share. The block tables are then combined by a fixed pairwise tree
    over the block index, lowest bit first, as a binary counter would:
    tables that differ in a dropped bit are added, and tables that differ
    in a kept bit are placed side by side. So every cell is a balanced
    tree of additions over its terms, and the relative error does not grow
    like 2^N. The blocks are split into shares (see _each) at a level of
    that tree, so the additions, and the table, are the same at any share
    count.
    """
    width = _BLOCK_BITS
    blocks = weights.reshape(-1, 1 << width)
    drop = [b for b in range(width - 1, -1, -1) if b not in kept]
    high = {b - width for b in kept if b >= width}
    levels = (len(blocks) - 1).bit_length()
    cut = min((_shares(len(blocks)) - 1).bit_length(), levels)
    inner = levels - cut  # tree levels within one share's subtree
    shares = _shares(1 << cut)

    def fold(q: int, bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        a = blocks[q]
        for i, b in enumerate(drop):
            v = a.reshape(-1, 2, 1 << b)
            last = i == len(drop) - 1  # the table outlives the buffers
            out = None if last else bufs[i & 1][: a.size >> 1].reshape(len(v), -1)
            a = np.add(v[:, 0], v[:, 1], out=out).reshape(-1)
        return a

    # made on the calling thread: what a pool thread allocates stays with its
    # malloc arena after it is freed
    buffers = [
        (np.empty(1 << (width - 1)), np.empty(1 << max(width - 2, 0))) for _ in range(shares)
    ]

    def subtrees(k: int) -> list[np.ndarray]:
        bufs = buffers[k]
        return [
            _pairwise((fold(q, bufs) for q in range(s << inner, (s + 1) << inner)), 0, high)
            for s in _share(1 << cut, shares, k)
        ]

    return _pairwise((t for part in _each(subtrees, shares) for t in part), inner, high)


def _pairwise(tables: Iterable[np.ndarray], level: int, high: set[int]) -> np.ndarray:
    """Combine 2^k consecutive tables, the leaves of the subtrees at the
    given level of the block index, pair by pair like a binary counter:
    at a bit in high the pair is placed side by side (the second above),
    at any other bit the two are added."""
    stack: list[tuple[int, np.ndarray]] = []
    for table in tables:
        at = level
        while stack and stack[-1][0] == at:
            prev = stack.pop()[1]
            table = np.concatenate((prev, table)) if at in high else prev + table
            at += 1
        stack.append((at, table))
    ((_, table),) = stack
    return table


class _Family:
    """Energies linear in G coefficients over every configuration of one
    lattice, enumerated once: E(v) = rest + sum_g v_g * columns[g].

    rest holds the lattice's energies with every field and coupling that a
    group owns set to 0, and columns[g] the energies of group g's targets at
    coefficient 1 with everything else 0 (8 * (G + 1) * 2^N bytes). A point
    therefore agrees with a fresh build of its lattice to rounding, not bit
    for bit. The lattice (roles, node order, beta) is the one the models of
    every point carry, whatever their fields and couplings.

    point builds one point's weights; weights builds a batch of points as
    rows of one array, each row with point's operations in point's order,
    so every row is bit-identical to point's weights. A batch holds at most
    rows points: 2^_BLOCK_BITS words in all, and at least one row.
    """

    __slots__ = ("lattice", "rest", "columns", "rows")

    def __init__(
        self,
        lattice: Lattice,
        fields: Mapping[str, int],
        couplings: Mapping[frozenset, int],
        groups: int,
    ) -> None:
        """fields and couplings map each owned node id and edge key to the
        group that sets it."""
        rest = lattice.with_fields(dict.fromkeys(fields, 0.0))
        rest = rest.with_couplings(dict.fromkeys(couplings, 0.0))
        _check_cap(rest.n, groups)
        columns = np.empty((groups, 1 << rest.n))
        for g in range(groups):
            nodes = [dataclasses.replace(n, h=float(fields.get(n.id) == g)) for n in rest.nodes]
            edges = [dataclasses.replace(e, j=float(couplings.get(e.key()) == g)) for e in rest.edges]
            columns[g] = _energies(Lattice(nodes, edges))
        with np.errstate(over="ignore", invalid="ignore"):
            energies = _energies(rest)
        energies.flags.writeable = columns.flags.writeable = False
        self.lattice, self.rest, self.columns = lattice, energies, columns
        self.rows = max((1 << _BLOCK_BITS) >> rest.n, 1)

    def point(self, values: Sequence[float]) -> tuple[np.ndarray, float]:
        """Stabilized weights and shift at one point: the rest energies
        copied, v * column added per group in order, then _stabilize."""
        with np.errstate(over="ignore", invalid="ignore"):
            energies = self.rest.copy()
            for v, column in zip(values, self.columns):
                energies += v * column
        return _stabilize(energies, self.lattice.beta)

    def weights(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stabilized weights (P, 2^N) and shifts (P,) at P <= rows points
        (P, G), each row bit-identical to point's. A row whose minimum energy
        is not finite, where point raises NumericRangeError, has shift NaN
        and weights that mean nothing."""
        energies = np.empty((len(points), self.rest.size))
        term = np.empty_like(energies)
        with np.errstate(over="ignore", invalid="ignore"):
            energies[:] = self.rest
            for v, column in zip(points.T, self.columns):
                np.multiply(v[:, None], column, out=term)
                energies += term
            low = energies.min(axis=1)
            shifts = np.where(np.isfinite(low), low, np.nan)
        if self.rest.size <= 1 << _BLOCK_BITS:
            _stabilize(energies, self.lattice.beta, low[:, None])
        elif not np.isnan(shifts[0]):  # one row, in blocks
            _stabilize(energies[0], self.lattice.beta, float(low[0]))
        return energies, shifts


def _check_cap(n: int, rows: int = 1) -> None:
    """Refuse to enumerate n spins beyond the cap, or into an array of rows
    times 2^n doubles that cannot be addressed (see build_model)."""
    limit = enumeration_cap()
    if n > limit:
        raise EnumerationLimitError(
            f"lattice has {n} spins; enumeration cap is {limit} (override with {ENUM_CAP_ENV})"
        )
    if rows * 8 << n > np.iinfo(np.intp).max:
        raise EnumerationLimitError(
            f"lattice has {n} spins: {rows} x 2^{n} doubles need {rows * 8 << n} bytes, "
            "which cannot be addressed"
        )


def build_model(lattice: Lattice) -> BoltzmannModel:
    """Enumerate the full ensemble for a lattice.

    The number of spins is capped (SPINBELL_ENUM_CAP, default 24); beyond the
    cap the 2^N table would not fit and EnumerationLimitError is raised.
    """
    _check_cap(lattice.n)
    weights, shift = _weights(lattice)
    return BoltzmannModel(lattice, weights, shift)
