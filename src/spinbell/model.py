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

import math
import os
import threading
from collections.abc import Callable, Mapping, Sequence
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
from .lattice import Lattice, Spin, _check_config
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

# The passes over more than one block (energies, weights, the independence
# reader) split their blocks into one share per usable core, at most
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


def _terms(lattice: Lattice) -> list[tuple[float, tuple[int, ...]]]:
    """(coefficient, bits) of every nonzero term, each to be subtracted, in
    the order of lattice.energy: fields, edges, triples. A triple's
    coefficient is negated, and e - (-c)*p equals e + c*p exactly."""
    index = lattice.index
    terms = [(node.h, (k,)) for k, node in enumerate(lattice.nodes) if node.h != 0.0]
    terms += [(e.j, (index[e.a], index[e.b])) for e in lattice.edges if e.j != 0.0]
    terms += [(-t.c, tuple(index[i] for i in t.nodes)) for t in lattice.cubic if t.c != 0.0]
    return terms


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

    Each term is subtracted in place onto the (2,)*N tensor (node k on axis
    N-1-k) as a factor that spans only the term's own axes, in the order of
    lattice.energy: offset, fields, edges, triples. Every factor entry is
    exactly +-coefficient, so the result equals lattice.energy bit for bit.
    A configuration and its global flip receive the same +-j from every
    edge, in the same order, so without fields or triples their energies
    are bit-identical.

    Beyond 2^_BLOCK_BITS words the tensor is filled one block at a time.
    Within a block the nodes at bit >= _BLOCK_BITS are fixed, so a term's
    factor spans only its block nodes and its sign is the parity of its
    fixed nodes at spin -1; a term on fixed nodes alone is a scalar. The
    terms before the first one that touches a fixed node are the same in
    every block and are built once. Every word still receives the same
    +-coefficient operands in the same order, and the blocks are split
    into shares (see _each).
    """
    n = lattice.n
    width = min(n, _BLOCK_BITS)
    terms = _terms(lattice)
    split = len(terms)
    if width < n:
        split = next((i for i, (_, bits) in enumerate(terms) if max(bits) >= width), split)
    if out is None or width < n:
        start = np.full((2,) * width, float(lattice.offset))
    else:
        start = out.reshape((2,) * width)
        start.fill(lattice.offset)
    for coef, bits in terms[:split]:
        # _factor inlined: up to 16 spins this loop is the whole build, and
        # searches and the CLI make thousands of those
        shape = [1] * width
        for k in bits:
            shape[width - 1 - k] = 2
        start -= coef * _PATTERNS[len(bits) - 1].reshape(shape)
    if width == n:
        return start.reshape(-1)

    dense = min(_DENSE_BITS, width)
    rest = []
    for coef, bits in terms[split:]:
        inner = [k for k in bits if k < width]
        fixed = sum(1 << (k - width) for k in bits if k >= width)
        if not inner:
            f = coef
        else:
            f = _factor(coef, inner, width)
            if min(inner) < dense:
                shape = f.shape[: width - dense] + (2,) * dense
                f = np.ascontiguousarray(np.broadcast_to(f, shape))
        rest.append((f, -f, fixed))
    e = np.empty(1 << n) if out is None else out
    blocks = e.reshape((-1,) + start.shape)
    shares = _shares(len(blocks))

    def fill(k: int) -> None:
        for q in _share(len(blocks), shares, k):
            block = blocks[q]
            np.copyto(block, start)
            for f, neg, fixed in rest:
                # an odd count of fixed nodes at spin -1 (bit 0) flips the sign
                block -= neg if (fixed & ~q).bit_count() & 1 else f

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
    energies: np.ndarray, beta: float, shift: float | None = None
) -> tuple[np.ndarray, float]:
    """Turn energies into stabilized weights exp(-beta * (E - shift)) in
    place, and return them with the shift used. The shift defaults to the
    energy minimum, which must be finite: NaN or -inf there means some
    energy left the double range.

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


def _check_shift(shift: float) -> float:
    if not math.isfinite(shift):
        raise NumericRangeError(
            f"energies leave the double range (minimum energy is {shift}); "
            "reduce the couplings, fields or offset"
        )
    return shift


class BoltzmannModel:
    """Exact distribution P(s) = exp(-beta H(s)) / Z over one lattice.

    The stabilized weight vector is exposed read-only; its reshape to a
    (2,)*N tensor maps the node at declaration position k to tensor axis
    N-1-k (numpy C order puts the most significant bit on axis 0), with
    index 1 on an axis meaning spin +1. Only this class reads that tensor:
    weight_table is the one reduction onto nodes, and weight_sum the
    single-event reference.
    """

    __slots__ = ("lattice", "weights", "shift", "z_shifted", "log_z", "_tensor", "_index")

    def __init__(self, lattice: Lattice, weights: np.ndarray, shift: float) -> None:
        self.lattice = lattice
        weights.flags.writeable = False
        self.weights = weights
        self.shift = shift
        self.z_shifted = float(weights.sum())
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
        transposed view of the weights.
        """
        if not node_ids:
            raise InvalidArgumentError("weight_table needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise InvalidArgumentError(f"repeated nodes in table request: {list(node_ids)}")
        for nid in node_ids:
            if nid not in self._index:
                raise InvalidConfigurationError(f"unknown node {nid!r} in table request")
        n = self.n
        axes = [n - 1 - self._index[nid] for nid in node_ids]
        drop = tuple(a for a in range(n) if a not in axes)
        summed = self._tensor.sum(axis=drop) if drop else self._tensor
        kept = sorted(axes)  # the axes of summed
        return summed.transpose([kept.index(a) for a in axes])

    def joint_table(self, node_ids: Sequence[str]) -> np.ndarray:
        """Exact joint distribution over the requested nodes. Same axis
        convention as weight_table."""
        w = self.weight_table(node_ids)
        total = float(w.sum())
        if total < ZERO_MEASURE:
            raise DegenerateModelError("all configurations carry zero weight")
        return w / total


def _check_cap(n: int) -> None:
    """Refuse to enumerate n spins beyond the cap (see build_model)."""
    limit = enumeration_cap()
    if n > limit:
        raise EnumerationLimitError(
            f"lattice has {n} spins; enumeration cap is {limit} (override with {ENUM_CAP_ENV})"
        )


def build_model(lattice: Lattice) -> BoltzmannModel:
    """Enumerate the full ensemble for a lattice.

    The number of spins is capped (SPINBELL_ENUM_CAP, default 24); beyond the
    cap the 2^N table would not fit and EnumerationLimitError is raised.
    """
    _check_cap(lattice.n)
    weights, shift = _weights(lattice)
    return BoltzmannModel(lattice, weights, shift)
