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
from collections.abc import Mapping, Sequence

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
from ._format import fmt_assignment

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
# by bit (index 1 means spin +1). Each term's factor is one of these patterns
# times its coefficient, so every entry is exactly +-coefficient.
_FIELD = np.array([-1.0, 1.0])
_PAIR = np.multiply.outer(_FIELD, _FIELD)
_TRIPLE = np.multiply.outer(_PAIR, _FIELD)


def _energies(lattice: Lattice) -> np.ndarray:
    """Energy of every configuration, indexed by integer word.

    Each term is added in place onto the (2,)*N tensor (node k on axis
    N-1-k) as a factor that spans only the term's own axes, in the order of
    lattice.energy: offset, fields, edges, triples. Every factor entry is
    exactly +-coefficient, so the result equals lattice.energy bit for bit.
    A configuration and its global flip receive the same +-j from every
    edge, in the same order, so without fields or triples their energies
    are bit-identical.
    """
    n = lattice.n
    index = lattice.index
    e = np.full((2,) * n, float(lattice.offset))

    def term_shape(*ids: str) -> list[int]:
        shape = [1] * n
        for nid in ids:
            shape[n - 1 - index[nid]] = 2
        return shape

    # the patterns are symmetric, so axis order within a term does not matter
    for node in lattice.nodes:
        if node.h != 0.0:
            e -= node.h * _FIELD.reshape(term_shape(node.id))
    for edge in lattice.edges:
        if edge.j != 0.0:
            e -= edge.j * _PAIR.reshape(term_shape(edge.a, edge.b))
    for term in lattice.cubic:
        if term.c != 0.0:
            e += term.c * _TRIPLE.reshape(term_shape(*term.nodes))
    return e.reshape(-1)


def _weights(lattice: Lattice, shift: float | None = None) -> tuple[np.ndarray, float]:
    """Stabilized weights of a lattice, built in one 2^N array, and the
    shift used (see _stabilize)."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _energies(lattice)
    return _stabilize(energies, lattice.beta, shift)


def _stabilize(
    energies: np.ndarray, beta: float, shift: float | None = None
) -> tuple[np.ndarray, float]:
    """Turn energies into stabilized weights exp(-beta * (E - shift)) in
    place, and return them with the shift used. The shift defaults to the
    energy minimum, which must be finite: NaN or -inf there means some
    energy left the double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if shift is None:
            shift = float(energies.min())
            if not math.isfinite(shift):
                raise NumericRangeError(
                    f"energies leave the double range (minimum energy is {shift}); "
                    "reduce the couplings, fields or offset"
                )
        np.subtract(energies, shift, out=energies)
        np.multiply(energies, -beta, out=energies)
        return np.exp(energies, out=energies), shift


class BoltzmannModel:
    """Exact distribution P(s) = exp(-beta H(s)) / Z over one lattice.

    The stabilized weight vector is exposed read-only; its reshape to a
    (2,)*N tensor maps the node at declaration position k to tensor axis
    N-1-k (numpy C order puts the most significant bit on axis 0), with
    index 1 on an axis meaning spin +1.
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
        return {nid: (1 if (word >> k) & 1 else -1) for nid, k in self._index.items()}

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
            sel[n - 1 - self._index[nid]] = 1 if s == 1 else 0
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

    def weight_table(
        self,
        node_ids: Sequence[str],
        given: Mapping[str, Spin] | None = None,
    ) -> np.ndarray:
        """Stabilized weights summed onto the requested nodes.

        Axis j of the result belongs to node_ids[j]; index 1 means spin +1.
        The table is unnormalized (divide by its sum for a distribution).
        """
        if not node_ids:
            raise InvalidArgumentError("weight_table needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise InvalidArgumentError(f"repeated nodes in table request: {list(node_ids)}")
        given = dict(given or {})
        overlap = set(node_ids) & set(given)
        if overlap:
            raise InvalidConfigurationError(
                f"table nodes and condition overlap on nodes: {sorted(overlap)}"
            )
        for nid in node_ids:
            if nid not in self._index:
                raise InvalidConfigurationError(f"unknown node {nid!r} in table request")
        _check_config(self.lattice, given, require_full=False)

        n = self.n
        sel: list = [slice(None)] * n
        for nid, s in given.items():
            sel[n - 1 - self._index[nid]] = 1 if s == 1 else 0
        sub = self._tensor[tuple(sel)]
        # axes of sub: surviving nodes in descending declaration order
        ids = self.lattice.node_ids
        surviving = [k for k in range(n - 1, -1, -1) if ids[k] not in given]
        wanted = {self._index[nid] for nid in node_ids}
        drop = tuple(pos for pos, k in enumerate(surviving) if k not in wanted)
        summed = sub.sum(axis=drop) if drop else sub
        kept = [k for k in surviving if k in wanted]
        perm = tuple(kept.index(self._index[nid]) for nid in node_ids)
        return summed.transpose(perm)

    def joint_table(
        self,
        node_ids: Sequence[str],
        given: Mapping[str, Spin] | None = None,
    ) -> np.ndarray:
        """Exact joint distribution over the requested nodes, optionally
        conditioned. Same axis convention as weight_table."""
        w = self.weight_table(node_ids, given)
        total = float(w.sum())
        if total < ZERO_MEASURE:
            if given:
                raise ZeroMeasureConditionError(
                    f"conditioning event {fmt_assignment(dict(given))} has weight {total!r}"
                )
            raise DegenerateModelError("all configurations carry zero weight")
        return w / total


def _check_cap(n: int, cap: int | None = None) -> None:
    """Refuse to enumerate n spins beyond the cap (see build_model)."""
    limit = enumeration_cap() if cap is None else int(cap)
    if n > limit:
        raise EnumerationLimitError(
            f"lattice has {n} spins; enumeration cap is {limit} "
            f"(override with {ENUM_CAP_ENV} or the cap argument)"
        )


def build_model(lattice: Lattice, cap: int | None = None) -> BoltzmannModel:
    """Enumerate the full ensemble for a lattice.

    cap limits the number of spins (default from SPINBELL_ENUM_CAP or 24);
    beyond it the 2^N table would not fit and EnumerationLimitError is raised.
    """
    _check_cap(lattice.n, cap)
    weights, shift = _weights(lattice)
    return BoltzmannModel(lattice, weights, shift)
