"""Lattice definitions.

A lattice is a finite collection of Ising spins (values -1/+1) on named nodes,
pair couplings on edges, optional per-node fields, optional three-spin terms,
and an inverse temperature. Four nodes may carry distinguished roles for
Bell-type analysis: two outcome spins (sigma_1, sigma_2) and two analyzer
spins (sigma_a, sigma_b); everything else is hidden.

The energy convention is

    H(s) = -sum_edges J_ij s_i s_j - sum_nodes h_i s_i
           + sum_triples c_ijk s_i s_j s_k + offset

so positive J favors alignment and positive h favors +1.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidConfigurationError, LatticeDefinitionError

__all__ = [
    "NodeRole",
    "Node",
    "Edge",
    "CubicTerm",
    "Lattice",
    "Spin",
    "energy",
]

Spin = int  # -1 or +1


class NodeRole(str, Enum):
    """Role of a node in Bell-type analysis."""

    OUTCOME_1 = "outcome1"
    OUTCOME_2 = "outcome2"
    ANALYZER_A = "analyzer_a"
    ANALYZER_B = "analyzer_b"
    HIDDEN = "hidden"

    @classmethod
    def from_label(cls, label: str) -> "NodeRole":
        try:
            return cls(label)
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise LatticeDefinitionError(
                f"unknown node role {label!r}; expected one of: {valid}"
            ) from None


#: Roles that at most one node may carry.
UNIQUE_ROLES = (
    NodeRole.OUTCOME_1,
    NodeRole.OUTCOME_2,
    NodeRole.ANALYZER_A,
    NodeRole.ANALYZER_B,
)


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    role: NodeRole = NodeRole.HIDDEN
    h: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.role, NodeRole):
            raise LatticeDefinitionError(
                f"node {self.id!r} role must be a NodeRole or its label, got {self.role!r}"
            )


@dataclass(frozen=True, slots=True)
class Edge:
    a: str
    b: str
    j: float

    def key(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


@dataclass(frozen=True, slots=True)
class CubicTerm:
    nodes: tuple[str, str, str]
    c: float


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice definition.

    Node declaration order is significant: it fixes the configuration
    encoding (node i lives at bit i) and the axis order of joint tables.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    beta: float = 1.0
    cubic: tuple[CubicTerm, ...] = ()
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "cubic", tuple(self.cubic))
        self._validate()

    def _validate(self) -> None:
        if not self.nodes:
            raise LatticeDefinitionError("lattice has no nodes")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise LatticeDefinitionError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.offset):
            raise LatticeDefinitionError(f"offset must be finite, got {self.offset}")
        for n in self.nodes:
            if not math.isfinite(n.h):
                raise LatticeDefinitionError(f"node {n.id!r} has non-finite field h = {n.h}")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise LatticeDefinitionError(f"duplicate node ids: {dupes}")
        known = set(ids)
        seen_edges: set[frozenset[str]] = set()
        for e in self.edges:
            if e.a == e.b:
                raise LatticeDefinitionError(f"edge {e.a}-{e.b} is a self loop")
            for end in (e.a, e.b):
                if end not in known:
                    raise LatticeDefinitionError(
                        f"edge {e.a}-{e.b} references unknown node {end!r}"
                    )
            if not math.isfinite(e.j):
                raise LatticeDefinitionError(f"edge {e.a}-{e.b} has non-finite coupling j = {e.j}")
            if e.key() in seen_edges:
                raise LatticeDefinitionError(f"duplicate edge {e.a}-{e.b}")
            seen_edges.add(e.key())
        for t in self.cubic:
            if len(t.nodes) != 3:
                raise LatticeDefinitionError(f"cubic term {t.nodes} needs three distinct nodes")
            if len(set(t.nodes)) != 3:
                raise LatticeDefinitionError(f"cubic term {t.nodes} repeats a node")
            if not math.isfinite(t.c):
                raise LatticeDefinitionError(
                    f"cubic term {t.nodes} has non-finite coefficient c = {t.c}"
                )
            for end in t.nodes:
                if end not in known:
                    raise LatticeDefinitionError(
                        f"cubic term {t.nodes} references unknown node {end!r}"
                    )
        for role in UNIQUE_ROLES:
            holders = [n.id for n in self.nodes if n.role is role]
            if len(holders) > 1:
                raise LatticeDefinitionError(
                    f"role {role.value} assigned to multiple nodes: {holders}"
                )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        nodes: Iterable[tuple],
        edges: Iterable[tuple[str, str, float]],
        beta: float = 1.0,
        cubic: Iterable[tuple[tuple[str, str, str], float]] = (),
        offset: float = 0.0,
    ) -> "Lattice":
        """Build a lattice from plain tuples.

        Node tuples are (id,), (id, role) or (id, role, h); the role may be a
        NodeRole or its label string. Edges are (a, b, j) and cubic entries
        (nodes, c). A malformed entry raises LatticeDefinitionError naming it.
        """
        built = []
        defaults = (NodeRole.HIDDEN, 0.0)
        for pos, item in enumerate(nodes):
            item = _entry(item, f"node entry {pos}", (1, 2, 3), "(id,), (id, role) or (id, role, h)")
            nid, role, h = item + defaults[len(item) - 1 :]
            if isinstance(role, str) and not isinstance(role, NodeRole):
                role = NodeRole.from_label(role)
            built.append(Node(str(nid), role, _number(h, f"node entry {pos} field h")))
        built_edges = []
        for pos, item in enumerate(edges):
            a, b, j = _entry(item, f"edge entry {pos}", (3,), "(a, b, j)")
            built_edges.append(Edge(str(a), str(b), _number(j, f"edge entry {pos} coupling j")))
        terms = []
        for pos, item in enumerate(cubic):
            ns, c = _entry(item, f"cubic entry {pos}", (2,), "(nodes, c)")
            ns = _entry(ns, f"cubic entry {pos} nodes", (3,), "three distinct node ids")
            terms.append(CubicTerm(tuple(map(str, ns)), _number(c, f"cubic entry {pos} coefficient c")))
        return cls(
            nodes=tuple(built),
            edges=tuple(built_edges),
            beta=float(beta),
            cubic=tuple(terms),
            offset=float(offset),
        )

    # -- lookups ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @property
    def hidden_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.role is NodeRole.HIDDEN)

    def role_id(self, role: NodeRole) -> str | None:
        for n in self.nodes:
            if n.role is role:
                return n.id
        return None

    def bell_ids(self) -> tuple[str, str, str, str]:
        """Ids of (outcome1, outcome2, analyzer_a, analyzer_b)."""
        out = []
        for role in UNIQUE_ROLES:
            nid = self.role_id(role)
            if nid is None:
                raise LatticeDefinitionError(f"lattice has no {role.value} node")
            out.append(nid)
        return tuple(out)

    def node(self, nid: str) -> Node:
        for n in self.nodes:
            if n.id == nid:
                return n
        raise InvalidConfigurationError(f"unknown node {nid!r}")

    def edges_at(self, nid: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if nid in (e.a, e.b))

    # -- derived lattices --------------------------------------------------------

    def with_fields(self, fields: Mapping[str, float]) -> "Lattice":
        """New lattice with the given nodes' fields replaced."""
        unknown = set(fields) - set(self.node_ids)
        if unknown:
            raise InvalidConfigurationError(f"unknown nodes in field update: {sorted(unknown)}")
        nodes = tuple(
            dataclasses.replace(n, h=float(fields[n.id])) if n.id in fields else n
            for n in self.nodes
        )
        return dataclasses.replace(self, nodes=nodes)

    def with_couplings(self, couplings: Mapping[frozenset[str], float]) -> "Lattice":
        """New lattice with the given edges' couplings replaced (keys are
        frozensets of the two endpoint ids)."""
        present = {e.key() for e in self.edges}
        unknown = set(couplings) - present
        if unknown:
            raise InvalidConfigurationError(
                f"unknown edges in coupling update: {sorted(tuple(sorted(k)) for k in unknown)}"
            )
        edges = tuple(
            dataclasses.replace(e, j=float(couplings[e.key()])) if e.key() in couplings else e
            for e in self.edges
        )
        return dataclasses.replace(self, edges=edges)

    def with_scaled_edges(self, keys: Iterable[frozenset[str]], factor: float) -> "Lattice":
        """New lattice with the selected edges' couplings multiplied by factor."""
        keyset = set(keys)
        return self.with_couplings({e.key(): e.j * factor for e in self.edges if e.key() in keyset})


def _entry(item: object, name: str, sizes: tuple[int, ...], expected: str) -> tuple:
    """A from_parts entry as a tuple of one of the allowed sizes."""
    try:
        fields = tuple(item)
    except TypeError:
        raise LatticeDefinitionError(f"{name} is {item!r}; expected {expected}") from None
    if len(fields) not in sizes:
        raise LatticeDefinitionError(f"{name} has {len(fields)} fields; expected {expected}")
    return fields


def _number(value: object, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise LatticeDefinitionError(f"{name} is {value!r}; expected a finite number") from None


def _check_config(lattice: Lattice, config: Mapping[str, Spin], require_full: bool) -> None:
    known = set(lattice.node_ids)
    for nid, s in config.items():
        if nid not in known:
            raise InvalidConfigurationError(f"unknown node {nid!r} in configuration")
        if s not in (-1, 1):
            raise InvalidConfigurationError(f"node {nid!r} has spin {s!r}; expected -1 or +1")
    if require_full and len(config) != lattice.n:
        missing = sorted(known - set(config))
        raise InvalidConfigurationError(f"configuration misses nodes: {missing}")


#: Up to this many spins the terms of H are added in declaration order;
#: past it, by their highest node (see _terms).
_DECLARED_ORDER_SPINS = 16


def _terms(lattice: Lattice) -> list[tuple[float, tuple[int, ...]]]:
    """(coefficient, nodes) of every term of H, by node position, in the
    order energy applies them: each is subtracted as the coefficient times
    the spin product of its nodes. A triple's coefficient is negated, and
    e - (-c)*p equals e + c*p exactly.

    Up to _DECLARED_ORDER_SPINS spins the order is declaration order:
    fields, edges, triples. Past it, terms are sorted by their highest node
    position, in declaration order among ties, so the terms on the low
    nodes come first (an exact enumeration builds them once for many
    blocks of words). The order depends on the number of spins alone.
    """
    index = lattice.index
    terms = [(node.h, (k,)) for k, node in enumerate(lattice.nodes)]
    terms += [(e.j, (index[e.a], index[e.b])) for e in lattice.edges]
    terms += [(-t.c, tuple(index[i] for i in t.nodes)) for t in lattice.cubic]
    if lattice.n > _DECLARED_ORDER_SPINS:
        terms.sort(key=lambda term: max(term[1]))
    return terms


def energy(lattice: Lattice, config: Mapping[str, Spin]) -> float:
    """H(s) for one full configuration (plain float arithmetic): the
    offset, then every term in the order of _terms."""
    _check_config(lattice, config, require_full=True)
    spins = [config[nid] for nid in lattice.node_ids]
    e = lattice.offset
    for coef, nodes in _terms(lattice):
        p = 1
        for k in nodes:
            p *= spins[k]
        e -= coef * p
    return e
