"""Lattice construction, validation, derived-lattice helpers, and the plain
energy function."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbell.errors import InvalidConfigurationError, LatticeDefinitionError
from spinbell.lattice import CubicTerm, Edge, Lattice, Node, NodeRole, energy


def tiny():
    return Lattice.from_parts(
        nodes=[
            ("1", "outcome1", 0.5),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
            ("3",),
        ],
        edges=[("1", "a", 1.0), ("a", "3", 0.5), ("3", "b", 0.5), ("b", "2", 1.0)],
    )


# -- validation ----------------------------------------------------------------


def test_requires_nodes():
    with pytest.raises(LatticeDefinitionError, match="no nodes"):
        Lattice(nodes=(), edges=())


def test_rejects_nonpositive_beta():
    with pytest.raises(LatticeDefinitionError, match="beta"):
        Lattice(nodes=(Node("x"),), edges=(), beta=0.0)


_BAD = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
def test_rejects_non_finite_field_naming_node(bad):
    with pytest.raises(LatticeDefinitionError, match="node '1' has non-finite field"):
        Lattice.from_parts([("1", "outcome1", bad)], [])


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
def test_rejects_non_finite_coupling_naming_edge(bad):
    with pytest.raises(LatticeDefinitionError, match="edge x-y has non-finite coupling"):
        Lattice.from_parts([("x",), ("y",)], [("x", "y", bad)])


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
def test_rejects_non_finite_cubic_naming_term(bad):
    with pytest.raises(LatticeDefinitionError, match=r"cubic term \('x', 'y', 'z'\) has non-finite"):
        Lattice.from_parts([("x",), ("y",), ("z",)], [], cubic=[(("x", "y", "z"), bad)])


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
def test_rejects_non_finite_offset(bad):
    with pytest.raises(LatticeDefinitionError, match="offset must be finite"):
        Lattice.from_parts([("x",)], [], offset=bad)


@pytest.mark.parametrize("bad", (math.nan, math.inf), ids=["nan", "inf"])
def test_rejects_non_finite_beta(bad):
    with pytest.raises(LatticeDefinitionError, match="beta must be positive and finite"):
        Lattice.from_parts([("x",)], [], beta=bad)


def test_rejects_duplicate_node_ids():
    with pytest.raises(LatticeDefinitionError, match="duplicate node"):
        Lattice(nodes=(Node("x"), Node("x")), edges=())


def test_rejects_self_loop():
    with pytest.raises(LatticeDefinitionError, match="self loop"):
        Lattice(nodes=(Node("x"), Node("y")), edges=(Edge("x", "x", 1.0),))


def test_rejects_unknown_edge_endpoint():
    with pytest.raises(LatticeDefinitionError, match="unknown"):
        Lattice(nodes=(Node("x"),), edges=(Edge("x", "ghost", 1.0),))


def test_rejects_duplicate_edge_either_order():
    with pytest.raises(LatticeDefinitionError, match="duplicate edge"):
        Lattice(
            nodes=(Node("x"), Node("y")),
            edges=(Edge("x", "y", 1.0), Edge("y", "x", 2.0)),
        )


def test_rejects_cubic_with_repeated_node():
    with pytest.raises(LatticeDefinitionError, match="repeats"):
        Lattice(
            nodes=(Node("x"), Node("y")),
            edges=(),
            cubic=(CubicTerm(("x", "y", "x"), 0.1),),
        )


def test_rejects_duplicate_role():
    with pytest.raises(LatticeDefinitionError, match="multiple nodes"):
        Lattice.from_parts(
            nodes=[("p", "outcome1"), ("q", "outcome1")], edges=[]
        )


def test_rejects_non_role_value():
    with pytest.raises(LatticeDefinitionError, match="role"):
        Node("x", role=0.5)


def test_role_label_round_trip():
    for role in NodeRole:
        assert NodeRole.from_label(role.value) is role
    with pytest.raises(LatticeDefinitionError, match="unknown node role"):
        NodeRole.from_label("wizard")


def test_from_parts_padding():
    lat = tiny()
    assert lat.node("1").h == 0.5
    assert lat.node("2").h == 0.0
    assert lat.node("2").role is NodeRole.OUTCOME_2
    assert lat.node("3").role is NodeRole.HIDDEN


@pytest.mark.parametrize("entry", [(), ("x", "hidden", 0.0, 1.0)], ids=["empty", "four"])
def test_from_parts_rejects_bad_node_tuple(entry):
    nodes = [("y",), entry]
    with pytest.raises(LatticeDefinitionError, match=f"node entry 1 has {len(entry)} fields"):
        Lattice.from_parts(nodes, [])


_ABC = [("a",), ("b",), ("c",)]


@pytest.mark.parametrize(
    "parts, message",
    [
        (([5], []), r"node entry 0 is 5; expected \(id,\), \(id, role\) or \(id, role, h\)"),
        (([("a", "hidden", "x")], []), "node entry 0 field h is 'x'; expected a finite number"),
        (([("a", "hidden", 10**400)], []), "node entry 0 field h is 1000.*; expected a finite number"),
        ((_ABC, [("a",)]), r"edge entry 0 has 1 fields; expected \(a, b, j\)"),
        ((_ABC, [("a", "b", 1.0), 5]), r"edge entry 1 is 5; expected \(a, b, j\)"),
        ((_ABC, [("a", "b", None)]), "edge entry 0 coupling j is None; expected a finite number"),
        ((_ABC, [], 1.0, [5]), r"cubic entry 0 is 5; expected \(nodes, c\)"),
        ((_ABC, [], 1.0, [(("a", "b", "c"),)]), r"cubic entry 0 has 1 fields; expected \(nodes, c\)"),
        ((_ABC, [], 1.0, [(("a", "b"), 1.0)]), "cubic entry 0 nodes has 2 fields; expected three distinct node ids"),
        ((_ABC, [], 1.0, [(7, 1.0)]), "cubic entry 0 nodes is 7; expected three distinct node ids"),
        ((_ABC, [], 1.0, [(("a", "b", "c"), "x")]), "cubic entry 0 coefficient c is 'x'; expected a finite number"),
    ],
    ids=["node-int", "node-h-str", "node-h-huge", "edge-short", "edge-int", "edge-j-none",
         "cubic-int", "cubic-short", "cubic-two-nodes", "cubic-nodes-int", "cubic-c-str"],
)
def test_from_parts_names_the_malformed_entry(parts, message):
    with pytest.raises(LatticeDefinitionError, match=message):
        Lattice.from_parts(*parts)


def test_rejects_cubic_term_without_three_nodes():
    with pytest.raises(LatticeDefinitionError, match=r"cubic term \('x', 'y'\) needs three distinct nodes"):
        Lattice(nodes=(Node("x"), Node("y")), edges=(), cubic=(CubicTerm(("x", "y"), 0.1),))


# -- lookups -------------------------------------------------------------------


def test_bell_ids_order():
    assert tiny().bell_ids() == ("1", "2", "a", "b")


def test_bell_ids_missing_role():
    lat = Lattice.from_parts(nodes=[("x",), ("y",)], edges=[])
    with pytest.raises(LatticeDefinitionError, match="outcome1"):
        lat.bell_ids()


def test_hidden_ids_follow_declaration_order():
    lat = Lattice.from_parts(
        nodes=[("z",), ("1", "outcome1"), ("q",)], edges=[]
    )
    assert lat.hidden_ids == ("z", "q")


def test_edges_at():
    lat = tiny()
    assert {e.key() for e in lat.edges_at("a")} == {
        frozenset(("1", "a")),
        frozenset(("a", "3")),
    }


# -- derived lattices ------------------------------------------------------------


def test_with_fields_replaces_only_named():
    lat = tiny().with_fields({"2": -2.0})
    assert lat.node("2").h == -2.0
    assert lat.node("1").h == 0.5
    with pytest.raises(InvalidConfigurationError, match="unknown nodes"):
        tiny().with_fields({"ghost": 1.0})


def test_with_couplings_by_key():
    key = frozenset(("a", "3"))
    lat = tiny().with_couplings({key: 9.0})
    (edge,) = [e for e in lat.edges if e.key() == key]
    assert edge.j == 9.0
    with pytest.raises(InvalidConfigurationError, match="unknown edges"):
        tiny().with_couplings({frozenset(("1", "2")): 1.0})


def test_with_scaled_edges():
    keys = [frozenset(("1", "a")), frozenset(("b", "2"))]
    lat = tiny().with_scaled_edges(keys, 0.25)
    assert [e.j for e in lat.edges] == [0.25, 0.5, 0.5, 0.25]


# -- energy ----------------------------------------------------------------------


def test_energy_by_hand():
    lat = Lattice.from_parts(
        nodes=[("x", "hidden", 0.3), ("y",)],
        edges=[("x", "y", 2.0)],
        cubic=[],
        offset=1.5,
    )
    # H = -2 sx sy - 0.3 sx + 1.5
    assert energy(lat, {"x": 1, "y": 1}) == pytest.approx(-2.0 - 0.3 + 1.5)
    assert energy(lat, {"x": -1, "y": 1}) == pytest.approx(2.0 + 0.3 + 1.5)


def test_energy_cubic_term_sign():
    lat = Lattice.from_parts(
        nodes=[("x",), ("y",), ("z",)],
        edges=[],
        cubic=[(("x", "y", "z"), 0.7)],
    )
    assert energy(lat, {"x": 1, "y": 1, "z": 1}) == pytest.approx(0.7)
    assert energy(lat, {"x": 1, "y": -1, "z": 1}) == pytest.approx(-0.7)


def test_energy_requires_full_configuration():
    with pytest.raises(InvalidConfigurationError, match="misses"):
        energy(tiny(), {"1": 1})
    with pytest.raises(InvalidConfigurationError, match="spin"):
        energy(tiny(), {"1": 2, "2": 1, "a": 1, "b": 1, "3": 1})


@given(
    js=st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
    spins=st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
)
def test_energy_flip_symmetry_without_fields(js, spins):
    """With h = 0 and no cubic terms, H(s) == H(-s) exactly."""
    lat = Lattice.from_parts(
        nodes=[("p",), ("q",), ("r",), ("s",)],
        edges=[("p", "q", js[0]), ("q", "r", js[1]), ("r", "s", js[2])],
    )
    ids = ("p", "q", "r", "s")
    up = dict(zip(ids, spins))
    down = {k: -v for k, v in up.items()}
    assert energy(lat, up) == energy(lat, down)


def test_equality_and_immutability():
    assert tiny() == tiny()
    with pytest.raises(AttributeError):
        tiny().beta = 2.0
