"""Built-in lattices and the reproduction-case registry.

Structural pins for every preset (node counts, edge counts, role placement,
coupling/field sets) plus verdict logic for pinned quantities. The registry's
pass/fail pattern is itself pinned: the homogeneous ladder case carries two
known misses, documented rather than hidden."""

import pytest

from spinbell.errors import InvalidArgumentError
from spinbell.lattice import NodeRole
from spinbell.presets import (
    BUILTIN_LATTICES,
    Quantity,
    QuantityResult,
    all_cases,
    builtin_lattice,
    canonical_ladder,
    chain_lattice,
    diagonal_pairs,
    get_case,
    grid_edge_pairs,
    grid_positions,
    second_neighbor_lattice,
    tuned_field_grid,
    tuned_ladder,
    uniform_coupling_grid,
)

ROLE_IDS = {"1": NodeRole.OUTCOME_1, "2": NodeRole.OUTCOME_2,
            "a": NodeRole.ANALYZER_A, "b": NodeRole.ANALYZER_B}


# -- grid scaffolding ---------------------------------------------------------------


def test_grid_positions_two_rows():
    assert grid_positions() == ("t0", "t1", "t2", "t3", "t4",
                                "u0", "u1", "u2", "u3", "u4")
    assert len(grid_edge_pairs()) == 13
    assert len(diagonal_pairs()) == 8


def test_builtin_registry_builds():
    for name in BUILTIN_LATTICES:
        lat = builtin_lattice(name)
        assert lat.bell_ids() == ("1", "2", "a", "b")


def test_builtin_unknown_name():
    with pytest.raises(InvalidArgumentError, match="unknown built-in"):
        builtin_lattice("nope")


# -- individual presets --------------------------------------------------------------


def test_canonical_ladder_structure():
    lat = canonical_ladder()
    assert len(lat.nodes) == 10
    assert len(lat.edges) == 13
    assert {e.j for e in lat.edges} == {1.0}
    assert all(n.h == 0.0 for n in lat.nodes)
    for nid, role in ROLE_IDS.items():
        assert lat.node(nid).role is role
    # corner placement: each role node has exactly two neighbors
    for nid in ROLE_IDS:
        assert len(lat.edges_at(nid)) == 2


def test_canonical_ladder_parameters():
    lat = canonical_ladder(j=0.25, beta=2.5)
    assert {e.j for e in lat.edges} == {0.25}
    assert lat.beta == 2.5


def test_tuned_ladder_frozen_parameter_set():
    lat = tuned_ladder()
    fields = {n.id: n.h for n in lat.nodes}
    assert fields == {"1": 3.0, "2": 3.0, "a": -1.0, "b": -1.0,
                      "3": 1.0, "4": 1.0, "5": 1.0, "6": -1.0, "7": -1.0, "8": -1.0}
    couplings = {frozenset((e.a, e.b)): e.j for e in lat.edges}
    assert couplings == {
        frozenset(p): j
        for p, j in {
            ("1", "a"): 2.0, ("2", "b"): 2.0, ("1", "3"): 2.0, ("5", "2"): 2.0,
            ("3", "6"): 1.0, ("5", "8"): 1.0, ("3", "4"): 1.0, ("4", "5"): 1.0,
            ("4", "7"): 4.0, ("6", "7"): 4.0, ("7", "8"): 4.0,
            ("a", "6"): 3.0, ("8", "b"): 3.0,
        }.items()
    }


def test_second_neighbor_structure():
    lat = second_neighbor_lattice()
    assert len(lat.edges) == 21
    edge_sets = {frozenset((e.a, e.b)) for e in lat.edges}
    # clustered roles: outcomes and analyzers form the left 2x2 block
    assert frozenset(("a", "b")) in edge_sets
    assert frozenset(("1", "2")) in edge_sets
    assert frozenset(("1", "a")) in edge_sets
    diagonals = {frozenset((e.a, e.b)) for e in lat.edges if e.j == 0.5}
    assert len(diagonals) == 8


def test_second_neighbor_parameters():
    lat = second_neighbor_lattice(j1=2.0, j2=0.25, h=0.5)
    assert {e.j for e in lat.edges} == {2.0, 0.25}
    assert {n.h for n in lat.nodes} == {0.5}


def test_interior_analyzer_grids():
    ug = uniform_coupling_grid()
    assert {e.j for e in ug.edges} == {1.4}
    assert {n.h for n in ug.nodes} == {1.0}
    # interior analyzers have three neighbors; corner outcomes two
    assert len(ug.edges_at("a")) == 3
    assert len(ug.edges_at("b")) == 3
    assert len(ug.edges_at("1")) == 2
    assert len(ug.edges_at("2")) == 2

    tf = tuned_field_grid()
    assert {e.j for e in tf.edges} == {2.0}
    assert {n.h for n in tf.nodes} == {0.4, 1.9}
    assert tf.node("1").h == 1.9
    assert tf.node("a").h == 0.4


def test_chain_lattice_structure():
    lat = chain_lattice(8)
    assert len(lat.nodes) == 10
    path = ["1", "a", "3", "4", "5", "6", "7", "8", "b", "2"]
    want = [frozenset(p) for p in zip(path, path[1:])]
    assert [frozenset((e.a, e.b)) for e in lat.edges] == want
    assert lat.hidden_ids == ("3", "4", "5", "6", "7", "8")


def test_chain_lattice_parameters():
    lat = chain_lattice(5, j=0.3, beta=2.0, h=0.1)
    assert {e.j for e in lat.edges} == {0.3}
    assert {n.h for n in lat.nodes} == {0.1}
    assert lat.beta == 2.0
    with pytest.raises(InvalidArgumentError, match="n >= 3"):
        chain_lattice(2)


# -- quantity verdicts ---------------------------------------------------------------


def _result(value, expected, tol, kind="abs", contingent=False):
    return QuantityResult(Quantity("q", expected, tol, kind, contingent), value)


def test_abs_quantity_verdicts():
    assert _result(1.001, 1.0, 0.01).verdict == "PASS"
    assert _result(1.02, 1.0, 0.01).verdict == "FAIL"
    assert _result(1.02, 1.0, 0.01, contingent=True).verdict == "CONTINGENT"


def test_min_quantity_verdicts():
    assert _result(2.1, 2.0, 0.0, kind="min").verdict == "PASS"
    assert _result(2.0, 2.0, 0.0, kind="min").verdict == "FAIL"
    assert _result(1.9, 2.0, 0.0, kind="min", contingent=True).verdict == "CONTINGENT"


def test_quantity_describe():
    assert "target > 2" in _result(2.1, 2.0, 0.0, kind="min").describe()
    text = _result(1.001, 1.0, 0.01).describe()
    assert "target 1 +/- 0.01" in text
    assert text.endswith("PASS")


# -- the case registry ---------------------------------------------------------------


def test_case_ids_unique_and_known():
    ids = [c.id for c in all_cases()]
    assert len(ids) == len(set(ids))
    assert "ladder-uniform" in ids
    assert "ladder-tuned" in ids
    assert "quantum-cosine" in ids


def test_get_case_unknown():
    with pytest.raises(InvalidArgumentError, match="unknown case"):
        get_case("nope")


def test_tuned_case_passes():
    results = get_case("ladder-tuned").run()
    assert [r.verdict for r in results] == ["PASS", "PASS"]


def test_uniform_ladder_case_documented_misses():
    """The registry keeps the rounding windows (quoted value +/- half a unit
    in its last digit), under which two of the four ladder values show as
    FAIL at their exact enumeration values. The acceptance gate reads the
    same quoted digits as truncated and passes all four (criteria 1a-1d in
    test_acceptance.py); until the registry moves to that reading, the two
    misses must stay visible here."""
    results = {r.label: r for r in get_case("ladder-uniform").run()}
    assert results["P(+,+|+,+)"].verdict == "FAIL"
    assert results["P(+,+|+,+)"].value == pytest.approx(0.9563261937724756, rel=1e-12)
    assert results["x_bi"].verdict == "PASS"
    assert results["P(lambda all +|+,+)"].verdict == "PASS"
    assert results["P(lambda all +|-,-)"].verdict == "FAIL"
    assert results["P(lambda all +|-,-)"].value == pytest.approx(
        0.0012593568506315005, rel=1e-12
    )


def test_remaining_cases_pass():
    for case_id in ("grid-maxima", "second-neighbor", "chain-screening",
                    "quantum-cosine", "free-will", "weak-coupling"):
        for r in get_case(case_id).run():
            assert r.passed, f"{case_id}: {r.describe()}"
