"""Metamorphic identities of the reduction onto nodes.

Each identity relates two lattices whose weights are summed in different
orders, so agreement does not follow from sharing one summation order:

- permuting the node declaration order moves every node to another bit;
- a gauge flip of a hidden node (negate h on it, and J and c on every term
  that contains it) relabels lambda;
- summing lambda onto a proper subset of the hidden nodes cannot raise md;
- a gauge flip of outcome 1 negates every correlator, and one of analyzer a
  swaps the settings a and a';
- a disjoint component leaves the table and the measures as they are, and
  adds its own log Z;
- (beta, J, h, c) -> (1, beta J, beta h, beta c) leaves the distribution as
  it is.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbell.bell import ChshReport, chsh, conditional_table
from spinbell.independence import independence_report, measurement_dependence
from spinbell.lattice import Lattice
from spinbell.model import build_model

from conftest import RANDOM_STYLES, random_bell_lattice

_TOL = 1e-13

lattices = st.builds(
    lambda seed, style: random_bell_lattice(np.random.default_rng(seed), style),
    st.integers(0, 2**32 - 1),
    st.sampled_from(RANDOM_STYLES),
)


def _measures(lattice: Lattice) -> tuple[np.ndarray, float, float, float]:
    model = build_model(lattice)
    report = independence_report(model)
    return conditional_table(model).values, report.md, report.od, report.pd


def _assert_same(one: tuple, other: tuple) -> None:
    assert np.abs(one[0] - other[0]).max() <= _TOL
    for a, b in zip(one[1:], other[1:]):
        assert abs(a - b) <= _TOL


@given(lattices, st.randoms(use_true_random=False))
def test_node_order_leaves_table_and_measures(lattice, random):
    nodes = list(lattice.nodes)
    random.shuffle(nodes)
    permuted = dataclasses.replace(lattice, nodes=tuple(nodes))
    _assert_same(_measures(lattice), _measures(permuted))


@given(lattices, st.data())
def test_hidden_gauge_flip_leaves_table_and_measures(lattice, data):
    nid = data.draw(st.sampled_from(lattice.hidden_ids))
    flipped = dataclasses.replace(
        lattice,
        nodes=tuple(dataclasses.replace(n, h=-n.h) if n.id == nid else n for n in lattice.nodes),
        edges=tuple(dataclasses.replace(e, j=-e.j) if nid in e.key() else e for e in lattice.edges),
        cubic=tuple(dataclasses.replace(t, c=-t.c) if nid in t.nodes else t for t in lattice.cubic),
    )
    _assert_same(_measures(lattice), _measures(flipped))


@given(lattices, st.data())
def test_coarser_lambda_does_not_raise_md(lattice, data):
    hidden = lattice.hidden_ids
    size = data.draw(st.integers(1, len(hidden) - 1))
    subset = data.draw(st.permutations(hidden))[:size]
    model = build_model(lattice)
    assert measurement_dependence(model, subset)[0] <= measurement_dependence(model)[0] + _TOL


def _gauge_flip(lattice: Lattice, nid: str) -> Lattice:
    """Negate h on nid, and J and c on every term that contains it: the
    energy of every configuration moves, exactly, to its image with nid's
    spin flipped."""
    return dataclasses.replace(
        lattice,
        nodes=tuple(dataclasses.replace(n, h=-n.h) if n.id == nid else n for n in lattice.nodes),
        edges=tuple(dataclasses.replace(e, j=-e.j) if nid in e.key() else e for e in lattice.edges),
        cubic=tuple(dataclasses.replace(t, c=-t.c) if nid in t.nodes else t for t in lattice.cubic),
    )


def _chsh(lattice: Lattice) -> ChshReport:
    return chsh(conditional_table(build_model(lattice)))


@given(lattices)
def test_outcome_flip_negates_every_correlator(lattice):
    """At 1e-14 absolute (the largest gap seen is 9e-16): each correlator
    adds the same four cells of its column in another order, and every
    value lies in [-4, 4]."""
    one, flipped = _chsh(lattice), _chsh(_gauge_flip(lattice, lattice.bell_ids()[0]))
    for name in ("m_ab", "m_apb", "m_abp", "m_apbp", "x_bi"):
        assert abs(getattr(one, name) + getattr(flipped, name)) <= 1e-14
    assert abs(one.x_max_abs - flipped.x_max_abs) <= 1e-14


@given(lattices)
def test_analyzer_flip_swaps_the_settings(lattice):
    """==: the flipped weights are the same words with a's bit flipped, so
    each setting column of the table, and its correlator, moves whole."""
    one, flipped = _chsh(lattice), _chsh(_gauge_flip(lattice, lattice.bell_ids()[2]))
    assert (one.m_ab, one.m_apb, one.m_abp, one.m_apbp) == (
        flipped.m_apb, flipped.m_ab, flipped.m_apbp, flipped.m_abp
    )


@given(lattices, st.integers(1, 4), st.randoms(use_true_random=False))
def test_disjoint_component_leaves_tables_and_adds_its_log_z(lattice, size, random):
    """A hidden chain of 1 to 4 spins with no term on the lattice (N <= 12):
    the table and the measures, whose lambda now holds the chain too, stay
    within _TOL, and log Z gains the chain's log Z to 1e-14 (relative, or
    absolute below 1; the largest relative gap seen is 3e-16)."""
    ids = [f"c{k}" for k in range(size)]
    component = Lattice.from_parts(
        [(nid, "hidden", random.uniform(-1.0, 1.0)) for nid in ids],
        [(a, b, random.uniform(-1.5, 1.5)) for a, b in zip(ids, ids[1:])],
        beta=lattice.beta,
    )
    joined = dataclasses.replace(
        lattice, nodes=lattice.nodes + component.nodes, edges=lattice.edges + component.edges
    )
    _assert_same(_measures(lattice), _measures(joined))
    log_z = build_model(lattice).log_z + build_model(component).log_z
    assert build_model(joined).log_z == pytest.approx(log_z, rel=1e-14, abs=1e-14)


@given(lattices)
def test_beta_absorbed_into_the_terms_leaves_the_distribution(lattice):
    """Each configuration's probability to 1e-13 relative (the largest gap
    seen is 1.1e-14): beta * E and the scaled terms' sum round apart by a
    few ulp of beta * (E - E_min), which is below 64 on these lattices."""
    beta = lattice.beta
    scaled = dataclasses.replace(
        lattice,
        beta=1.0,
        nodes=tuple(dataclasses.replace(n, h=beta * n.h) for n in lattice.nodes),
        edges=tuple(dataclasses.replace(e, j=beta * e.j) for e in lattice.edges),
        cubic=tuple(dataclasses.replace(t, c=beta * t.c) for t in lattice.cubic),
    )
    one, other = build_model(lattice), build_model(scaled)
    p, q = one.weights / one.z_shifted, other.weights / other.z_shifted
    assert (np.abs(p - q) <= 1e-13 * p).all()
