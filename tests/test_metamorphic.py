"""Metamorphic identities of the reduction onto nodes.

Each identity relates two lattices whose weights are summed in different
orders, so agreement does not follow from sharing one summation order:

- permuting the node declaration order moves every node to another bit;
- a gauge flip of a hidden node (negate h on it, and J and c on every term
  that contains it) relabels lambda;
- summing lambda onto a proper subset of the hidden nodes cannot raise md.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spinbell.bell import conditional_table
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
