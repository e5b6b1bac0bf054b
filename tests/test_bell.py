"""Conditional outcome tables, correlators, the CHSH combination and the
quantum cosine reference."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from spinbell.bell import (
    QUANTUM_MAX_ANGLES,
    ConditionalTable,
    _check_columns,
    chsh,
    conditional_table,
    quantum_chsh,
    quantum_reference,
)
from spinbell.errors import InvalidArgumentError, ZeroMeasureConditionError
from spinbell.lattice import Lattice
from spinbell.model import build_model
from spinbell.presets import canonical_ladder, chain_lattice

from conftest import oracle_conditional, random_bell_lattice


@pytest.fixture(scope="module")
def ladder_model():
    return build_model(canonical_ladder())


# -- ConditionalTable --------------------------------------------------------------


def test_table_validates_shape():
    with pytest.raises(InvalidArgumentError):
        ConditionalTable(np.zeros((2, 2, 2)))


def test_table_validates_probabilities():
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = -0.1
    bad[1, 1, 0, 0] = 0.35
    with pytest.raises(InvalidArgumentError, match="\\[0, 1\\]"):
        ConditionalTable(bad)


def test_table_validates_column_sums():
    bad = np.full((2, 2, 2, 2), 0.2)
    with pytest.raises(InvalidArgumentError, match="deviate"):
        ConditionalTable(bad)


def test_table_refuses_nan():
    """NaN compares false with every bound, so each check must fail on it."""
    one = np.full((2, 2, 2, 2), 0.25)
    one[1, 0, 0, 1] = np.nan
    for bad in (one, np.full((2, 2, 2, 2), np.nan)):
        with pytest.raises(InvalidArgumentError, match="\\[0, 1\\]"):
            ConditionalTable(bad)


def test_stacked_tables_refuse_nan():
    """The placement sweep checks a (s1, s2, sa, sb, placement) stack at once."""
    stack = np.full((2, 2, 2, 2, 5), 0.25)
    _check_columns(stack)
    stack[0, 1, 1, 0, 3] = np.nan
    with pytest.raises(InvalidArgumentError, match="\\[0, 1\\]"):
        _check_columns(stack)
    _check_columns(np.empty((2, 2, 2, 2, 0)))


def test_entry_and_column(ladder_model):
    t = conditional_table(ladder_model)
    col = t.column(1, -1)
    assert col.shape == (2, 2)
    assert col.sum() == pytest.approx(1.0, abs=1e-12)
    assert t.entry(1, -1, 1, -1) == col[1, 0]
    d = t.as_dict()
    assert d[(1, -1, 1, -1)] == t.entry(1, -1, 1, -1)
    assert len(d) == 16


def test_conditional_table_matches_oracle(rng):
    lat = random_bell_lattice(rng, "dense")
    m = build_model(lat)
    t = conditional_table(m)
    for s1, s2, sa, sb in itertools.product((-1, 1), repeat=4):
        expect = oracle_conditional(lat, {"1": s1, "2": s2}, {"a": sa, "b": sb})
        assert t.entry(s1, s2, sa, sb) == pytest.approx(expect, abs=1e-13)


def test_conditional_table_zero_measure_setting():
    lat = Lattice.from_parts(
        nodes=[
            ("1", "outcome1"),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
        ],
        edges=[("a", "b", 800.0), ("1", "2", 0.3)],
    )
    with pytest.raises(ZeroMeasureConditionError, match="sa"):
        conditional_table(build_model(lat))


# -- correlators and the combination ------------------------------------------------


def test_conditional_table_keeps_to_node_order_at_22_spins():
    """Declaring the nodes in reverse order moves every weight to another
    word and changes every summation order; the table moves by at most the
    rounding of weight_table (a plain sum over the slices moved it by
    1.3e-12)."""
    lat = chain_lattice(20, j=0.7)
    reverse = dataclasses.replace(lat, nodes=tuple(reversed(lat.nodes)))
    got = conditional_table(build_model(reverse)).values
    want = conditional_table(build_model(lat)).values
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_correlator_sign_convention(ladder_model):
    t = conditional_table(ladder_model)
    m = chsh(t).m_ab
    by_hand = sum(
        s1 * s2 * t.entry(s1, s2, 1, 1) for s1 in (-1, 1) for s2 in (-1, 1)
    )
    assert m == pytest.approx(by_hand, abs=1e-14)


def test_chsh_combination_identity(ladder_model):
    t = conditional_table(ladder_model)
    r = chsh(t)
    assert r.x_bi == pytest.approx(r.m_ab + r.m_apb + r.m_abp - r.m_apbp, abs=1e-14)
    assert r.x_max_abs >= abs(r.x_bi) - 1e-14


def test_chsh_max_abs_over_sign_choices(rng):
    """x_max_abs equals the best |combination| over which correlator gets
    the minus sign."""
    lat = random_bell_lattice(rng, "dense")
    r = chsh(conditional_table(build_model(lat)))
    ms = (r.m_ab, r.m_apb, r.m_abp, r.m_apbp)
    total = sum(ms)
    best = max(abs(total - 2 * m) for m in ms)
    assert r.x_max_abs == pytest.approx(best, abs=1e-14)


def test_chsh_adds_left_to_right(rng):
    """x_bi is the four correlators added in order, whatever the
    interpreter's sum() does (it compensates on Python >= 3.12)."""
    for _ in range(2000):
        cols = rng.dirichlet(np.full(4, 0.3), size=(2, 2))  # (sa, sb, outcome cell)
        r = chsh(ConditionalTable(cols.transpose(2, 0, 1).reshape(2, 2, 2, 2)))
        assert r.x_bi == r.m_ab + r.m_apb + r.m_abp + r.m_apbp - 2.0 * r.m_apbp


def test_chsh_csv_and_text(ladder_model):
    r = chsh(conditional_table(ladder_model))
    header, row = r.csv(precision=None).split("\n")
    assert header == "m_ab,m_apb,m_abp,m_apbp,x_bi"
    assert len(row.split(",")) == 5
    assert repr(r.x_bi) in row
    assert "x_bi" in r.to_text()


# -- quantum reference ---------------------------------------------------------------


def test_quantum_reference_is_cosine():
    assert quantum_reference(0.3, 1.1) == pytest.approx(math.cos(0.3 - 1.1), abs=1e-15)


def test_quantum_chsh_at_reference_angles():
    assert quantum_chsh(*QUANTUM_MAX_ANGLES) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )


def test_quantum_chsh_never_exceeds_tsirelson():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, ap, b, bp = rng.uniform(-math.pi, math.pi, size=4)
        assert abs(quantum_chsh(a, ap, b, bp)) <= 2.0 * math.sqrt(2.0) + 1e-12
