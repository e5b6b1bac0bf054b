"""Exact enumeration: stabilized weights, encoding, marginals, conditionals
and joint tables against the pure-Python oracle."""

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbell.errors import (
    EnumerationLimitError,
    InvalidArgumentError,
    InvalidConfigurationError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from spinbell import model
from spinbell.lattice import Lattice, _terms, energy
from spinbell.model import (
    ENUM_CAP_ENV,
    BoltzmannModel,
    _energies,
    _Family,
    build_model,
    enumeration_cap,
)
from spinbell.cli import EXIT_INPUT, main
from spinbell.freewill import clamped_models
from spinbell.latticefile import save_lattice
from spinbell.presets import (
    BUILTIN_LATTICES,
    canonical_ladder,
    chain_lattice,
    grid_lattice,
    grid_positions,
)
from spinbell.search import SearchParam, SearchSpace

from conftest import (
    RANDOM_STYLES,
    oracle_conditional,
    oracle_distribution,
    oracle_marginal,
    random_bell_lattice,
)


def pair(j=1.0, h=(0.0, 0.0), beta=1.0):
    return Lattice.from_parts(
        nodes=[("x", "hidden", h[0]), ("y", "hidden", h[1])],
        edges=[("x", "y", j)],
        beta=beta,
    )


# -- stabilization -----------------------------------------------------------------


def test_weights_stabilized_to_unit_max():
    m = build_model(canonical_ladder(j=3.0))
    assert m.weights.max() == 1.0
    assert np.all(m.weights > 0.0)
    assert np.all(m.weights <= 1.0)
    assert m.z_shifted >= 1.0


def test_weights_are_read_only():
    m = build_model(pair())
    with pytest.raises(ValueError):
        m.weights[0] = 2.0


def test_log_z_finite_when_z_overflows():
    m = build_model(pair(j=800.0))
    assert math.isfinite(m.log_z)
    with pytest.raises(NumericRangeError):
        m.z
    # and the tiny-Z direction
    m2 = build_model(Lattice.from_parts(nodes=[("x",)], edges=[], offset=800.0))
    assert math.isfinite(m2.log_z)
    with pytest.raises(NumericRangeError):
        m2.z


def test_log_z_matches_direct_sum():
    lat = pair(j=0.7, h=(0.2, -0.4), beta=1.3)
    z = 0.0
    for sx, sy in itertools.product((-1, 1), repeat=2):
        e = -0.7 * sx * sy - 0.2 * sx + 0.4 * sy
        z += math.exp(-1.3 * e)
    assert build_model(lat).log_z == pytest.approx(math.log(z), rel=1e-14)


# -- encoding ---------------------------------------------------------------------


def test_encode_bit_positions():
    m = build_model(pair())
    assert m.encode({"x": 1, "y": -1}) == 0b01
    assert m.encode({"x": -1, "y": 1}) == 0b10
    assert m.decode(0b10) == {"x": -1, "y": 1}


def test_encode_requires_full_config():
    m = build_model(pair())
    with pytest.raises(InvalidConfigurationError):
        m.encode({"x": 1})


def test_decode_range_check():
    m = build_model(pair())
    with pytest.raises(InvalidArgumentError):
        m.decode(4)


@given(st.integers(min_value=0, max_value=31))
def test_encode_decode_round_trip(word):
    lat = Lattice.from_parts(
        nodes=[(f"n{i}",) for i in range(5)], edges=[("n0", "n1", 0.2)]
    )
    m = build_model(lat)
    assert m.encode(m.decode(word)) == word


def test_event_mask_matches_explicit_scan():
    m = build_model(build_lattice_for_masks())
    mask, pattern = m.event_mask({"q": 1, "s": -1})
    for word in range(1 << m.n):
        cfg = m.decode(word)
        expect = cfg["q"] == 1 and cfg["s"] == -1
        assert ((word & mask) == pattern) == expect


def build_lattice_for_masks():
    return Lattice.from_parts(
        nodes=[("p",), ("q",), ("r",), ("s",)], edges=[("p", "q", 0.3)]
    )


# -- probabilities vs oracle -------------------------------------------------------


def test_probability_sums_to_one():
    m = build_model(canonical_ladder())
    assert m.weights.sum() / m.z_shifted == pytest.approx(1.0, abs=1e-12)


def test_marginal_empty_assignment_is_one():
    assert build_model(pair()).marginal({}) == 1.0


@pytest.mark.parametrize("style", ["dense", "chain", "cubic"])
def test_marginals_match_oracle(style, rng):
    for _ in range(5):
        lat = random_bell_lattice(rng, style)
        m = build_model(lat)
        dist = oracle_distribution(lat)
        ids = lat.node_ids
        # full configurations
        for config, p in itertools.islice(dist.items(), 7):
            assert m.probability(dict(zip(ids, config))) == pytest.approx(p, abs=1e-13)
        # a partial marginal and a conditional
        assert m.marginal({"1": 1, "b": -1}) == pytest.approx(
            oracle_marginal(lat, {"1": 1, "b": -1}), abs=1e-13
        )
        assert m.conditional({"2": -1}, {"a": 1}) == pytest.approx(
            oracle_conditional(lat, {"2": -1}, {"a": 1}), abs=1e-13
        )


def test_conditional_chain_rule(rng):
    lat = random_bell_lattice(rng, "dense")
    m = build_model(lat)
    a, b = {"1": 1}, {"2": 1, "a": -1}
    assert m.marginal({**a, **b}) == pytest.approx(
        m.conditional(a, b) * m.marginal(b), abs=1e-12
    )


def test_conditional_rejects_overlap():
    m = build_model(pair())
    with pytest.raises(InvalidConfigurationError, match="overlap"):
        m.conditional({"x": 1}, {"x": -1})


def test_zero_measure_conditioning_raises():
    lat = Lattice.from_parts(
        nodes=[("x",), ("y",), ("z",)],
        edges=[("x", "y", 800.0), ("y", "z", 800.0)],
    )
    m = build_model(lat)
    # anti-aligned sector underflows to exactly zero stabilized weight
    assert m.weight_sum({"x": 1, "y": -1}) == 0.0
    with pytest.raises(ZeroMeasureConditionError):
        m.conditional({"z": 1}, {"x": 1, "y": -1})


def test_flip_symmetry_exact_without_fields():
    """h = 0 makes the weight vector exactly symmetric under global flip."""
    m = build_model(canonical_ladder(j=0.9))
    full = (1 << m.n) - 1
    w = m.weights
    flipped = w[np.arange(w.size) ^ full]
    assert np.array_equal(w, flipped)


# -- energies ---------------------------------------------------------------------


def _assert_energies_exact(lat):
    m = build_model(lat)
    expect = [energy(lat, m.decode(w)) for w in range(1 << lat.n)]
    assert np.array_equal(_energies(lat), expect)


@pytest.mark.parametrize("name", sorted(BUILTIN_LATTICES))
def test_energies_match_lattice_energy_on_builtins(name):
    _assert_energies_exact(BUILTIN_LATTICES[name]())


@pytest.mark.parametrize("style", RANDOM_STYLES)
def test_energies_match_lattice_energy_on_random_styles(style, rng):
    for _ in range(4):
        _assert_energies_exact(random_bell_lattice(rng, style))


_coef = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))


@given(
    h=st.lists(_coef, min_size=5, max_size=5),
    j=st.dictionaries(st.sampled_from(list(itertools.combinations(range(5), 2))), _coef),
    c=st.dictionaries(st.sampled_from(list(itertools.combinations(range(5), 3))), _coef),
    offset=_coef,
)
def test_energies_match_lattice_energy_on_generated(h, j, c, offset):
    lat = Lattice.from_parts(
        nodes=[(f"n{i}", "hidden", h[i]) for i in range(5)],
        edges=[(f"n{a}", f"n{b}", v) for (a, b), v in j.items()],
        cubic=[(tuple(f"n{i}" for i in t), v) for t, v in c.items()],
        offset=offset,
    )
    _assert_energies_exact(lat)


# Block and dense widths small enough that 5- to 14-spin lattices span many
# blocks: fields on fixed nodes, edges on fixed nodes only, mixed edges,
# triples and offsets all cross block boundaries, and the dense width is
# 0 (never materialized), trivial, or below the block width.
_SMALL_BLOCKS = [(1, 0), (2, 1), (3, 2)]


def _spins(word, n):
    return [1 if (word >> k) & 1 else -1 for k in range(n)]


def _small_blocks(block, dense):
    return mock.patch.multiple(model, _BLOCK_BITS=block, _DENSE_BITS=dense)


def _assert_energies_exact_in_blocks(lat):
    expect = [energy(lat, dict(zip(lat.node_ids, _spins(w, lat.n)))) for w in range(1 << lat.n)]
    for block, dense in _SMALL_BLOCKS:
        with _small_blocks(block, dense):
            got = _energies(lat)
        assert np.array_equal(got, expect), (block, dense)


@pytest.mark.parametrize("name", sorted(BUILTIN_LATTICES))
def test_energies_in_blocks_match_lattice_energy_on_builtins(name):
    _assert_energies_exact_in_blocks(BUILTIN_LATTICES[name]())


@pytest.mark.parametrize("style", RANDOM_STYLES)
def test_energies_in_blocks_match_lattice_energy_on_random_styles(style, rng):
    for _ in range(4):
        _assert_energies_exact_in_blocks(random_bell_lattice(rng, style))


@given(
    h=st.lists(_coef, min_size=5, max_size=5),
    j=st.dictionaries(st.sampled_from(list(itertools.combinations(range(5), 2))), _coef),
    c=st.dictionaries(st.sampled_from(list(itertools.combinations(range(5), 3))), _coef),
    offset=_coef,
)
def test_energies_in_blocks_match_lattice_energy_on_generated(h, j, c, offset):
    lat = Lattice.from_parts(
        nodes=[(f"n{i}", "hidden", h[i]) for i in range(5)],
        edges=[(f"n{a}", f"n{b}", v) for (a, b), v in j.items()],
        cubic=[(tuple(f"n{i}" for i in t), v) for t, v in c.items()],
        offset=offset,
    )
    _assert_energies_exact_in_blocks(lat)


def _declared_highest_node_first(rng, n):
    """n spins whose declaration order is already by highest node: fields on
    nodes 0 and 1, a path plus long edges sorted by their higher end, and
    triples on the last node."""
    edges = [(k - 1, k) for k in range(1, n)]
    edges += [(int(a), int(b)) for a, b in (sorted(rng.choice(n, 2, replace=False)) for _ in range(n))]
    edges = sorted(set(edges), key=max)
    triples = [(int(a), int(b), n - 1) for a, b in (sorted(rng.choice(n - 1, 2, replace=False)) for _ in range(3))]
    lat = Lattice.from_parts(
        nodes=[(f"n{k}", "hidden", float(rng.uniform(-1, 1)) if k < 2 else 0.0) for k in range(n)],
        edges=[(f"n{a}", f"n{b}", float(rng.uniform(-1, 1))) for a, b in edges],
        cubic=[(tuple(f"n{k}" for k in t), float(rng.uniform(-1, 1))) for t in set(triples)],
        offset=float(rng.uniform(-3, 3)),
    )
    highest = [max(bits) for coef, bits in _terms(lat) if coef != 0.0]
    assert highest == sorted(highest)
    return lat


@pytest.mark.parametrize("n", [5, 8, 11, 14])
def test_energies_in_blocks_share_partials_by_level(n, rng):
    """In highest-node order each per-block term's level is its own highest
    fixed bit, so the levels hold partial sums that many blocks share; every
    word must still equal lattice.energy, at any share count."""
    lat = _declared_highest_node_first(rng, n)
    expect = [energy(lat, dict(zip(lat.node_ids, _spins(w, n)))) for w in range(1 << n)]
    for shares in (1, 2, 3):
        for block, dense in _SMALL_BLOCKS:
            with _small_blocks(block, dense), mock.patch.object(model, "_SHARES", shares):
                got = _energies(lat)
            assert np.array_equal(got, expect), (shares, block, dense)


def test_energies_in_default_blocks_match_lattice_energy(rng):
    """N = 18 spans four blocks of 2^16 words: the fields of nodes 0-15
    form the shared prefix, the fields on nodes 16 and 17 are scalars per
    block, and the edges reaching them take their sign from the block."""
    lat = chain_lattice(16, h=0.3)
    assert lat.n == 18
    e = _energies(lat)
    words = rng.integers(0, 1 << lat.n, size=4096)
    expect = [energy(lat, dict(zip(lat.node_ids, _spins(int(w), lat.n)))) for w in words]
    assert np.array_equal(e[words], expect)


def test_build_peak_memory_is_one_weight_array():
    """Energies and weights share one 2^N array: no word array, no per-term
    temporaries of full size."""
    lat = chain_lattice(16)
    assert lat.n == 18
    tracemalloc.start()
    try:
        build_model(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * (1 << 18)


def test_overflowing_energies_raise_numeric_range_error():
    lat = pair(j=1e308, h=(1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="double range"):
            build_model(lat)


def test_overflowing_energies_across_blocks_raise_numeric_range_error():
    # y sits at bit 1, a fixed node once blocks hold one word pair: its
    # field is a scalar per block and its edge takes its sign from the block
    lat = Lattice.from_parts(
        nodes=[("x",), ("y", "hidden", 1e308)], edges=[("x", "y", 1e308)], offset=-1e308
    )
    with _small_blocks(1, 0), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="double range"):
            build_model(lat)


# -- tables -----------------------------------------------------------------------


def test_weight_table_axis_order_and_values(rng):
    lat = random_bell_lattice(rng, "dense")
    m = build_model(lat)
    t = m.weight_table(["b", "1"])
    for ib, i1 in itertools.product((0, 1), repeat=2):
        expect = m.weight_sum({"b": 1 if ib else -1, "1": 1 if i1 else -1})
        assert t[ib, i1] == pytest.approx(expect, rel=1e-12)


def test_weight_table_input_checks():
    m = build_model(pair())
    with pytest.raises(InvalidArgumentError):
        m.weight_table([])
    with pytest.raises(InvalidArgumentError, match="repeated"):
        m.weight_table(["x", "x"])
    with pytest.raises(InvalidConfigurationError, match="unknown"):
        m.weight_table(["ghost"])


def test_joint_table_normalized(rng):
    lat = random_bell_lattice(rng, "cubic")
    m = build_model(lat)
    t = m.joint_table(["1", "2"])
    assert t.sum() == pytest.approx(1.0, abs=1e-12)
    assert t[1, 0] == pytest.approx(m.marginal({"1": 1, "2": -1}), abs=1e-13)


# -- weight_table past one block: accurate whatever the summation order -------------

# a table cell's largest relative error against math.fsum, which rounds once
TABLE_RTOL = 1e-13


def _fsum_table(m, ids):
    """weight_table's reference: every cell summed by math.fsum."""
    n = m.n
    axes = [n - 1 - m.lattice.index[nid] for nid in ids]
    rest = [a for a in range(n) if a not in axes]
    cells = m.weights.reshape((2,) * n).transpose(axes + rest).reshape(1 << len(ids), -1)
    return np.array([math.fsum(cell.tolist()) for cell in cells]).reshape((2,) * len(ids))


def _assert_table_accurate(m, ids):
    want = _fsum_table(m, ids)
    assert np.max(np.abs(m.weight_table(ids) - want) / want) <= TABLE_RTOL


def _scattered_grid(n):
    """A 2 x n/2 grid with diagonals and seeded fields, roles spread over
    the words: at n = 22 they sit at bits 0, 10, 12 and 16."""
    columns = n // 2
    rng = np.random.default_rng(n)
    placement = {"t0": "outcome1", f"t{columns - 1}": "outcome2", "u1": "analyzer_a",
                 "u5": "analyzer_b"}
    fields = {pos: float(rng.uniform(-0.5, 0.5)) for pos in grid_positions(columns)}
    return grid_lattice(placement, j=0.8, fields=fields, columns=columns, diagonal_j=0.3)


def _layout_model(layout, n):
    if layout == "chain":  # roles at bits 0-3
        return build_model(chain_lattice(n - 2, j=0.7))
    if layout == "grid":
        return build_model(_scattered_grid(n))
    # the four clamped ensembles of the grid, analyzers on the top two bits
    return clamped_models(build_model(_scattered_grid(n)))


@pytest.mark.parametrize("n", [18, 20, 22])
@pytest.mark.parametrize("layout", ["chain", "grid", "stacked"])
def test_weight_table_beyond_one_block_meets_the_fsum_oracle(layout, n):
    """A plain sum over 2^(N-4) slices errs by up to 4.4e-12 at N = 22."""
    m = _layout_model(layout, n)
    assert m.n == n
    _assert_table_accurate(m, m.lattice.bell_ids())


@pytest.mark.parametrize("block", [2, 3, 4])
def test_weight_table_fold_paths_on_small_blocks(block, rng):
    """Blocks of 2^block words on 8 to 12 spins: kept bits below and above
    the block, none dropped in a block, one node, every node but one."""
    for n in (8, 10, 12):
        m = build_model(chain_lattice(n - 2, j=0.9, h=0.2))
        ids = m.lattice.node_ids
        subsets = [ids[:4], ids[-3:], ids[:block], [ids[1], ids[-1]], [ids[n // 2]],
                   [*ids[:2], *ids[3:]], list(reversed(ids[::2]))]
        subsets += [list(rng.permutation(ids)[: rng.integers(1, n)]) for _ in range(4)]
        with mock.patch.object(model, "_BLOCK_BITS", block):
            for subset in subsets:
                _assert_table_accurate(m, subset)
            assert np.shares_memory(m.weight_table(ids), m.weights)  # nothing summed: a view


@pytest.mark.parametrize("name", sorted(BUILTIN_LATTICES))
def test_weight_table_within_one_block_is_numpy_sum(name, rng):
    """Up to 16 spins the table is numpy's sum over the dropped axes, bit
    for bit, as in earlier releases."""
    m = build_model(BUILTIN_LATTICES[name]())
    ids = m.lattice.node_ids
    n = m.n
    subsets = [m.lattice.bell_ids(), ids[:1], ids[1:], list(reversed(ids[:5]))]
    subsets += [list(rng.permutation(ids)[: rng.integers(1, n)]) for _ in range(4)]
    for subset in subsets:
        axes = [n - 1 - m.lattice.index[nid] for nid in subset]
        drop = tuple(a for a in range(n) if a not in axes)
        summed = m.weights.reshape((2,) * n).sum(axis=drop)
        kept = sorted(axes)
        assert np.array_equal(m.weight_table(subset), summed.transpose([kept.index(a) for a in axes]))


# -- enumeration cap ---------------------------------------------------------------


def test_cap_blocks_large_lattices(monkeypatch):
    lat = Lattice.from_parts(nodes=[(f"n{i}",) for i in range(6)], edges=[])
    monkeypatch.setenv(ENUM_CAP_ENV, "5")
    with pytest.raises(EnumerationLimitError, match="cap"):
        build_model(lat)
    monkeypatch.setenv(ENUM_CAP_ENV, "6")
    assert build_model(lat).n == 6


@pytest.mark.parametrize("n", [60, 64])
def test_raised_cap_refuses_weights_that_cannot_be_addressed(n, monkeypatch, tmp_path, capsys):
    """8 * 2^n weight bytes beyond the largest array size: the library and
    the CLI refuse before numpy is asked for anything."""
    monkeypatch.setenv(ENUM_CAP_ENV, "100")
    lat = chain_lattice(n - 2)
    with pytest.raises(EnumerationLimitError, match=f"need {8 << n} bytes"):
        build_model(lat)
    with pytest.raises(EnumerationLimitError, match="cannot be addressed"):
        SearchSpace(lat, params=(SearchParam("p", "h", targets=("1",)),))
    path = tmp_path / "chain.json"
    save_lattice(lat, path)
    assert main(["eval", "--lattice", str(path), "--report", "chsh"]) == EXIT_INPUT
    assert "cannot be addressed" in capsys.readouterr().err


def test_raised_cap_refuses_search_columns_that_cannot_be_addressed(monkeypatch):
    """At 59 spins the weights can be addressed, but not the energy columns
    of two parameter groups."""
    monkeypatch.setenv(ENUM_CAP_ENV, "100")
    params = (SearchParam("p", "h", targets=("1",)), SearchParam("q", "h", targets=("2",)))
    with pytest.raises(EnumerationLimitError, match=f"need {2 * 8 << 59} bytes"):
        SearchSpace(chain_lattice(57), params=params)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "7")
    assert enumeration_cap() == 7
    monkeypatch.setenv(ENUM_CAP_ENV, "junk")
    with pytest.raises(InvalidArgumentError):
        enumeration_cap()
    monkeypatch.setenv(ENUM_CAP_ENV, "0")
    with pytest.raises(InvalidArgumentError):
        enumeration_cap()
    monkeypatch.delenv(ENUM_CAP_ENV)
    assert enumeration_cap() == 24


# -- the linear family of search energies ----------------------------------------------


@pytest.mark.parametrize("spins", [10, 18])
def test_family_rows_equal_one_point(spins):
    """Every batch row's weights, shift and weight tables are those of the
    one-point route, bit for bit: one batch of 64 rows at 10 spins, single
    rows folded block by block at 18. A coupling near the double range
    overflows its row's energies, where the one-point route raises."""
    lattice = canonical_ladder() if spins == 10 else chain_lattice(16)
    family = _Family(lattice, {"1": 0, "2": 1}, {frozenset(("b", "2")): 1}, 2)
    assert family.rows == (64 if spins == 10 else 1)
    rng = np.random.Generator(np.random.Philox(5))
    points = rng.uniform(-2.0, 2.0, size=(max(family.rows, 3), 2))
    points[1, 1] = 1e308
    subsets = [["1", "2", "a", "b"], ["b", "3", "1"], ["4"], list(reversed(lattice.node_ids))]
    for lo in range(0, len(points), family.rows):
        batch = points[lo : lo + family.rows]
        weights, shifts = family.weights(batch)
        assert np.isnan(shifts).tolist() == [lo + k == 1 for k in range(len(batch))]
        if not np.isnan(shifts).all():
            tables = [model._tables(weights, lattice.index, ids) for ids in subsets]
        for k, (values, shift) in enumerate(zip(batch.tolist(), shifts.tolist())):
            if math.isnan(shift):
                with pytest.raises(NumericRangeError):
                    family.point(values)
                continue
            w, s = family.point(values)
            assert np.array_equal(weights[k], w) and shift == s
            one = BoltzmannModel(lattice, w, s)
            for ids, table in zip(subsets, tables):
                assert np.array_equal(table[k], one.weight_table(ids))
