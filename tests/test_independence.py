"""Measurement, outcome and parameter dependence: frozen reference values,
witness self-consistency, factorizability and the decoupling sweep."""

import tracemalloc

import numpy as np
import pytest

import spinbell.independence as independence_mod
from spinbell._format import spin_of
from spinbell.errors import (
    DegenerateModelError,
    InvalidArgumentError,
)
from spinbell.freewill import clamped_independence_report
from spinbell.independence import (
    Witness,
    _decode_lambda,
    decoupling_sweep,
    factorizability_check,
    independence_report,
    measurement_dependence,
    outcome_dependence,
    pairwise_correlation_check,
    parameter_dependence,
    reevaluate,
    report_from_weights,
)
from spinbell.lattice import Lattice
from spinbell.model import ZERO_MEASURE, build_model
from spinbell.presets import (
    BUILTIN_LATTICES,
    canonical_ladder,
    chain_lattice,
    second_neighbor_lattice,
    tuned_ladder,
)

from conftest import RANDOM_STYLES, random_bell_lattice


@pytest.fixture(scope="module")
def ladder_model():
    return build_model(canonical_ladder())


@pytest.fixture(scope="module")
def second_model():
    return build_model(second_neighbor_lattice())


# -- lambda set validation ----------------------------------------------------------


def test_lambda_rejects_duplicates(ladder_model):
    with pytest.raises(InvalidArgumentError, match="repeated"):
        measurement_dependence(ladder_model, lam=["3", "3"])


def test_lambda_rejects_unknown_node(ladder_model):
    with pytest.raises(InvalidArgumentError, match="unknown node"):
        measurement_dependence(ladder_model, lam=["zz"])


def test_lambda_rejects_role_nodes(ladder_model):
    with pytest.raises(InvalidArgumentError, match="role node"):
        measurement_dependence(ladder_model, lam=["a"])


# -- frozen reference values --------------------------------------------------------


def test_ladder_measurement_dependence(ladder_model):
    md, witness = measurement_dependence(ladder_model)
    assert md == pytest.approx(1.986401707857028, rel=1e-12)
    assert witness.kind == "md"
    assert witness.alt_settings is not None


def test_tuned_ladder_measurement_dependence():
    md, _ = measurement_dependence(build_model(tuned_ladder()))
    assert md == pytest.approx(1.9998530772357217, rel=1e-12)


def test_second_neighbor_report(second_model):
    r = independence_report(second_model)
    assert r.md == pytest.approx(0.029761877168445035, rel=1e-12)
    assert r.od == pytest.approx(0.5989539973915103, rel=1e-12)
    assert r.pd == pytest.approx(0.8218533903664966, rel=1e-12)
    assert r.od_max_cell == pytest.approx(0.1497384993478776, rel=1e-12)
    assert r.pd_sides["outcome2_vs_analyzer_a"] == pytest.approx(
        0.7837570389167325, rel=1e-12
    )
    assert r.pd_sides["outcome1_vs_analyzer_b"] == pytest.approx(
        0.8218533903664966, rel=1e-12
    )
    assert not (r.mi_holds or r.oi_holds or r.pi_holds)


def test_ladder_premises_hold(ladder_model):
    """Conditioned on the full hidden set, the ladder leaks no outcome or
    remote-setting information; only the lambda distribution shifts."""
    r = independence_report(ladder_model)
    assert r.md > 1.9
    assert r.od <= 1e-9
    assert r.pd <= 1e-9
    assert not r.mi_holds
    assert r.oi_holds
    assert r.pi_holds


# -- witnesses reproduce their suprema ----------------------------------------------


@pytest.mark.parametrize("which", ["ladder", "second"])
def test_witnesses_reproduce_values(which, ladder_model, second_model):
    model = ladder_model if which == "ladder" else second_model
    for fn in (measurement_dependence, outcome_dependence, parameter_dependence):
        value, witness = fn(model)
        assert witness.value == pytest.approx(value, abs=1e-15)
        assert reevaluate(model, witness) == pytest.approx(value, abs=1e-12)


def test_witnesses_on_random_lattices(rng):
    for _ in range(5):
        model = build_model(random_bell_lattice(rng))
        r = independence_report(model)
        for key, witness in r.witnesses.items():
            value = {"md": r.md, "od": r.od, "pd": r.pd}[key]
            assert reevaluate(model, witness) == pytest.approx(value, abs=1e-12)
        assert 0.0 <= r.md <= 2.0 + 1e-12
        assert 0.0 <= r.od <= 2.0 + 1e-12
        assert 0.0 <= r.pd <= 1.0 + 1e-12


def test_witness_describe_mentions_location(second_model):
    _, witness = parameter_dependence(second_model)
    text = witness.describe()
    assert "pd sup at settings" in text
    assert "outcome" in text


def test_reevaluate_rejects_unknown_kind(ladder_model):
    _, witness = measurement_dependence(ladder_model)
    bad = type(witness)(kind="xx", settings=(1, 1))
    with pytest.raises(InvalidArgumentError, match="witness kind"):
        reevaluate(ladder_model, bad)


def test_subset_lambda(ladder_model):
    """A strict subset of the hidden nodes is a valid (coarser) lambda."""
    md_full, _ = measurement_dependence(ladder_model)
    md_sub, witness = measurement_dependence(ladder_model, lam=["3", "4"])
    assert 0.0 <= md_sub <= md_full + 1e-12
    assert reevaluate(ladder_model, witness, lam=["3", "4"]) == pytest.approx(
        md_sub, abs=1e-12
    )


# -- factorizability and pairwise checks --------------------------------------------


def test_factorizability_ladder(ladder_model):
    holds, defect = factorizability_check(ladder_model)
    assert holds
    assert defect <= 1e-9


def test_factorizability_second_neighbor(second_model):
    holds, defect = factorizability_check(second_model)
    assert not holds
    assert defect > 0.1


def test_pairwise_correlation_disconnected_blocks():
    lat = Lattice.from_parts(
        nodes=[
            ("1", "outcome1"),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
        ],
        edges=[("1", "2", 0.8), ("a", "b", 0.5)],
    )
    ids, mat = pairwise_correlation_check(build_model(lat))
    idx = {nid: k for k, nid in enumerate(ids)}
    assert mat[idx["1"], idx["a"]]
    assert mat[idx["2"], idx["b"]]
    assert not mat[idx["1"], idx["2"]]
    assert not mat[idx["a"], idx["b"]]
    assert np.array_equal(mat, mat.T)
    assert mat.diagonal().all()


# -- zero-measure handling ----------------------------------------------------------


@pytest.fixture(scope="module")
def pinned_analyzers():
    """Huge ferromagnetic analyzer coupling: anti-aligned settings carry
    exactly zero stabilized weight."""
    lat = Lattice.from_parts(
        nodes=[
            ("1", "outcome1"),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
        ],
        edges=[("a", "b", 800.0), ("1", "2", 0.3)],
    )
    return build_model(lat)


def test_md_skips_zero_measure_settings(pinned_analyzers):
    md, witness = measurement_dependence(pinned_analyzers)
    # only (+,+) and (-,-) survive; with no hidden nodes their lambda
    # distributions are both the point mass, so the sup over valid pairs is 0
    assert md == 0.0
    assert witness.skipped_cells == 12


def test_pd_degenerate_when_no_flip_possible(pinned_analyzers):
    with pytest.raises(DegenerateModelError, match="analyzer flip"):
        parameter_dependence(pinned_analyzers)


# -- report_from_weights ------------------------------------------------------------


def test_report_from_weights_shape_check():
    with pytest.raises(InvalidArgumentError, match="shape"):
        report_from_weights(np.ones((2, 2, 2, 2, 3)), ["x", "y"], "1", "2")


def test_report_from_weights_matches_direct(ladder_model):
    lam_ids = ladder_model.lattice.hidden_ids
    ids = list(ladder_model.lattice.bell_ids()) + list(lam_ids)
    w5 = ladder_model.weight_table(ids).reshape(2, 2, 2, 2, -1)
    direct = independence_report(ladder_model)
    again = report_from_weights(w5, lam_ids, "1", "2")
    assert again.md == direct.md
    assert again.od == direct.od
    assert again.pd == direct.pd


# -- in-place cores against the out-of-place reference ------------------------------
# These are the cores' expressions from before they filled their full-size
# temporaries in place. Each element comes from the same operation either way,
# so every report field and witness must stay ==.


def _reference_md_pairs(mass_ab_lam):
    mass_ab = mass_ab_lam.sum(axis=-1)
    valid = mass_ab >= ZERO_MEASURE
    safe = np.where(valid, mass_ab, 1.0)
    p = mass_ab_lam / safe[..., None]
    diff = np.abs(p[..., :, :, None, None, :] - p[..., None, None, :, :, :]).sum(axis=-1)
    pair_valid = valid[..., :, :, None, None] & valid[..., None, None, :, :]
    return np.where(pair_valid, diff, -1.0), pair_valid


def _reference_cell_distributions(w5):
    mass_cell = w5.sum(axis=(0, 1))
    valid = mass_cell >= ZERO_MEASURE
    safe = np.where(valid, mass_cell, 1.0)
    return (w5 / safe) * valid, valid


def _reference_od_core(cells, lam_ids):
    p12, valid = cells
    p1 = p12.sum(axis=1)
    p2 = p12.sum(axis=0)
    defect = np.abs(p12 - p1[:, None, :, :, :] * p2[None, :, :, :, :])
    summed = np.where(valid, defect.sum(axis=(0, 1)), -1.0)
    cellmax = np.where(valid, defect.max(axis=(0, 1)), -1.0)
    ia, ib, m = np.unravel_index(int(np.argmax(summed)), summed.shape)
    witness = Witness(
        kind="od",
        settings=(spin_of(int(ia)), spin_of(int(ib))),
        lam=_decode_lambda(lam_ids, int(m)),
        value=float(summed[ia, ib, m]),
        skipped_cells=int((~valid).sum()),
    )
    return witness.value, witness, max(float(cellmax.max()), 0.0)


def _reference_fact_core(w5, cells):
    p12, valid = cells
    w1a = w5.sum(axis=(1, 3))
    mass1a = w1a.sum(axis=0)
    ok1 = mass1a >= ZERO_MEASURE
    g1 = (w1a / np.where(ok1, mass1a, 1.0)) * ok1
    w2b = w5.sum(axis=(0, 2))
    mass2b = w2b.sum(axis=0)
    ok2 = mass2b >= ZERO_MEASURE
    g2 = (w2b / np.where(ok2, mass2b, 1.0)) * ok2
    prod = g1[:, None, :, None, :] * g2[None, :, None, :, :]
    cell_ok = valid & ok1[:, None, :] & ok2[None, :, :]
    return float(np.where(cell_ok[None, None, :, :, :], np.abs(p12 - prod), -1.0).max())


_REFERENCE_CORES = {
    "_md_pairs": _reference_md_pairs,
    "_cell_distributions": _reference_cell_distributions,
    "_od_core": _reference_od_core,
    "_fact_core": _reference_fact_core,
}


@pytest.mark.parametrize("report", [independence_report, clamped_independence_report])
def test_in_place_cores_equal_out_of_place_reference(report, monkeypatch):
    rng = np.random.default_rng(31)
    lattices = [make() for make in BUILTIN_LATTICES.values()]
    lattices += [random_bell_lattice(rng, style) for style in RANDOM_STYLES for _ in range(6)]
    for lat in lattices:
        model = build_model(lat)
        got = report(model)
        with monkeypatch.context() as patch:
            for name, reference in _REFERENCE_CORES.items():
                patch.setattr(independence_mod, name, reference)
            want = report(model)
        for name in ("md", "od", "od_max_cell", "pd", "pd_sides", "factorization_defect"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.witnesses == want.witnesses
        assert got == want


@pytest.fixture(scope="module")
def chain18_model():
    model = build_model(chain_lattice(16))
    assert model.n == 18
    return model


@pytest.mark.parametrize("report", [independence_report, clamped_independence_report])
def test_report_peak_memory_is_bounded(report, chain18_model):
    """The weight array over (s1, s2, sa, sb, lambda), P(s1, s2 | cell) and
    one full-size work buffer at a time: no stacked out-of-place temporaries."""
    tracemalloc.start()
    try:
        report(chain18_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * chain18_model.weights.nbytes


# -- decoupling sweep ----------------------------------------------------------------


def test_decoupling_sweep_endpoints(ladder_model):
    lat = ladder_model.lattice
    rows = decoupling_sweep(lat, [0.0, 0.5, 1.0])
    assert [s for s, _ in rows] == [0.0, 0.5, 1.0]
    assert rows[0][1] <= 1e-12
    md_direct, _ = measurement_dependence(ladder_model)
    assert rows[-1][1] == pytest.approx(md_direct, rel=1e-12)


def test_decoupling_sweep_requires_analyzers():
    lat = Lattice.from_parts(nodes=[("x",), ("y",)], edges=[("x", "y", 1.0)])
    with pytest.raises(InvalidArgumentError, match="analyzer"):
        decoupling_sweep(lat, [0.0])
