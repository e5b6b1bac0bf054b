"""Measurement, outcome and parameter dependence: frozen reference values,
witness self-consistency, factorizability and the decoupling sweep."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import spinbell.independence as independence_mod
from spinbell._format import spin_of
from spinbell.errors import (
    DegenerateModelError,
    InvalidArgumentError,
    NumericRangeError,
)
from spinbell.freewill import clamped_independence_report, clamped_models, freewill_report
from spinbell.independence import (
    IndependenceReport,
    Witness,
    _decode_lambda,
    decoupling_sweep,
    independence_report,
    measurement_dependence,
    pairwise_correlation_check,
    reevaluate,
)
from spinbell.lattice import Lattice
from spinbell.model import ZERO_MEASURE, BoltzmannModel, build_model
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
    r = independence_report(model)
    for value, witness in (
        measurement_dependence(model),
        (r.od, r.witnesses["od"]),
        (r.pd, r.witnesses["pd"]),
    ):
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
    witness = independence_report(second_model).witnesses["pd"]
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
    r = independence_report(ladder_model)
    assert r.factorizable
    assert r.factorization_defect <= 1e-9


def test_factorizability_second_neighbor(second_model):
    r = independence_report(second_model)
    assert not r.factorizable
    assert r.factorization_defect > 0.1


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
        independence_report(pinned_analyzers)


# -- the block reader against the whole-array reference ----------------------------
# These are the whole-array cores that the block reader replaced: one
# (s1, s2, sa, sb, lambda-flat) weight array, 16 ordered md setting pairs, and
# the first maximizer of each quantity in (settings, lambda) order. The reader
# must reproduce every report field and witness ==, at any block width.


def _reference_weights(model, lam_ids):
    """C-ordered, as the reshape copies it for two or more lambda nodes: with
    fewer, the reshape would keep the tensor's strides, and numpy's
    multi-axis sums would add in that memory order instead."""
    ids = list(model.lattice.bell_ids()) + list(lam_ids)
    return np.ascontiguousarray(model.weight_table(ids)).reshape(2, 2, 2, 2, -1)


def _reference_md(w5):
    mass_ab_lam = w5.sum(axis=(0, 1))
    mass_ab = mass_ab_lam.sum(axis=-1)
    valid = mass_ab >= ZERO_MEASURE
    if not valid.any():
        raise DegenerateModelError("every analyzer setting carries zero weight")
    safe = np.where(valid, mass_ab, 1.0)
    p = mass_ab_lam / safe[..., None]
    diff = np.abs(p[:, :, None, None, :] - p[None, None, :, :, :]).sum(axis=-1)
    pair_valid = valid[:, :, None, None] & valid[None, None, :, :]
    diff = np.where(pair_valid, diff, -1.0)
    ia, ib, ja, jb = np.unravel_index(int(np.argmax(diff)), diff.shape)
    witness = Witness(
        kind="md",
        settings=(spin_of(int(ia)), spin_of(int(ib))),
        alt_settings=(spin_of(int(ja)), spin_of(int(jb))),
        value=float(diff[ia, ib, ja, jb]),
        skipped_cells=int((~pair_valid).sum()),
    )
    return witness.value, witness


def _reference_cells(w5):
    mass_cell = w5.sum(axis=(0, 1))
    valid = mass_cell >= ZERO_MEASURE
    if not valid.any():
        raise DegenerateModelError("every (setting, lambda) cell carries zero weight")
    safe = np.where(valid, mass_cell, 1.0)
    return (w5 / safe) * valid, valid


def _reference_od(cells, lam_ids):
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


def _reference_pd(cells, lam_ids, id1, id2):
    p12, valid = cells
    candidates = []
    sides = {}
    skipped = 0
    f2 = p12.sum(axis=0)
    ok_a = valid[1, :, :] & valid[0, :, :]
    skipped += int((~ok_a).sum())
    diff_a = np.where(ok_a[None, :, :], np.abs(f2[:, 1, :, :] - f2[:, 0, :, :]), -1.0)
    best_a = float(diff_a.max())
    sides["outcome2_vs_analyzer_a"] = max(best_a, 0.0)
    if best_a >= 0.0:
        s2i, ibi, mi = np.unravel_index(int(np.argmax(diff_a)), diff_a.shape)
        candidates.append(Witness(
            kind="pd",
            settings=(1, spin_of(int(ibi))),
            alt_settings=(-1, spin_of(int(ibi))),
            lam=_decode_lambda(lam_ids, int(mi)),
            outcome=(id2, spin_of(int(s2i))),
            value=best_a,
        ))
    f1 = p12.sum(axis=1)
    ok_b = valid[:, 1, :] & valid[:, 0, :]
    skipped += int((~ok_b).sum())
    diff_b = np.where(ok_b[None, :, :], np.abs(f1[:, :, 1, :] - f1[:, :, 0, :]), -1.0)
    best_b = float(diff_b.max())
    sides["outcome1_vs_analyzer_b"] = max(best_b, 0.0)
    if best_b >= 0.0:
        s1i, iai, mi = np.unravel_index(int(np.argmax(diff_b)), diff_b.shape)
        candidates.append(Witness(
            kind="pd",
            settings=(spin_of(int(iai)), 1),
            alt_settings=(spin_of(int(iai)), -1),
            lam=_decode_lambda(lam_ids, int(mi)),
            outcome=(id1, spin_of(int(s1i))),
            value=best_b,
        ))
    if not candidates:
        raise DegenerateModelError(
            "no analyzer flip leaves both (setting, lambda) cells with weight"
        )
    best = candidates[0]
    for witness in candidates[1:]:
        if witness.value > best.value:
            best = witness
    return best.value, dataclasses.replace(best, skipped_cells=skipped), sides


def _reference_fact(w5, cells):
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


def _reference_report(w5, lam_ids, id1, id2, tol=1e-9):
    md, w_md = _reference_md(w5)
    cells = _reference_cells(w5)
    od, w_od, od_max_cell = _reference_od(cells, lam_ids)
    pd, w_pd, sides = _reference_pd(cells, lam_ids, id1, id2)
    defect = _reference_fact(w5, cells)
    return IndependenceReport(
        md=md,
        od=od,
        pd=pd,
        mi_holds=md <= tol,
        oi_holds=od <= tol,
        pi_holds=pd <= tol,
        factorizable=defect <= tol,
        tol=tol,
        witnesses={"md": w_md, "od": w_od, "pd": w_pd},
        od_max_cell=od_max_cell,
        pd_sides=sides,
        factorization_defect=defect,
        skipped_cells=w_md.skipped_cells + w_od.skipped_cells + w_pd.skipped_cells,
    )


def _outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DegenerateModelError, NumericRangeError) as exc:
        return ("raised", type(exc), str(exc))


ROUTES = ("independence_report", "clamped_independence_report")


def _routes(model, lam=None):
    """(report, reference) per route: the direct and clamped routes."""
    lam_ids = model.lattice.hidden_ids if lam is None else tuple(lam)
    id1, id2, _, _ = model.lattice.bell_ids()
    w5 = _reference_weights(model, lam_ids)
    return {
        "independence_report": (
            lambda: independence_report(model, lam),
            lambda: _reference_report(w5, lam_ids, id1, id2),
        ),
        "clamped_independence_report": (
            lambda: clamped_independence_report(model, lam),
            lambda: _reference_report(
                _reference_weights(clamped_models(model), lam_ids), lam_ids, id1, id2
            ),
        ),
    }


def _assert_reports_equal(got, want):
    if isinstance(want, tuple) and want[:1] == ("raised",):
        assert got == want
        return
    for name in ("md", "od", "od_max_cell", "pd", "pd_sides", "factorization_defect"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.witnesses == want.witnesses
    assert got == want
    assert repr(got.witnesses) == repr(want.witnesses)  # plain ints and floats


def _check_against_reference(model, lam=None, routes=ROUTES):
    """The reports of the given routes, and with the direct route
    measurement_dependence, against the whole-array reference."""
    for name, (report, reference) in _routes(model, lam).items():
        if name in routes:
            _assert_reports_equal(_outcome(report), _outcome(reference))
    if "independence_report" in routes:
        lam_ids = model.lattice.hidden_ids if lam is None else tuple(lam)
        w5 = _reference_weights(model, lam_ids)
        assert _outcome(measurement_dependence, model, lam) == _outcome(_reference_md, w5)


def _reference_population():
    rng = np.random.default_rng(31)
    lattices = [make() for make in BUILTIN_LATTICES.values()]
    lattices += [random_bell_lattice(rng, style) for style in RANDOM_STYLES for _ in range(6)]
    return lattices


@pytest.fixture(scope="module")
def pinned_hidden_model():
    """The pinned a-b coupling with three hidden nodes: anti-aligned settings
    carry zero weight in every lambda cell, so no analyzer flip survives."""
    lat = Lattice.from_parts(
        nodes=[("1", "outcome1"), ("2", "outcome2"), ("a", "analyzer_a", 0.2),
               ("b", "analyzer_b"), ("3",), ("4",), ("5",)],
        edges=[("a", "b", 800.0), ("1", "3", 0.7), ("3", "4", -0.4), ("4", "2", 0.9),
               ("a", "5", 0.6), ("5", "3", 0.5)],
    )
    return build_model(lat)


@pytest.fixture(scope="module")
def pinned_lambda_model():
    """Analyzer a pinned to hidden node 3: half of the (setting, lambda)
    cells carry zero weight, and only flips of analyzer b survive."""
    lat = Lattice.from_parts(
        nodes=[("1", "outcome1", 0.1), ("2", "outcome2"), ("a", "analyzer_a"),
               ("b", "analyzer_b", -0.3), ("3",), ("4",), ("5",)],
        edges=[("a", "3", 800.0), ("1", "3", 0.7), ("3", "4", -0.4), ("4", "2", 0.9),
               ("b", "5", 0.6), ("5", "4", 0.5), ("1", "2", 0.3)],
    )
    return build_model(lat)


@pytest.mark.parametrize("route", ROUTES)
def test_reports_equal_whole_array_reference(route):
    for lat in _reference_population():
        _check_against_reference(build_model(lat), routes=(route,))


@pytest.mark.parametrize("bits", [0, 1, 2, 3])
def test_block_boundaries_keep_every_field(
    bits, monkeypatch, pinned_hidden_model, pinned_lambda_model
):
    """Blocks of 2^bits lambda values: every field, witness and skipped
    count is == to the whole-array reference, ties and zero-measure cells
    included. Below 2 bits chain-12 is left out: its 10 lambda bits make
    up to 1,024 blocks per route, and it crosses no kind of block boundary
    that chain-8 does not."""
    monkeypatch.setattr(independence_mod, "_LAM_BLOCK_BITS", bits)
    models = [build_model(lat) for lat in _reference_population()]
    models = [m for m in models if bits > 1 or len(m.lattice.hidden_ids) < 10]
    models += [pinned_hidden_model, pinned_lambda_model]
    for model in models:
        _check_against_reference(model)
    assert independence_report(pinned_lambda_model).skipped_cells > 0


@pytest.mark.parametrize("bits", [0, 1])
def test_block_boundaries_after_an_exactly_factorizable_block(bits, monkeypatch):
    """A first block of uniform weights has a factorization defect of
    exactly 0; the next block, which holds the largest defect, and every
    later one must still be checked. The nodes are declared last to first,
    so the model's tensor is w5 over (s1, s2, sa, sb, lambda)."""
    monkeypatch.setattr(independence_mod, "_LAM_BLOCK_BITS", bits)
    lam_ids = ("3", "4", "5")
    c = 1 << bits
    w5 = np.random.default_rng(5).uniform(0.4, 0.6, (2, 2, 2, 2, 8))
    w5[..., :c] = 0.5
    w5[..., c : 2 * c] = 1e-3
    w5[0, 0, ..., c : 2 * c] = w5[1, 1, ..., c : 2 * c] = 1.0  # outcomes aligned
    roles = {"1": "outcome1", "2": "outcome2", "a": "analyzer_a", "b": "analyzer_b"}
    order = ["1", "2", "a", "b", *lam_ids][::-1]
    lattice = Lattice.from_parts([(nid, roles.get(nid, "hidden")) for nid in order], [])
    got = independence_report(BoltzmannModel(lattice, w5.reshape(-1).copy(), 0.0), lam_ids)
    _assert_reports_equal(got, _reference_report(w5, lam_ids, "1", "2"))
    assert got.factorization_defect > 0.0


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 12])
def test_block_boundaries_on_lambda_subsets(bits, monkeypatch):
    """Subsets in any order, and the empty set, whose single lambda value
    numpy sums in another order."""
    monkeypatch.setattr(independence_mod, "_LAM_BLOCK_BITS", bits)
    model = build_model(BUILTIN_LATTICES["chain-8"]())
    for lam in ([], ["3"], ["6", "3", "8"], ["8", "7", "4", "5"]):
        _check_against_reference(model, lam)
    _check_against_reference(build_model(second_neighbor_lattice()), [])


@pytest.mark.parametrize("bits", [0, 2])
def test_block_boundaries_tie_heavy_chain(bits, monkeypatch):
    """On a uniform chain od is rounding noise of about 1e-16 in every cell,
    so witnesses rest on exact ties across blocks."""
    monkeypatch.setattr(independence_mod, "_LAM_BLOCK_BITS", bits)
    model = build_model(chain_lattice(9, j=0.7))
    report = independence_report(model)
    assert report.od < 1e-14
    _check_against_reference(model)


def test_default_blocks_with_a_role_above_the_block():
    """19 spins, analyzer b at bit 16 and outcome 2 at bit 18: the 15
    lambda bits are read in 8 blocks at the default width."""
    rng = np.random.default_rng(7)
    ids = [str(k) for k in range(3, 18)]
    order = ["1", *ids[:5], "a", *ids[5:14], "b", ids[14], "2"]
    roles = {"1": "outcome1", "2": "outcome2", "a": "analyzer_a", "b": "analyzer_b"}
    nodes = [(nid, roles.get(nid, "hidden"), float(rng.uniform(-0.4, 0.4))) for nid in order]
    path = ["1", "a", *ids, "b", "2"]
    edges = [(s, t, float(rng.uniform(0.3, 1.2))) for s, t in zip(path, path[1:])]
    edges += [("1", "2", 0.4), ("a", "b", 0.3), (ids[3], ids[11], 0.8)]
    model = build_model(Lattice.from_parts(nodes, edges))
    assert model.n == 19
    index = model.lattice.index
    assert (index["a"], index["b"], index["2"]) == (6, 16, 18)
    assert len(model.lattice.hidden_ids) > independence_mod._LAM_BLOCK_BITS
    _check_against_reference(model)


@pytest.fixture(scope="module")
def chain18_model():
    model = build_model(chain_lattice(16))
    assert model.n == 18
    return model


@pytest.fixture(scope="module")
def chain22_model():
    model = build_model(chain_lattice(20, j=0.7))
    assert model.n == 22
    return model


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# peak traced bytes per weight byte, at 18 and at 22 spins
_PEAK_BOUNDS = {independence_report: (2.0, 1.0), clamped_independence_report: (3.0, 2.0)}


@pytest.mark.parametrize("report", [independence_report, clamped_independence_report])
def test_report_peak_memory_is_bounded(report, chain18_model, chain22_model):
    """No full-size copy of the weights: the setting masses (1/4 of the
    weight bytes), the md work rows and one block's buffers. The clamped
    route also holds its stacked clamped model (1.0x). The block buffers
    (about 1.5 MiB) weigh more against the 2 MiB of weights at 18 spins."""
    for model, bound in zip((chain18_model, chain22_model), _PEAK_BOUNDS[report]):
        assert _traced_peak(lambda: report(model)) <= bound * model.weights.nbytes


def test_freewill_report_peak_memory_is_bounded(chain22_model):
    """The stacked clamped model (1.0x the weight bytes) and little else:
    each clamped sector is built in its own quarter of the stack (the
    traced peak reads 1.02x)."""
    peak = _traced_peak(lambda: freewill_report(chain22_model))
    assert peak <= 1.5 * chain22_model.weights.nbytes


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
