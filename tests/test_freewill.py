"""Clamp reduction and the two-route outcome-table equivalence.

clamp_reduce must reproduce the clamped-sector energies exactly; the
postselected and clamped outcome tables must agree to machine precision on
every lattice, the restricted partition sums must add back to Z, and every
independence measure pushed through the clamped ensembles must match the
direct route."""

import itertools

import numpy as np
import pytest

from spinbell import freewill
from spinbell.bell import conditional_table
from spinbell.errors import EquivalenceViolationError, InvalidArgumentError, SpinbellError
from spinbell.freewill import (
    assert_equivalence,
    clamp_reduce,
    clamped_independence_report,
    clamped_models,
    freewill_report,
)
from spinbell.independence import independence_report
from spinbell.lattice import Lattice, energy
from spinbell.model import build_model
from spinbell.presets import (
    canonical_ladder,
    second_neighbor_lattice,
    tuned_ladder,
    uniform_coupling_grid,
)

from conftest import random_bell_lattice

BUILTINS = (canonical_ladder, tuned_ladder, second_neighbor_lattice, uniform_coupling_grid)


# -- clamp_reduce units --------------------------------------------------------------


def _sector_lattice():
    return Lattice.from_parts(
        nodes=[("x", "hidden", 0.4), ("y", "hidden", -0.2), ("z", "hidden", 0.7)],
        edges=[("x", "y", 1.1), ("y", "z", -0.6), ("x", "z", 0.25)],
        cubic=[(("x", "y", "z"), 0.35)],
        offset=0.15,
        beta=0.8,
    )


def test_clamp_reduce_edge_to_field():
    lat = _sector_lattice()
    red = clamp_reduce(lat, {"z": 1})
    assert red.node_ids == ("x", "y")
    # x picks up j_xz * s_z, y picks up j_yz * s_z
    assert red.node("x").h == pytest.approx(0.4 + 0.25, abs=1e-15)
    assert red.node("y").h == pytest.approx(-0.2 - 0.6, abs=1e-15)
    # the cubic term degrades to an extra pair coupling -c * s_z on (x, y)
    (e,) = red.edges
    assert {e.a, e.b} == {"x", "y"}
    assert e.j == pytest.approx(1.1 - 0.35, abs=1e-15)
    # the clamped node's own field becomes a constant
    assert red.offset == pytest.approx(0.15 - 0.7, abs=1e-15)


def test_clamp_reduce_two_nodes():
    lat = _sector_lattice()
    red = clamp_reduce(lat, {"x": -1, "z": 1})
    assert red.node_ids == ("y",)
    # y: own field + j_xy s_x + j_yz s_z - c s_x s_z
    assert red.node("y").h == pytest.approx(-0.2 - 1.1 - 0.6 + 0.35, abs=1e-15)
    assert red.edges == ()
    # offset: base - h_x s_x - h_z s_z - j_xz s_x s_z
    assert red.offset == pytest.approx(0.15 + 0.4 - 0.7 + 0.25, abs=1e-15)


def test_clamp_reduce_preserves_sector_energies():
    lat = _sector_lattice()
    for sx in (-1, 1):
        for sz in (-1, 1):
            red = clamp_reduce(lat, {"x": sx, "z": sz})
            for sy in (-1, 1):
                full = energy(lat, {"x": sx, "y": sy, "z": sz})
                assert energy(red, {"y": sy}) == pytest.approx(full, abs=1e-12)


def test_clamp_reduce_validation():
    lat = _sector_lattice()
    with pytest.raises(InvalidArgumentError, match="at least one"):
        clamp_reduce(lat, {})
    with pytest.raises(InvalidArgumentError, match="every node"):
        clamp_reduce(lat, {"x": 1, "y": 1, "z": -1})


def test_clamp_reduce_keeps_beta_and_roles():
    lat = canonical_ladder()
    red = clamp_reduce(lat, {"a": 1, "b": -1})
    assert red.beta == lat.beta
    assert set(red.node_ids) == set(lat.node_ids) - {"a", "b"}
    assert red.role_id(lat.node("1").role) == "1"


# -- two-route equivalence -----------------------------------------------------------


@pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
def test_equivalence_on_builtins(builder):
    model = build_model(builder())
    disc = assert_equivalence(model, tol=1e-12)
    assert disc <= 1e-12
    assert freewill_report(model).partition_gap <= 1e-12


def test_tables_agree_cellwise(rng):
    for _ in range(8):
        model = build_model(random_bell_lattice(rng))
        one = conditional_table(model).values
        two = conditional_table(clamped_models(model)).values
        assert np.max(np.abs(one - two)) <= 1e-12


def test_partition_of_unity_is_exact(rng):
    """sum over the four settings of Z* equals the parent shifted Z; both
    routes share one stabilization shift so the identity is near-bitwise."""
    for _ in range(8):
        model = build_model(random_bell_lattice(rng))
        quarters = clamped_models(model).weights.reshape(4, -1)
        total = sum(float(q.sum()) for q in quarters)
        assert total == pytest.approx(model.z_shifted, rel=1e-14)


def test_equivalence_violation_raises():
    model = build_model(canonical_ladder())
    with pytest.raises(EquivalenceViolationError, match="disagree"):
        assert_equivalence(model, tol=1e-18)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_bad_tolerance_refused_by_name(tol):
    """A negative tol made every equivalence fail and a NaN every premise
    read violated; both are refused before any work, on both routes."""
    model = build_model(canonical_ladder())
    message = f"^tol must be a finite number >= 0, got {tol!r}$"
    with pytest.raises(InvalidArgumentError, match=message):
        assert_equivalence(model, tol=tol)
    with pytest.raises(InvalidArgumentError, match=message):
        clamped_independence_report(model, tol=tol)


def test_discrepancy_nonzero_but_tiny(rng):
    model = build_model(random_bell_lattice(rng, "dense"))
    assert 0.0 <= freewill_report(model).max_discrepancy <= 1e-13


# -- clamped independence route ------------------------------------------------------


@pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
def test_clamped_independence_matches_direct(builder):
    model = build_model(builder())
    direct = independence_report(model)
    clamped = clamped_independence_report(model)
    assert clamped.md == pytest.approx(direct.md, abs=1e-12)
    assert clamped.od == pytest.approx(direct.od, abs=1e-12)
    assert clamped.pd == pytest.approx(direct.pd, abs=1e-12)
    assert clamped.factorization_defect == pytest.approx(
        direct.factorization_defect, abs=1e-12
    )


def test_clamped_independence_random(rng):
    for _ in range(5):
        model = build_model(random_bell_lattice(rng))
        direct = independence_report(model)
        clamped = clamped_independence_report(model)
        for name in ("md", "od", "pd"):
            assert getattr(clamped, name) == pytest.approx(
                getattr(direct, name), abs=1e-12
            )


_PINS = (-800.0, -40.0, 40.0, 800.0)


def _pinned_lattice(rng):
    """A random Bell lattice with about a third of its couplings and fields
    pinned at +-40 or +-800, so that analyzer settings and (setting, lambda)
    cells lose all their weight."""
    lat = random_bell_lattice(rng)

    def pin(x):
        return float(rng.choice(_PINS)) if rng.random() < 0.3 else x

    return Lattice.from_parts(
        [(n.id, n.role, pin(n.h)) for n in lat.nodes],
        [(e.a, e.b, pin(e.j)) for e in lat.edges],
        beta=lat.beta,
        cubic=[(t.nodes, t.c) for t in lat.cubic],
    )


def _report_or_error(report, model):
    try:
        return report(model)
    except SpinbellError as exc:
        return type(exc)


def test_routes_agree_on_pinned_lattices():
    """Both routes give the same report, or raise the same error, where
    settings or cells carry zero weight: the clamped route skips them as
    the direct route does."""
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        model = build_model(_pinned_lattice(rng))
        direct = _report_or_error(independence_report, model)
        clamped = _report_or_error(clamped_independence_report, model)
        if isinstance(direct, type) or isinstance(clamped, type):
            assert clamped is direct
            continue
        assert clamped.skipped_cells == direct.skipped_cells
        for name in ("md", "od", "pd", "factorization_defect"):
            assert getattr(clamped, name) == pytest.approx(getattr(direct, name), abs=1e-12)


def test_freewill_report_enumerates_each_clamped_ensemble_once(monkeypatch):
    model = build_model(canonical_ladder())
    calls = []
    original = freewill._weights

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(freewill, "_weights", counting)
    freewill_report(model)
    assert len(calls) == 4
    calls.clear()
    assert_equivalence(model)
    assert len(calls) == 4


# -- report object -------------------------------------------------------------------


def test_freewill_report_structure():
    model = build_model(canonical_ladder())
    rep = freewill_report(model)
    assert len(rep.cells) == 16
    keys = {(s1, s2, sa, sb) for s1, s2, sa, sb, _, _ in rep.cells}
    assert keys == set(itertools.product((-1, 1), repeat=4))
    assert rep.max_discrepancy <= 1e-13
    assert rep.partition_gap <= 1e-13
    csv = rep.csv()
    assert csv.splitlines()[0] == "s1,s2,sa,sb,postselected,clamped,difference"
    assert len(csv.splitlines()) == 17
    assert "max discrepancy" in rep.to_text()
