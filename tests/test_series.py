"""Closed-form series routes: context construction, agreement with exact
enumeration, the weak-coupling Bell combination, and the two readings of
chain measurement dependence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbell import series
from spinbell._format import check_spins
from spinbell.errors import InvalidArgumentError, NumericRangeError, ZeroMeasureConditionError
from spinbell.independence import measurement_dependence
from spinbell.model import BoltzmannModel, build_model
from spinbell.presets import canonical_ladder, chain_lattice, second_neighbor_lattice, tuned_ladder
from spinbell.series import (
    DEFAULT_K_GRID,
    SeriesContext,
    chain_md_closed,
    chain_md_per_config,
    chain_md_profile,
    profile_csv,
    series_check,
    weak_coupling_chsh,
)

_SETTINGS = tuple((sa, sb) for sa in (-1, 1) for sb in (-1, 1))


# -- context construction -------------------------------------------------------


def test_context_build():
    ctx = SeriesContext.build(edge_count=13, j=0.5, beta=2.0)
    assert ctx.k == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert ctx.alpha == pytest.approx(math.cosh(1.0) ** 13, rel=1e-15)


def test_context_ladder_edge_count():
    assert SeriesContext.ladder().edge_count == 13
    assert SeriesContext.ladder().edge_count == len(canonical_ladder().edges)


def test_context_chain_edge_count():
    assert SeriesContext.chain(8).edge_count == 9
    assert SeriesContext.chain(8).edge_count == len(chain_lattice(8).edges)
    with pytest.raises(InvalidArgumentError, match="n >= 5"):
        SeriesContext.chain(4)


def test_context_from_lattice():
    ctx = SeriesContext.from_lattice(canonical_ladder(j=0.7))
    assert ctx.k == pytest.approx(math.tanh(0.7), abs=1e-15)
    assert ctx.edge_count == 13


def test_context_from_lattice_refuses_fields():
    with pytest.raises(InvalidArgumentError, match="zero fields"):
        SeriesContext.from_lattice(tuned_ladder())


def test_context_from_lattice_refuses_mixed_couplings():
    with pytest.raises(InvalidArgumentError, match="shared coupling"):
        SeriesContext.from_lattice(second_neighbor_lattice(h=0.0))


# -- closed forms against enumeration -------------------------------------------


def test_default_k_grid():
    assert DEFAULT_K_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.mark.parametrize("k", DEFAULT_K_GRID)
def test_ladder_partition_sum_matches_enumeration(k):
    j = math.atanh(k)
    z = build_model(canonical_ladder(j=j)).z
    assert series.ladder_partition_sum(SeriesContext.ladder(j=j)) == pytest.approx(z, rel=1e-12)


def test_series_check_reduced_grid():
    report = series_check(k_values=(0.0, 0.3, 0.6, 0.9), chain_n=6)
    assert report.ok(1e-9)
    assert report.overall() >= 0.0
    names = set(report.by_name())
    assert names == {
        "joint-numerator",
        "setting-marginal",
        "outcome-conditional",
        "lambda-conditional",
        "outcome1-factor",
        "outcome2-factor",
        "outcome-factor-joint",
        "chain-setting-marginal",
        "chain-lambda-conditional",
        "chain-outcome-joint",
        "chain-outcome-factors",
    }


def test_series_check_rejects_bad_k():
    with pytest.raises(InvalidArgumentError, match="k grid"):
        series_check(k_values=(-0.1,))
    with pytest.raises(InvalidArgumentError, match="k grid"):
        series_check(k_values=(1.0,))


def test_series_check_report_output():
    report = series_check(k_values=(0.2,), chain_n=5)
    csv = report.csv()
    assert csv.splitlines()[0] == "name,k,max_rel_dev"
    assert len(csv.splitlines()) == 12
    assert "overall max" in report.to_text()
    assert not report.ok(0.0) or report.overall() == 0.0


#: the public closed form behind each row of series_check
_ROW_FORMS = {
    "joint-numerator": "ladder_joint_numerator",
    "setting-marginal": "ladder_setting_marginal",
    "outcome-conditional": "ladder_conditional",
    "lambda-conditional": "ladder_lambda_conditional",
    "outcome1-factor": "ladder_outcome1_factor",
    "outcome2-factor": "ladder_outcome2_factor",
    "outcome-factor-joint": "ladder_factor_forms",
    "chain-setting-marginal": "chain_setting_marginal",
    "chain-lambda-conditional": "chain_lambda_conditional",
    "chain-outcome-joint": "chain_joint_outcomes",
    "chain-outcome-factors": "chain_outcome_factors",
}


@pytest.mark.parametrize("spin", [1, -1], ids=["all-plus", "all-minus"])
@pytest.mark.parametrize("name", list(_ROW_FORMS))
def test_series_check_compares_every_cell(monkeypatch, name, spin):
    """A closed form nudged by a relative 1e-6 at one spin assignment only
    shows up in its row, so no cell of the row goes unchecked."""
    original = getattr(series, _ROW_FORMS[name])

    def nudged(*args):
        value = original(*args)
        # the spin arguments follow the context; a lambda sequence counts spin by spin
        ctx_at = next(i for i, a in enumerate(args) if isinstance(a, SeriesContext))
        spins = [s for a in args[ctx_at + 1 :] for s in (a if isinstance(a, tuple) else (a,))]
        # the spins are +-1 arrays spanning the grid: nudge the one cell where all equal spin
        factor = np.where(np.logical_and.reduce([np.asarray(s) == spin for s in spins]), 1 + 1e-6, 1.0)
        if isinstance(value, tuple):
            return tuple(v * factor for v in value)
        return value * factor

    monkeypatch.setattr(series, _ROW_FORMS[name], nudged)
    report = series_check(k_values=(0.3,), chain_n=5)
    assert report.by_name()[name] > 1e-7
    assert not report.ok()


@pytest.mark.parametrize("chain_n", [5, 8, 10])
def test_closed_grids_equal_scalar_calls(monkeypatch, chain_n):
    """Every row's closed form, run once on whole spin grids, equals its
    scalar calls cell by cell (np.array_equal) at every K of the grid."""
    grid = series._closed_grid
    equal = []

    def checked(form, d):
        closed = grid(form, d)
        cells = np.array([form(*s) for s in itertools.product((-1, 1), repeat=d)], dtype=float)
        equal.append(closed.dtype == np.float64 and np.array_equal(closed, cells.reshape(closed.shape)))
        return closed

    monkeypatch.setattr(series, "_closed_grid", checked)
    report = series_check(DEFAULT_K_GRID, chain_n=chain_n)
    assert len(report.rows) == 11 * len(DEFAULT_K_GRID)
    assert [(r.name, r.k) for r, ok in zip(report.rows, equal, strict=True) if not ok] == []


@pytest.mark.parametrize("bad", [0, 2, math.nan], ids=["zero", "two", "nan"])
def test_spin_arrays_are_checked_elementwise(bad):
    spins = np.array([1, -1, bad, 1])
    with pytest.raises(InvalidArgumentError, match=f"spin value must be -1 or \\+1, got {bad}"):
        check_spins(np.ones(3), spins)
    ctx = SeriesContext.ladder(j=0.3)
    with pytest.raises(InvalidArgumentError, match="spin value"):
        series.ladder_joint_numerator(ctx, 1, spins, -1, 1)
    with pytest.raises(InvalidArgumentError, match="spin value"):
        series.chain_lambda_conditional(5, SeriesContext.chain(5), (1, spins, -1), 1, 1)
    check_spins(np.array([1, -1]), np.array([[1.0], [-1.0]]), np.array(1), -1)


def test_series_check_reads_no_single_cells(monkeypatch):
    calls = []
    for method in ("conditional", "marginal", "weight_sum"):

        def counted(self, *args, _method=method, _original=getattr(BoltzmannModel, method)):
            calls.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(BoltzmannModel, method, counted)
    report = series_check(chain_n=10)
    assert report.ok()
    assert calls == []


def test_series_check_long_chain():
    report = series_check(DEFAULT_K_GRID, chain_n=12)
    assert [r.k for r in report.rows] == [k for k in DEFAULT_K_GRID for _ in range(11)]
    assert report.overall() <= 1e-12


def test_exact_conditional_refuses_zero_measure_condition():
    """The exact side of series_check raises on a null conditioning cell,
    with the message model.conditional gives for the same cell."""
    model = build_model(chain_lattice(5, j=400.0))
    with pytest.raises(ZeroMeasureConditionError) as table_error:
        series._exact_conditional(model, ["1"], ["a", "3"])
    with pytest.raises(ZeroMeasureConditionError) as cell_error:
        model.conditional({"1": 1}, {"a": -1, "3": 1})
    assert str(table_error.value) == str(cell_error.value)


def test_weak_coupling_form():
    ctx = SeriesContext.ladder(j=0.05)
    assert weak_coupling_chsh(ctx) == pytest.approx(-2.0 * math.tanh(0.05) ** 2, abs=1e-15)


# -- chain measurement dependence, two readings ----------------------------------


def test_chain_md_frozen_values():
    assert chain_md_closed(5, 0.3) == pytest.approx(0.6487451641702213, rel=1e-14)
    assert chain_md_closed(12, 0.7) == pytest.approx(1.4282538053489204, rel=1e-14)


def test_chain_md_validation():
    for fn in (chain_md_closed, chain_md_per_config):
        with pytest.raises(InvalidArgumentError, match="n >= 5"):
            fn(4, 0.3)
        with pytest.raises(InvalidArgumentError, match="k must lie"):
            fn(8, 1.0)
        with pytest.raises(InvalidArgumentError, match="k must lie"):
            fn(8, -1.5)


def test_chain_md_closed_matches_enumeration():
    k = 0.4
    model = build_model(chain_lattice(8, j=math.atanh(k)))
    md, _ = measurement_dependence(model)
    assert chain_md_closed(8, k) == pytest.approx(md, rel=1e-9)


def test_chain_md_per_config_matches_enumeration():
    """Brute-force sup over single hidden configurations agrees with the
    closed per-configuration reading."""
    k = 0.4
    model = build_model(chain_lattice(6, j=math.atanh(k)))
    hidden = model.lattice.hidden_ids
    width = len(hidden)
    best = 0.0
    for flat in range(1 << width):
        lam = {nid: 1 if (flat >> (width - 1 - i)) & 1 else -1 for i, nid in enumerate(hidden)}
        for sa, sb in _SETTINGS:
            for ja, jb in _SETTINGS:
                p = model.conditional(lam, {"a": sa, "b": sb})
                q = model.conditional(lam, {"a": ja, "b": jb})
                best = max(best, abs(p - q))
    assert chain_md_per_config(6, k) == pytest.approx(best, rel=1e-9)


def _scalar_chain_md(n, k):
    """(summed, per-configuration) chain md as the 16 x 16 x 4 scalar loop
    over setting pairs and boundary spins (s3, sn)."""
    summed = per = 0.0
    for (sa, sb), (ja, jb) in itertools.product(_SETTINGS, repeat=2):
        total = 0.0
        for s3, sn in itertools.product((-1, 1), repeat=2):
            one = (1.0 + k * sa * s3) * (1.0 + k * sn * sb) / (1.0 + k ** (n - 1) * sa * sb)
            two = (1.0 + k * ja * s3) * (1.0 + k * sn * jb) / (1.0 + k ** (n - 1) * ja * jb)
            gap = abs(one - two)
            total += (1.0 + s3 * sn * k ** (n - 3)) / 4.0 * gap
            interior = (1.0 + k) ** (n - 3) if s3 * sn == 1 else (1.0 + k) ** (n - 4) * (1.0 - k)
            per = max(per, gap * interior / 2.0 ** (n - 2))
        summed = max(summed, total)
    return summed, per


def test_chain_md_forms_equal_scalar_loops():
    """The whole-array md forms add each sum in the loop's order: the same
    floats at every length and K, negative K included."""
    for n in range(5, 41):
        for k in (0.0, 0.05, 0.37, -0.37, 0.9, -0.999, 0.999999):
            assert (chain_md_closed(n, k), chain_md_per_config(n, k)) == _scalar_chain_md(n, k), (n, k)


def test_chain_md_summed_limit_is_2k():
    """The summed reading exceeds 2K at finite length and converges onto it;
    the correction decays like K^(n-3), so large K needs a long chain."""
    for k in (0.3, 0.5, 0.8):
        assert chain_md_closed(5, k) > 2.0 * k
        assert chain_md_closed(200, k) == pytest.approx(2.0 * k, rel=1e-9)


def test_chain_md_per_config_length_limit():
    """n = 1025 still computes at any K, K -> 1 included; n = 1026 would
    need 2^1024 and is refused."""
    for k in (0.5, -0.999, 0.999999):
        assert (chain_md_closed(1025, k), chain_md_per_config(1025, k)) == _scalar_chain_md(1025, k)
        with pytest.raises(NumericRangeError, match=f"n=1026, k={k}"):
            chain_md_per_config(1026, k)
    with pytest.raises(NumericRangeError, match="n=1026"):
        chain_md_profile(range(1024, 1030), 0.5)


def _unchecked(form):
    """A chain form as it read before the range checks, None past the
    float range (inf, or the bare OverflowError of 2.0**n)."""
    try:
        value = form()
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _marginal_form(n, ctx, sa, sb):
    return ctx.alpha * 2.0**n * (1.0 + ctx.k ** (n - 1) * sa * sb)


def _lambda_form(n, ctx, lam, sa, sb):
    num = 1.0 + ctx.k * sa * lam[0]
    for left, right in zip(lam, lam[1:]):
        num *= 1.0 + ctx.k * left * right
    num *= 1.0 + ctx.k * lam[-1] * sb
    return num / (2.0 ** (n - 2) * (1.0 + ctx.k ** (n - 1) * sa * sb))


@pytest.mark.parametrize(
    "j, last",
    [(0.5, 846), (0.0, 1023)],
    ids=["alpha-overflows-first", "two-to-the-n-overflows"],
)
def test_chain_setting_marginal_refuses_the_float_range(j, last):
    """Finite values keep their bits up to the last length; one past it the
    form is refused with n and k named instead of reading inf or raising a
    bare OverflowError."""
    ctx = SeriesContext.build(1025, j=j)
    for n in (5, last - 1, last):
        for sa, sb in ((1, 1), (1, -1)):
            assert series.chain_setting_marginal(n, ctx, sa, sb) == _marginal_form(n, ctx, sa, sb)
    for n in (last + 1, 1024, 1030):
        assert _unchecked(lambda: _marginal_form(n, ctx, 1, 1)) is None
        with pytest.raises(NumericRangeError, match=f"n={n}, k={ctx.k}"):
            series.chain_setting_marginal(n, ctx, 1, 1)


@pytest.mark.parametrize(
    "j, last",
    [(20.0, 1024), (0.1, 1025)],
    ids=["numerator-overflows", "two-to-the-n-overflows"],
)
def test_chain_lambda_conditional_refuses_the_float_range(j, last):
    """At K = 1 the aligned numerator 2^(n-1) overflows first; at small K
    the 2^(n-2) normalization does."""
    ctx = SeriesContext.build(5, j=j)
    for n in (last - 1, last):
        lam = (1,) * (n - 2)
        got = series.chain_lambda_conditional(n, ctx, lam, 1, 1)
        assert got == _lambda_form(n, ctx, lam, 1, 1)
    for n in (last + 1, 1030):
        lam = (1,) * (n - 2)
        assert _unchecked(lambda: _lambda_form(n, ctx, lam, 1, 1)) is None
        with pytest.raises(NumericRangeError, match=f"n={n}, k={ctx.k}"):
            series.chain_lambda_conditional(n, ctx, lam, 1, 1)


def test_chain_md_per_config_decays():
    values = [chain_md_per_config(n, 0.5) for n in range(5, 31, 5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


@given(st.integers(5, 14), st.floats(0.01, 0.95))
def test_per_config_never_exceeds_summed(n, k):
    per = chain_md_per_config(n, k)
    summed = chain_md_closed(n, k)
    assert 0.0 <= per <= summed + 1e-12
    assert summed <= 2.0 + 1e-12


def test_profile_rows_and_csv():
    rows = chain_md_profile(range(5, 9), 0.3)
    assert [r.n for r in rows] == [5, 6, 7, 8]
    assert rows[0].md_summed == pytest.approx(chain_md_closed(5, 0.3), abs=0)
    assert rows[0].md_per_config == pytest.approx(chain_md_per_config(5, 0.3), abs=0)
    csv = profile_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "n,md_summed,md_per_config"
    assert len(lines) == 5
    assert lines[1].startswith("5,")
