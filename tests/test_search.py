"""Pattern search over tied parameter groups, the dense grid scan, and the
exhaustive role-placement search on the two-row grid."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinbell.search as search_mod
from spinbell import presets
from spinbell.bell import chsh, conditional_table
from spinbell.errors import (
    DegenerateModelError,
    EnumerationLimitError,
    InvalidArgumentError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from spinbell.independence import independence_report, measurement_dependence
from spinbell.lattice import Lattice
from spinbell.latticefile import load_search_config
from spinbell.model import ENUM_CAP_ENV, BoltzmannModel, build_model
from spinbell.presets import (
    canonical_ladder,
    chain_lattice,
    grid_lattice,
    grid_positions,
    second_neighbor_lattice,
    tuned_field_grid,
)
from spinbell.search import (
    COUPLING_BOUNDS,
    FIELD_BOUNDS,
    OBJECTIVES,
    GridRow,
    PlacementResult,
    SearchParam,
    SearchSpace,
    grid_csv,
    grid_scan,
    maximize_chsh,
    role_permutation_search,
)

_DEGENERATE = (ZeroMeasureConditionError, DegenerateModelError, NumericRangeError)


def _two_param_space(objective="x_bi"):
    return SearchSpace(
        base=canonical_ladder(),
        params=(
            SearchParam("h_out", "h", targets=("1", "2")),
            SearchParam("j_arm", "j", targets=(("1", "a"), ("2", "b"))),
        ),
        objective=objective,
    )


# -- parameter and space validation --------------------------------------------------


def test_param_validation():
    with pytest.raises(InvalidArgumentError, match="kind"):
        SearchParam("p", "x", targets=("1",))
    with pytest.raises(InvalidArgumentError, match="no targets"):
        SearchParam("p", "h", targets=())
    with pytest.raises(InvalidArgumentError, match="empty range"):
        SearchParam("p", "h", targets=("1",), lo=2.0, hi=2.0)
    # a j target is one (a, b) pair, never a string or a tuple of another length
    for i, targets in ((0, ("a6",)), (0, (("1",),)), (1, (("1", "a"), ("1", "3", "4")))):
        with pytest.raises(InvalidArgumentError, match=f"'p' target {i} must be a pair"):
            SearchParam("p", "j", targets=targets)


@pytest.mark.parametrize(
    "lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)]
)
def test_param_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(InvalidArgumentError, match="non-finite bounds"):
        SearchParam("p", "h", targets=("1",), lo=lo, hi=hi)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1e308, 1.5e308), (-1.5e308, -1e308)])
def test_param_rejects_ranges_that_overflow(lo, hi):
    """hi - lo or lo + hi leaves the double range, so grid points, restart
    origins or the center would not be finite."""
    with pytest.raises(InvalidArgumentError, match=r"'p' has range \[.*\], whose width or mid"):
        SearchParam("p", "h", targets=("1",), lo=lo, hi=hi)


def test_param_default_bounds():
    assert SearchParam("p", "h", targets=("1",)).bounds == FIELD_BOUNDS
    assert SearchParam("p", "j", targets=(("1", "a"),)).bounds == COUPLING_BOUNDS
    assert SearchParam("p", "h", targets=("1",), lo=-1.0, hi=1.0).bounds == (-1.0, 1.0)
    assert SearchParam("p", "h", targets=("1",)).clip(9.9) == FIELD_BOUNDS[1]


def test_space_validation():
    base = canonical_ladder()
    p = SearchParam("p", "h", targets=("1",))
    with pytest.raises(InvalidArgumentError, match="at least one"):
        SearchSpace(base, params=())
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        SearchSpace(base, params=(p, p))
    with pytest.raises(InvalidArgumentError, match="objective"):
        SearchSpace(base, params=(p,), objective="energy")


def test_space_rejects_bad_targets_up_front():
    base = canonical_ladder()
    with pytest.raises(Exception):
        SearchSpace(base, params=(SearchParam("p", "h", targets=("zz",)),))
    with pytest.raises(Exception):
        SearchSpace(base, params=(SearchParam("p", "j", targets=(("1", "2"),)),))


def test_space_refuses_lattices_beyond_the_cap(monkeypatch):
    # the space enumerates its base at construction, so the cap applies there
    monkeypatch.setenv(ENUM_CAP_ENV, "9")
    with pytest.raises(EnumerationLimitError, match="10 spins"):
        _two_param_space()


def test_placement_search_refuses_an_over_cap_grid_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid_positions called")

    monkeypatch.setattr(presets, "grid_positions", refuse)
    with pytest.raises(EnumerationLimitError, match="^lattice has 2000000000 spins"):
        role_permutation_search(columns=10**9)


def test_space_bounds_enforced():
    space = _two_param_space()
    with pytest.raises(InvalidArgumentError, match="outside"):
        space.build((99.0, 1.0))
    with pytest.raises(InvalidArgumentError, match="expected 2 values"):
        space.build((1.0,))


def test_build_applies_tied_groups():
    space = _two_param_space()
    lat = space.build((0.75, 2.5))
    assert lat.node("1").h == 0.75
    assert lat.node("2").h == 0.75
    js = {frozenset((e.a, e.b)): e.j for e in lat.edges}
    assert js[frozenset(("1", "a"))] == 2.5
    assert js[frozenset(("2", "b"))] == 2.5
    # untouched structure survives
    assert js[frozenset(("3", "4"))] == 1.0
    assert lat.node("3").h == 0.0


def test_center_is_box_midpoint():
    space = _two_param_space()
    assert space.center() == (
        (FIELD_BOUNDS[0] + FIELD_BOUNDS[1]) / 2.0,
        (COUPLING_BOUNDS[0] + COUPLING_BOUNDS[1]) / 2.0,
    )


def test_evaluate_matches_direct_objective():
    space = _two_param_space()
    from spinbell.bell import chsh, conditional_table

    direct = chsh(conditional_table(build_model(space.build((0.5, 1.5))))).x_bi
    assert space.evaluate((0.5, 1.5)) == pytest.approx(direct, abs=0)


def test_evaluate_scores_degenerate_minus_inf():
    # tying the whole analyzer row at a huge coupling pins sa = sb, so the
    # anti-aligned settings carry zero weight and the outcome table is undefined
    space = SearchSpace(
        base=canonical_ladder(),
        params=(
            SearchParam(
                "j_row",
                "j",
                targets=(("a", "6"), ("6", "7"), ("7", "8"), ("8", "b")),
                lo=0.0,
                hi=500.0,
            ),
        ),
    )
    assert space.evaluate((450.0,)) == -math.inf


# -- the optimizer -------------------------------------------------------------------


def test_search_is_deterministic():
    space = _two_param_space()
    one = maximize_chsh(space, budget=300, seed=42)
    two = maximize_chsh(space, budget=300, seed=42)
    assert one.best_values == two.best_values
    assert one.best_score == two.best_score
    assert one.evaluations == two.evaluations
    assert one.trajectory == two.trajectory


def test_search_improves_on_start():
    space = _two_param_space()
    start = (0.0, 1.0)
    res = maximize_chsh(space, budget=400, seed=1, start=start)
    assert res.best_score >= space.evaluate(start)
    assert res.certified
    assert res.evaluations <= 400
    assert res.restarts >= 1


def test_search_respects_budget_and_bounds():
    space = _two_param_space()
    res = maximize_chsh(space, budget=50, seed=3)
    assert res.evaluations <= 50
    for p, v in zip(space.params, res.best_values):
        lo, hi = p.bounds
        assert lo <= v <= hi


def test_search_validation():
    space = _two_param_space()
    with pytest.raises(InvalidArgumentError, match="budget"):
        maximize_chsh(space, budget=0)
    with pytest.raises(InvalidArgumentError, match="restarts"):
        maximize_chsh(space, restarts=0)
    with pytest.raises(InvalidArgumentError, match="min_step"):
        maximize_chsh(space, min_step=0.9, initial_step=0.5)
    with pytest.raises(InvalidArgumentError, match="^budget must be an integer, got 2.5"):
        maximize_chsh(space, budget=2.5)
    with pytest.raises(InvalidArgumentError, match="^restarts must be an integer, got 1.5"):
        maximize_chsh(space, restarts=1.5)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.True_])
def test_search_rejects_seeds_outside_64_bits(seed):
    message = f"seed must be a 64-bit unsigned integer, got {seed}"
    with pytest.raises(InvalidArgumentError, match=message):
        maximize_chsh(_two_param_space(), budget=5, seed=seed)


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_search_restarts_draw_from_the_seeds_philox_stream(seed, monkeypatch):
    origins = []

    def descent(space, start, budget, initial_step, min_step, counter, trajectory):
        origins.append(start)
        counter[0] += 1
        return start, 0.0

    monkeypatch.setattr(search_mod, "_pattern_descent", descent)
    space = _two_param_space()
    maximize_chsh(space, budget=10, seed=seed, restarts=3)
    rng = np.random.Generator(np.random.Philox(seed))
    drawn = [
        tuple(p.bounds[0] + (p.bounds[1] - p.bounds[0]) * rng.random() for p in space.params)
        for _ in range(2)
    ]
    assert origins == [space.center(), *drawn]


def test_search_where_every_point_is_degenerate():
    # the analyzer row is tied at a huge coupling everywhere in the box, so
    # every evaluation scores -inf and the first restart is kept
    param = SearchParam(
        "j_row", "j", targets=(("a", "6"), ("6", "7"), ("7", "8"), ("8", "b")), lo=450.0, hi=500.0
    )
    space = SearchSpace(base=canonical_ladder(), params=(param,))
    res = maximize_chsh(space, budget=30, seed=2)
    assert res.best_score == -math.inf
    assert res.best_values == space.center()
    assert not res.certified
    assert res.restarts >= 2


def test_search_md_objective():
    space = _two_param_space(objective="md")
    res = maximize_chsh(space, budget=200, seed=0)
    assert 0.0 <= res.best_score <= 2.0
    assert res.certified


def test_result_to_text():
    space = _two_param_space()
    res = maximize_chsh(space, budget=100, seed=0)
    text = res.to_text(space)
    assert "best x_bi" in text
    assert "h_out" in text
    assert "j_arm" in text


# -- grid scan -----------------------------------------------------------------------


def test_grid_scan_covers_lattice_points():
    space = _two_param_space()
    rows = grid_scan(space, resolution=3)
    assert len(rows) == 9
    values = {r.values for r in rows}
    assert (FIELD_BOUNDS[0], COUPLING_BOUNDS[0]) in values
    assert (FIELD_BOUNDS[1], COUPLING_BOUNDS[1]) in values
    for r in rows:
        assert isinstance(r, GridRow)
        assert -4.0 <= r.x_bi <= 4.0
        assert 0.0 <= r.md <= 2.0


def test_grid_scan_skips_points_without_pd():
    # b follows node 4 at j = 800; from the middle of the a-3 range on, a
    # follows node 3 too, and no analyzer flip leaves both cells with weight
    base = Lattice.from_parts(
        nodes=[("1", "outcome1"), ("2", "outcome2"), ("a", "analyzer_a"),
               ("b", "analyzer_b"), ("3",), ("4",), ("5",)],
        edges=[("1", "a", 0.7), ("a", "3", 1.0), ("3", "5", 0.6), ("5", "4", 0.8),
               ("4", "b", 800.0), ("b", "2", 0.9)],
    )
    param = SearchParam("j_pin", "j", targets=(("a", "3"),), lo=0.5, hi=800.0)
    space = SearchSpace(base, params=(param,))
    with pytest.raises(DegenerateModelError, match="analyzer flip"):
        independence_report(build_model(space.build((800.0,))))
    rows = grid_scan(space, resolution=3)
    assert [r.values for r in rows] == [(0.5,)]
    model = build_model(space.build((0.5,)))
    assert rows[0].pd == independence_report(model).pd
    assert rows[0].md == measurement_dependence(model)[0]


def test_grid_scan_resolution_validation():
    with pytest.raises(InvalidArgumentError, match="resolution"):
        grid_scan(_two_param_space(), resolution=1)
    with pytest.raises(InvalidArgumentError, match="^resolution must be an integer, got 2.5"):
        grid_scan(_two_param_space(), resolution=2.5)
    with pytest.raises(InvalidArgumentError, match="^resolution must be an integer, got True"):
        grid_scan(_two_param_space(), resolution=True)


def test_grid_axis_stays_inside_the_range():
    # -0.1 + (0.3 - -0.1) rounds to 0.30000000000000004, past hi
    narrow = SearchParam("p", "h", targets=("1",), lo=-0.1, hi=0.3)
    assert search_mod._grid_axis(narrow, 2) == [-0.1, 0.3]
    space = SearchSpace(base=canonical_ladder(), params=(narrow,))
    assert [r.values for r in grid_scan(space, resolution=3)] == [(-0.1,), (0.1,), (0.3,)]
    # (hi - lo) * t overflows from t = 2 on; the points stay finite and
    # ordered, and lo + (hi - lo) ends within rounding of hi
    wide = SearchParam("p", "h", targets=("1",), lo=-1e308, hi=1e307)
    axis = search_mod._grid_axis(wide, 5)
    assert axis[0] == -1e308 and axis[-1] == pytest.approx(1e307, rel=1e-14)
    assert all(math.isfinite(x) for x in axis) and axis == sorted(axis)
    assert axis[2] == -1e308 + 1.1e308 * 0.5


@pytest.mark.parametrize("lo, hi", [(-2.0, 3.0), (0.0, 4.0), (-0.7, 1.3), (0.5, 800.0)])
def test_grid_axis_points_inside_the_range_are_unchanged(lo, hi):
    param = SearchParam("p", "h", targets=("1",), lo=lo, hi=hi)
    for resolution in (2, 3, 5, 7):
        plain = [lo + (hi - lo) * t / (resolution - 1) for t in range(resolution)]
        assert search_mod._grid_axis(param, resolution) == [min(x, hi) for x in plain]


def test_grid_csv_header_and_rows():
    space = _two_param_space()
    rows = grid_scan(space, resolution=2)
    csv = grid_csv(space, rows)
    lines = csv.splitlines()
    assert lines[0] == "h_out,j_arm,x_bi,md,od,pd"
    assert len(lines) == len(rows) + 1


# -- role placement search -----------------------------------------------------------


@pytest.fixture(scope="module")
def placement_results():
    return role_permutation_search(j=1.0, fields=0.0, top=0)


def test_placement_dedup_count(placement_results):
    # 10 * 9 * 8 * 7 ordered placements fold by the two grid flips
    assert len(placement_results) == 5040 // 4


def test_placement_no_dedup_superset(placement_results):
    full = role_permutation_search(j=1.0, fields=0.0, top=0, dedup_symmetry=False)
    assert len(full) == 5040
    assert max(r.x_bi for r in full) == pytest.approx(
        max(r.x_bi for r in placement_results), abs=1e-12
    )


def test_placement_fields_are_read_by_position():
    with pytest.raises(InvalidArgumentError, match=r"unknown grid position \(0, 1\)"):
        role_permutation_search(j=1.0, fields={(0, 1): 0.5}, top=1)
    named = role_permutation_search(j=1.0, fields={"t0": 0.5}, top=0, dedup_symmetry=False)
    flat = role_permutation_search(j=1.0, fields=0.0, top=0, dedup_symmetry=False)
    assert [r.x_bi for r in named] != [r.x_bi for r in flat]


def test_placement_sorted_and_described(placement_results):
    xs = [r.x_bi for r in placement_results]
    assert xs == sorted(xs, reverse=True)
    top = placement_results[0]
    assert "x_bi=" in top.describe()
    labels = {label for _, label in top.placement}
    assert labels == {"outcome1", "outcome2", "analyzer_a", "analyzer_b"}


def test_placement_top_truncates(placement_results):
    top3 = role_permutation_search(j=1.0, fields=0.0, top=3)
    assert len(top3) == 3
    assert top3 == placement_results[:3]


def test_placement_top_rejects_negative():
    with pytest.raises(InvalidArgumentError, match="top must be >= 0"):
        role_permutation_search(top=-1)
    with pytest.raises(InvalidArgumentError, match="^top must be an integer, got 2.5"):
        role_permutation_search(top=2.5)
    with pytest.raises(InvalidArgumentError, match="^columns must be an integer, got 2.5"):
        role_permutation_search(columns=2.5)
    # bools are refused as counts, not read as 1 column or the top 1
    with pytest.raises(InvalidArgumentError, match="^columns must be an integer, got True"):
        role_permutation_search(columns=True, top=True)
    with pytest.raises(InvalidArgumentError, match="^top must be an integer, got True"):
        role_permutation_search(top=True)


# -- shared enumerations: placements and energy columns --------------------------------


def _flipped(pos: str, flip_r: bool, flip_c: bool, columns: int) -> str:
    """Position name ("t3", "u0") under the grid flips: the vertical flip
    swaps the rows, the horizontal flip reverses the columns."""
    row, col = pos[0], int(pos[1:])
    if flip_r:
        row = "u" if row == "t" else "t"
    if flip_c:
        col = columns - 1 - col
    return f"{row}{col}"


def _field_flips(fields, columns: int) -> list:
    """The flips that map every position onto one with the same field."""
    positions = grid_positions(columns)
    field_of = {p: fields.get(p, 0.0) if isinstance(fields, dict) else fields for p in positions}
    return [
        flip
        for flip in itertools.product((False, True), repeat=2)
        if all(field_of[_flipped(p, *flip, columns)] == field_of[p] for p in positions)
    ]


def _canonical_placement(placement: dict, columns: int, flips: list) -> tuple:
    """Least representative under the given flips."""
    return min(
        tuple(sorted((_flipped(pos, *flip, columns), label) for pos, label in placement.items()))
        for flip in flips
    )


def _reference_placements(dedup_symmetry, **grid):
    """One grid_lattice + build_model per placement: the definition that the
    shared-model sweep must reproduce exactly. The dedup folds placements
    under the grid flips that the fields keep."""
    labels = ("outcome1", "outcome2", "analyzer_a", "analyzer_b")
    flips = _field_flips(grid.get("fields", 0.0), grid["columns"])
    seen = set()
    results = []
    for combo in itertools.permutations(grid_positions(grid["columns"]), 4):
        placement = dict(zip(combo, labels))
        if dedup_symmetry:
            key = _canonical_placement(placement, grid["columns"], flips)
            if key in seen:
                continue
            seen.add(key)
        model = build_model(grid_lattice(placement, **grid))
        try:
            table = conditional_table(model)
        except ZeroMeasureConditionError:
            continue
        results.append(
            PlacementResult(
                placement=tuple(sorted(placement.items())),
                x_bi=chsh(table).x_bi,
                md=measurement_dependence(model)[0],
            )
        )
    results.sort(key=lambda r: (-r.x_bi, r.placement))
    return results


_GRID4 = dict(
    j=0.8,
    fields={pos: 0.15 * k - 0.4 for k, pos in enumerate(grid_positions(4))},
    beta=1.3,
    columns=4,
    diagonal_j=0.35,
)


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "full"])
def test_placements_equal_per_placement_builds(dedup):
    # _GRID4's fields keep no flip, so the dedup sweep is the full one
    got = role_permutation_search(top=0, dedup_symmetry=dedup, **_GRID4)
    assert len(got) == 1680
    assert got == _reference_placements(dedup, **_GRID4)


_EDGE_FIELDS = (0.3, -0.2, -0.2, 0.3)  # the same under the column flip


@pytest.mark.parametrize(
    ("bottom", "count"),
    [(_EDGE_FIELDS, 1680 // 4), ((-0.1, 0.25, 0.25, -0.1), 1680 // 2)],
    ids=["both-flips", "column-flip"],
)
def test_placement_dedup_folds_the_flips_the_fields_keep(bottom, count):
    fields = {f"t{c}": h for c, h in enumerate(_EDGE_FIELDS)}
    fields.update({f"u{c}": h for c, h in enumerate(bottom)})
    grid = {**_GRID4, "fields": fields}
    got = role_permutation_search(top=0, dedup_symmetry=True, **grid)
    assert len(got) == count
    assert got == _reference_placements(True, **grid)


_ZERO_GRID = dict(
    j=0.7,
    fields={p: 400.0 if p in ("t0", "u3") else 0.1 * k for k, p in enumerate(grid_positions(5))},
    columns=5,
)


def test_placements_skip_zero_measure_settings():
    # an analyzer pinned at t0 or u3 leaves a setting without weight
    got = role_permutation_search(top=0, dedup_symmetry=False, **_ZERO_GRID)
    assert len(got) == 8 * 7 * 8 * 7
    assert got == _reference_placements(False, **_ZERO_GRID)


def test_placements_with_every_setting_empty():
    assert role_permutation_search(j=0.7, fields=400.0, top=0) == []


@pytest.mark.parametrize("rows", [1, 32], ids=["one", "uneven"])
def test_placement_md_batches_agree(monkeypatch, rows):
    """The md stack of _GRID4's 1,680 placements, 2^6 words each, read one
    placement per batch and in batches of 32, which do not divide it."""
    whole = role_permutation_search(top=0, dedup_symmetry=False, **_GRID4)
    monkeypatch.setattr(search_mod, "_BLOCK_BITS", 6 + rows.bit_length() - 1)
    assert role_permutation_search(top=0, dedup_symmetry=False, **_GRID4) == whole


def test_placement_sweep_weight_table_count(monkeypatch):
    """One weight_table per unordered four-node set and one per ordered
    outcome pair, none per placement: 70 + 56 on the 8 positions of
    _GRID4, whose fields keep no flip and give every setting weight."""
    calls = []
    original = BoltzmannModel.weight_table

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BoltzmannModel, "weight_table", counting)
    for dedup in (True, False):
        calls.clear()
        role_permutation_search(top=0, dedup_symmetry=dedup, **_GRID4)
        assert len(calls) == math.comb(8, 4) + 8 * 7 == 126


def test_placement_sweep_builds_one_model(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_model(*args, **kwargs)

    monkeypatch.setattr(search_mod, "build_model", counting)
    for dedup in (True, False):
        calls.clear()
        role_permutation_search(top=0, dedup_symmetry=dedup, **_GRID4)
        assert len(calls) == 1


def _column_spaces():
    """Spaces whose groups overlap on one target (the later group wins)
    and whose groups repeat a target (it counts once)."""
    base = canonical_ladder()
    overlap = (
        SearchParam("h_out", "h", targets=("1", "2", "3")),
        SearchParam("h_mid", "h", targets=("3", "4"), lo=-1.0, hi=1.0),
        SearchParam("j_arm", "j", targets=(("1", "a"), ("2", "b"), ("3", "4"))),
        SearchParam("j_mid", "j", targets=(("4", "3"), ("6", "7")), lo=0.2, hi=2.5),
    )
    repeated = (
        SearchParam("h_rep", "h", targets=("a", "a", "b")),
        SearchParam("j_rep", "j", targets=(("1", "a"), ("a", "1"), ("5", "2"))),
    )
    return {"overlap": overlap, "repeated": repeated, "ladder": _two_param_space().params}, base


def _built_score(space, values):
    try:
        return OBJECTIVES[space.objective](build_model(space.build(values)))
    except _DEGENERATE:
        return -math.inf


@pytest.mark.parametrize("objective", ["x_bi", "md"])
@pytest.mark.parametrize("kind", ["overlap", "repeated", "ladder"])
def test_evaluate_matches_fresh_build(kind, objective):
    groups, base = _column_spaces()
    space = SearchSpace(base, params=groups[kind], objective=objective)
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(200):
        values = tuple(float(rng.uniform(*p.bounds)) for p in space.params)
        got, want = space.evaluate(values), _built_score(space, values)
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12


def test_overlapping_groups_resolve_like_build():
    groups, base = _column_spaces()
    space = SearchSpace(base, params=groups["overlap"])
    lat = space.build((1.5, -0.5, 2.0, 0.7))
    assert lat.node("3").h == -0.5  # h_mid comes after h_out
    js = {e.key(): e.j for e in lat.edges}
    assert js[frozenset(("3", "4"))] == 0.7  # j_mid comes after j_arm
    assert space.evaluate((1.5, -0.5, 2.0, 0.7)) == pytest.approx(
        _built_score(space, (1.5, -0.5, 2.0, 0.7)), abs=1e-12
    )


def test_evaluate_builds_no_lattice(monkeypatch):
    space = _two_param_space()

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate rebuilt a lattice")

    monkeypatch.setattr(Lattice, "with_fields", refuse)
    monkeypatch.setattr(Lattice, "with_couplings", refuse)
    monkeypatch.setattr(search_mod, "build_model", refuse)
    assert math.isfinite(space.evaluate((0.3, 1.2)))
    assert len(grid_scan(space, resolution=2)) == 4


@pytest.mark.parametrize("kind", ["overlap", "ladder"])
def test_grid_rows_match_fresh_builds(kind):
    groups, base = _column_spaces()
    space = SearchSpace(base, params=groups[kind][:3])
    rows = grid_scan(space, resolution=3)
    axes = [[lo + (hi - lo) * t / 2 for t in range(3)] for lo, hi in (p.bounds for p in space.params)]
    expected = []
    for values in itertools.product(*axes):
        try:
            model = build_model(space.build(values))
            table = conditional_table(model)
        except _DEGENERATE:
            continue
        report = independence_report(model)
        expected.append((values, chsh(table).x_bi, measurement_dependence(model)[0], report.od, report.pd))
    assert len(rows) == len(expected)
    for row, (values, *want) in zip(rows, expected):
        assert row.values == values
        assert np.allclose((row.x_bi, row.md, row.od, row.pd), want, rtol=0, atol=1e-12)
        # the same point's model through the public measures, bit for bit
        model = space._model(values)
        report = independence_report(model)
        assert row.md == measurement_dependence(model)[0]
        assert row.od == report.od
        assert row.pd == report.pd


# -- batched scores: the compass poll and the grid scan ------------------------------


def _ladder_space(objective, params=None):
    params = params or (
        SearchParam("h_out", "h", targets=("1", "2"), lo=-2.0, hi=2.0),
        SearchParam("j_arm", "j", targets=(("1", "3"), ("a", "6")), lo=0.1, hi=3.0),
        SearchParam("j_mid", "j", targets=(("4", "7"),), lo=0.1, hi=3.0),
    )
    return SearchSpace(canonical_ladder(), params, objective=objective)


def _two_route_spaces(objective):
    """(space, point count): the spaces whose batched scores are checked
    against evaluate, with more points than one batch holds at 10 spins."""
    tuned = SearchSpace(
        tuned_field_grid(),
        (
            SearchParam("h_ends", "h", targets=("1", "2")),
            SearchParam("j_rung", "j", targets=(("3", "a"), ("5", "b"))),
            SearchParam("j_row", "j", targets=(("3", "4"), ("4", "5"))),
        ),
        objective=objective,
    )
    second = SearchSpace(
        second_neighbor_lattice(),
        (
            SearchParam("j_ab", "j", targets=(("a", "b"),)),
            SearchParam("j_diag", "j", targets=(("a", "2"), ("1", "b")), lo=0.0, hi=2.0),
        ),
        objective=objective,
    )
    chain = SearchSpace(
        chain_lattice(16),
        (
            SearchParam("h_end", "h", targets=("1", "3")),
            SearchParam("j_mid", "j", targets=(("8", "9"), ("b", "2"))),
        ),
        objective=objective,
    )
    return [(_ladder_space(objective), 150), (tuned, 150), (second, 150), (chain, 3)]


@pytest.mark.parametrize("objective", ["x_bi", "md"])
def test_batched_scores_equal_evaluate(objective):
    for space, count in _two_route_spaces(objective):
        rng = np.random.Generator(np.random.Philox(11))
        points = [tuple(float(rng.uniform(*p.bounds)) for p in space.params) for _ in range(count)]
        assert space._scores(points) == [space.evaluate(v) for v in points]


@pytest.mark.parametrize("objective", ["x_bi", "md"])
def test_batched_scores_mix_finite_and_minus_inf_rows(objective):
    # a huge coupling on the analyzer row leaves the anti-aligned settings
    # without weight (x_bi is undefined there, md skips those pairs), and
    # couplings near the double range overflow the energies: batches that
    # mix such rows with finite ones
    row = (("a", "6"), ("6", "7"), ("7", "8"), ("8", "b"))
    zero = SearchParam("j_row", "j", targets=row, lo=0.0, hi=500.0)
    overflow = SearchParam("j_arm", "j", targets=(("1", "a"), ("a", "6")), lo=0.0, hi=1e308)
    for param, values, minus_inf in (
        (zero, [0.5, 450.0, 1.0], objective == "x_bi"),
        (overflow, [0.7, 1e308, 2.0, 9e307], True),
    ):
        space = SearchSpace(canonical_ladder(), (param,), objective=objective)
        points = [(v,) for v in values * 30]
        scores = space._scores(points)
        assert scores == [space.evaluate(v) for v in points]
        assert (-math.inf in scores) == minus_inf
        assert any(math.isfinite(s) for s in scores)
    with pytest.raises(NumericRangeError):
        SearchSpace(canonical_ladder(), (overflow,))._model((1e308,))
    with pytest.raises(ZeroMeasureConditionError):
        conditional_table(SearchSpace(canonical_ladder(), (zero,))._model((450.0,)))


def _serial_descent(space, start, budget, initial_step, min_step, counter, trajectory):
    """The compass search scoring one probe at a time through evaluate."""

    def ev(values):
        counter[0] += 1
        return space.evaluate(values)

    best = start
    best_score = ev(best)
    trajectory.append((counter[0], best, best_score))
    step = initial_step
    while step >= min_step and counter[0] < budget:
        probe_best = None
        probe_score = best_score
        for i, p in enumerate(space.params):
            for sign in (-1.0, 1.0):
                if counter[0] >= budget:
                    break
                cand = list(best)
                cand[i] = p.clip(best[i] + sign * step)
                cand = tuple(cand)
                if cand == best:
                    continue
                score = ev(cand)
                if score > probe_score:
                    probe_best, probe_score = cand, score
        if probe_best is None:
            step *= 0.5
        else:
            best, best_score = probe_best, probe_score
            trajectory.append((counter[0], best, best_score))
    return best, best_score


def _run(space, budget, seed, start=None):
    r = maximize_chsh(space, budget=budget, seed=seed, start=start)
    return r.best_values, r.best_score, r.evaluations, r.restarts, r.certified, r.trajectory


@pytest.mark.parametrize("objective", ["x_bi", "md"])
def test_batched_polls_follow_the_serial_search(monkeypatch, objective):
    # budgets that end mid-poll (a poll holds up to 6 probes at G = 3);
    # a start on the box corner, where the bounds clip probes onto best;
    # and a start where the analyzer row pins sa = sb, on a plateau of -inf
    # x_bi that a walk accepting ties would wander
    space = _ladder_space(objective)
    runs = [(space, budget, seed, None) for budget in (1, 2, 7, 50) for seed in (0, 5)]
    runs.append((space, 40, 1, (-2.0, 0.1, 3.0)))
    row = SearchParam("j_row", "j", targets=(("a", "6"), ("6", "7"), ("7", "8"), ("8", "b")), hi=500.0)
    pinned = _ladder_space(objective, (row, *space.params[:2]))
    runs += [(pinned, 60, seed, (450.0, 0.0, 1.0)) for seed in (0, 2)]
    batched = [_run(*run) for run in runs]
    monkeypatch.setattr(search_mod, "_pattern_descent", _serial_descent)
    assert batched == [_run(*run) for run in runs]


def test_search_evaluates_one_point_only_to_certify(monkeypatch):
    """The search and the grid scan score every point in batches of the
    energy family, none through evaluate; the certificate reads one fresh
    build of the incumbent's lattice."""
    calls, builds = [], []
    evaluate = SearchSpace.evaluate

    def counting(self, values):
        calls.append(values)
        return evaluate(self, values)

    def building(lattice):
        builds.append(lattice)
        return build_model(lattice)

    monkeypatch.setattr(SearchSpace, "evaluate", counting)
    monkeypatch.setattr(search_mod, "build_model", building)
    space = _ladder_space("x_bi")
    res = maximize_chsh(space, budget=60, seed=3)
    assert calls == []
    assert builds == [space.build(res.best_values)]
    assert res.certified
    grid_scan(space, resolution=2)
    assert (len(calls), len(builds)) == (0, 1)


def test_certificate_fails_when_a_fresh_build_disagrees(monkeypatch):
    """The certificate reads the lattice, not the energy family the search
    scored: a build that moves one field refuses it."""
    moved = lambda lattice: build_model(lattice.with_fields({"1": 0.3}))  # noqa: E731
    monkeypatch.setattr(search_mod, "build_model", moved)
    res = maximize_chsh(_ladder_space("x_bi"), budget=20, seed=3)
    assert math.isfinite(res.best_score)
    assert not res.certified


# -- memory --------------------------------------------------------------------------

_X_BI_CONFIG = Path(__file__).parent / "golden" / "search-ladder-x_bi.json"


@pytest.mark.parametrize(
    ("sweep", "limit_mb"),
    [("placements", 4.0), ("grid", 2.5)],
)
def test_search_sweeps_keep_their_traced_peak(sweep, limit_mb):
    """The placement sweep and a resolution-6 grid scan read their stacks a
    bounded batch at a time: about 3 MB and 1.8 MB traced at the
    benchmark's sizes, whose peak RSS these bounds guard."""
    if sweep == "placements":
        run = lambda: role_permutation_search(top=0, dedup_symmetry=False)  # noqa: E731
    else:
        space = load_search_config(_X_BI_CONFIG)
        run = lambda: grid_scan(space, resolution=6)  # noqa: E731
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6
