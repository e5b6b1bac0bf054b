"""Derivative-free parameter search over lattice fields and couplings.

Grouped parameters are structural: one SearchParam drives every node or edge
it targets, so tied values stay tied by construction rather than by penalty.
The optimizer is a compass pattern search (probe +/- step on each axis, move
to the best improving probe, halve the step when nothing improves) with
uniform random restarts from a seeded Philox stream. Evaluations that hit a
degenerate or zero-measure model score -inf instead of raising, so the walk
simply avoids them.

Energies are linear in the search parameters, E(theta) = E_rest +
sum_g theta_g Phi_g, so a space enumerates its lattice once: E_rest holds
every term no group targets, and row g of Phi is the spin (or spin-pair)
column summed over group g's targets. An evaluation is G multiply-adds and
one exp over 2^N entries; it agrees with a fresh build of the same point
to rounding, not bit for bit.

Also here: a dense grid scan over the same parameter space, and an exhaustive
search over placements of the four measurement roles on a two-row grid. The
placements share one enumerated grid and differ only in which axes they
read.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from .bell import _bell_terms, _check_columns, _correlators, chsh, conditional_table
from .errors import (
    DegenerateModelError,
    InvalidArgumentError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from .independence import _md_pairs, independence_report, measurement_dependence
from .lattice import Lattice
from .model import ZERO_MEASURE, BoltzmannModel, _check_cap, _energies, _stabilize, build_model
from .sampling import _generator
from ._format import csv_table, fmt

__all__ = [
    "SearchParam",
    "SearchSpace",
    "SearchResult",
    "maximize_chsh",
    "GridRow",
    "grid_scan",
    "grid_csv",
    "PlacementResult",
    "role_permutation_search",
    "OBJECTIVES",
    "FIELD_BOUNDS",
    "COUPLING_BOUNDS",
]

# Box constraints per parameter kind.
FIELD_BOUNDS = (-3.0, 3.0)
COUPLING_BOUNDS = (0.0, 4.0)


def _objective_x_bi(model: BoltzmannModel) -> float:
    return chsh(conditional_table(model)).x_bi


def _objective_md(model: BoltzmannModel) -> float:
    return measurement_dependence(model)[0]


OBJECTIVES = {"x_bi": _objective_x_bi, "md": _objective_md}


@dataclass(frozen=True)
class SearchParam:
    """One scalar degree of freedom applied to every listed target.

    kind "h" targets node ids; kind "j" targets (a, b) edge pairs. Bounds
    default to FIELD_BOUNDS / COUPLING_BOUNDS when not given.
    """

    name: str
    kind: str
    targets: tuple
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("h", "j"):
            raise InvalidArgumentError(f"parameter kind must be 'h' or 'j', got {self.kind!r}")
        if not self.targets:
            raise InvalidArgumentError(f"parameter {self.name!r} has no targets")
        object.__setattr__(self, "targets", tuple(self.targets))
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidArgumentError(
                f"parameter {self.name!r} has non-finite bounds [{lo}, {hi}]"
            )
        if not lo < hi:
            raise InvalidArgumentError(f"parameter {self.name!r} has empty range [{lo}, {hi}]")
        # grid points, restarts and the center are read from these
        if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
            raise InvalidArgumentError(
                f"parameter {self.name!r} has range [{lo}, {hi}], whose width or midpoint "
                "overflows a double"
            )

    @property
    def bounds(self) -> tuple[float, float]:
        default = FIELD_BOUNDS if self.kind == "h" else COUPLING_BOUNDS
        lo = default[0] if self.lo is None else float(self.lo)
        hi = default[1] if self.hi is None else float(self.hi)
        return lo, hi

    def clip(self, x: float) -> float:
        lo, hi = self.bounds
        return min(max(x, lo), hi)


@dataclass(frozen=True)
class SearchSpace:
    """Tied parameter groups over a base lattice, scored by one objective.

    Construction enumerates the base once into the energy columns that every
    evaluation reads (8 * (G + 1) * 2^N bytes for G groups).
    """

    base: Lattice
    params: tuple[SearchParam, ...]
    objective: str = "x_bi"
    _rest: np.ndarray = field(init=False, repr=False, compare=False)
    _columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not self.params:
            raise InvalidArgumentError("search space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate parameter names: {names}")
        if self.objective not in OBJECTIVES:
            raise InvalidArgumentError(
                f"unknown objective {self.objective!r}; choose from {sorted(OBJECTIVES)}"
            )
        # Resolving the targets also rejects bad ones before any search.
        owned_h, owned_j = self._targets(range(len(self.params)))
        rest = self.base.with_fields(dict.fromkeys(owned_h, 0.0))
        rest = rest.with_couplings(dict.fromkeys(owned_j, 0.0))
        _check_cap(rest.n)
        columns = np.empty((len(self.params), 1 << rest.n))
        for g in range(len(self.params)):
            # Phi_g: the energy of group g's targets at coefficient 1, all else 0
            nodes = [dataclasses.replace(n, h=float(owned_h.get(n.id) == g)) for n in rest.nodes]
            edges = [dataclasses.replace(e, j=float(owned_j.get(e.key()) == g)) for e in rest.edges]
            columns[g] = _energies(Lattice(nodes, edges))
        with np.errstate(over="ignore", invalid="ignore"):
            energies = _energies(rest)
        for name, array in (("_rest", energies), ("_columns", columns)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def center(self) -> tuple[float, ...]:
        return tuple((p.bounds[0] + p.bounds[1]) / 2.0 for p in self.params)

    def _check(self, values: Sequence[float]) -> tuple[float, ...]:
        if len(values) != len(self.params):
            raise InvalidArgumentError(
                f"expected {len(self.params)} values, got {len(values)}"
            )
        vals = tuple(float(v) for v in values)
        for p, v in zip(self.params, vals):
            lo, hi = p.bounds
            if not lo <= v <= hi:
                raise InvalidArgumentError(
                    f"value {v} for parameter {p.name!r} outside [{lo}, {hi}]"
                )
        return vals

    def _targets(self, values) -> tuple[dict, dict]:
        """(fields, couplings): each target's value, the last group's where
        groups overlap. Keys are node ids and frozenset edge keys."""
        fields: dict[str, object] = {}
        couplings: dict[frozenset, object] = {}
        for p, v in zip(self.params, values):
            if p.kind == "h":
                for nid in p.targets:
                    fields[nid] = v
            else:
                for a, b in p.targets:
                    couplings[frozenset((a, b))] = v
        return fields, couplings

    def build(self, values: Sequence[float]) -> Lattice:
        """Lattice with every tied target set to its group's value."""
        fields, couplings = self._targets(self._check(values))
        lattice = self.base
        if fields:
            lattice = lattice.with_fields(fields)
        if couplings:
            lattice = lattice.with_couplings(couplings)
        return lattice

    def _model(self, values: Sequence[float]) -> BoltzmannModel:
        """The ensemble at one point, read from the energy columns.

        Its lattice is the base, which carries the roles, node order and
        beta the objectives read, but not the point's fields and couplings;
        the model must not leave this module.
        """
        vals = self._check(values)
        with np.errstate(over="ignore", invalid="ignore"):
            energies = self._rest.copy()
            for v, column in zip(vals, self._columns):
                energies += v * column
        weights, shift = _stabilize(energies, self.base.beta)
        return BoltzmannModel(self.base, weights, shift)

    def evaluate(self, values: Sequence[float]) -> float:
        """Objective score; -inf where the model is degenerate or overflows."""
        try:
            return OBJECTIVES[self.objective](self._model(values))
        except (ZeroMeasureConditionError, DegenerateModelError, NumericRangeError):
            return -math.inf


@dataclass(frozen=True)
class SearchResult:
    best_values: tuple[float, ...]
    best_score: float
    evaluations: int
    restarts: int
    certified: bool
    trajectory: tuple[tuple[int, tuple[float, ...], float], ...] = field(repr=False)

    def to_text(self, space: SearchSpace, precision: int | None = 6) -> str:
        lines = [
            f"best {space.objective} = {fmt(self.best_score, precision)} "
            f"({self.evaluations} evaluations, {self.restarts} restarts, "
            f"certified={self.certified})"
        ]
        for p, v in zip(space.params, self.best_values):
            lines.append(f"  {p.name} = {fmt(v, precision)}")
        return "\n".join(lines)


def _pattern_descent(
    space: SearchSpace,
    start: tuple[float, ...],
    budget: int,
    initial_step: float,
    min_step: float,
    counter: list[int],
    trajectory: list,
) -> tuple[tuple[float, ...], float]:
    """Compass search from start; counter[0] tracks global evaluations."""

    def ev(values: tuple[float, ...]) -> float:
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


def maximize_chsh(
    space: SearchSpace,
    budget: int = 2000,
    seed: int = 0,
    start: Sequence[float] | None = None,
    restarts: int = 4,
    initial_step: float = 0.5,
    min_step: float = 1e-3,
) -> SearchResult:
    """Maximize the space's objective by seeded multistart pattern search.

    Restart 0 begins at start (default: the box center); later restarts are
    drawn uniformly from the box with the seed's Philox stream (a seed outside
    [0, 2^64) raises InvalidArgumentError), so the whole search is a pure
    function of (space, budget, seed, start). The returned incumbent is
    certified by one fresh evaluation outside the search loop.
    """
    if budget < 1:
        raise InvalidArgumentError(f"budget must be >= 1, got {budget}")
    if restarts < 1:
        raise InvalidArgumentError(f"restarts must be >= 1, got {restarts}")
    if not 0 < min_step <= initial_step:
        raise InvalidArgumentError(
            f"need 0 < min_step <= initial_step, got {min_step}, {initial_step}"
        )
    first = space.center() if start is None else space._check(start)
    rng = _generator(seed)

    counter = [0]
    trajectory: list = []
    best: tuple[float, ...] | None = None
    best_score = -math.inf
    done = 0
    for r in range(restarts):
        if counter[0] >= budget:
            break
        if r == 0:
            origin = first
        else:
            origin = tuple(
                p.bounds[0] + (p.bounds[1] - p.bounds[0]) * rng.random()
                for p in space.params
            )
        values, score = _pattern_descent(
            space, origin, budget, initial_step, min_step, counter, trajectory
        )
        done += 1
        # a search where every point is degenerate keeps restart 0 at -inf
        if best is None or score > best_score:
            best, best_score = values, score

    recheck = space.evaluate(best)
    certified = math.isfinite(best_score) and abs(recheck - best_score) <= 1e-12
    return SearchResult(
        best_values=best,
        best_score=best_score,
        evaluations=counter[0],
        restarts=done,
        certified=certified,
        trajectory=tuple(trajectory),
    )


@dataclass(frozen=True)
class GridRow:
    values: tuple[float, ...]
    x_bi: float
    md: float
    od: float
    pd: float


def _grid_axis(p: SearchParam, resolution: int) -> list[float]:
    """resolution points from lo to hi inclusive. On a range wider than the
    double range over (resolution - 1), (hi - lo) * t overflows, so those
    points take the fraction t / (resolution - 1) first. Rounding can carry
    a point past hi (-0.1 + 0.4 > 0.3); it is clipped back."""
    lo, hi = p.bounds
    axis = []
    for t in range(resolution):
        offset = (hi - lo) * t
        if math.isfinite(offset):
            offset /= resolution - 1
        else:
            offset = (hi - lo) * (t / (resolution - 1))
        axis.append(p.clip(lo + offset))
    return axis


def grid_scan(space: SearchSpace, resolution: int = 5) -> list[GridRow]:
    """Dense scan: resolution points per axis, inclusive of both bounds.

    Each row carries the CHSH combination and all three dependence measures;
    degenerate points are skipped.
    """
    if resolution < 2:
        raise InvalidArgumentError(f"resolution must be >= 2, got {resolution}")
    axes = [_grid_axis(p, resolution) for p in space.params]
    rows = []
    for values in itertools.product(*axes):
        try:
            model = space._model(values)
            x_bi = chsh(conditional_table(model)).x_bi
            report = independence_report(model)
        except (ZeroMeasureConditionError, DegenerateModelError, NumericRangeError):
            continue
        rows.append(GridRow(tuple(values), x_bi, report.md, report.od, report.pd))
    return rows


def grid_csv(space: SearchSpace, rows: Sequence[GridRow], precision: int | None = None) -> str:
    header = [p.name for p in space.params] + ["x_bi", "md", "od", "pd"]
    return csv_table(header, [(*r.values, r.x_bi, r.md, r.od, r.pd) for r in rows], precision)


@dataclass(frozen=True)
class PlacementResult:
    placement: tuple[tuple[str, str], ...]
    x_bi: float
    md: float

    def describe(self) -> str:
        spots = ", ".join(f"{label}@{pos}" for pos, label in self.placement)
        return f"x_bi={self.x_bi:.6f} md={self.md:.6f} [{spots}]"


def _placements(columns: int, dedup_symmetry: bool) -> Iterator[tuple[int, ...]]:
    """Role placements as position indices (outcome1, outcome2, analyzer_a,
    analyzer_b), in permutation order.

    With dedup_symmetry only the first placement of each orbit under the
    grid's row and column flips is kept. Position index r * columns + c is
    row r ("t" = 0, "u" = 1), column c, as in grid_positions.
    """
    combos = itertools.permutations(range(2 * columns), 4)
    if not dedup_symmetry:
        yield from combos
        return
    flips = [
        [(r ^ fr) * columns + (columns - 1 - c if fc else c)
         for r in (0, 1) for c in range(columns)]
        for fr, fc in itertools.product((0, 1), repeat=2)
    ]
    seen: set = set()
    for combo in combos:
        if combo not in seen:
            seen.update(tuple(f[k] for k in combo) for f in flips)
            yield combo


def _placement_x_bi(
    tensor: np.ndarray, combos: list[tuple[int, ...]], set_sums: dict
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The placements that give every setting weight, and their CHSH
    combinations.

    A placement's (o1, o2, a, b) weights are a transpose of its four-node
    set's sum, kept in set_sums; its setting masses are summed on that
    view, as conditional_table sums them.
    """
    n = tensor.ndim
    weights = np.empty((len(combos), 2, 2, 2, 2))
    masses = np.empty((len(combos), 2, 2))
    for i, combo in enumerate(combos):
        by_axis = sorted(combo, reverse=True)  # the order of their tensor axes
        key = tuple(by_axis)
        if key not in set_sums:
            set_sums[key] = tensor.sum(axis=tuple(a for a in range(n) if n - 1 - a not in combo))
        view = set_sums[key].transpose([by_axis.index(k) for k in combo])
        weights[i] = view
        masses[i] = view.sum(axis=(0, 1))
    keep = ~(masses < ZERO_MEASURE).any(axis=(1, 2))
    tables = weights[keep]
    tables /= masses[keep][:, None, None]
    tables = np.moveaxis(tables, 0, -1)  # (s1, s2, sa, sb, placement)
    _check_columns(tables)
    x_bi = _bell_terms(_correlators(tables))[2]
    return [combo for combo, k in zip(combos, keep) if k], x_bi


# Upper bound on the md difference array of one batch of placements.
_MD_BATCH_BYTES = 1 << 18


def _placement_md(tensor: np.ndarray, combos: list[tuple[int, ...]]) -> np.ndarray:
    """md of placements that share their outcome nodes, lambda being the
    other positions in grid order.

    Every (a, b, lambda) weight table is a transpose of one sum over the
    two outcome axes.
    """
    n = tensor.ndim
    md = np.empty(len(combos))
    if not combos:
        return md
    o1, o2 = combos[0][:2]
    rest = [k for k in range(n) if k not in (o1, o2)]
    order = [n - 1 - k for k in (o1, o2, *rest)]
    summed = np.ascontiguousarray(tensor.transpose(order)).sum(axis=(0, 1))
    cells = 16 << (n - 4)  # setting pairs times lambda states, per placement
    step = max(1, _MD_BATCH_BYTES // (8 * cells))
    for lo in range(0, len(combos), step):
        batch = combos[lo : lo + step]
        stack = np.stack([
            summed.transpose(
                [rest.index(a), rest.index(b)] + [x for x, k in enumerate(rest) if k not in (a, b)]
            )
            for _, _, a, b in batch
        ])
        # C order, as in the report's setting masses: numpy adds a strided
        # lambda axis in another order than a contiguous one
        stack = np.ascontiguousarray(stack).reshape(len(batch), 2, 2, -1)
        md[lo : lo + step] = _md_pairs(stack)[0].reshape(len(batch), -1).max(axis=1)
    return md


def role_permutation_search(
    j: float = 1.0,
    fields: float | Mapping[str, float] = 0.0,
    beta: float = 1.0,
    columns: int = 5,
    diagonal_j: float | None = None,
    top: int = 10,
    dedup_symmetry: bool = True,
) -> list[PlacementResult]:
    """Try the four measurement roles on every slot of the two-row grid.

    Placements equivalent under the grid's horizontal/vertical flips are
    evaluated once when dedup_symmetry is set (and when the field pattern is
    itself flip-symmetric, which the caller must ensure). Returns the top
    placements by the CHSH combination, ties broken by placement order.
    fields is one shared h or a position -> h mapping over the names of
    grid_positions(columns); an unknown position raises InvalidArgumentError.

    Roles do not enter the energy, so the grid is enumerated once and every
    placement is a view of its tensor (position k on axis n-1-k). The CHSH
    tables come from one sum per unordered four-node set, and md from one
    sum over the two outcomes per ordered outcome pair, with lambda the
    remaining positions in grid order. Each sum, and each per-placement
    reduction, adds the same terms in the same order as weight_table and
    measurement_dependence on that placement, so every x_bi and md is
    bit-identical to a per-placement build. Placements are evaluated in
    groups that share their outcome nodes, so each numpy work array holds
    one group.
    """
    from .presets import grid_lattice, grid_positions

    positions = grid_positions(columns)
    if len(positions) < 4:  # no placement fits, and an empty grid would not build
        return []
    try:
        model = build_model(
            grid_lattice({}, j=j, fields=fields, beta=beta, columns=columns, diagonal_j=diagonal_j)
        )
    except NumericRangeError:
        return []
    by_outcomes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for combo in _placements(columns, dedup_symmetry):
        by_outcomes.setdefault(combo[:2], []).append(combo)
    labels = ("outcome1", "outcome2", "analyzer_a", "analyzer_b")
    set_sums: dict[tuple[int, ...], np.ndarray] = {}
    results = []
    for group in by_outcomes.values():
        placed, x_bi = _placement_x_bi(model._tensor, group, set_sums)
        md = _placement_md(model._tensor, placed)
        results += [
            PlacementResult(
                placement=tuple(sorted(zip((positions[k] for k in combo), labels))),
                x_bi=x,
                md=m,
            )
            for combo, x, m in zip(placed, x_bi.tolist(), md.tolist())
        ]
    results.sort(key=lambda r: (-r.x_bi, r.placement))
    return results[: top if top else len(results)]
