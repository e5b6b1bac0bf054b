"""Derivative-free parameter search over lattice fields and couplings.

Grouped parameters are structural: one SearchParam drives every node or edge
it targets, so tied values stay tied by construction rather than by penalty.
The optimizer is a compass pattern search (probe +/- step on each axis, move
to the best improving probe, halve the step when nothing improves) with
uniform random restarts from a seeded Philox stream. Evaluations that hit a
degenerate or zero-measure model score -inf instead of raising, so the walk
simply avoids them.

Energies are linear in the search parameters, E(theta) = E_rest +
sum_g theta_g Phi_g, so a space enumerates its lattice once (model._Family):
E_rest holds every term no group targets, and row g of Phi is the spin (or
spin-pair) column summed over group g's targets. A point's score agrees
with a fresh build of the same point to rounding, not bit for bit.

SearchSpace.evaluate scores one point. The search scores each compass poll,
and the grid scan its points, as one batch: the points' weights are the rows
of one array of at most 2^16 words (one row beyond 16 spins), and every
reduction runs over the whole batch. Each row takes evaluate's operations in
evaluate's order, so every batched score is == to evaluate's, -inf included.

Also here: a dense grid scan over the same parameter space, and an exhaustive
search over placements of the four measurement roles on a two-row grid. The
placements share one enumerated grid and differ only in which axes they
read. Both sweeps read stacks: a batch of grid rows, or the placements that
share a transpose, go through one reduction each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Collection, Iterator, Mapping, Sequence

import numpy as np

from .bell import _x_bi_rows, chsh, conditional_table
from .errors import (
    DegenerateModelError,
    InvalidArgumentError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from .independence import _md_rows, _measure_rows, _read, measurement_dependence
from .lattice import Lattice
from .model import _BLOCK_BITS, BoltzmannModel, _check_cap, _Family, _tables, build_model
from .sampling import _generator
from ._format import check_counts, csv_table, fmt

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

# Failures of an objective that score -inf. Named one by one: catching
# ArithmeticError would also hide a ZeroDivisionError or OverflowError of a bug.
_MINUS_INF_ERRORS = (ZeroMeasureConditionError, DegenerateModelError, NumericRangeError)


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
        # a j target is one (a, b) pair; a string would unpack letter by letter
        for i, t in enumerate(self.targets if self.kind == "j" else ()):
            if isinstance(t, (str, bytes)) or not isinstance(t, Collection) or len(t) != 2:
                raise InvalidArgumentError(
                    f"parameter {self.name!r} target {i} must be a pair of node ids, got {t!r}"
                )
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

    Construction enumerates the base once into the linear family of energies
    that every evaluation reads (8 * (G + 1) * 2^N bytes for G groups).
    """

    base: Lattice
    params: tuple[SearchParam, ...]
    objective: str = "x_bi"
    _family: _Family = field(init=False, repr=False, compare=False)

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
        family = _Family(self.base, owned_h, owned_j, len(self.params))
        object.__setattr__(self, "_family", family)

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
        """The ensemble at one point, read from the energy family.

        Its lattice is the base, which carries the roles, node order and
        beta the objectives read, but not the point's fields and couplings;
        the model must not leave this module.
        """
        weights, shift = self._family.point(self._check(values))
        return BoltzmannModel(self.base, weights, shift)

    def evaluate(self, values: Sequence[float]) -> float:
        """Objective score; -inf where the model is degenerate or overflows."""
        try:
            return OBJECTIVES[self.objective](self._model(values))
        except _MINUS_INF_ERRORS:
            return -math.inf

    def _batches(
        self, points: Sequence[tuple[float, ...]]
    ) -> Iterator[tuple[Sequence[tuple[float, ...]], np.ndarray, np.ndarray]]:
        """(points, weights, shifts), one batch of the family's rows at a
        time (see _Family.weights). The points must lie in the box."""
        rows = self._family.rows
        for lo in range(0, len(points), rows):
            batch = points[lo : lo + rows]
            yield batch, *self._family.weights(np.array(batch, dtype=float))

    def _score_rows(self, objective: str, weights: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """The objective at each row of a batch, == evaluate at its point:
        -inf exactly where evaluate's model raises NumericRangeError (a NaN
        shift), ZeroMeasureConditionError or DegenerateModelError."""
        ok = ~np.isnan(shifts)
        scores = np.full(len(ok), -np.inf)
        if not ok.any():
            return scores
        rows = weights if ok.all() else weights[ok]
        index, ids = self.base.index, self.base.bell_ids()
        if objective == "x_bi":
            scores[ok] = _x_bi_rows(_tables(rows, index, ids))
        else:
            scan = _read(_tables(rows, index, [*ids, *self.base.hidden_ids]), masses_only=True)
            scores[ok] = _md_rows(scan.mass)[0]
        return scores

    def _scores(self, points: Sequence[tuple[float, ...]]) -> list[float]:
        """evaluate at each point, == point by point, scored in batches."""
        return [
            score
            for _, weights, shifts in self._batches(points)
            for score in self._score_rows(self.objective, weights, shifts).tolist()
        ]


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
    """Compass search from start; counter[0] tracks global evaluations.

    A poll probes best[i] -/+ step on each axis in turn, skipping probes
    that the bounds clip back onto best, and scores them as one batch,
    truncated to the budget left; the first strictly best probe wins.
    """
    best = start
    (best_score,) = space._scores([best])
    counter[0] += 1
    trajectory.append((counter[0], best, best_score))
    step = initial_step
    while step >= min_step and counter[0] < budget:
        probe_best = None
        probe_score = best_score
        probes = []
        for i, p in enumerate(space.params):
            for sign in (-1.0, 1.0):
                cand = (*best[:i], p.clip(best[i] + sign * step), *best[i + 1 :])
                if cand != best:
                    probes.append(cand)
        probes = probes[: budget - counter[0]]
        counter[0] += len(probes)
        for cand, score in zip(probes, space._scores(probes)):
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
    certified when the public objective on a fresh build of its lattice,
    not the energy family the search scores, agrees within 1e-12.
    """
    check_counts(budget=budget, restarts=restarts)
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

    try:
        recheck = OBJECTIVES[space.objective](build_model(space.build(best)))
    except _MINUS_INF_ERRORS:
        recheck = -math.inf
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
    degenerate points are skipped. The points are scored in batches (see
    SearchSpace._batches). The rows of a batch with a finite CHSH
    combination are read as one stack of weight tables by the
    independence reader, whose results for each table depend on it alone,
    so every row is == to one built point by point.
    """
    check_counts(resolution=resolution)
    if resolution < 2:
        raise InvalidArgumentError(f"resolution must be >= 2, got {resolution}")
    axes = [_grid_axis(p, resolution) for p in space.params]
    index, ids = space.base.index, [*space.base.bell_ids(), *space.base.hidden_ids]
    rows = []
    for points, weights, shifts in space._batches(list(itertools.product(*axes))):
        x_bi = space._score_rows("x_bi", weights, shifts)
        read = np.flatnonzero(x_bi != -np.inf)
        tables = _tables(weights if len(read) == len(weights) else weights[read], index, ids)
        measures, refused = _measure_rows(tables)
        rows += [
            GridRow(points[i], x, *m)
            for i, x, m, r in zip(read.tolist(), x_bi[read].tolist(), measures.tolist(), refused)
            if not r
        ]
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


def _placements(columns: int, fields: Sequence[float], dedup_symmetry: bool) -> np.ndarray:
    """Role placements as rows of position indices (outcome1, outcome2,
    analyzer_a, analyzer_b), in permutation order.

    With dedup_symmetry only the first placement of each orbit is kept,
    under those of the grid's row and column flips that map every position
    onto one with the same field (fields[k] is position k's). The couplings
    are the same under every flip, so the fields alone decide. Permutation
    order is lexicographic, so the first placement of an orbit is the one
    that no kept flip makes smaller. Position index r * columns + c is row
    r ("t" = 0, "u" = 1), column c, as in grid_positions.
    """
    size = 2 * columns
    count = math.perm(size, 4)
    combos = itertools.chain.from_iterable(itertools.permutations(range(size), 4))
    combos = np.fromiter(combos, dtype=np.intp, count=4 * count).reshape(count, 4)
    if not dedup_symmetry:
        return combos
    flips = [
        [(r ^ fr) * columns + (columns - 1 - c if fc else c)
         for r in (0, 1) for c in range(columns)]
        for fr, fc in itertools.product((0, 1), repeat=2)
    ]
    flips = [f for f in flips if all(fields[f[k]] == h for k, h in enumerate(fields))]
    digits = size ** np.arange(3, -1, -1)  # a placement's rank in permutation order
    rank = combos @ digits
    first = np.all([rank <= np.take(f, combos) @ digits for f in flips], axis=0)
    return combos[first]


def _placement_x_bi(model: BoltzmannModel, combos: np.ndarray) -> np.ndarray:
    """The CHSH combination of each placement, -inf where a setting has
    no weight.

    A placement's (o1, o2, a, b) weights are a transpose of its four-node
    set's weight table, one weight_table per set; the tables are stacked in
    their own memory order. The placements are grouped by the order of
    their four positions (24 groups): a group's weights are one transposed
    view of its gathered tables, which has every placement's strides, and
    its setting masses are summed on that view, as conditional_table sums
    them.
    """
    ids = model.lattice.node_ids
    order = combos.argsort(axis=1)
    _, first, set_of = np.unique((1 << combos).sum(axis=1), return_index=True, return_inverse=True)
    # weight_table returns a transpose of its sum; .T is that sum, highest bit first
    keys = np.take_along_axis(combos[first], order[first], axis=1).tolist()
    tables = np.stack([model.weight_table([ids[k] for k in key]).T for key in keys])
    places = order.argsort(axis=1)  # each role's place among the four positions
    _, first, group_of = np.unique(places @ [64, 16, 4, 1], return_index=True, return_inverse=True)
    x_bi = np.empty(len(combos))
    for g, place in enumerate(places[first].tolist()):
        rows = np.flatnonzero(group_of == g)
        weights = tables[set_of[rows]].transpose(0, *(4 - k for k in place))
        x_bi[rows] = _x_bi_rows(weights)
    return x_bi


def _placement_md(model: BoltzmannModel, combos: np.ndarray) -> np.ndarray:
    """md of each placement, lambda being the other positions in grid order.

    A placement's (a, b, lambda) masses are a transpose of its outcome
    pair's masses: the full weight table summed over the two outcome axes,
    over the other positions in grid order, one weight_table per ordered
    outcome pair. Those sums are stacked, and each placement's masses are
    gathered from its pair's sum through the index row of its (a, b)
    slots among the other positions, a batch of at most 2^_BLOCK_BITS
    words at a time.
    """
    n = model.n
    ids = model.lattice.node_ids
    pairs = combos[:, 0] * n + combos[:, 1]
    _, first, pair_of = np.unique(pairs, return_index=True, return_inverse=True)
    sums = np.empty((len(first), 1 << (n - 2)))
    for row, (o1, o2) in zip(sums, combos[first, :2].tolist()):
        rest = [ids[k] for k in range(n) if k not in (o1, o2)]
        table = model.weight_table([ids[o1], ids[o2], *rest])
        row[:] = np.ascontiguousarray(table).sum(axis=(0, 1)).reshape(-1)
    # the slots of a and b among the other positions
    slots = combos[:, 2:] - (combos[:, 2:, None] > combos[:, None, :2]).sum(axis=2)
    _, first, slot_of = np.unique(slots @ [n - 2, 1], return_index=True, return_inverse=True)
    words = sums.shape[1]
    lam = np.arange(words).reshape((2,) * (n - 2))
    index = np.array([
        lam.transpose([a, b, *(k for k in range(n - 2) if k not in (a, b))]).reshape(-1)
        for a, b in slots[first].tolist()
    ], dtype=np.intp).reshape(len(first), words)
    offset = pair_of * words
    md = np.empty(len(combos))
    step = max((1 << _BLOCK_BITS) >> (n - 2), 1)
    for lo in range(0, len(combos), step):
        rows = slice(lo, lo + step)
        at = index[slot_of[rows]]
        at += offset[rows, None]
        md[rows] = _md_rows(np.take(sums, at).reshape(len(at), 2, 2, -1))[0]
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

    With dedup_symmetry, placements equivalent under a horizontal/vertical
    flip of the grid that keeps every position's field are evaluated once;
    fields without such a flip get the full sweep. Returns the top
    placements by the CHSH combination, ties broken by placement order;
    top 0 returns every placement, and a negative top raises
    InvalidArgumentError. fields is one shared h or a position -> h
    mapping over the names of grid_positions(columns); an unknown position
    raises InvalidArgumentError.

    Roles do not enter the energy, so the grid is enumerated once and every
    placement is a view of its weight tables. The CHSH tables come from one
    weight_table per unordered four-node set, read for all placements that
    put their roles on the set in the same order as one stack. md comes
    from one sum over the two outcomes of the full weight table per ordered
    outcome pair, with lambda the remaining positions in grid order, each
    placement's masses gathered from it and read in stacks of at most 2^16
    words. Each sum, and each per-placement reduction, adds the same terms
    in the same order as weight_table and measurement_dependence on that
    placement, so every x_bi and md is bit-identical to a per-placement
    build. The placements, their order and the top ones are found on
    arrays; only the results returned are built one by one.
    """
    from .presets import grid_lattice, grid_positions

    check_counts(columns=columns, top=top)
    if top < 0:
        raise InvalidArgumentError(f"top must be >= 0, got {top}")
    _check_cap(2 * columns)  # refuse from the count, before the grid is built
    positions = grid_positions(columns)
    if len(positions) < 4:  # no placement fits, and an empty grid would not build
        return []
    try:
        model = build_model(
            grid_lattice({}, j=j, fields=fields, beta=beta, columns=columns, diagonal_j=diagonal_j)
        )
    except NumericRangeError:
        return []
    fields_at = [node.h for node in model.lattice.nodes]  # nodes in position order
    combos = _placements(columns, fields_at, dedup_symmetry)
    x_bi = _placement_x_bi(model, combos)
    kept = x_bi != -np.inf
    combos, x_bi = combos[kept], x_bi[kept]
    md = _placement_md(model, combos)
    # a placement is its (position, label) spots in order; spot[:, i] is
    # the rank of role i's spot among all spots
    labels = ("outcome1", "outcome2", "analyzer_a", "analyzer_b")
    spots = sorted(itertools.product(positions, labels))
    spot = 4 * np.argsort(np.argsort(positions))[combos] + np.argsort(np.argsort(labels))
    spot.sort(axis=1)
    best = np.lexsort([*spot.T[::-1], -x_bi])[: top or None]
    return [
        PlacementResult(tuple(map(spots.__getitem__, at)), x, m)
        for at, x, m in zip(spot[best].tolist(), x_bi[best].tolist(), md[best].tolist())
    ]
