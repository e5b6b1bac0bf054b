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
from collections.abc import Mapping, Sequence

import numpy as np

from .bell import _conditional_from_weights, chsh, conditional_table
from .errors import (
    DegenerateModelError,
    InvalidArgumentError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from .independence import (
    _md_core,
    measurement_dependence,
    outcome_dependence,
    parameter_dependence,
)
from .lattice import Lattice
from .model import BoltzmannModel, _check_cap, _energies, _stabilize, build_model
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
    drawn uniformly from the box with a Philox stream, so the whole search is
    a pure function of (space, budget, seed, start). The returned incumbent
    is certified by one fresh evaluation outside the search loop.
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
    rng = np.random.Generator(np.random.Philox(seed))

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
        if score > best_score:
            best, best_score = values, score

    assert best is not None
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


def grid_scan(space: SearchSpace, resolution: int = 5) -> list[GridRow]:
    """Dense scan: resolution points per axis, inclusive of both bounds.

    Each row carries the CHSH combination and all three dependence measures;
    degenerate points are skipped.
    """
    if resolution < 2:
        raise InvalidArgumentError(f"resolution must be >= 2, got {resolution}")
    axes = []
    for p in space.params:
        lo, hi = p.bounds
        axes.append([lo + (hi - lo) * t / (resolution - 1) for t in range(resolution)])
    rows = []
    for values in itertools.product(*axes):
        try:
            model = space._model(values)
            table = conditional_table(model)
        except (ZeroMeasureConditionError, DegenerateModelError, NumericRangeError):
            continue
        rows.append(
            GridRow(
                values=tuple(values),
                x_bi=chsh(table).x_bi,
                md=measurement_dependence(model)[0],
                od=outcome_dependence(model)[0],
                pd=parameter_dependence(model)[0],
            )
        )
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


def _canonical_placement(placement: dict, columns: int) -> tuple:
    """Least representative under the grid's flip symmetries.

    Position names are row letter + column index ("t3", "u0"); the vertical
    flip swaps the rows, the horizontal flip reverses the columns.
    """
    variants = []
    for flip_r, flip_c in itertools.product((False, True), repeat=2):
        mapped = []
        for pos, label in placement.items():
            row, col = pos[0], int(pos[1:])
            if flip_r:
                row = "u" if row == "t" else "t"
            if flip_c:
                col = columns - 1 - col
            mapped.append((f"{row}{col}", label))
        variants.append(tuple(sorted(mapped)))
    return min(variants)


def role_permutation_search(
    j: float = 1.0,
    fields: float | Mapping[tuple[int, int], float] = 0.0,
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

    Roles do not enter the energy, so the grid is enumerated once and each
    placement reads its outcome/analyzer axes (and, for md, the remaining
    positions as lambda) from the one model.
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
    labels = ("outcome1", "outcome2", "analyzer_a", "analyzer_b")
    seen: set = set()
    results: list[PlacementResult] = []
    for combo in itertools.permutations(positions, 4):
        placement = dict(zip(combo, labels))
        if dedup_symmetry:
            key = _canonical_placement(placement, columns)
            if key in seen:
                continue
            seen.add(key)
        try:
            table = _conditional_from_weights(model.weight_table(combo))
        except ZeroMeasureConditionError:
            continue
        lam = tuple(pos for pos in positions if pos not in combo)
        w5 = model.weight_table(combo + lam).reshape(2, 2, 2, 2, -1)
        results.append(
            PlacementResult(
                placement=tuple(sorted(placement.items())),
                x_bi=chsh(table).x_bi,
                md=_md_core(w5, lam)[0],
            )
        )
    results.sort(key=lambda r: (-r.x_bi, r.placement))
    return results[: top if top else len(results)]
