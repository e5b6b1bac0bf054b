"""Seeded sampling from exact models and frequency stabilization reports.

Randomness comes from numpy's Philox generator: a counter-based, 64-bit
seedable bit generator whose streams are reproducible across platforms and
cheap to split. The same seed always produces byte-identical sample arrays.

Two samplers:

- exact: inverse-transform sampling of the full configuration distribution
  through the cumulative stabilized weights (no chain, no autocorrelation);
- metropolis: single-spin-flip Metropolis with uniformly chosen sites and
  acceptance min(1, exp(-beta dH)). Defaults: burn-in of 10 * 1024 * N flips
  (ten times 2^10 sweeps), thinning of N flips (one sweep) between kept
  samples; both can be overridden. The stream holds every site choice,
  then every uniform, so the flip schedule is a pure function of the seed;
  it is drawn in fixed blocks, so its memory does not grow with the run.
  Each site keeps a key of the spins its dH reads, and a flip is decided by
  one lookup of the acceptance threshold for that key (exp(-beta dH), or
  infinity where dH <= 0). A site computes a threshold the first time it
  meets the key, with the same arithmetic as a direct evaluation, and
  stores at most 2^8 of them, so the words equal those of evaluating dH at
  every flip and the table's memory is bounded.

Samples are configuration words (see model: node i at bit i, bit 1 = +1).
frequency_report tracks a conditional event frequency along checkpoints,
against the exact value, with binomial standard errors.
"""

from __future__ import annotations

import copy
import itertools
import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPostselectionWarning, InvalidArgumentError
from .lattice import Spin
from .model import BoltzmannModel
from ._format import check_counts, csv_table, fmt, pm

__all__ = [
    "SampleRun",
    "sample",
    "FrequencyRow",
    "ConvergenceReport",
    "frequency_report",
    "DEFAULT_CHECKPOINTS",
]

DEFAULT_CHECKPOINTS = (100, 1_000, 10_000, 100_000, 1_000_000)

_KINDS = ("exact", "metropolis")

# entries of the exact sampler's one cumulative-weight buffer
_CHUNK = 1 << 16
# Metropolis flips whose site indices and uniforms are drawn at a time
_FLIP_BLOCK = 1 << 10
# Metropolis acceptance thresholds one site keeps, at most
_THRESHOLD_CAP = 1 << 8


@dataclass(frozen=True)
class SampleRun:
    """Reproducible sampling request.

    burn_in and thinning are in single-spin flips and only apply to the
    metropolis kind; None picks the defaults (10 * 1024 * N and N).
    """

    seed: int
    n: int
    kind: str = "exact"
    burn_in: int | None = None
    thinning: int | None = None

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        optional = {"burn_in": self.burn_in, "thinning": self.thinning}
        check_counts(n=self.n, **{k: v for k, v in optional.items() if v is not None})
        if self.n < 1:
            raise InvalidArgumentError(f"sample count must be >= 1, got {self.n}")
        if self.n > np.iinfo(np.intp).max // np.dtype(np.int64).itemsize:
            raise InvalidArgumentError(
                f"sample count {self.n} is too large: its int64 word array cannot be addressed"
            )
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown sampler kind {self.kind!r}; choose from {_KINDS}")
        if self.burn_in is not None and self.burn_in < 0:
            raise InvalidArgumentError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thinning is not None and self.thinning < 1:
            raise InvalidArgumentError(f"thinning must be >= 1, got {self.thinning}")


def _check_seed(seed: int) -> None:
    """Refuse a seed outside 0 <= seed < 2^64; a bool is a flag, not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise InvalidArgumentError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _generator(seed: int) -> np.random.Generator:
    """The Philox stream of a seed; every seeded draw in the package starts here."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(seed))


def _sample_exact(model: BoltzmannModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Inverse transform through the cumulative weights, one chunk at a time.

    np.cumsum adds strictly left to right, so a chunk's cumsum started from
    its first weight plus the previous chunk's end equals the global cumsum
    bit for bit. Pass 1 keeps only the chunk ends (the last is the total);
    pass 2 sorts the targets, searches each chunk for its own (a target equal
    to a chunk end belongs to the later chunk) and scatters the indices back.
    Targets at or above the total map to 2^N, as a global searchsorted would.
    """
    weights = model.weights
    size = weights.size
    starts = range(0, size, _CHUNK)
    buf = np.empty(min(_CHUNK, size))
    ends = np.empty(len(starts))

    def cumsum(c: int) -> np.ndarray:
        lo = starts[c]
        part = buf[: min(_CHUNK, size - lo)]
        np.copyto(part, weights[lo : lo + part.size])
        if c:
            part[0] += ends[c - 1]
        return np.cumsum(part, out=part)

    for c in range(len(starts)):
        ends[c] = cumsum(c)[-1]

    u = rng.random(n)
    u *= ends[-1]
    order = np.argsort(u)
    u = u[order]
    bounds = np.searchsorted(u, ends)  # targets below each chunk end
    out = np.full(n, size, dtype=np.int64)
    lo = 0
    for c, hi in enumerate(bounds.tolist()):
        if hi > lo:
            local = np.searchsorted(cumsum(c), u[lo:hi], side="right")
            out[order[lo:hi]] = local + starts[c]
        lo = hi
    return out


def _neighbor_lists(model: BoltzmannModel):
    lattice = model.lattice
    index = lattice.index
    fields = np.zeros(lattice.n)
    pair: list[list[tuple[int, float]]] = [[] for _ in range(lattice.n)]
    triple: list[list[tuple[int, int, float]]] = [[] for _ in range(lattice.n)]
    for node in lattice.nodes:
        fields[index[node.id]] = node.h
    for e in lattice.edges:
        ia, ib = index[e.a], index[e.b]
        pair[ia].append((ib, e.j))
        pair[ib].append((ia, e.j))
    for t in lattice.cubic:
        ii, ij, ik = (index[x] for x in t.nodes)
        triple[ii].append((ij, ik, t.c))
        triple[ij].append((ii, ik, t.c))
        triple[ik].append((ii, ij, t.c))
    return fields.tolist(), pair, triple


def _sample_metropolis(
    model: BoltzmannModel, rng: np.random.Generator, run: SampleRun
) -> np.ndarray:
    n_nodes = model.n
    burn = run.burn_in if run.burn_in is not None else 10 * 1024 * n_nodes
    thin = run.thinning if run.thinning is not None else n_nodes
    total = burn + run.n * thin

    fields, pair, triple = _neighbor_lists(model)
    beta = model.lattice.beta
    spins = np.where(rng.integers(0, 2, size=n_nodes) == 1, 1, -1).astype(np.int64)
    word = int(sum(1 << k for k in range(n_nodes) if spins[k] == 1))
    s = spins.tolist()

    # A site's key packs the spins its dH reads: bit 0 its own, bit p + 1 the
    # p-th distinct node of its pair and triple lists (a set bit is +1), so
    # the key fixes the site's acceptance threshold. A flip of site i toggles
    # bit 0 of its key and i's bit in each neighbour's (links[i]).
    links: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    keys = []
    for i in range(n_nodes):
        hood = dict.fromkeys([nb for nb, _ in pair[i]] + [x for nj, nk, _ in triple[i] for x in (nj, nk)])
        key = int(s[i] == 1)
        for p, x in enumerate(hood):
            links[x].append((i, 2 << p))
            key |= (2 << p) * (s[x] == 1)
        keys.append(key)
    # thresholds by key, filled as keys are met; a site whose cache is full
    # computes a missing one without storing it, so memory stays bounded
    cache: list[dict[int, float]] = [{} for _ in range(n_nodes)]
    lookup = [known.get for known in cache]

    # The stream holds every site index, then every uniform. Draws made in
    # blocks continue the stream as one draw of the whole would, so the
    # sites come from a copy of the generator and the uniforms from the
    # generator once a pass has discarded the site draws.
    blocks = [min(_FLIP_BLOCK, total - lo) for lo in range(0, total, _FLIP_BLOCK)]
    site_rng = copy.deepcopy(rng)
    for size in blocks:
        rng.integers(0, n_nodes, size=size)
    flips = itertools.chain.from_iterable(
        zip(site_rng.integers(0, n_nodes, size=size).tolist(), rng.random(size).tolist())
        for size in blocks
    )

    out = np.empty(run.n, dtype=np.int64)
    # a word is kept after the burn-in and one thinning interval, then after each interval
    for kept in range(run.n):
        for i, u in itertools.islice(flips, thin + burn if kept == 0 else thin):
            key = keys[i]
            t = lookup[i](key)
            if t is None:
                local = fields[i]
                for nb, j in pair[i]:
                    local += j * s[nb]
                dh = 2.0 * s[i] * local
                for nj, nk, c in triple[i]:
                    dh -= 2.0 * c * s[i] * s[nj] * s[nk]
                # u < inf always holds, so `u < t` decides as
                # `dh <= 0.0 or u < exp(-beta dh)` would, NaN dh included
                t = math.inf if dh <= 0.0 else math.exp(-beta * dh)
                if len(cache[i]) < _THRESHOLD_CAP:
                    cache[i][key] = t
            if u < t:
                s[i] = -s[i]
                keys[i] = key ^ 1
                for nb, bit in links[i]:
                    keys[nb] ^= bit
                word ^= 1 << i
        out[kept] = word
    return out


def sample(model: BoltzmannModel, run: SampleRun) -> np.ndarray:
    """Configuration words drawn under the run's seed; byte-identical for
    identical (model, run)."""
    rng = _generator(run.seed)
    if run.kind == "exact":
        return _sample_exact(model, rng, run.n)
    return _sample_metropolis(model, rng, run)


@dataclass(frozen=True)
class FrequencyRow:
    n: int
    kept: int
    freq: float
    exact: float
    se: float

    def within(self, multiplier: float) -> bool:
        """Is the estimate inside multiplier * se of the exact value?"""
        if math.isnan(self.freq):
            return False
        return abs(self.freq - self.exact) <= multiplier * self.se


@dataclass(frozen=True)
class ConvergenceReport:
    """Event frequency along sample-count checkpoints vs the exact value."""

    event: tuple[tuple[str, Spin], ...]
    given: tuple[tuple[str, Spin], ...]
    rows: tuple[FrequencyRow, ...]
    exact: float
    run: SampleRun

    CSV_FIELDS = ("n", "freq", "exact", "se")

    @property
    def final(self) -> FrequencyRow:
        return self.rows[-1]

    def csv(self, precision: int | None = None) -> str:
        return csv_table(self.CSV_FIELDS, [(r.n, r.freq, r.exact, r.se) for r in self.rows], precision)

    def to_text(self, precision: int | None = 6) -> str:
        ev = ",".join(f"{k}:{pm(v)}" for k, v in self.event)
        gv = ",".join(f"{k}:{pm(v)}" for k, v in self.given)
        head = f"P({ev}" + (f" | {gv})" if gv else ")")
        lines = [
            f"{head} exact = {fmt(self.exact, precision)} "
            f"[{self.run.kind}, seed {self.run.seed}]",
            "      n       kept       freq         se",
        ]
        for r in self.rows:
            lines.append(
                f"{r.n:>9d} {r.kept:>9d}  {fmt(r.freq, precision):>12s} {fmt(r.se, precision):>10s}"
            )
        return "\n".join(lines)


def frequency_report(
    model: BoltzmannModel,
    run: SampleRun,
    event: Mapping[str, Spin],
    given: Mapping[str, Spin] | None = None,
    checkpoints: Sequence[int] | None = None,
) -> ConvergenceReport:
    """Track the sampled frequency of P(event | given) along checkpoints.

    Checkpoints default to the powers of ten up to the run length, plus the
    run length itself. Conditioning postselects the sample stream; if a
    checkpoint keeps no samples its row is NaN and an
    InsufficientPostselectionWarning is emitted.
    """
    if not event:
        raise InvalidArgumentError("event must assign at least one node")
    given = dict(given or {})
    overlap = set(event) & set(given)
    if overlap:
        raise InvalidArgumentError(f"event and condition overlap on nodes: {sorted(overlap)}")
    check_counts(**{f"checkpoints[{i}]": c for i, c in enumerate(checkpoints or ())})

    exact = model.conditional(dict(event), given)
    words = sample(model, run)

    emask, epattern = model.event_mask(dict(event))
    if given:
        gmask, gpattern = model.event_mask(given)
        keep = (words & gmask) == gpattern
    else:
        keep = np.ones(words.shape, dtype=bool)
    hit = keep & ((words & emask) == epattern)

    kept_cum = np.cumsum(keep)
    hit_cum = np.cumsum(hit)

    if checkpoints is None:
        marks = [c for c in DEFAULT_CHECKPOINTS if c <= run.n]
    else:
        marks = sorted({int(c) for c in checkpoints if 1 <= c <= run.n})
    if not marks or marks[-1] != run.n:
        marks.append(run.n)

    rows = []
    for c in marks:
        kept = int(kept_cum[c - 1])
        hits = int(hit_cum[c - 1])
        if kept == 0:
            warnings.warn(
                f"no samples pass the condition in the first {c} draws",
                InsufficientPostselectionWarning,
                stacklevel=2,
            )
            rows.append(FrequencyRow(c, 0, math.nan, exact, math.nan))
            continue
        freq = hits / kept
        se = math.sqrt(freq * (1.0 - freq) / kept)
        rows.append(FrequencyRow(c, kept, freq, exact, se))

    return ConvergenceReport(
        event=tuple(sorted(event.items())),
        given=tuple(sorted(given.items())),
        rows=tuple(rows),
        exact=exact,
        run=run,
    )
