"""Seeded samplers and the frequency stabilization report.

Byte identity under the same seed for both samplers; correctness of the
exact sampler against enumerated marginals; Metropolis agreement on
fast-mixing lattices (weakly coupled, so no sector trapping); checkpoint
bookkeeping and the zero-postselection warning path."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import spinbell.sampling as sampling_mod
from spinbell.errors import InsufficientPostselectionWarning, InvalidArgumentError
from spinbell.lattice import Lattice
from spinbell.model import build_model
from spinbell.presets import BUILTIN_LATTICES, canonical_ladder, chain_lattice
from spinbell.sampling import (
    DEFAULT_CHECKPOINTS,
    SampleRun,
    frequency_report,
    sample,
)


@pytest.fixture(scope="module")
def fast_mixing_model():
    # weak couplings mix in a few sweeps; strong ones would trap sectors
    return build_model(canonical_ladder(j=0.25))


@pytest.fixture(scope="module")
def cubic_model():
    lat = Lattice.from_parts(
        nodes=[
            ("1", "outcome1"),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
            ("m", "hidden", 0.2),
        ],
        edges=[("1", "m", 0.4), ("2", "m", 0.3), ("a", "m", 0.2), ("b", "m", 0.1)],
        cubic=[(("1", "2", "m"), 0.15)],
    )
    return build_model(lat)


# -- run validation ------------------------------------------------------------------


def test_run_validation():
    with pytest.raises(InvalidArgumentError, match="seed"):
        SampleRun(seed=-1, n=10)
    with pytest.raises(InvalidArgumentError, match="seed"):
        SampleRun(seed=2**64, n=10)
    with pytest.raises(InvalidArgumentError, match="seed must be a 64-bit unsigned integer, got 1.5"):
        SampleRun(seed=1.5, n=10)
    with pytest.raises(InvalidArgumentError, match="count"):
        SampleRun(seed=0, n=0)
    with pytest.raises(InvalidArgumentError, match="4611686018427387904 .*cannot be addressed"):
        SampleRun(seed=0, n=2**62)
    # the largest addressable count is accepted; nothing is allocated here
    SampleRun(seed=0, n=np.iinfo(np.intp).max // 8)
    with pytest.raises(InvalidArgumentError, match="kind"):
        SampleRun(seed=0, n=10, kind="gibbs")
    with pytest.raises(InvalidArgumentError, match="burn_in"):
        SampleRun(seed=0, n=10, burn_in=-1)
    with pytest.raises(InvalidArgumentError, match="thinning"):
        SampleRun(seed=0, n=10, thinning=0)
    with pytest.raises(InvalidArgumentError, match="^burn_in must be >= 0, got -1$"):
        SampleRun(seed=0, n=10, kind="metropolis", burn_in=-1)
    with pytest.raises(InvalidArgumentError, match="^thinning must be >= 1, got 0$"):
        SampleRun(seed=0, n=10, kind="metropolis", thinning=0)
    with pytest.raises(InvalidArgumentError, match="^n must be an integer, got 2.5"):
        SampleRun(seed=0, n=2.5)
    with pytest.raises(InvalidArgumentError, match="^burn_in must be an integer, got 2.5"):
        SampleRun(seed=0, n=10, kind="metropolis", burn_in=2.5)
    with pytest.raises(InvalidArgumentError, match="^thinning must be an integer, got 1.5"):
        SampleRun(seed=0, n=10, kind="metropolis", thinning=1.5)
    # a bool is an int to Python, but not a count
    with pytest.raises(InvalidArgumentError, match="^n must be an integer, got True"):
        SampleRun(seed=1, n=True)
    with pytest.raises(InvalidArgumentError, match="^thinning must be an integer, got True"):
        SampleRun(seed=1, n=10, kind="metropolis", thinning=True)


@pytest.mark.parametrize(
    "options, named",
    [({"burn_in": 7}, "burn_in"), ({"thinning": 3}, "thinning"),
     ({"burn_in": 0, "thinning": 1}, "burn_in or thinning")],
)
def test_exact_run_refuses_metropolis_options(options, named):
    """The exact sampler would draw the same words without them."""
    with pytest.raises(InvalidArgumentError, match=f"^the exact sampler takes no {named} "):
        SampleRun(seed=0, n=10, **options)


@pytest.mark.parametrize("seed", [True, False, np.True_])
def test_bool_seeds_are_refused(seed):
    """A bool is an int to Python, but not a seed: True would draw seed 1's stream."""
    message = f"^seed must be a 64-bit unsigned integer, got {seed}$"
    with pytest.raises(InvalidArgumentError, match=message):
        SampleRun(seed=seed, n=3)
    with pytest.raises(InvalidArgumentError, match=message):
        sampling_mod._generator(seed)


# -- reproducibility -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["exact", "metropolis"])
def test_byte_identical_reproduction(kind, fast_mixing_model):
    run = SampleRun(seed=123, n=400, kind=kind)
    one = sample(fast_mixing_model, run)
    two = sample(fast_mixing_model, run)
    assert one.dtype == np.int64
    assert np.array_equal(one, two)


def test_different_seeds_differ(fast_mixing_model):
    one = sample(fast_mixing_model, SampleRun(seed=1, n=400))
    two = sample(fast_mixing_model, SampleRun(seed=2, n=400))
    assert not np.array_equal(one, two)


def test_words_in_range(fast_mixing_model):
    words = sample(fast_mixing_model, SampleRun(seed=5, n=1000))
    assert words.min() >= 0
    assert words.max() < 1 << fast_mixing_model.n


# -- exact sampler against the one-array reference -----------------------------------


def _reference_exact(model, rng, n):
    cum = np.cumsum(model.weights)
    u = rng.random(n) * cum[-1]
    return np.searchsorted(cum, u, side="right").astype(np.int64)


@pytest.fixture(scope="module")
def reference_models():
    models = {name: build_model(make()) for name, make in BUILTIN_LATTICES.items()}
    # strong couplings underflow most weights to exact zeros
    models["chain-8-j300"] = build_model(chain_lattice(8, j=300.0))
    assert int((models["chain-8-j300"].weights == 0).sum()) == 1004
    return models


@pytest.mark.parametrize("chunk", [None, 1, 3, 8])
def test_exact_words_match_reference(chunk, reference_models, monkeypatch):
    """Chunks of 1, 3 and 8 entries cross chunk ends, all-zero chunks and a
    partial last chunk; None keeps the module's own chunk size."""
    if chunk is not None:
        monkeypatch.setattr(sampling_mod, "_CHUNK", chunk)
    for name, model in reference_models.items():
        for n in (1, 17, 5000):
            for seed in (0, 7, 2**40 + 3):
                run = SampleRun(seed=seed, n=n)
                words = sample(model, run)
                expect = _reference_exact(model, sampling_mod._generator(seed), n)
                assert words.dtype == expect.dtype, name
                assert np.array_equal(words, expect), (name, n, seed)


@pytest.mark.parametrize("chunk", [1, 2, 3, 8])
def test_exact_targets_on_chunk_ends(chunk, monkeypatch):
    """Cumulative weights 1, 2, 2, 3: a target equal to a chunk end belongs
    to the later chunk, and a target at the total maps to 2^N."""
    monkeypatch.setattr(sampling_mod, "_CHUNK", chunk)
    model = SimpleNamespace(weights=np.array([1.0, 1.0, 0.0, 1.0]))
    draws = np.array([0.0, 1.0, 2.0, 3.0, 0.5, 2.5, 2.0]) / 3.0

    def rng():
        return SimpleNamespace(random=lambda n: draws[:n].copy())

    words = sampling_mod._sample_exact(model, rng(), len(draws))
    assert words.tolist() == [0, 1, 3, 4, 0, 3, 3]
    assert np.array_equal(words, _reference_exact(model, rng(), len(draws)))


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_exact_targets_on_every_cumulative_weight(chunk, monkeypatch):
    """Targets on and one ulp around every cumulative weight: a chunk cumsum
    that is off by one ulp from the global one moves some of these words."""
    monkeypatch.setattr(sampling_mod, "_CHUNK", chunk)
    weights = np.random.default_rng(3).random(64) * np.logspace(0, -12, 64)
    marks = np.cumsum(weights) / weights.sum()
    draws = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)])
    draws = draws[draws < 1.0]
    model = SimpleNamespace(weights=weights)

    def rng():
        return SimpleNamespace(random=lambda n: draws[:n].copy())

    words = sampling_mod._sample_exact(model, rng(), len(draws))
    assert np.array_equal(words, _reference_exact(model, rng(), len(draws)))


def test_exact_sampler_peak_memory_is_a_fraction_of_the_weights():
    """One fixed chunk buffer and a few arrays per draw: no 2^N cumsum copy."""
    model = build_model(chain_lattice(18))
    assert model.n == 20
    tracemalloc.start()
    try:
        sample(model, SampleRun(seed=1, n=10_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * model.weights.nbytes


# -- sampler correctness -------------------------------------------------------------


def test_exact_sampler_matches_marginals(fast_mixing_model):
    m = fast_mixing_model
    words = sample(m, SampleRun(seed=7, n=200_000))
    for nid in ("1", "a", "4"):
        bit = m.lattice.index[nid]
        freq = float(((words >> bit) & 1).mean())
        p = m.marginal({nid: 1})
        se = np.sqrt(p * (1 - p) / len(words))
        assert abs(freq - p) <= 4 * se


def test_metropolis_matches_marginals(fast_mixing_model):
    m = fast_mixing_model
    words = sample(m, SampleRun(seed=11, n=20_000, kind="metropolis"))
    for nid in ("1", "b"):
        bit = m.lattice.index[nid]
        freq = float(((words >> bit) & 1).mean())
        p = m.marginal({nid: 1})
        # thinned single-flip chains still carry some autocorrelation;
        # use a generous multiple of the iid standard error
        se = np.sqrt(p * (1 - p) / len(words))
        assert abs(freq - p) <= 8 * se


def test_metropolis_handles_cubic_terms(cubic_model):
    words = sample(cubic_model, SampleRun(seed=3, n=20_000, kind="metropolis"))
    bit = cubic_model.lattice.index["m"]
    freq = float(((words >> bit) & 1).mean())
    p = cubic_model.marginal({"m": 1})
    se = np.sqrt(p * (1 - p) / len(words))
    assert abs(freq - p) <= 8 * se


def test_metropolis_burn_in_thinning_override(fast_mixing_model):
    run = SampleRun(seed=9, n=50, kind="metropolis", burn_in=0, thinning=1)
    words = sample(fast_mixing_model, run)
    assert len(words) == 50


# -- Metropolis schedule in blocks against the one-shot reference -------------------


def _reference_metropolis(model, run):
    """The sampler as it drew every site index, then every uniform, up front."""
    rng = sampling_mod._generator(run.seed)
    n_nodes = model.n
    burn = run.burn_in if run.burn_in is not None else 10 * 1024 * n_nodes
    thin = run.thinning if run.thinning is not None else n_nodes
    total = burn + run.n * thin
    fields, pair, triple = sampling_mod._neighbor_lists(model)
    beta = model.lattice.beta
    spins = np.where(rng.integers(0, 2, size=n_nodes) == 1, 1, -1).astype(np.int64)
    word = int(sum(1 << k for k in range(n_nodes) if spins[k] == 1))
    sites = rng.integers(0, n_nodes, size=total)
    accept_u = rng.random(total)
    out = np.empty(run.n, dtype=np.int64)
    kept = 0
    next_keep = burn + thin
    s = spins.tolist()
    for step in range(total):
        i = int(sites[step])
        local = fields[i]
        for nb, j in pair[i]:
            local += j * s[nb]
        dh = 2.0 * s[i] * local
        for nj, nk, c in triple[i]:
            dh -= 2.0 * c * s[i] * s[nj] * s[nk]
        if dh <= 0.0 or accept_u[step] < np.exp(-beta * dh):
            s[i] = -s[i]
            word ^= 1 << i
        if step + 1 == next_keep:
            out[kept] = word
            kept += 1
            next_keep += thin
    return out


def _unbuilt(lattice):
    """What the Metropolis sampler reads of a model, without the 2^N build."""
    return SimpleNamespace(n=lattice.n, lattice=lattice)


@pytest.mark.parametrize("block", [None, 1, 7, 333])
def test_metropolis_words_match_one_shot_schedule(block, cubic_model, monkeypatch):
    """Blocks of 1, 7 and 333 flips cross block ends at every phase of the
    burn-in and thinning; None keeps the module's own block size."""
    if block is not None:
        monkeypatch.setattr(sampling_mod, "_FLIP_BLOCK", block)
    models = [cubic_model, build_model(canonical_ladder(j=0.6))]
    models += [_unbuilt(chain_lattice(n - 2, j=0.8, h=0.1)) for n in (8, 10, 14, 24)]
    for model in models:
        for seed in (0, 5, 2**40 + 3):
            run = SampleRun(seed=seed, n=301, kind="metropolis", burn_in=37, thinning=3)
            words = sample(model, run)
            assert words.dtype == np.int64
            assert np.array_equal(words, _reference_metropolis(model, run)), (model.n, seed)


def test_metropolis_default_schedule_matches_one_shot(fast_mixing_model):
    """The default burn-in of 10 * 1024 * N flips spans many blocks."""
    run = SampleRun(seed=21, n=2_000, kind="metropolis")
    expect = _reference_metropolis(fast_mixing_model, run)
    assert np.array_equal(sample(fast_mixing_model, run), expect)


def _hub_lattice():
    """16 spins: site 0 is coupled to all 15 others, so its key takes 2^16
    values, past the threshold cache cap; the others sit on a ring with
    their nearest and next-nearest neighbours (6-bit keys)."""
    rng = np.random.default_rng(16)
    pairs = [(0, i) for i in range(1, 16)]
    pairs += [(i, i % 15 + 1) for i in range(1, 16)] + [(i, (i + 1) % 15 + 1) for i in range(1, 16)]
    nodes = [(str(i), "hidden", float(rng.normal(0.0, 0.2))) for i in range(16)]
    edges = [(str(a), str(b), float(rng.normal(0.0, 0.3))) for a, b in pairs]
    return Lattice.from_parts(nodes, edges)


def _shared_cubic_lattice():
    """A ring of 8 with a chord whose cubic terms run over consecutive
    sites, so most cubic partners of a site are also its pair neighbours."""
    rng = np.random.default_rng(8)
    ids = [str(i) for i in range(8)]
    edges = [(ids[i], ids[(i + 1) % 8], float(rng.normal(0.0, 0.5))) for i in range(8)] + [("0", "4", 0.3)]
    cubic = [((ids[i], ids[(i + 1) % 8], ids[(i + 2) % 8]), float(rng.normal(0.0, 0.4))) for i in range(8)]
    cubic.append((("0", "2", "4"), -0.25))
    nodes = [(i, "hidden", float(rng.normal(0.0, 0.3))) for i in ids]
    return Lattice.from_parts(nodes, edges, cubic=cubic)


def _overflowing_lattice():
    """Coefficients near the double range: the two cubic terms at x and p
    give dH = inf - inf = NaN at most visits, a flip that is never accepted,
    while w keeps moving."""
    return Lattice.from_parts(
        [("x",), ("p",), ("q",), ("r",), ("w", "hidden", 0.1)],
        [("q", "r", -1e308), ("x", "w", 0.4)],
        cubic=[(("x", "p", "q"), 1e308), (("x", "p", "r"), 1e308)],
    )


@pytest.mark.parametrize("cap", [None, 0, 3], ids=["default-cap", "cap-0", "cap-3"])
@pytest.mark.parametrize(
    "make", [_hub_lattice, _shared_cubic_lattice, _overflowing_lattice], ids=["hub", "shared-cubic", "overflow"]
)
def test_metropolis_threshold_cache_keeps_the_words(make, cap, monkeypatch):
    """Cached acceptance thresholds give the words of the one-shot reference,
    also where a site's cache is full (cap 0 stores nothing, cap 3 fills at
    once) and where dH is infinite or NaN."""
    lattice = make()
    if cap is not None:
        monkeypatch.setattr(sampling_mod, "_THRESHOLD_CAP", cap)
    elif make is _hub_lattice:
        assert 2**16 > sampling_mod._THRESHOLD_CAP
    for seed in (3, 2**50 + 1):
        run = SampleRun(seed=seed, n=2_000, kind="metropolis", burn_in=0, thinning=8)
        words = sample(_unbuilt(lattice), run)
        assert np.array_equal(words, _reference_metropolis(_unbuilt(lattice), run)), seed


def test_metropolis_memory_does_not_grow_with_the_run():
    """Past the hub site's cache cap a missing threshold is not stored: a
    100,000-flip run peaks where a 20,000-flip one does."""
    model = _unbuilt(_hub_lattice())
    sample(model, SampleRun(seed=1, n=1, kind="metropolis", burn_in=0))  # first-call caches
    peaks = []
    for burn_in in (19_000, 99_000):
        tracemalloc.start()
        try:
            sample(model, SampleRun(seed=1, n=1_000, kind="metropolis", burn_in=burn_in, thinning=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    short, long = peaks
    assert long <= short * 1.02, peaks


def test_metropolis_peak_memory_is_bounded():
    """The schedule is drawn one block at a time: drawn whole, this
    20,000-flip run would hold 320 kB of it. (Tracing slows the flip loop
    about 30-fold, so the run is kept short.)"""
    model = build_model(chain_lattice(8))
    run = SampleRun(seed=1, n=1_000, kind="metropolis", burn_in=19_000, thinning=1)
    sample(model, SampleRun(seed=1, n=1, kind="metropolis", burn_in=0))  # first-call caches
    tracemalloc.start()
    try:
        sample(model, run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000


# -- frequency report ----------------------------------------------------------------


def test_report_checkpoints_and_final(fast_mixing_model):
    run = SampleRun(seed=21, n=2_500)
    rep = frequency_report(fast_mixing_model, run, event={"1": 1}, given={"a": 1})
    assert [r.n for r in rep.rows] == [100, 1_000, 2_500]
    assert rep.final.n == 2_500
    assert rep.final.kept <= 2_500
    assert rep.exact == pytest.approx(
        fast_mixing_model.conditional({"1": 1}, {"a": 1}), abs=0
    )
    assert rep.final.within(4.0)


def test_report_custom_checkpoints(fast_mixing_model):
    run = SampleRun(seed=21, n=500)
    rep = frequency_report(
        fast_mixing_model, run, event={"1": 1}, checkpoints=[50, 200, 500, 900]
    )
    assert [r.n for r in rep.rows] == [50, 200, 500]


def test_report_unconditional_event(fast_mixing_model):
    rep = frequency_report(fast_mixing_model, SampleRun(seed=2, n=1_000), event={"3": -1})
    assert rep.final.kept == 1_000
    assert rep.given == ()


def test_report_validates_event(fast_mixing_model):
    with pytest.raises(InvalidArgumentError, match="at least one"):
        frequency_report(fast_mixing_model, SampleRun(seed=0, n=10), event={})
    with pytest.raises(InvalidArgumentError, match="overlap"):
        frequency_report(
            fast_mixing_model, SampleRun(seed=0, n=10), event={"1": 1}, given={"1": 1}
        )
    # a fractional checkpoint is refused, not truncated
    with pytest.raises(InvalidArgumentError, match=r"^checkpoints\[1\] must be an integer, got 10.5"):
        frequency_report(
            fast_mixing_model, SampleRun(seed=0, n=20), event={"1": 1}, checkpoints=[5, 10.5]
        )


def test_report_zero_postselection_warns():
    # a pinned pair: the anti-aligned condition never appears in the stream
    lat = Lattice.from_parts(
        nodes=[
            ("1", "outcome1"),
            ("2", "outcome2"),
            ("a", "analyzer_a"),
            ("b", "analyzer_b"),
        ],
        edges=[("a", "b", 6.0), ("1", "2", 0.2)],
    )
    model = build_model(lat)
    run = SampleRun(seed=4, n=200)
    with pytest.warns(InsufficientPostselectionWarning):
        rep = frequency_report(model, run, event={"1": 1}, given={"a": 1, "b": -1})
    assert np.isnan(rep.rows[0].freq)
    assert not rep.rows[0].within(4.0)


def test_report_csv_and_text(fast_mixing_model):
    rep = frequency_report(fast_mixing_model, SampleRun(seed=21, n=300), event={"1": 1})
    csv = rep.csv()
    assert csv.splitlines()[0] == "n,freq,exact,se"
    assert len(csv.splitlines()) == len(rep.rows) + 1
    text = rep.to_text()
    assert "P(1:+)" in text
    assert "seed 21" in text


def _word_route(model, run, event, given):
    """Final (kept, hits) of the run's words projected on the event bits."""
    words = sample(model, run)
    emask, epattern = model.event_mask(event)
    gmask, gpattern = model.event_mask(given)
    keep = (words & gmask) == gpattern
    return int(keep.sum()), int((keep & ((words & emask) == epattern)).sum())


def test_metropolis_report_postselects_the_words(fast_mixing_model):
    """A conditioned Metropolis report counts the words sample() draws:
    kept where the condition holds, hits where the event holds as well."""
    event, given = {"1": 1}, {"a": 1, "b": 1}
    run = SampleRun(seed=5, n=3_000, kind="metropolis", burn_in=500, thinning=2)
    rep = frequency_report(fast_mixing_model, run, event, given)
    kept, hits = _word_route(fast_mixing_model, run, event, given)
    assert 0 < kept < run.n
    assert (rep.final.kept, rep.final.freq) == (kept, hits / kept)
    assert rep.exact == fast_mixing_model.conditional(event, given)


def test_word_route_and_report_meet_the_concentration_floor():
    """Criterion 12's floor on both routes: the words that sample() draws,
    projected on the event bits, and frequency_report's event masses."""
    model = build_model(canonical_ladder())
    event, given = {"1": 1}, {"a": 1, "b": 1}
    exact = model.conditional(event, given)
    words_within = report_within = 0
    for seed in range(100):
        run = SampleRun(seed=seed, n=100_000)
        kept, hits = _word_route(model, run, event, given)
        freq = hits / kept
        words_within += abs(freq - exact) <= 4.0 * np.sqrt(freq * (1.0 - freq) / kept)
        report_within += frequency_report(model, run, event, given).final.within(4.0)
    assert words_within >= 99, words_within
    assert report_within >= 99, report_within


def test_event_masses_give_the_conditional_and_nest(monkeypatch):
    """hit_w / keep_w is the exact conditional bit for bit, and the report
    counts the word sampler's uniforms scaled by z_shifted: kept under
    keep_w, hits under hit_w and kept. It builds no weight table."""
    model = build_model(chain_lattice(20))
    event, given = {"1": 1, "2": -1}, {"a": 1, "b": 1}
    hit_w, keep_w = model._masses(event, given)
    assert hit_w / keep_w == model.conditional(event, given)
    assert keep_w / model.z_shifted == model.marginal(given)
    assert model._masses(event, {}) == (model.weight_sum(event), model.z_shifted)
    run = SampleRun(seed=9, n=50_000)
    u = sampling_mod._generator(run.seed).random(run.n) * model.z_shifted
    keep = u < keep_w
    hit = (u < hit_w) & keep
    assert hit.any() and not keep.all()

    def no_table(*args, **kwargs):
        raise AssertionError("an exact report reads no weight table")

    monkeypatch.setattr(type(model), "weight_table", no_table)
    rep = frequency_report(model, run, event, given, checkpoints=[1_000, 20_000])
    assert rep.exact == model.conditional(event, given)
    assert [(r.n, r.kept) for r in rep.rows] == [
        (c, int(keep[:c].sum())) for c in (1_000, 20_000, run.n)
    ]
    assert [r.freq for r in rep.rows] == [
        int(hit[:c].sum()) / int(keep[:c].sum()) for c in (1_000, 20_000, run.n)
    ]


def test_exact_report_memory_per_draw_is_bounded():
    """Two event masses and one uniform per draw: under 30 bytes per draw
    plus 1 MB, which at 30,000 draws is less than one 2^18 weight array."""
    model = build_model(chain_lattice(16))
    assert model.n == 18
    event, given = {"1": 1, "2": 1}, {"a": 1, "b": 1}
    frequency_report(model, SampleRun(seed=1, n=1), event)  # first-call caches
    for n in (30_000, 1_000_000):
        tracemalloc.start()
        try:
            frequency_report(model, SampleRun(seed=1, n=n), event, given)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * n + 2**20, (n, peak)
    assert 30 * 30_000 + 2**20 < model.weights.nbytes


def test_default_checkpoints_are_powers_of_ten():
    assert DEFAULT_CHECKPOINTS == (100, 1_000, 10_000, 100_000, 1_000_000)
