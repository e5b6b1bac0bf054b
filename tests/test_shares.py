"""The 2^N block passes split over threads: energies, weights, shift and
every report are identical at any share count, errors and numpy's error
state reach the worker shares, nested and forked use stay safe, and no
public function runs on a worker thread."""

import dataclasses
import inspect
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import spinbell
from spinbell import bell, freewill, independence, model
from spinbell.errors import NumericRangeError
from spinbell.bell import conditional_table
from spinbell.freewill import clamped_independence_report, clamped_models, freewill_report
from spinbell.independence import independence_report, measurement_dependence
from spinbell.lattice import Lattice, _terms
from spinbell.model import _each, _energies, _stabilize, _total, _weights, build_model
from spinbell.presets import chain_lattice, grid_lattice, grid_positions

from test_independence import (
    _assert_reports_equal as _assert_equal_to_reference,
    _reference_md,
    _reference_report,
    _reference_weights,
)

# 3 splits 2^k blocks unevenly
SHARE_COUNTS = (1, 2, 3)
ROLES = ("outcome1", "outcome2", "analyzer_a", "analyzer_b")


def _random_lattice(n, seed):
    """n spins with fields, a path of couplings plus a few long ones, and
    triples; roles sit on both sides of the first block boundary."""
    rng = np.random.default_rng(seed)
    ids = [f"n{k}" for k in range(n)]
    role_at = dict(zip((0, n - 1, 5, 14), ROLES))
    nodes = [(nid, role_at.get(k, "hidden"), rng.uniform(-0.5, 0.5)) for k, nid in enumerate(ids)]
    edges = [(s, t, rng.uniform(-1.0, 1.0)) for s, t in zip(ids, ids[1:])]
    edges += [(ids[a], ids[b], rng.uniform(-1.0, 1.0)) for a, b in ((1, n - 2), (3, n - 1), (16, 2))]
    cubic = [((ids[0], ids[9], ids[n - 1]), 0.3), ((ids[2], ids[16], ids[n - 3]), -0.2)]
    return Lattice.from_parts(nodes, edges, cubic=cubic, offset=float(rng.uniform(-3.0, 3.0)))


@pytest.fixture
def shares(monkeypatch):
    def force(count):
        monkeypatch.setattr(model, "_SHARES", count)

    return force


@pytest.mark.parametrize("n", [17, 18, 20])
def test_energies_weights_and_shift_do_not_depend_on_the_share_count(n, shares):
    lat = _random_lattice(n, seed=n)
    runs = []
    for count in SHARE_COUNTS:
        shares(count)
        weights, shift = _weights(lat)
        runs.append((_energies(lat), weights, shift, build_model(lat).log_z))
    energies, weights, shift, log_z = runs[0]
    for other in runs[1:]:
        assert np.array_equal(other[0], energies)
        assert np.array_equal(other[1], weights)
        assert other[2] == shift
        assert other[3] == log_z


def _applied(lat):
    """The offset, then every term of lattice._terms in its order, applied
    to each word as a whole-tensor subtraction of its +-coefficient."""
    n = lat.n
    e = np.full((2,) * n, lat.offset)
    for coef, bits in _terms(lat):
        p = np.ones((1,) * n)
        for k in bits:
            shape = [1] * n
            shape[n - 1 - k] = 2
            p = p * np.array([-1.0, 1.0]).reshape(shape)
        e -= coef * p
    return e.reshape(-1)


def _grid_2x9(seed):
    rng = np.random.default_rng(seed)
    placement = {"t0": "outcome1", "t8": "outcome2", "u3": "analyzer_a", "u6": "analyzer_b"}
    fields = {pos: float(rng.uniform(-0.5, 0.5)) for pos in grid_positions(9)}
    return grid_lattice(placement, j=0.8, fields=fields, columns=9, diagonal_j=0.3)


def _chain_with_fields(n, seed):
    lat = chain_lattice(n - 2, j=0.9)
    rng = np.random.default_rng(seed)
    return lat.with_fields({nid: float(rng.uniform(-0.5, 0.5)) for nid in lat.node_ids})


@pytest.mark.parametrize(
    "lattice",
    [_chain_with_fields(17, 1), _chain_with_fields(19, 2), _chain_with_fields(22, 3), _grid_2x9(4)],
    ids=["chain17", "chain19", "chain22", "grid18"],
)
def test_energies_are_the_terms_applied_word_by_word(lattice, shares):
    """Past 16 spins the blocks share partial sums by level; each word still
    gets the terms of lattice._terms in that order, at any share count (three
    shares do not line up with the subtrees of the levels)."""
    expect = _applied(lattice)
    for count in SHARE_COUNTS:
        shares(count)
        assert np.array_equal(_energies(lattice), expect), count


def test_flip_symmetry_is_exact_past_one_block(shares):
    """Without fields a word and its global flip (the reversed index) get the
    same +-j from every edge in the same order, at any share count."""
    lat = chain_lattice(20, j=0.7)
    assert lat.n == 22
    for count in SHARE_COUNTS:
        shares(count)
        weights = build_model(lat).weights
        assert np.array_equal(weights, weights[::-1]), count


def test_total_is_numpy_sum_bit_for_bit(shares):
    """z_shifted past one block: block sums on the shares, added in a pairwise
    tree over the block index, equal numpy's pairwise sum at N = 17 to 24."""
    weights = np.exp(-4.0 * np.random.default_rng(17).random(1 << 24))
    for n in range(17, 25):
        part = weights[: 1 << n]
        for count in SHARE_COUNTS:
            shares(count)
            assert _total(part) == part.sum(), (n, count)
    lat = chain_lattice(16, h=0.3)
    assert build_model(lat).z_shifted == _weights(lat)[0].sum()


def _reports(m):
    return (
        independence_report(m),
        clamped_independence_report(m),
        freewill_report(m),
    )


def _assert_reports_equal(got, want):
    for a, b in zip(got, want):
        assert a == b
        if hasattr(a, "witnesses"):
            assert a.witnesses == b.witnesses
            assert a.pd_sides == b.pd_sides


@pytest.mark.parametrize(
    "lattice",
    [chain_lattice(16, j=0.7), _random_lattice(18, seed=5), _random_lattice(20, seed=6)],
    ids=["chain18", "random18", "random20"],
)
def test_reports_do_not_depend_on_the_share_count(lattice, shares):
    """At 18 spins the 14 lambda bits span several blocks, and at 20 the
    clamped quarters do too."""
    results = []
    for count in SHARE_COUNTS:
        shares(count)
        results.append(_reports(build_model(lattice)))
    for other in results[1:]:
        _assert_reports_equal(other, results[0])


@pytest.mark.parametrize("bits", [0, 2])
def test_tie_heavy_chain_does_not_depend_on_the_share_count(bits, shares, monkeypatch):
    """Witnesses rest on exact ties of rounding noise; with blocks of a few
    lambda values every share holds some of the tied cells."""
    monkeypatch.setattr(independence, "_LAM_BLOCK_BITS", bits)
    m = build_model(chain_lattice(9, j=0.7))
    results = []
    for count in SHARE_COUNTS:
        shares(count)
        results.append(_reports(m))
    assert results[0][0].od < 1e-14
    for other in results[1:]:
        _assert_reports_equal(other, results[0])


@pytest.mark.parametrize("n", [17, 18, 20])
def test_tables_do_not_depend_on_the_share_count(n, shares):
    """weight_table splits its blocks over the shares at a level of its
    pairwise tree, so every addition is the same at any share count."""
    m = build_model(_random_lattice(n, seed=n))
    ids = m.lattice.node_ids
    requests = [m.lattice.bell_ids(), [ids[n - 1], ids[2], ids[9]], [ids[3], ids[0]], ids[1:]]
    results = []
    for count in SHARE_COUNTS:
        shares(count)
        results.append((
            [m.weight_table(request) for request in requests],
            conditional_table(m).values,
            freewill_report(m).partition_gap,
        ))
    tables, cond, gap = results[0]
    for other in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(other[0], tables))
        assert np.array_equal(other[1], cond)
        assert other[2] == gap


@pytest.mark.parametrize("bits", [independence._LAM_BLOCK_BITS, 6])
@pytest.mark.parametrize("layout", ["lowest", "scattered", "stacked"])
def test_gather_layouts_match_the_whole_array_reference(layout, bits, shares, monkeypatch):
    """Roles at the lowest bits (one transpose per block), roles spread
    with one above the block (two runs per block), and the stacked clamped
    model (analyzers on the top two bits, four runs per block): every
    report field, witness and md equals the whole-array reduction."""
    monkeypatch.setattr(independence, "_LAM_BLOCK_BITS", bits)
    if layout == "lowest":
        m = build_model(chain_lattice(16, j=0.7))
    elif layout == "scattered":
        m = build_model(_random_lattice(18, seed=8))
    else:
        m = clamped_models(build_model(_random_lattice(18, seed=8)))
    lam_ids = m.lattice.hidden_ids
    w5 = _reference_weights(m, lam_ids)
    want = _reference_report(w5, lam_ids, *m.lattice.bell_ids()[:2])
    want_md = _reference_md(w5)
    for count in SHARE_COUNTS:
        shares(count)
        _assert_equal_to_reference(independence_report(m), want)
        assert measurement_dependence(m) == want_md


def test_overflow_in_a_worker_share_raises_numeric_range_error(shares):
    """Only the block with the high node at +1 overflows, and it is the
    second share's: numpy's error state must reach the worker thread."""
    shares(2)
    lat = chain_lattice(15)
    lat = dataclasses.replace(lat.with_fields({lat.node_ids[16]: 1e308}), offset=-1e308)
    assert lat.n == 17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="double range"):
            build_model(lat)


def test_nan_energy_in_a_worker_share_raises(shares):
    """A NaN energy (inf - inf in a search space's column sum) in the
    second share's blocks alone must reach the shift check: Python's min()
    would drop it, np.min keeps it."""
    shares(2)
    energies = np.zeros(1 << 17)
    energies[-1] = np.nan
    with pytest.raises(NumericRangeError, match="minimum energy is nan"):
        _stabilize(energies, 1.0)


def test_overflow_across_small_blocks_in_worker_shares(shares, monkeypatch):
    shares(2)
    monkeypatch.setattr(model, "_BLOCK_BITS", 1)
    monkeypatch.setattr(model, "_DENSE_BITS", 0)
    lat = Lattice.from_parts(
        nodes=[("x",), ("y", "hidden", 1e308)], edges=[("x", "y", 1e308)], offset=-1e308
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="double range"):
            build_model(lat)


def _in_thread(fn, timeout=30.0):
    """fn() on a fresh thread, joined with a timeout."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "shares did not finish"
    return out[0]


def test_nested_each_from_a_worker_share_runs_inline():
    def outer(k):
        return threading.get_ident(), _each(lambda j: threading.get_ident(), 2)

    def run():
        return threading.get_ident(), _each(outer, 2)

    caller, ((first, _), (worker, inner)) = _in_thread(run)
    assert first == caller
    assert worker != caller
    assert inner == [worker, worker]


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_share_raises_after_every_share_finished(failing):
    """Share 0 runs on the calling thread; the slow pool shares must be
    waited for whichever share fails."""
    done = []

    def fn(k):
        if k == failing:
            raise ValueError(f"share {k}")
        if k:
            time.sleep(0.2)
        done.append(k)
        return k

    with pytest.raises(ValueError, match=f"share {failing}"):
        _each(fn, 3)
    assert sorted(done) == [k for k in range(3) if k != failing]


def test_concurrent_callers_share_one_pool(shares, monkeypatch):
    """More callers than cores build at once, the first of them making the
    pool, under a short switch interval: every build equals the serial one."""
    lat = _random_lattice(17, seed=3)
    shares(1)
    want = _weights(lat)
    shares(2)
    monkeypatch.setattr(model, "_pool", None)
    results = []

    def caller():
        for _ in range(3):
            results.append(_weights(lat))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, daemon=True) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "callers did not finish"
    assert len(results) == 15
    for weights, shift in results:
        assert np.array_equal(weights, want[0]) and shift == want[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_after_the_parent_used_the_pool(shares):
    shares(2)
    lat = chain_lattice(16)
    expect = build_model(lat).log_z
    assert model._pool is not None
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        ok = False
        try:
            ok = build_model(lat).log_z == expect and model._pool is not None
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its build")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


def test_public_calls_stay_on_the_calling_thread(shares, monkeypatch):
    """The benchmark tracer keeps one span stack per process, so every
    public call of model, bell, independence and freewill made while the
    shares run must come from the calling thread."""
    shares(2)
    calls = []
    workers = []

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "spinbell"]
    for mod in (model, bell, independence, freewill):
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            wrapped = recorder(f"{mod.__name__}.{name}", fn)
            for ns in namespaces:
                if getattr(ns, name, None) is fn:
                    monkeypatch.setattr(ns, name, wrapped)
    for method in ("conditional", "marginal", "weight_table", "joint_table"):
        original = getattr(model.BoltzmannModel, method)
        monkeypatch.setattr(model.BoltzmannModel, method, recorder(method, original))
    reduce_block = independence._reduce_block

    def watched(*args):
        workers.append(threading.get_ident())
        return reduce_block(*args)

    monkeypatch.setattr(independence, "_reduce_block", watched)

    m = spinbell.build_model(chain_lattice(16))
    spinbell.independence_report(m)
    spinbell.clamped_independence_report(m)
    names = {name for name, _ in calls}
    assert {"spinbell.model.build_model", "weight_table"} <= names
    assert {
        "spinbell.independence.independence_report",
        "spinbell.freewill.clamped_models",
    } <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert set(workers) - {threading.get_ident()}  # the reader did run on worker shares
