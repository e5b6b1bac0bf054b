"""Shared fixtures: an independent pure-Python oracle, random lattice
generators, and the acceptance-criterion summary hook.

The oracle enumerates configurations with plain dicts and math.exp, touching
none of the vectorized code paths, so agreement between the two is a real
cross-check rather than a reflexive one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spinbell.lattice import Lattice, energy

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


# -- pure-Python oracle ---------------------------------------------------------


def oracle_distribution(lattice: Lattice) -> dict[tuple[int, ...], float]:
    """Exact P(config) via dict enumeration, keyed by spin tuples in
    declaration order."""
    ids = lattice.node_ids
    configs = list(itertools.product((-1, 1), repeat=len(ids)))
    es = [energy(lattice, dict(zip(ids, c))) for c in configs]
    emin = min(es)
    ws = [math.exp(-lattice.beta * (e - emin)) for e in es]
    z = sum(ws)
    return {c: w / z for c, w in zip(configs, ws)}


def oracle_marginal(lattice: Lattice, assignment: dict[str, int]) -> float:
    ids = lattice.node_ids
    dist = oracle_distribution(lattice)
    total = 0.0
    for config, p in dist.items():
        if all(config[ids.index(nid)] == s for nid, s in assignment.items()):
            total += p
    return total


def oracle_conditional(
    lattice: Lattice, target: dict[str, int], given: dict[str, int]
) -> float:
    joint = oracle_marginal(lattice, {**target, **given})
    cond = oracle_marginal(lattice, given)
    return joint / cond


def oracle_independence(lattice: Lattice, lam: list[str] | None = None) -> tuple[float, float, float]:
    """(md, od, pd) over lam (default: every hidden node) by plain sums of
    oracle_distribution, for lattices where every (setting, lambda) cell has
    weight. Each sup runs over the definitions in spinbell.independence."""
    ids = lattice.node_ids
    lam = list(lattice.hidden_ids if lam is None else lam)
    roles = [ids.index(nid) for nid in lattice.bell_ids()]
    hidden = [ids.index(nid) for nid in lam]
    # P(s1, s2, sa, sb, lambda), keyed by ((sa, sb), lambda, (s1, s2))
    joint: dict = {}
    for config, p in oracle_distribution(lattice).items():
        s1, s2, sa, sb = (config[k] for k in roles)
        key = ((sa, sb), tuple(config[k] for k in hidden), (s1, s2))
        joint[key] = joint.get(key, 0.0) + p
    spins = (-1, 1)
    settings = list(itertools.product(spins, repeat=2))
    lams = list(itertools.product(spins, repeat=len(hidden)))
    outcomes = settings

    def cell(x, l):
        return {o: joint[(x, l, o)] for o in outcomes}

    lam_mass = {(x, l): sum(cell(x, l).values()) for x in settings for l in lams}
    setting_mass = {x: sum(lam_mass[(x, l)] for l in lams) for x in settings}
    p_lam = {(x, l): lam_mass[(x, l)] / setting_mass[x] for x in settings for l in lams}
    md = max(sum(abs(p_lam[(x, l)] - p_lam[(y, l)]) for l in lams) for x in settings for y in settings)

    def conditional(x, l):  # P(s1, s2 | x, lambda) and its two marginals
        c = cell(x, l)
        total = sum(c.values())
        joint_p = {o: v / total for o, v in c.items()}
        m1 = {s: joint_p[(s, -1)] + joint_p[(s, 1)] for s in spins}
        m2 = {s: joint_p[(-1, s)] + joint_p[(1, s)] for s in spins}
        return joint_p, m1, m2

    od = pd = 0.0
    for l in lams:
        given = {x: conditional(x, l) for x in settings}
        for x, (joint_p, m1, m2) in given.items():
            od = max(od, sum(abs(joint_p[(s1, s2)] - m1[s1] * m2[s2]) for s1, s2 in outcomes))
        for fixed, s in itertools.product(spins, repeat=2):
            # outcome 2 against analyzer a, outcome 1 against analyzer b
            pd = max(pd, abs(given[(1, fixed)][2][s] - given[(-1, fixed)][2][s]))
            pd = max(pd, abs(given[(fixed, 1)][1][s] - given[(fixed, -1)][1][s]))
    return md, od, pd


# -- random lattice generators ---------------------------------------------------

BELL_NODES = [
    ("1", "outcome1"),
    ("2", "outcome2"),
    ("a", "analyzer_a"),
    ("b", "analyzer_b"),
]

RANDOM_STYLES = ("dense", "screened", "analyzer_pair", "chain", "cubic")


def random_bell_lattice(rng: np.random.Generator, style: str | None = None) -> Lattice:
    """Small random lattice with the four Bell roles.

    Styles: dense (random graph over everything), screened (analyzers carry
    fields but no couplings, so hidden state cannot depend on them),
    analyzer_pair (analyzers coupled only to each other), chain (random
    couplings along the 1-a-...-b-2 path), cubic (dense plus a triple).
    """
    if style is None:
        style = RANDOM_STYLES[rng.integers(len(RANDOM_STYLES))]
    n_hidden = int(rng.integers(2, 5))
    hidden = [str(i) for i in range(3, 3 + n_hidden)]
    node_ids = [nid for nid, _ in BELL_NODES] + hidden
    nodes = BELL_NODES + [(nid,) for nid in hidden]

    def coupling() -> float:
        return float(rng.uniform(-1.5, 1.5))

    edges: list[tuple[str, str, float]] = []
    if style == "chain":
        path = ["1", "a", *hidden, "b", "2"]
        edges = [(s, t, coupling()) for s, t in zip(path, path[1:])]
    else:
        if style == "screened":
            eligible = ["1", "2"] + hidden
        elif style == "analyzer_pair":
            eligible = ["1", "2"] + hidden
            edges.append(("a", "b", coupling()))
        else:
            eligible = list(node_ids)
        pairs = list(itertools.combinations(eligible, 2))
        if style in ("screened", "analyzer_pair"):
            # keep the two outcomes conditionally independent given the
            # hidden nodes: no direct 1-2 edge
            pairs = [p for p in pairs if set(p) != {"1", "2"}]
        rng.shuffle(pairs)
        n_edges = int(rng.integers(3, min(len(pairs), 8) + 1))
        edges = [(p[0], p[1], coupling()) for p in pairs[:n_edges]]

    cubic = []
    if style == "cubic":
        trip = list(rng.choice(node_ids, size=3, replace=False))
        cubic = [(tuple(trip), float(rng.uniform(-0.8, 0.8)))]

    fields = {nid: float(rng.uniform(-1.0, 1.0)) for nid in node_ids}
    nodes = [(nid, role, fields[nid]) for nid, role in BELL_NODES] + [
        (nid, "hidden", fields[nid]) for nid in hidden
    ]
    beta = float(rng.uniform(0.4, 1.5))
    return Lattice.from_parts(nodes, edges, beta=beta, cubic=cubic)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


# -- acceptance criterion summary -------------------------------------------------

_CRITERIA: dict[str, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(id, description): acceptance criterion checked by this test",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    mark = item.get_closest_marker("criterion")
    if mark is not None:
        cid, desc = mark.args
        _CRITERIA[str(cid)] = (desc, rep.outcome)


def _criterion_sort_key(cid: str):
    digits = "".join(ch for ch in cid if ch.isdigit())
    return (int(digits) if digits else 0, cid)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_CRITERIA, key=_criterion_sort_key):
        desc, outcome = _CRITERIA[cid]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{word}] criterion {cid:>3s}: {desc}")
