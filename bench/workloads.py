"""Seeded inputs and the fixed op list of each benchmark workload.

`make_inputs` draws every input from the seed and writes the files the
program reads (lattice and search-config JSON). `build_ops` turns those
inputs into a list of ops; each op has a `run` that calls into spinbell
(always through module attributes, so the tracer can see the call) and a
`check` that verifies the result outside the timed region and reports the
work the op did.

Every workload shares two small parts: direct `SearchSpace.evaluate` calls
at seeded points (the latency probe), in chunks placed after each of the
workload's own ops, and a tail of cheap CLI commands run in-process. They
keep every end-to-end metric defined on every workload and touch every
module; they are a small share of large_exact and cli_reference, while the
evaluate calls are part of the core of search_small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spinbell as sb
from spinbell import cli

# Known placement maximum of role_permutation_search(j=1, fields=0).
PLACEMENT_MAX = 1.9280388679818166

LADDER_TOP = ("1", "3", "4", "5", "2")
LADDER_BOTTOM = ("a", "6", "7", "8", "b")
LADDER_ROLES = {"1": "outcome1", "2": "outcome2", "a": "analyzer_a", "b": "analyzer_b"}
SEARCH_PARAMS = [
    {"name": "h_out", "kind": "h", "targets": ["1", "2"], "lo": -2.0, "hi": 2.0},
    {"name": "j_arm", "kind": "j", "targets": [["1", "3"], ["a", "6"]], "lo": 0.1, "hi": 3.0},
    {"name": "j_mid", "kind": "j", "targets": [["4", "7"]], "lo": 0.1, "hi": 3.0},
]
OBJECTIVES = ("x_bi", "md")  # of the two seeded search configs, in order
PROBE_CALLS = {"large_exact": 1000, "search_small": 1000, "cli_reference": 100}
METROPOLIS_N = 5000


@dataclass
class Outcome:
    """What an op's check found and how much work the op did."""

    errors: list[str] = field(default_factory=list)
    configs: int = 0  # sum of 2^N over the lattices the op analyses
    evals: int = 0  # search objective evaluations
    skipped: int = 0  # evaluations scored -inf or skipped as degenerate
    latencies: list[float] = field(default_factory=list)  # direct evaluate calls, s
    rate: tuple[str, float] | None = None  # (name, units of work) for a per-op rate
    peak_mb: float | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    track_memory: bool = False  # traced runs record its tracemalloc peak


# -- inputs ---------------------------------------------------------------------


def _ladder_json(rng: random.Random) -> dict:
    ids = ("1", "2", "a", "b", "3", "4", "5", "6", "7", "8")
    nodes = [
        {"id": i, "role": LADDER_ROLES.get(i, "hidden"), "h": round(rng.uniform(-1.0, 1.0), 6)}
        for i in ids
    ]
    pairs = (
        list(zip(LADDER_TOP, LADDER_TOP[1:]))
        + list(zip(LADDER_BOTTOM, LADDER_BOTTOM[1:]))
        + list(zip(LADDER_TOP, LADDER_BOTTOM))
    )
    edges = [{"a": a, "b": b, "j": round(rng.uniform(0.3, 1.5), 6)} for a, b in pairs]
    return {"beta": 1.0, "nodes": nodes, "edges": edges}


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


def make_inputs(workload: str, seed: int, directory: Path, small: bool = False) -> dict:
    """Draw every input of one workload from the seed and write its files."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    inp: dict = {"workload": workload}

    lattices = [_ladder_json(rng) for _ in range(3)]
    inp["lattice_files"] = [_write_json(directory / f"ladder{i}.json", d) for i, d in enumerate(lattices)]
    inp["configs"] = [
        _write_json(directory / f"search_{obj}.json", {"lattice": lat, "objective": obj, "params": SEARCH_PARAMS})
        for obj, lat in zip(OBJECTIVES, lattices)
    ]
    inp["probe"] = [
        (i % 2, tuple(rng.uniform(p["lo"], p["hi"]) for p in SEARCH_PARAMS))
        for i in range(PROBE_CALLS[workload])
    ]
    inp["k"] = round(rng.uniform(0.2, 0.8), 4)
    inp["cli_seed"] = rng.randrange(2**32)

    if workload == "large_exact":
        # N = chain label count + 2; grid spins = 2 * columns
        chain_n, columns, chain_big = (10, 6, 12) if small else (20, 11, 22)
        inp["chain_n"], inp["chain_big"] = chain_n, chain_big
        inp["chain_j"] = rng.uniform(0.6, 1.2)
        inp["chain_big_j"] = rng.uniform(0.6, 1.2)
        inner = rng.sample(range(1, columns - 1), 2)
        placement = {
            "t0": "outcome1",
            f"t{columns - 1}": "outcome2",
            f"u{min(inner)}": "analyzer_a",
            f"u{max(inner)}": "analyzer_b",
        }
        fields = {pos: rng.uniform(-0.5, 0.5) for pos in sb.presets.grid_positions(columns)}
        grid = sb.grid_lattice(
            placement, j=rng.uniform(0.5, 1.0), fields=fields, columns=columns,
            diagonal_j=rng.uniform(0.1, 0.4),
        )
        inp["grid_n"] = 2 * columns
        inp["grid_file"] = str(directory / "grid.json")
        sb.save_lattice(grid, inp["grid_file"])
        inp["draws"] = 10**5 if small else 10**6
        inp["sample_seeds"] = [rng.randrange(2**32) for _ in range(3)]
    elif workload == "search_small":
        inp["maximize"] = [(0, rng.randrange(2**32)), (0, rng.randrange(2**32)), (1, rng.randrange(2**32))]
        inp["sweep"] = [i / 10 for i in range(11)]
    else:
        inp["builtins"] = {name: sb.builtin_lattice(name).n for name in sorted(sb.BUILTIN_LATTICES)}
    return inp


# -- checks -----------------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _objective(space, values) -> float:
    """The search objective recomputed without SearchSpace.evaluate."""
    model = sb.build_model(space.build(values))
    if space.objective == "md":
        return sb.measurement_dependence(model)[0]
    return sb.chsh(sb.conditional_table(model)).x_bi


def _within_se(freq: float, exact: float, se: float, k: float = 5.0) -> bool:
    return abs(freq - exact) <= k * se


# -- library ops --------------------------------------------------------------------


def _analysis_ops(tag: str, n: int, make_lattice, inp: dict, ctx: dict, seed: int,
                  full: bool, closed_form_k: float | None) -> list[Op]:
    """Exact analysis of one large lattice; the model lives in ctx until sampled."""
    configs = 1 << n

    def lattice_check(lat):
        ctx["lattice"] = lat
        return Outcome([] if lat.n == n else [f"{tag}: lattice has {lat.n} spins, expected {n}"])

    def build_check(model):
        ctx["model"] = model
        ok = model.n == n and math.isfinite(model.log_z)
        return Outcome([] if ok else [f"{tag}: bad model (n={model.n}, log_z={model.log_z})"], configs=configs)

    def chsh_run():
        table = sb.conditional_table(ctx["model"])
        return table, sb.chsh(table)

    def chsh_check(res):
        table, report = res
        worst = max(abs(table.column(sa, sb_).sum() - 1.0) for sa in (1, -1) for sb_ in (1, -1))
        errs = []
        if worst > 1e-12:
            errs.append(f"{tag}: conditional table columns off by {worst:.3e}")
        if not abs(report.x_bi) <= 4.0:
            errs.append(f"{tag}: x_bi = {report.x_bi!r}")
        return Outcome(errs)

    def independence_check(rep):
        ctx["independence"] = rep
        errs = [] if 0.0 <= rep.md <= 2.0 else [f"{tag}: md = {rep.md!r}"]
        if closed_form_k is not None:
            closed = sb.chain_md_closed(n - 2, closed_form_k)
            if not _close(rep.md, closed, 1e-9):
                errs.append(f"{tag}: md {rep.md!r} vs chain_md_closed {closed!r}")
        return Outcome(errs)

    def freewill_check(rep):
        errs = []
        if not rep.max_discrepancy <= 1e-12:
            errs.append(f"{tag}: freewill discrepancy {rep.max_discrepancy:.3e}")
        if not rep.partition_gap <= 1e-12:
            errs.append(f"{tag}: partition gap {rep.partition_gap:.3e}")
        return Outcome(errs)

    def clamped_check(rep):
        direct = ctx["independence"]
        errs = [
            f"{tag}: clamped {name} {getattr(rep, name)!r} vs direct {getattr(direct, name)!r}"
            for name in ("md", "od", "pd")
            if not abs(getattr(rep, name) - getattr(direct, name)) <= 1e-9
        ]
        return Outcome(errs)

    def sample_run():
        model = ctx["model"]
        id1, id2, ida, idb = model.lattice.bell_ids()
        run = sb.SampleRun(seed=seed, n=inp["draws"])
        return sb.frequency_report(model, run, {id1: 1, id2: 1}, {ida: 1, idb: 1})

    def sample_check(rep):
        for key in ("lattice", "model", "independence"):  # release the 2^N weights
            ctx.pop(key, None)
        row = rep.final
        ok = row.n == inp["draws"] and _within_se(row.freq, rep.exact, row.se)
        errs = [] if ok else [f"{tag}: sampled {row.freq!r} vs exact {rep.exact!r} (se {row.se!r})"]
        return Outcome(errs, rate=(f"sampling.exact_draws_per_s.{tag}", float(inp["draws"])))

    ops = [
        Op(f"{tag}.lattice", make_lattice, lattice_check),
        Op(f"{tag}.build_model", lambda: sb.build_model(ctx["lattice"]), build_check, track_memory=True),
        Op(f"{tag}.chsh", chsh_run, chsh_check),
    ]
    if full:
        ops += [
            Op(f"{tag}.independence", lambda: sb.independence_report(ctx["model"]), independence_check),
            Op(f"{tag}.freewill", lambda: sb.freewill_report(ctx["model"]), freewill_check),
            Op(f"{tag}.clamped", lambda: sb.clamped_independence_report(ctx["model"]), clamped_check),
        ]
    ops.append(Op(f"{tag}.sample", sample_run, sample_check))
    return ops


def _large_exact_ops(inp: dict, ctx: dict) -> list[Op]:
    cn, big = inp["chain_n"], inp["chain_big"]
    grid_n = inp["grid_n"]
    seeds = inp["sample_seeds"]
    return (
        _analysis_ops(
            f"chain{cn + 2}", cn + 2, lambda: sb.chain_lattice(cn, j=inp["chain_j"]), inp, ctx,
            seeds[0], True, math.tanh(inp["chain_j"]),
        )
        + _analysis_ops(
            f"grid{grid_n}", grid_n, lambda: sb.load_lattice(inp["grid_file"]), inp, ctx,
            seeds[1], True, None,
        )
        + _analysis_ops(
            f"chain{big + 2}", big + 2, lambda: sb.chain_lattice(big, j=inp["chain_big_j"]), inp, ctx,
            seeds[2], False, None,
        )
    )


def _search_small_ops(inp: dict, ctx: dict) -> list[Op]:
    ops = []
    for i, (space_i, seed) in enumerate(inp["maximize"]):
        budget = 300

        def run(space_i=space_i, seed=seed, budget=budget):
            return sb.maximize_chsh(ctx["spaces"][space_i], budget=budget, seed=seed)

        def check(res, space_i=space_i, budget=budget):
            space = ctx["spaces"][space_i]
            errs = []
            if not res.certified:
                errs.append(f"maximize {space.objective}: not certified")
            again = _objective(space, res.best_values)
            if not abs(again - res.best_score) <= 1e-12:
                errs.append(f"maximize {space.objective}: best {res.best_score!r} re-evaluates to {again!r}")
            if not 1 <= res.evaluations <= budget:
                errs.append(f"maximize: {res.evaluations} evaluations for budget {budget}")
            evals = res.evaluations + 1  # the certifying re-evaluation
            return Outcome(errs, configs=evals << space.base.n, evals=evals)

        ops.append(Op(f"search.maximize{i}.{OBJECTIVES[space_i]}", run, check))

    resolution = 6

    def grid_check(rows):
        space = ctx["spaces"][0]
        points = resolution ** len(space.params)
        errs = [] if all(math.isfinite(r.x_bi) and 0.0 <= r.md <= 2.0 for r in rows) else ["grid_scan: bad row"]
        return Outcome(errs, configs=points << space.base.n, evals=points, skipped=points - len(rows),
                       rate=("search.grid_points_per_s", float(points)))

    ops.append(Op("search.grid_scan", lambda: sb.grid_scan(ctx["spaces"][0], resolution=resolution),
                  grid_check))

    for mode, dedup, count in (("dedup", True, 1260), ("full", False, 5040)):
        def check(results, mode=mode, count=count):
            best = max((r.x_bi for r in results), default=math.nan)
            errs = []
            if not abs(best - PLACEMENT_MAX) <= 1e-12:
                errs.append(f"placements {mode}: maximum {best!r}, expected {PLACEMENT_MAX!r}")
            return Outcome(errs, configs=count << 10, evals=count, skipped=count - len(results),
                           rate=(f"search.placements_per_s.{mode}", float(count)))

        ops.append(Op(
            f"search.placements_{mode}",
            lambda dedup=dedup: sb.role_permutation_search(j=1.0, fields=0.0, top=0, dedup_symmetry=dedup),
            check,
        ))

    def sweep_check(rows):
        lattice = ctx["sweep_lattice"]
        direct = sb.measurement_dependence(sb.build_model(lattice))[0]
        errs = []
        if not rows[0][1] <= 1e-12:
            errs.append(f"decoupling_sweep: md at s=0 is {rows[0][1]!r}")
        if not _close(rows[-1][1], direct, 1e-12):
            errs.append(f"decoupling_sweep: md at s=1 is {rows[-1][1]!r}, direct {direct!r}")
        n = len(inp["sweep"])
        return Outcome(errs, configs=n << lattice.n, evals=n)

    def sweep_run():
        ctx["sweep_lattice"] = sb.load_lattice(inp["lattice_files"][2])
        return sb.decoupling_sweep(ctx["sweep_lattice"], inp["sweep"])

    ops.append(Op("search.decoupling_sweep", sweep_run, sweep_check))
    return ops


def _load_configs_op(inp: dict, ctx: dict) -> Op:
    def load():
        ctx["spaces"] = [sb.load_search_config(path) for path in inp["configs"]]
        return ctx["spaces"]

    def check(spaces):
        objectives = tuple(s.objective for s in spaces)
        return Outcome([] if objectives == OBJECTIVES else [f"search configs: objectives {objectives}"])

    return Op("search.load_configs", load, check)


def _probe_ops(inp: dict, ctx: dict, chunks: int) -> list[Op]:
    """Direct evaluate calls at the seeded points, each timed, split into
    chunks that the caller spreads over the pass so that the latency
    percentiles sample the whole pass rather than one moment of it."""
    points = inp["probe"]
    bounds = [len(points) * c // chunks for c in range(chunks + 1)]

    def make(lo: int, hi: int) -> Op:
        def probe():
            spaces = ctx["spaces"]
            out = []
            for space_i, values in points[lo:hi]:
                space = spaces[space_i]
                t0 = perf_counter()
                score = space.evaluate(values)
                out.append((score, perf_counter() - t0))
            return out

        def check(results):
            spaces = ctx["spaces"]
            errs = []
            skipped = 0
            for k, ((space_i, values), (score, _)) in enumerate(zip(points[lo:hi], results), start=lo):
                if score == -math.inf:
                    skipped += 1
                elif k % 50 == 0:
                    again = _objective(spaces[space_i], values)
                    if not abs(again - score) <= 1e-12:
                        errs.append(f"evaluate #{k}: {score!r} but recomputed {again!r}")
            n = len(results)
            return Outcome(errs, configs=n << spaces[0].base.n, evals=n, skipped=skipped,
                           latencies=[dt for _, dt in results])

        return Op(f"search.evaluate.{lo}-{hi}", probe, check)

    return [make(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# -- CLI ops ----------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue()


def _value_after(text: str, label: str) -> float:
    for line in text.splitlines():
        if line.strip().startswith(label):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"no line starting with {label!r}")


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its expected exit code and an output check."""

    name: str
    argv: tuple[str, ...]
    rc: int
    check: Callable[[str], list[str]]
    configs: int = 0
    rate: tuple[str, float] | None = None

    def outcome(self, rc: int, text: str) -> Outcome:
        if rc != self.rc:
            return Outcome([f"{self.name}: exit {rc}, expected {self.rc}"])
        try:
            errs = self.check(text)
        except ValueError as exc:
            errs = [f"{self.name}: unreadable output ({exc})"]
        return Outcome([f"{self.name}: {e}" for e in errs], configs=self.configs, rate=self.rate)


def _check_freewill(text: str) -> list[str]:
    disc = _value_after(text, "max discrepancy")
    gap = _value_after(text, "partition gap")
    return [] if disc <= 1e-12 and gap <= 1e-12 else [f"discrepancy {disc:.3e}, gap {gap:.3e}"]


def _check_exact_sample(text: str) -> list[str]:
    n, freq, exact, se = (float(v) for v in _csv_rows(text)[-1])
    return [] if _within_se(freq, exact, se) else [f"sampled {freq!r} vs exact {exact!r} (se {se!r})"]


def _check_chain_check(text: str) -> list[str]:
    dev = _value_after(text, "relative deviation")
    return [] if dev <= 1e-9 else [f"relative deviation {dev!r}"]


def _check_certified(text: str) -> list[str]:
    return [] if "certified=True" in text else ["result not certified"]


def _evaluations(text: str) -> int:
    return int(text.split("(", 1)[1].split()[0])


def _check_reproduce_all(text: str) -> list[str]:
    """Exactly the two known-red rows of ladder-uniform fail (criteria 1a, 1d)."""
    block, fails = None, []
    for line in text.splitlines():
        if line.startswith("["):
            block = line[1:].split("]", 1)[0]
        elif line.rstrip().endswith("FAIL"):
            fails.append((block, line.strip().split(":", 1)[0]))
    want = [("ladder-uniform", "P(+,+|+,+)"), ("ladder-uniform", "P(lambda all +|-,-)")]
    return [] if fails == want else [f"failing rows {fails}, expected {want}"]


def _sample_argv(builtin: str, event: str, seed: int, n: int, kind: str = "exact", given: str | None = None):
    argv = ["sample", "--builtin", builtin, "--event", event, "--seed", str(seed), "--n", str(n),
            "--kind", kind, "--format", "csv", "--precision", "full"]
    return argv + (["--given", given] if given else [])


def tail_commands(inp: dict) -> list[Command]:
    """Cheap subcommands: run in-process in every workload's tail and as
    fresh subprocesses for cold_cmd_ms."""
    k, seed = str(inp["k"]), inp["cli_seed"]
    return [
        Command("eval-ladder", ("eval", "--builtin", "ladder", "--report", "chsh"), 0,
                lambda t: [] if "x_bi    = -0.667213" in t else ["ladder x_bi line missing"], configs=1 << 10),
        Command("freewill-file", ("freewill", "--lattice", inp["lattice_files"][0]), 0, _check_freewill,
                configs=1 << 10),
        Command("sample-ladder", tuple(_sample_argv("ladder", "1:+", seed, 20000, given="a:+,b:+")), 0,
                _check_exact_sample, configs=1 << 10),
        Command("chain-check", ("chain", "--n", "9", "--k", k, "--check"), 0, _check_chain_check,
                configs=1 << 11),
        Command("optimize-small", ("optimize", "--config", inp["configs"][0], "--budget", "40",
                                   "--seed", str(seed)), 0, _check_certified),
        Command("reproduce-tuned", ("reproduce", "ladder-tuned"), 0,
                lambda t: [] if "FAIL" not in t and "PASS" in t else ["ladder-tuned rows do not all pass"]),
    ]


def _script_commands(inp: dict) -> list[Command]:
    """The fixed cli_reference script."""
    k, seed = str(inp["k"]), inp["cli_seed"]

    def profile_check(text):
        rows = _csv_rows(text)
        ks = float(k)
        bad = [r for r in rows if (float(r[1]), float(r[2]))
               != (sb.chain_md_closed(int(r[0]), ks), sb.chain_md_per_config(int(r[0]), ks))]
        return [] if len(rows) == 36 and not bad else [f"{len(rows)} rows, {len(bad)} differ from the library"]

    def series_check(text):
        dev = _value_after(text, "overall max")
        return [] if dev <= 1e-9 else [f"overall deviation {dev!r}"]

    def metropolis_check(text):
        n, freq, exact, se = (float(v) for v in _csv_rows(text)[-1])
        return [] if n == METROPOLIS_N and 0.0 <= freq <= 1.0 else [f"final row n={n} freq={freq}"]

    def eval_all_check(text):
        return [] if "x_bi" in text and "md =" in text and "P(s1,s2|sa,sb)" in text else ["report incomplete"]

    def eval_file_check(path):
        def check(text):
            x_bi = float(_csv_rows(text)[0][4])
            direct = sb.chsh(sb.conditional_table(sb.build_model(sb.load_lattice(path)))).x_bi
            return [] if abs(x_bi - direct) <= 1e-12 else [f"x_bi {x_bi!r} vs library {direct!r}"]
        return check

    flips = 10 * 1024 * 14 + METROPOLIS_N * 14  # default burn-in and thinning on chain-12 (N = 14)
    cmds = [
        Command("reproduce", ("reproduce",), 4, _check_reproduce_all),
        Command("series", ("series", "--chain-n", "10"), 0, series_check),
        Command("chain-profile", ("chain", "--profile", "5", "40", "--k", k, "--precision", "full"), 0,
                profile_check),
        Command("chain-check12", ("chain", "--n", "12", "--k", k, "--check"), 0, _check_chain_check,
                configs=1 << 14),
        Command("sample-exact", tuple(_sample_argv("ladder", "1:+", seed, 100_000, given="a:+,b:+")), 0,
                _check_exact_sample, configs=1 << 10),
        Command("sample-metropolis", tuple(_sample_argv("chain-12", "1:+", seed, METROPOLIS_N, kind="metropolis")),
                0, metropolis_check, configs=1 << 14, rate=("sampling.metropolis_flips_per_s", float(flips))),
    ]
    for name, n in inp["builtins"].items():
        cmds.append(Command(f"eval-{name}", ("eval", "--builtin", name), 0, eval_all_check, configs=1 << n))
        cmds.append(Command(f"freewill-{name}", ("freewill", "--builtin", name), 0, _check_freewill,
                            configs=1 << n))
    for i, path in enumerate(inp["lattice_files"]):
        cmds.append(Command(f"eval-file{i}", ("eval", "--lattice", path, "--report", "chsh", "--format", "csv",
                                              "--precision", "full"), 0, eval_file_check(path), configs=1 << 10))
        cmds.append(Command(f"freewill-file{i}", ("freewill", "--lattice", path), 0, _check_freewill,
                            configs=1 << 10))
    cmds.append(Command("optimize", ("optimize", "--config", inp["configs"][1], "--budget", "200",
                                     "--seed", str(seed)), 0, _check_certified))
    return cmds


def _cli_op(cmd: Command) -> Op:
    def check(res):
        rc, text = res
        outcome = cmd.outcome(rc, text)
        if cmd.argv[0] == "optimize" and not outcome.errors:
            outcome.configs = (_evaluations(text) + 1) << 10
        return outcome

    return Op(f"cli.{cmd.name}", lambda: run_cli(list(cmd.argv)), check)


# -- assembly ---------------------------------------------------------------------


def build_ops(inp: dict) -> list[Op]:
    """Load the search configs, then the workload's own ops with one chunk
    of the evaluate probe after each, then the CLI tail."""
    ctx: dict = {}
    own = {
        "large_exact": _large_exact_ops,
        "search_small": _search_small_ops,
        "cli_reference": lambda inp, ctx: [_cli_op(c) for c in _script_commands(inp)],
    }[inp["workload"]](inp, ctx)
    ops = [_load_configs_op(inp, ctx)]
    for op, chunk in zip(own, _probe_ops(inp, ctx, len(own))):
        ops += [op, chunk]
    return ops + [_cli_op(c) for c in tail_commands(inp)]
