"""spinbell benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload large_exact --seed 1 --seconds 30 --trace 0

Runs the workload's fixed op list in passes for about --seconds seconds in
this one process (no threads or pools), checks every op's output, prints
each metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
gives the per-layer metrics (self time and calls per module, work counts,
tracing overhead). Full results, and the spans of a traced run, are written
under bench/out/. The package is imported from src/ next to this directory,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("large_exact", "search_small", "cli_reference")
SETUP_PROBES = 7
COLD_ROUNDS = 3
IMPORT_PROBES = 3
MIN_LATENCIES = 1000  # the printed eval_p99_ms needs at least 10 samples beyond it
SUBPROCESS_TIMEOUT_S = 120
CLI_MAIN = "import sys; from spinbell.cli import main; sys.exit(main())"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="time spent in measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced large_exact lattices (self-test)")
    p.add_argument("--setup-only", action="store_true", help="import and write the inputs, then exit")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def load_program() -> None:
    """Import spinbell from the source tree beside the benchmark, or exit 2."""
    if not (SRC / "spinbell" / "__init__.py").is_file():
        print(f"error: no spinbell sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spinbell

    if Path(spinbell.__file__).resolve().parent != (SRC / "spinbell").resolve():
        print(f"error: imported spinbell from {spinbell.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def _timed_subprocess(argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and stdout of one fresh interpreter."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, -1, ""
    return perf_counter() - t0, proc.returncode, proc.stdout


# -- passes -------------------------------------------------------------------------


@dataclass
class PassResult:
    traced: bool
    op_seconds: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    def counts(self) -> tuple[int, int, int]:
        return (sum(o.configs for o in self.outcomes), sum(o.evals for o in self.outcomes),
                sum(o.skipped for o in self.outcomes))


class Jobs:
    """Fresh-process jobs spread evenly over the measured time.

    Job k runs, between two ops, once k / len(jobs) of the run's seconds of
    op time have passed, so the jobs sample the whole run and not one phase
    of the host; their own time is not counted as op time.
    """

    def __init__(self, jobs, seconds: float) -> None:
        self.pending = list(jobs)
        self.total = len(self.pending)
        self.seconds = seconds

    def run_due(self, spent: float) -> None:
        while self.pending and (self.total - len(self.pending)) * self.seconds / self.total <= spent:
            self.pending.pop(0)()

    def run_rest(self) -> None:
        while self.pending:
            self.pending.pop(0)()


def run_pass(ops, workloads, jobs: Jobs, spent: float, tracer=None) -> PassResult:
    result = PassResult(traced=tracer is not None)
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            memory = tracer is not None and op.track_memory
            if memory:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                value = tracer.op(i, op.name, op.run) if tracer else op.run()
            except Exception as exc:  # an op that raises counts as failed; the pass goes on
                dt = perf_counter() - t0
                outcome = workloads.Outcome([f"{op.name}: raised {exc!r}"])
            else:
                dt = perf_counter() - t0
                try:
                    outcome = op.check(value)
                except Exception as exc:  # a check that cannot read the result fails the op
                    outcome = workloads.Outcome([f"{op.name}: check raised {exc!r}"])
            if memory:
                outcome.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            result.op_seconds.append(dt)
            result.outcomes.append(outcome)
            spent += dt
            jobs.run_due(spent)
    finally:
        if tracer:
            tracer.uninstall()
            result.spans = tracer.spans
    return result


def run_passes(ops, workloads, spans_mod, seconds: float, traced: bool, jobs: Jobs) -> list[PassResult]:
    """Passes until the next one would overrun and the run holds at least
    MIN_LATENCIES evaluate latencies; traced runs alternate untraced and
    traced passes and make at least one of each."""
    passes: list[PassResult] = []
    spent = 0.0
    while True:
        tracer = spans_mod.Tracer() if traced and len(passes) % 2 == 1 else None
        passes.append(run_pass(ops, workloads, jobs, spent, tracer))
        last = passes[-1].wall
        spent += last
        samples = sum(len(o.latencies) for p in passes for o in p.outcomes)
        if (spent + last > seconds and len(passes) >= (2 if traced else 1)
                and (traced or samples >= MIN_LATENCIES)):
            break
    jobs.run_rest()
    return passes


# -- metrics ------------------------------------------------------------------------


def op_medians(passes: list[PassResult], ops) -> list[float]:
    """Median time of each op over the untraced passes."""
    plain = [p for p in passes if not p.traced]
    return [statistics.median(p.op_seconds[i] for p in plain) for i in range(len(ops))]


def end_to_end(passes: list[PassResult], ops, setup: list[float], cold: dict[str, list[float]]):
    """Gated metrics, and informational ones that are printed but not gated."""
    op_s = op_medians(passes, ops)
    wall = sum(op_s)
    configs, _, _ = passes[0].counts()
    probe = [(dt, o.latencies) for p in passes for dt, o in zip(p.op_seconds, p.outcomes) if o.latencies]
    latencies = [dt for _, lat in probe for dt in lat]
    # Medians within each probe chunk and each command, averaged across them:
    # a median pooled over the run jumps between the host's fast and slow phases.
    chunk_p50 = [statistics.median(lat) for _, lat in probe]
    per_command = [statistics.median(times) for times in cold.values()]
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "configs_per_s": (configs / wall, "1/s"),
        "eval_p50_ms": (1e3 * statistics.fmean(chunk_p50), "ms"),
        "cold_cmd_ms": (1e3 * statistics.fmean(per_command), "ms"),
    }
    info = {
        "evals_per_s": (len(latencies) / sum(dt for dt, _ in probe), "1/s"),
        "eval_p99_ms": (1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[98], "ms"),
    }
    return gated, info, len(latencies)


def per_layer(passes: list[PassResult], spans_mod, import_s: list[float]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    modules = [spans_mod.per_module(p.spans) for p in traced]
    metrics = {}
    for m in spans_mod.MODULES:
        metrics[f"{m}.self_ms"] = (1e3 * statistics.median(row[m]["self"] for row in modules), "ms")
        metrics[f"{m}.calls"] = (modules[-1][m]["calls"], "count")
    # build_model enumerates 2^N; clamped_models enumerates 4 clamped ensembles of 2^(N-2)
    enumerating = ("model.build_model", "freewill.clamped_models")
    enumerated = sum(1 << s[spans_mod.SIZE] for s in traced[-1].spans if s[spans_mod.NAME] in enumerating)
    _, evals, skipped = traced[-1].counts()
    metrics.update({
        "model.configs": (enumerated, "count"),
        "model.weight_bytes": (8 * enumerated, "bytes"),
        "search.evals": (evals, "count"),
        "search.skip_ratio": (skipped / evals, "ratio"),
        "cli.import_ms": (1e3 * statistics.median(import_s), "ms"),
        "trace.overhead_s": (statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain), "s"),
    })
    busy = {m: 1e3 * statistics.median(row[m]["busy"] for row in modules) for m in spans_mod.MODULES}
    return metrics, busy


def _lscpu() -> dict[str, str]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    return dict((k.strip(), v.strip()) for k, _, v in (line.partition(":") for line in text.splitlines()))


def _mib(size: str | None) -> float | None:
    """'105 MiB (1 instance)' -> 105.0"""
    scale = {"KiB": 1 / 1024, "MiB": 1.0, "GiB": 1024.0}
    parts = (size or "").split()
    try:
        return float(parts[0]) * scale[parts[1]]
    except (IndexError, KeyError, ValueError):
        return None


def provenance(seed: int, np_version: str) -> dict:
    cpu = _lscpu()
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    l3 = _mib(cpu.get("L3 cache"))
    largest = 2**24 * 8 / 2**20
    relation = "unknown" if l3 is None else ("under" if largest < 4 * l3 else "over")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": np_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "memory": "peak_rss_mb is ru_maxrss of the benchmark process; tracemalloc_peak lines are "
                  "tracemalloc peaks around single model builds in traced passes",
        "bytes_moved": f"model.weight_bytes is computed as 8 bytes per enumerated configuration, not "
                       f"measured; the largest weight array ({largest:.0f} MiB) is {relation} 4x the L3 "
                       f"size, so no figure here is a memory-bandwidth measurement",
    }


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import spans as spans_mod
    import workloads

    inputs_dir = OUT / f"inputs-{args.workload}-seed{args.seed}"
    inputs = workloads.make_inputs(args.workload, args.seed, inputs_dir, small=args.small)
    if args.setup_only:
        return 0

    ops = workloads.build_ops(inputs)
    run_argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--setup-only"] + (["--small"] if args.small else [])

    setup, import_s = [], []
    cold: dict[str, list[float]] = {}
    cold_outcomes = []

    def job(argv: list[str], record, check):
        def run() -> None:
            dt, rc, text = _timed_subprocess(argv)
            record(dt)
            cold_outcomes.append(check(rc, text))
        return run

    def exit_zero(what: str):
        return lambda rc, _: workloads.Outcome([] if rc == 0 else [f"{what}: exit {rc}"])

    if args.trace:
        jobs = [job([sys.executable, "-c", "import spinbell.cli"], import_s.append, exit_zero("import probe"))
                for _ in range(IMPORT_PROBES)]
    else:
        setups = [(i / SETUP_PROBES, job(run_argv, setup.append, exit_zero("setup probe")))
                  for i in range(SETUP_PROBES)]
        commands = [cmd for _ in range(COLD_ROUNDS) for cmd in workloads.tail_commands(inputs)]
        colds = [(i / len(commands), job([sys.executable, "-c", CLI_MAIN, *cmd.argv],
                                         cold.setdefault(cmd.name, []).append, cmd.outcome))
                 for i, cmd in enumerate(commands)]
        jobs = [run for _, run in sorted(setups + colds, key=lambda pair: pair[0])]
    passes = run_passes(ops, workloads, spans_mod, args.seconds, bool(args.trace), Jobs(jobs, args.seconds))

    outcomes = [o for p in passes for o in p.outcomes] + cold_outcomes
    errors = [e for o in outcomes for e in o.errors]
    failed = sum(1 for o in outcomes if o.errors)
    counts = {p.counts() for p in passes}
    if len(counts) != 1:
        errors.append(f"work counts differ between passes of one seed: {sorted(counts)}")

    if args.trace:
        metrics, busy = per_layer(passes, spans_mod, import_s)
        info, samples = {}, None
    else:
        metrics, info, samples = end_to_end(passes, ops, setup, cold)
        busy = None

    op_median = dict(zip((op.name for op in ops), op_medians(passes, ops)))
    rates = {o.rate[0]: o.rate[1] / op_median[op.name]
             for op, o in zip(ops, passes[0].outcomes) if o.rate}
    peaks = {op.name: o.peak_mb for p in passes for op, o in zip(ops, p.outcomes) if o.peak_mb is not None}

    prov = provenance(args.seed, sys.modules["numpy"].__version__)
    print("provenance " + json.dumps(prov))
    for op in ops:
        print(f"op {op.name:32s} median {op_median[op.name]:.6f} s")
    for name, value in sorted(rates.items()):
        print(f"rate {name} = {value:.6g} 1/s")
    for name, value in sorted(peaks.items()):
        print(f"tracemalloc_peak {name} = {value:.1f} MB")
    if busy:
        for m, ms in busy.items():
            print(f"busy {m}.busy_ms = {ms:.3f} ms")
        for (name, n), durs in sorted(spans_mod.per_name([p for p in passes if p.traced][-1].spans).items(),
                                      key=lambda kv: -sum(kv[1]))[:40]:
            size = "" if n is None else f" n={n}"
            print(f"span {name}{size}: calls {len(durs)}, total {1e3 * sum(durs):.3f} ms, "
                  f"median {1e3 * statistics.median(durs):.4f} ms")
        spans_mod.write_tsv(OUT / f"spans-{args.workload}-seed{args.seed}.tsv",
                            [p.spans for p in passes if p.traced])
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value:.6g} {unit} (printed, not gated)")
    if samples is not None:
        print(f"eval latency samples = {samples} over {len(passes)} passes; "
              f"setup probes = {len(setup)}; cold commands = {sum(map(len, cold.values()))}")
    print(f"failed_ratio = {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} ops)")
    for e in errors[:20]:
        print(f"error {e}")

    result = {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, info={name: value for name, (value, _) in info.items()},
                  workload=args.workload, seconds=args.seconds, trace=args.trace,
                  pass_seconds=[p.wall for p in passes], traced_passes=[p.traced for p in passes],
                  op_seconds=[p.op_seconds for p in passes], setup_samples_s=setup, cold_samples_s=cold,
                  provenance=prov, op_median_s=op_median, rates=rates,
                  tracemalloc_peak_mb=peaks, errors=errors, busy_ms=busy)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
