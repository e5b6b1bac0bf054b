"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

For each workload: one untraced and two traced runs with the same seed
(large_exact on its reduced lattices, one second of passes). Checks that
every metric named in BENCHMARK.json is emitted with its unit, that no op
failed (failed_ratio 0), and that the two traced runs report identical
model.configs, search.evals and search.skip_ratio. Last, checks that the
benchmark refuses to run, printing no result, in a copy that holds only
BENCHMARK.json and the benchmark's own directories.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPEATED = ("model.configs", "search.evals", "search.skip_ratio")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, wanted: list[dict]) -> list[str]:
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errs.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} (failed_ratio must be 0)")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        errs.append(f"{label}: metrics {sorted(set(metrics) ^ set(names))} missing or unexpected")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errs.append(f"{label}: {m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errs.append(f"{label}: {m['name']} value {got.get('value')!r}")
    return errs


def isolated_copy_refuses() -> list[str]:
    """In a directory with only BENCHMARK.json and the benchmark's paths,
    the benchmark must exit non-zero without printing a result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    target = BENCH / "out" / "isolated"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", target)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, target / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run([*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=target, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(target, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"isolated copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", "3", "--seconds", "1", "--small"]
        rc, out = run(common + ["--trace", "0"])
        errors += [f"{workload} trace 0: exit {rc}"] if rc else check_result(
            f"{workload} trace 0", result_of(out), spec["end_to_end"])
        traced = []
        for attempt in (1, 2):
            rc, out = run(common + ["--trace", "1"])
            if rc:
                errors.append(f"{workload} trace 1 run {attempt}: exit {rc}")
                continue
            traced.append(result_of(out))
            errors += check_result(f"{workload} trace 1 run {attempt}", traced[-1], spec["per_layer"])
        if len(traced) == 2:
            for name in REPEATED:
                one, two = (r["metrics"].get(name, {}).get("value") for r in traced)
                if one != two:
                    errors.append(f"{workload}: {name} differs between runs of one seed: {one} vs {two}")
        print(f"{workload}: checked", flush=True)
    errors += isolated_copy_refuses()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
