"""Command line interface.

Subcommands:

  eval       CHSH, independence and conditional-table reports for a lattice
  reproduce  run the built-in reference cases and check their target values
  series     compare closed-form expressions against exact enumeration
  freewill   postselected vs clamped analyzer tables and their discrepancy
  sample     seeded sampling with a frequency stabilization trace
  optimize   pattern search / grid scan over a parameter space config
  chain      closed-form chain dependence values and cross-checks

Exit codes: 0 success, 2 bad input, 3 degenerate or out-of-range numerics,
4 reference-case mismatch.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .bell import chsh, conditional_table
from .errors import (
    DegenerateModelError,
    EnumerationLimitError,
    EquivalenceViolationError,
    InvalidArgumentError,
    InvalidConfigurationError,
    LatticeDefinitionError,
    LatticeFileError,
    NumericRangeError,
    ZeroMeasureConditionError,
)
from .freewill import freewill_report
from .independence import independence_report
from .latticefile import load_lattice, load_search_config
from .model import build_model
from .presets import BUILTIN_LATTICES, all_cases, builtin_lattice, get_case
from .sampling import SampleRun, frequency_report
from .search import grid_csv, grid_scan, maximize_chsh
from .series import (
    DEFAULT_K_GRID,
    chain_md_closed,
    chain_md_per_config,
    chain_md_profile,
    profile_csv,
    series_check,
)
from ._format import fmt

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

_INPUT_ERRORS = (
    LatticeFileError,
    LatticeDefinitionError,
    InvalidConfigurationError,
    InvalidArgumentError,
    EnumerationLimitError,
)
_NUMERIC_ERRORS = (
    ZeroMeasureConditionError,
    DegenerateModelError,
    NumericRangeError,
    EquivalenceViolationError,
)

_SPIN_TOKENS = {"+": 1, "+1": 1, "1": 1, "up": 1, "-": -1, "-1": -1, "down": -1}


def _parse_assignment(text: str) -> dict[str, int]:
    """'1:+,2:-' -> {'1': 1, '2': -1}."""
    out: dict[str, int] = {}
    if not text:
        return out
    for part in text.split(","):
        if ":" not in part:
            raise InvalidArgumentError(
                f"bad assignment {part!r}; expected node:spin like '1:+'"
            )
        nid, _, tok = part.partition(":")
        nid = nid.strip()
        tok = tok.strip()
        if tok not in _SPIN_TOKENS:
            raise InvalidArgumentError(
                f"bad spin {tok!r} for node {nid!r}; use one of {sorted(_SPIN_TOKENS)}"
            )
        if nid in out:
            raise InvalidArgumentError(f"node {nid!r} assigned twice")
        out[nid] = _SPIN_TOKENS[tok]
    return out


def _precision(text: str) -> int | None:
    if text == "full":
        return None
    try:
        value = int(text)
    except ValueError:
        raise InvalidArgumentError(
            f"precision must be a positive integer or 'full', got {text!r}"
        ) from None
    if value < 1:
        raise InvalidArgumentError(f"precision must be >= 1, got {value}")
    return value


def _start_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InvalidArgumentError(
            f"--start must be comma-separated numbers, got {text!r}"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _lattice_from_args(args) -> "Lattice":
    if args.lattice:
        return load_lattice(args.lattice)
    return builtin_lattice(args.builtin)


def _add_lattice_options(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", metavar="FILE", help="lattice definition file (JSON)")
    group.add_argument(
        "--builtin",
        choices=sorted(BUILTIN_LATTICES),
        help="named built-in lattice",
    )


def _add_output_options(sub) -> None:
    sub.add_argument("--format", choices=("text", "csv"), default="text")
    sub.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    sub.add_argument(
        "--precision",
        type=_precision,
        default=6,
        metavar="N|full",
        help="significant digits in reports (default 6; 'full' for shortest round-trip)",
    )


def _render(report, args) -> str:
    if args.format == "csv":
        return report.csv(args.precision)
    return report.to_text(args.precision)


def _cmd_eval(args) -> int:
    model = build_model(_lattice_from_args(args))
    lam = args.lam.split(",") if args.lam else None
    want = ("chsh", "independence", "table") if args.report == "all" else (args.report,)
    if args.format == "csv" and len(want) > 1:
        raise InvalidArgumentError("csv output needs a single --report, not 'all'")
    reports = {
        "chsh": lambda: chsh(conditional_table(model)),
        "independence": lambda: independence_report(model, lam=lam),
        "table": lambda: conditional_table(model),
    }
    _emit("\n\n".join(_render(reports[name](), args) for name in want), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.list:
        for case in all_cases():
            print(f"{case.id:<18s} {case.title}")
        return EXIT_OK
    if not args.case or "all" in args.case:
        cases = all_cases()
    else:
        cases = [get_case(cid) for cid in args.case]
    failed = False
    for case in cases:
        print(f"[{case.id}] {case.title}")
        for result in case.run():
            print(f"  {result.describe()}")
            if result.verdict == "FAIL":
                failed = True
    return EXIT_MISMATCH if failed else EXIT_OK


def _cmd_series(args) -> int:
    ks = tuple(args.k) if args.k else DEFAULT_K_GRID
    report = series_check(k_values=ks, chain_n=args.chain_n)
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_freewill(args) -> int:
    model = build_model(_lattice_from_args(args))
    report = freewill_report(model)
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = build_model(_lattice_from_args(args))
    run = SampleRun(
        seed=args.seed,
        n=args.n,
        kind=args.kind,
        burn_in=args.burn_in,
        thinning=args.thinning,
    )
    event = _parse_assignment(args.event)
    given = _parse_assignment(args.given) if args.given else None
    report = frequency_report(model, run, event, given)
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    space = load_search_config(args.config)
    if args.grid is not None:
        rows = grid_scan(space, resolution=args.grid)
        _emit(grid_csv(space, rows, args.precision), args.out)
        return EXIT_OK
    start = _start_values(args.start) if args.start else None
    result = maximize_chsh(
        space,
        budget=args.budget,
        seed=args.seed,
        start=start,
        restarts=args.restarts,
        initial_step=args.step,
        min_step=args.min_step,
    )
    _emit(result.to_text(space, args.precision), args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    if args.profile:
        lo, hi = args.profile
        if lo > hi:
            raise InvalidArgumentError(f"empty profile range {lo}..{hi}")
        rows = chain_md_profile(range(lo, hi + 1), args.k)
        _emit(profile_csv(rows, args.precision), args.out)
        return EXIT_OK
    summed = chain_md_closed(args.n, args.k)
    per_config = chain_md_per_config(args.n, args.k)
    lines = [
        f"chain n={args.n} k={fmt(args.k, args.precision)}",
        f"  md (summed over ends)   = {fmt(summed, args.precision)}",
        f"  md (per-configuration)  = {fmt(per_config, args.precision)}",
    ]
    if args.check:
        from .independence import measurement_dependence
        from .presets import chain_lattice

        j = float(np.arctanh(args.k))
        model = build_model(chain_lattice(args.n, j=j))
        md, _ = measurement_dependence(model)
        dev = abs(md - summed) / max(abs(md), abs(summed), 1e-300)
        lines.append(f"  md (enumeration)        = {fmt(md, args.precision)}")
        lines.append(f"  relative deviation      = {fmt(dev, args.precision)}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbell",
        description="exact correlation experiments on small spin lattices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="reports for one lattice")
    _add_lattice_options(p)
    p.add_argument(
        "--report",
        choices=("chsh", "independence", "table", "all"),
        default="all",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        default=None,
        metavar="IDS",
        help="comma separated hidden-node ids to condition on (default: all hidden nodes)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("reproduce", help="check the built-in reference cases")
    p.add_argument("case", nargs="*", help="case ids (default: all)")
    p.add_argument("--list", action="store_true", help="list case ids and exit")
    p.set_defaults(func=_cmd_reproduce)

    p = subs.add_parser("series", help="closed forms vs exact enumeration")
    p.add_argument("--k", type=float, nargs="*", help="coupling strengths tanh(beta j)")
    p.add_argument("--chain-n", type=int, default=8, help="chain length for chain checks")
    _add_output_options(p)
    p.set_defaults(func=_cmd_series)

    p = subs.add_parser("freewill", help="postselected vs clamped analyzers")
    _add_lattice_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_freewill)

    p = subs.add_parser("sample", help="seeded sampling with a frequency trace")
    _add_lattice_options(p)
    p.add_argument("--event", required=True, metavar="ASSIGN", help="e.g. '1:+,2:+'")
    p.add_argument("--given", default=None, metavar="ASSIGN", help="e.g. 'a:+,b:+'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--kind", choices=("exact", "metropolis"), default="exact")
    p.add_argument("--burn-in", type=int, default=None, help="metropolis burn-in flips")
    p.add_argument("--thinning", type=int, default=None, help="metropolis flips per sample")
    _add_output_options(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("optimize", help="search a parameter space config")
    p.add_argument("--config", required=True, metavar="FILE", help="search space (JSON)")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--min-step", type=float, default=1e-3)
    p.add_argument("--start", default=None, metavar="V1,V2,...")
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        metavar="RES",
        help="grid scan at this resolution instead of pattern search",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("chain", help="closed-form chain dependence values")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=float, required=True, help="coupling strength tanh(beta j)")
    p.add_argument(
        "--profile",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        help="emit CSV rows for chain lengths LO..HI",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against exact enumeration (small n only)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
