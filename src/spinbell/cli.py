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
import os
import sys
import warnings

from . import __version__
from .errors import InsufficientPostselectionWarning, InvalidArgumentError, SpinbellError
from .presets import BUILTIN_LATTICES

# Each subcommand imports the analysis modules it uses, so `--version`,
# `reproduce --list` and a bad argument load neither them nor numpy.

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

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


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _given(args, *dests: str, **renamed: str) -> dict:
    """Library keywords (dest, or keyword=dest) of the options that were typed."""
    values = {key: getattr(args, d) for key, d in dict(zip(dests, dests), **renamed).items()}
    return {key: v for key, v in values.items() if v is not None and v is not False}


def _refuse(args, reader: str, mode: str, *options: str, writes: str = "") -> None:
    """Exit 2 naming what reader reads and mode, the one chosen, would ignore:
    each of options typed, even at its default (a word such as a case id is
    typed), and a --format other than writes."""
    typed = [o for o in options if o[:2] != "--" or _given(args, o[2:].replace("-", "_"))]
    if writes and args.format not in (None, writes):
        typed.append(f"--format {args.format}")
    if typed:
        verb = "applies" if len(typed) == 1 else "apply"
        raise InvalidArgumentError(f"{', '.join(typed)} {verb} to {reader}, not to {mode}")


def _lattice_from_args(args) -> "Lattice":
    from .latticefile import load_lattice
    from .presets import builtin_lattice

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
    sub.add_argument("--format", choices=("text", "csv"))
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
    import functools

    from .bell import chsh, conditional_table
    from .independence import independence_report
    from .model import build_model

    want = ("chsh", "independence", "table") if args.report == "all" else (args.report,)
    if "independence" not in want:
        _refuse(args, "the independence report", f"--report {args.report}", "--lambda")
    if args.format == "csv" and len(want) > 1:
        raise InvalidArgumentError("csv output needs a single --report, not 'all'")
    model = build_model(_lattice_from_args(args))
    table = functools.cache(lambda: conditional_table(model))
    reports = {
        "chsh": lambda: chsh(table()),
        "independence": lambda: independence_report(model, **_given(args, lam="lambda")),
        "table": table,
    }
    _emit("\n\n".join(_render(reports[name](), args) for name in want), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .presets import all_cases, get_case

    if args.list:
        _refuse(args, "a run", "--list", *(f"case {c}" for c in args.case))
        for case in all_cases():
            print(f"{case.id:<18s} {case.title}")
        return EXIT_OK
    # every id is looked up, so an unknown one next to `all` is refused too
    named = [get_case(cid) for cid in args.case if cid != "all"]
    cases = all_cases() if not args.case or "all" in args.case else named
    failed = False
    for case in cases:
        print(f"[{case.id}] {case.title}")
        for result in case.run():
            print(f"  {result.describe()}")
            if result.verdict == "FAIL":
                failed = True
    return EXIT_MISMATCH if failed else EXIT_OK


def _cmd_series(args) -> int:
    from .series import series_check

    report = series_check(**_given(args, "chain_n", k_values="k"))
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_freewill(args) -> int:
    from .freewill import freewill_report
    from .model import build_model

    model = build_model(_lattice_from_args(args))
    report = freewill_report(model)
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    from .model import build_model
    from .sampling import SampleRun, frequency_report

    model = build_model(_lattice_from_args(args))
    run = SampleRun(seed=args.seed, n=args.n, **_given(args, "kind", "burn_in", "thinning"))
    event = _parse_assignment(args.event)
    given = _parse_assignment(args.given) if args.given else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", InsufficientPostselectionWarning)
        report = frequency_report(model, run, event, given)
    # the report shows those checkpoints as NaN rows; say why, without a
    # Python warning and its source line
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    _emit(_render(report, args), args.out)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    from .latticefile import load_search_config
    from .search import grid_csv, grid_scan, maximize_chsh

    search = ("--budget", "--seed", "--restarts", "--step", "--min-step", "--start")
    if args.grid is not None:
        _refuse(args, "the pattern search", "a --grid scan", *search, writes="csv")
        space = load_search_config(args.config)
        rows = grid_scan(space, resolution=args.grid)
        _emit(grid_csv(space, rows, args.precision), args.out)
        return EXIT_OK
    _refuse(args, "a --grid scan", "the pattern search", writes="text")
    options = _given(args, "budget", "seed", "restarts", "min_step", initial_step="step")
    if args.start is not None:
        try:
            options["start"] = tuple(float(v) for v in args.start.split(","))
        except ValueError:
            raise InvalidArgumentError(
                f"--start must be comma-separated numbers, got {args.start!r}"
            ) from None
    space = load_search_config(args.config)
    result = maximize_chsh(space, **options)
    _emit(result.to_text(space, args.precision), args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    from ._format import fmt
    from .series import chain_md_closed, chain_md_per_config, chain_md_profile, profile_csv

    if args.profile:
        _refuse(args, "one chain length", "a --profile", "--n", "--check", writes="csv")
        lo, hi = args.profile
        if lo > hi:
            raise InvalidArgumentError(f"empty profile range {lo}..{hi}")
        rows = chain_md_profile(range(lo, hi + 1), args.k)
        _emit(profile_csv(rows, args.precision), args.out)
        return EXIT_OK
    _refuse(args, "a --profile", "one chain length", writes="text")
    n = 8 if args.n is None else args.n
    summed = chain_md_closed(n, args.k)
    per_config = chain_md_per_config(n, args.k)
    lines = [
        f"chain n={n} k={fmt(args.k, args.precision)}",
        f"  md (summed over ends)   = {fmt(summed, args.precision)}",
        f"  md (per-configuration)  = {fmt(per_config, args.precision)}",
    ]
    if args.check:
        import numpy as np

        from .independence import measurement_dependence
        from .model import build_model
        from .presets import chain_lattice

        j = float(np.arctanh(args.k))
        model = build_model(chain_lattice(n, j=j))
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
        type=lambda ids: ids.split(",") if ids else [],
        metavar="IDS",
        help="comma separated hidden-node ids to condition on, '' for none (default: all)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("reproduce", help="check the built-in reference cases")
    p.add_argument("case", nargs="*", help="case ids (default: all)")
    p.add_argument("--list", action="store_true", help="list case ids and exit")
    p.set_defaults(func=_cmd_reproduce)

    p = subs.add_parser("series", help="closed forms vs exact enumeration")
    p.add_argument("--k", type=float, nargs="+", help="coupling strengths tanh(beta j)")
    p.add_argument("--chain-n", type=int, help="chain length for chain checks")
    _add_output_options(p)
    p.set_defaults(func=_cmd_series)

    p = subs.add_parser("freewill", help="postselected vs clamped analyzers")
    _add_lattice_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_freewill)

    p = subs.add_parser("sample", help="seeded sampling with a frequency trace")
    _add_lattice_options(p)
    p.add_argument("--event", required=True, metavar="ASSIGN", help="e.g. '1:+,2:+'")
    p.add_argument("--given", metavar="ASSIGN", help="e.g. 'a:+,b:+'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--kind", choices=("exact", "metropolis"))
    p.add_argument("--burn-in", type=int, help="metropolis burn-in flips")
    p.add_argument("--thinning", type=int, help="metropolis flips per sample")
    _add_output_options(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("optimize", help="search a parameter space config")
    p.add_argument("--config", required=True, metavar="FILE", help="search space (JSON)")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--min-step", type=float)
    p.add_argument("--start", metavar="V1,V2,...")
    p.add_argument(
        "--grid",
        type=int,
        metavar="RES",
        help="grid scan at this resolution instead of pattern search",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("chain", help="closed-form chain dependence values")
    p.add_argument("--n", type=int)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (spinbell ... | head): Python
        # flushes stdout again at exit, so that write goes to devnull, as the
        # SIGPIPE note of the signal module's docs advises; exit status 1
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # stdout has no descriptor
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except SpinbellError as exc:
        # the error's family decides: a malformed question or undefined numbers
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_NUMERIC
    except MemoryError as exc:
        # an array the request needs could not be allocated: too large an
        # input for this machine, not a fault of the program
        detail = str(exc) or "allocation failed"
        print(f"error: {args.command}: out of memory: {detail}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
