"""Span recording around the public calls of each spinbell module.

A `Tracer` replaces every public function of the listed modules (and a few
public methods) with a wrapper that appends one span per call: name, start,
end, parent span, op id and the spin count of the first argument when it has
one. The wrapper is bound in every spinbell namespace that held the original,
so calls between modules (cli -> model, search -> bell, ...) are traced too.
Nothing inside the package changes; `uninstall` puts every original back.

Only calls made while a benchmark op runs are recorded, so the checks of an
op's result add no spans. Spans stay in memory until the run ends. A
module's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = (
    "model",
    "bell",
    "independence",
    "freewill",
    "sampling",
    "search",
    "lattice",
    "latticefile",
    "series",
    "presets",
    "cli",
)

# Public methods worth a span; other methods are cheap lookups.
METHODS = {
    "model": {"BoltzmannModel": ("conditional", "marginal", "weight_table", "joint_table")},
    "search": {"SearchSpace": ("evaluate", "build")},
    "lattice": {"Lattice": ("with_fields", "with_couplings", "with_scaled_edges")},
}

NAME, START, END, PARENT, OP, SIZE = range(6)


def _size(args) -> int | None:
    n = getattr(args[0], "n", None) if args else None
    return n if isinstance(n, int) else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:  # outside a benchmark op, e.g. in its correctness check
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self._op, _size(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def op(self, op_id: int, name: str, fn):
        """Run fn() under a root span for one benchmark op."""
        self._op = op_id
        try:
            return self._wrap(f"bench.{name}", fn)()
        finally:
            self._op = -1

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        package = [m for k, m in list(sys.modules.items()) if k == "spinbell" or k.startswith("spinbell.")]
        for short in MODULES:
            mod = sys.modules[f"spinbell.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{short}.{attr}", fn)
                    for ns in package:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                self._set(ns, key, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_module(spans: list[list]) -> dict[str, dict[str, float]]:
    """Self seconds, busy seconds and call count per module.

    Busy time counts each outermost span of a module once, so a module
    calling itself is not counted twice.
    """
    own = self_times(spans)
    out = {m: {"self": 0.0, "busy": 0.0, "calls": 0} for m in (*MODULES, "bench")}
    for i, s in enumerate(spans):
        mod = module_of(s[NAME])
        row = out[mod]
        row["self"] += own[i]
        row["calls"] += 1
        parent = s[PARENT]
        while parent >= 0 and module_of(spans[parent][NAME]) != mod:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["busy"] += s[END] - s[START]
    return out


def per_name(spans: list[list]) -> dict[tuple[str, int | None], list[float]]:
    """Durations grouped by (span name, spin count)."""
    out: dict[tuple[str, int | None], list[float]] = {}
    for s in spans:
        out.setdefault((s[NAME], s[SIZE]), []).append(s[END] - s[START])
    return out


def write_tsv(path, passes: list[list[list]]) -> None:
    """One line per span of every traced pass; times from the pass start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tspan\tname\tstart_s\tend_s\tparent\top\tspins\n")
        for k, spans in enumerate(passes):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                fh.write(
                    f"{k}\t{i}\t{s[NAME]}\t{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t"
                    f"{s[PARENT]}\t{s[OP]}\t{'' if s[SIZE] is None else s[SIZE]}\n"
                )
