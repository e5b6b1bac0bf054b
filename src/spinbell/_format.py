"""Small shared helpers for reports and the CLI: number formatting, the one
csv writer, spin values with their table indices and signs, counts and tolerances."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from numbers import Integral, Real
from typing import TYPE_CHECKING

from .errors import InvalidArgumentError

if TYPE_CHECKING:  # presets and the CLI import this module before they need numpy
    import numpy as np

__all__ = ["fmt", "csv_table", "SPINS", "spin_of", "spin_index", "is_bool", "check_spins",
           "check_counts", "check_tol", "pm", "fmt_assignment"]

#: spin values in table-index order: index 0 is spin -1, index 1 is spin +1
SPINS = (-1, 1)


def fmt(x: float, precision: int | None = 6) -> str:
    """Format a float with the given number of significant digits.

    precision None means full (repr round trip).
    """
    if precision is None:
        return repr(float(x))
    return f"{float(x):.{precision}g}"


def _cell(v: object, precision: int | None) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (Integral, str)):
        return str(v)
    return fmt(v, precision)


def csv_table(
    header: Sequence[str], rows: Iterable[Sequence[object]], precision: int | None = None
) -> str:
    """The header line, then one comma-joined line per row. Bools print
    lower-case, ints and strs as they are, anything else through fmt."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v, precision) for v in row) for row in rows]
    return "\n".join(lines)


def spin_of(index: int) -> int:
    """Spin value of a table index."""
    return 1 if index else -1


def is_bool(value: object) -> bool:
    """Whether value is a Python or numpy bool, a flag that == 1 when True.
    numpy is looked up, not imported: its bools exist once it is loaded."""
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or numpy is not None and isinstance(value, numpy.bool_)


def spin_index(s: int) -> int:
    """Table index of a spin value; refuses anything but -1 and +1."""
    if is_bool(s) or s not in SPINS:
        raise InvalidArgumentError(f"spin value must be -1 or +1, got {s!r}")
    return 1 if s == 1 else 0


def check_spins(*spins: int | np.ndarray) -> None:
    """Refuse any spin but -1 and +1, elementwise in an array; a bool is a flag."""
    import numpy as np

    for s in spins:
        if isinstance(s, np.ndarray):
            bad = (s != 1) & (s != -1) | (s.dtype == bool)
            if bad.any():
                spin_index(s[bad][0].item())
        else:
            spin_index(s)


def check_counts(**counts: object) -> None:
    """Refuse, by its name, any count that is not an integer (Python's or
    numpy's); a bool is a flag, not a count."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0: every check
    against a NaN fails, and no difference is within a negative one."""
    if not (isinstance(tol, Real) and math.isfinite(tol) and tol >= 0):
        raise InvalidArgumentError(f"tol must be a finite number >= 0, got {tol!r}")


def pm(s: int) -> str:
    """Sign of a spin value, '+' or '-'."""
    return "+" if s == 1 else "-"


def fmt_assignment(assignment: Mapping[str, int]) -> str:
    return "{" + ", ".join(f"{k}:{pm(v)}" for k, v in assignment.items()) + "}"
