"""Small shared helpers for reports and the CLI: number formatting, the one
csv writer, and spin values, their table indices and their signs."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from numbers import Integral

from .errors import InvalidArgumentError

__all__ = ["fmt", "csv_table", "SPINS", "spin_of", "spin_index", "check_spins", "pm", "fmt_assignment"]

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


def spin_index(s: int) -> int:
    """Table index of a spin value; refuses anything but -1 and +1."""
    if s not in SPINS:
        raise InvalidArgumentError(f"spin value must be -1 or +1, got {s!r}")
    return 1 if s == 1 else 0


def check_spins(*spins: int) -> None:
    for s in spins:
        spin_index(s)


def pm(s: int) -> str:
    """Sign of a spin value, '+' or '-'."""
    return "+" if s == 1 else "-"


def fmt_assignment(assignment: Mapping[str, int]) -> str:
    return "{" + ", ".join(f"{k}:{pm(v)}" for k, v in assignment.items()) + "}"
