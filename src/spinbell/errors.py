"""Exception hierarchy for spinbell.

Every error raised on purpose by this package derives from SpinbellError so
callers can catch the whole family at once, and from exactly one family that
decides the CLI's exit code: ValueError for input problems (exit 2),
ArithmeticError for numeric breakdowns (exit 3).
"""

from __future__ import annotations


class SpinbellError(Exception):
    """Base class for all spinbell errors."""


class LatticeDefinitionError(SpinbellError, ValueError):
    """A lattice definition is malformed: duplicate ids, dangling edges,
    duplicate role assignment, nonpositive temperature, and the like."""


class InvalidConfigurationError(SpinbellError, ValueError):
    """A spin assignment references unknown nodes, overlaps another
    assignment, or uses values other than -1/+1."""


class InvalidArgumentError(SpinbellError, ValueError):
    """An argument is outside its documented domain."""


class EnumerationLimitError(SpinbellError, ValueError):
    """The lattice has more spins than the enumeration cap allows."""


class NumericRangeError(SpinbellError, ArithmeticError):
    """A quantity over- or underflowed even after stabilization."""


class ZeroMeasureConditionError(SpinbellError, ArithmeticError):
    """A conditioning event has (stabilized) weight below the zero threshold."""


class DegenerateModelError(SpinbellError, ArithmeticError):
    """Every cell relevant to a computation carries zero measure."""


class EquivalenceViolationError(SpinbellError, ArithmeticError):
    """Two derivation routes that must agree exceeded their tolerance."""


class LatticeFileError(SpinbellError, ValueError):
    """A lattice or search definition file failed to parse; the message
    carries the offending location."""


class InsufficientPostselectionWarning(UserWarning):
    """A conditioned frequency estimate kept zero samples."""
