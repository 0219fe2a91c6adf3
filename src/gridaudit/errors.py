"""Exception types shared across the toolkit.

Every failure the tool can diagnose maps to one of these; the CLI turns any
of them into exit code 2 with a one-line diagnostic. Anything else escaping
is a bug, not a user error. config_value reads one key of a dict read back
from a file, so a missing key or a bad value is an InvalidConfig too; a
value of the wrong plain type is refused, not coerced.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

T = TypeVar("T")


class GridAuditError(Exception):
    """Base class for all diagnosable toolkit errors."""


class MalformedDocument(GridAuditError):
    """Workbook or sidecar JSON is not well-formed per the documented format."""


class InvalidAddress(GridAuditError):
    """A cell address string cannot be parsed or exceeds the grid caps."""


class InvalidCell(GridAuditError):
    """A cell object violates the content contract (e.g. both v and f)."""


class DuplicateSheet(GridAuditError):
    """Two sheets share a name."""


class DanglingOutput(GridAuditError):
    """A declared output does not resolve to an existing cell."""


class FormulaSyntaxError(GridAuditError):
    """Formula source text failed to parse.

    Carries the character offset into the source (0-based, counting from the
    leading '=') so diagnostics can point at the spot.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class UnknownFunction(FormulaSyntaxError):
    """A call names a function outside the supported set."""


class UnknownName(FormulaSyntaxError):
    """An identifier is neither a reference, a boolean, nor a function call.

    Named ranges land here deliberately; the format does not define them.
    """


class NoDeclaredOutputs(GridAuditError):
    """Snapshot requested for a workbook whose meta declares no outputs."""


class OutputIsError(GridAuditError):
    """A declared output evaluates to an error value at snapshot time."""


class MissingInputCell(GridAuditError):
    """Recheck found a snapshot input address absent from the workbook."""


class ExplosionCap(GridAuditError):
    """Dependency-graph edge expansion exceeded the configured cap."""


class InvalidTeamSize(GridAuditError):
    """Detection-yield lookup asked for a team size below 1."""


class ModuleMismatch(GridAuditError):
    """A session does not belong to the module being reconciled."""


class EmptyTruth(GridAuditError):
    """A yield computation was asked to score against an empty truth set."""


class InvalidConfig(GridAuditError):
    """Rule or planner configuration failed validation."""


# a plain type -> the types a file value must already have to be read as it
_PLAIN: dict[type, tuple[type, ...]] = {str: (str,), int: (int,), float: (int, float),
                                        bool: (bool,)}


def plain(value: object, convert: Callable[[Any], T]) -> T:
    """convert(value), where a plain type (str, int, float, bool) reads only a
    value of that type, or an int as a float, and never a bool as a number;
    TypeError otherwise. Other converters are called as they are."""
    kinds = _PLAIN.get(convert)  # type: ignore[call-overload]
    if kinds is not None and (not isinstance(value, kinds)
                              or (isinstance(value, bool) and convert is not bool)):
        raise TypeError(value)
    return convert(value)


def config_value(d: object, key: str, convert: Callable[[Any], T], where: str) -> T:
    """plain(d[key], convert) for a file-form object; InvalidConfig naming where
    and key when d is not an object, lacks key, or holds a value convert rejects."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be an object, got {d!r}")
    if key not in d:
        raise InvalidConfig(f"{where} lacks {key!r}")
    try:
        return plain(d[key], convert)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfig(f"{where} {key!r} has a bad value {d[key]!r}") from None
