"""Cell-level workbook comparison for two-copy change control.

Every differing cell yields one entry. A formula collapsing to a constant
gets the fraud-indicator tag: hardwiring a result is the cheapest way to
slip a fudged number past review. The comparison is structural and exact
(1e-12 on numbers); it flags divergence, it does not merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidCell, InvalidConfig, config_value
from .model import (
    CellAddress,
    CellContent,
    Workbook,
    parse_qualified,
)

KINDS = (
    "added",
    "removed",
    "valueChanged",
    "formulaChanged",
    "formulaToConstant",
    "constantToFormula",
    "lockChanged",
)

_NUMERIC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DiffEntry:
    location: CellAddress
    kind: str
    before: CellContent | None
    after: CellContent | None

    @property
    def fraud_indicator(self) -> bool:
        return self.kind == "formulaToConstant"

    def to_dict(self) -> dict[str, object]:
        return {
            "location": self.location.qualified,
            "kind": self.kind,
            "class": "fraud-indicator" if self.fraud_indicator else None,
            "before": _content_to_dict(self.before),
            "after": _content_to_dict(self.after),
        }


def _content_to_dict(c: CellContent | None) -> dict[str, object] | None:
    if c is None:
        return None
    return {"value": c.value, "formula": c.formula, "locked": c.locked,
            "numberFormat": c.number_format}


def _content_from_dict(d: object) -> CellContent | None:
    if d is None:
        return None
    if not isinstance(d, dict):
        raise InvalidConfig(f"cell content must be an object, got {d!r}")
    extra = set(d) - {"value", "formula", "locked", "numberFormat"}
    if extra:
        raise InvalidConfig(f"unknown cell content keys: {sorted(extra)}")
    try:
        return CellContent(
            value=d.get("value"),
            formula=d.get("formula"),
            locked=d.get("locked", False),
            number_format=d.get("numberFormat"),
        )
    except InvalidCell as exc:
        raise InvalidConfig(f"cell content: {exc}") from None


def _location(v: object) -> CellAddress:
    return parse_qualified(str(v))


def entry_from_dict(d: dict[str, object]) -> DiffEntry:
    where = "diff entry"
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be an object, got {d!r}")
    extra = set(d) - {"location", "kind", "class", "before", "after"}
    if extra:
        raise InvalidConfig(f"unknown diff entry keys: {sorted(extra)}")
    kind = config_value(d, "kind", str, where)
    if kind not in KINDS:
        raise InvalidConfig(f"unknown diff kind {kind!r}")
    return DiffEntry(
        location=config_value(d, "location", _location, where),
        kind=kind,
        before=_content_from_dict(d.get("before")),
        after=_content_from_dict(d.get("after")),
    )


def _values_equal(x: object, y: object) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return abs(x - y) <= _NUMERIC_TOLERANCE  # type: ignore[operator]
    return x == y


def _classify(before: CellContent, after: CellContent) -> str | None:
    """Kind of change between two occupied cells; None when equivalent."""
    if before.is_formula and not after.is_formula:
        return "formulaToConstant"
    if not before.is_formula and after.is_formula:
        return "constantToFormula"
    if before.is_formula:
        if before.formula != after.formula:
            return "formulaChanged"
    elif not _values_equal(before.value, after.value):
        return "valueChanged"
    if before.number_format != after.number_format:
        return "valueChanged"  # same digits, different reading
    if before.locked != after.locked:
        return "lockChanged"
    return None


def _addressed(wb: Workbook, name: str) -> dict[CellAddress, CellContent]:
    sheet = wb.sheet(name)
    return {} if sheet is None else dict(sheet.reading_order)


def diff(a: Workbook, b: Workbook) -> tuple[DiffEntry, ...]:
    """Every cell that differs, in a's sheet order then reading order."""
    names = [s.name for s in a.sheets]
    names += [s.name for s in b.sheets if a.sheet(s.name) is None]

    entries: list[DiffEntry] = []
    for name in names:
        cells_a = _addressed(a, name)
        cells_b = _addressed(b, name)
        # One sheet's addresses sort in reading order.
        for loc in sorted(cells_a.keys() | cells_b.keys()):
            before = cells_a.get(loc)
            after = cells_b.get(loc)
            if before is None:
                entries.append(DiffEntry(loc, "added", None, after))
            elif after is None:
                entries.append(DiffEntry(loc, "removed", before, None))
            else:
                kind = _classify(before, after)
                if kind is not None:
                    entries.append(DiffEntry(loc, kind, before, after))
    return tuple(entries)


@dataclass(frozen=True)
class Conflict:
    """Divergent edits at one location; None marks an untouched side."""

    location: CellAddress
    first: DiffEntry | None
    second: DiffEntry | None

    def to_dict(self) -> dict[str, object]:
        return {
            "location": self.location.qualified,
            "first": None if self.first is None else self.first.to_dict(),
            "second": None if self.second is None else self.second.to_dict(),
        }


@dataclass(frozen=True)
class ThreeWayResult:
    agreeing: tuple[DiffEntry, ...]
    conflicting: tuple[Conflict, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "agreeing": [e.to_dict() for e in self.agreeing],
            "conflicting": [c.to_dict() for c in self.conflicting],
        }


def _side_from_dict(v: object) -> DiffEntry | None:
    return None if v is None else entry_from_dict(v)  # type: ignore[arg-type]


def _conflict_from_dict(raw: object) -> Conflict:
    where = "three-way conflict"
    return Conflict(
        location=config_value(raw, "location", _location, where),
        first=config_value(raw, "first", _side_from_dict, where),
        second=config_value(raw, "second", _side_from_dict, where),
    )


def three_way_result_from_dict(d: dict[str, object]) -> ThreeWayResult:
    where = "three-way result"
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be an object, got {d!r}")
    extra = set(d) - {"agreeing", "conflicting"}
    if extra:
        raise InvalidConfig(f"unknown three-way keys: {sorted(extra)}")
    return ThreeWayResult(
        agreeing=config_value(d, "agreeing", lambda v: tuple(map(entry_from_dict, v)), where),
        conflicting=config_value(
            d, "conflicting", lambda v: tuple(map(_conflict_from_dict, v)), where),
    )


def three_way_check(base: Workbook, copy1: Workbook,
                    copy2: Workbook) -> ThreeWayResult:
    """Classify each location edited in either independent copy.

    Agreeing means both copies made the identical change against base.
    Anything else, including a change present in only one copy, is a
    conflict: the control exists to flag divergence, not to merge it.
    """
    d1 = {e.location: e for e in diff(base, copy1)}
    d2 = {e.location: e for e in diff(base, copy2)}
    ordered = list(d1) + [loc for loc in d2 if loc not in d1]

    agreeing: list[DiffEntry] = []
    conflicting: list[Conflict] = []
    for loc in ordered:
        e1, e2 = d1.get(loc), d2.get(loc)
        if e1 is not None and e1 == e2:
            agreeing.append(e1)
        else:
            conflicting.append(Conflict(loc, e1, e2))
    return ThreeWayResult(tuple(agreeing), tuple(conflicting))
