"""Inspection planning and multi-inspector reconciliation.

Partitions a workbook's formula cells into modules small enough to review
in one sitting, prices each module in effective cells so long formulas get
extra time, and merges independent session findings afterwards. Planning
is pure; session files are written by inspectors on their own machines and
only read back here.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, NamedTuple

from .errors import (
    EmptyTruth,
    InvalidCell,
    InvalidConfig,
    InvalidTeamSize,
    ModuleMismatch,
    config_value,
)
from .formula import FormulaAst, parse_workbook_formulas
from .model import CellAddress, Checked, Workbook, parse_qualified


class _PlanConfigFields(NamedTuple):
    target_module_size: int = 150
    rate_cap: float = 100.0  # effective cells per hour
    team_size: int = 3
    rounds: int = 3
    session_cap_minutes: float = 120.0
    long_formula_tokens: int = 10


class PlanConfig(Checked, _PlanConfigFields):
    """Planner knobs; the defaults size modules for a two-hour sitting."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> PlanConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.target_module_size < 1:
            raise InvalidConfig("target_module_size must be >= 1")
        if not 0 < self.rate_cap < math.inf:
            raise InvalidConfig(f"rate_cap must be finite and > 0, got {self.rate_cap}")
        if self.team_size < 1:
            raise InvalidTeamSize(f"team_size must be >= 1, got {self.team_size}")
        if self.rounds < 0:
            raise InvalidConfig("rounds must be >= 0")
        if not 0 < self.session_cap_minutes < math.inf:
            raise InvalidConfig("session_cap_minutes must be finite and > 0, "
                                f"got {self.session_cap_minutes}")
        if self.long_formula_tokens < 0:
            raise InvalidConfig("long_formula_tokens must be >= 0")
        return self


def plan_config_from_dict(d: dict[str, object]) -> PlanConfig:
    known = {
        "targetModuleSize": "target_module_size",
        "rateCap": "rate_cap",
        "teamSize": "team_size",
        "rounds": "rounds",
        "sessionCapMinutes": "session_cap_minutes",
        "longFormulaTokens": "long_formula_tokens",
    }
    extra = set(d) - set(known)
    if extra:
        raise InvalidConfig(f"unknown plan config keys: {sorted(extra)}")
    kwargs = {attr: config_value(d, key, float if attr in ("rate_cap", "session_cap_minutes")
                                 else int, "plan config")
              for key, attr in known.items() if key in d}
    return PlanConfig(**kwargs)  # type: ignore[arg-type]


class Module(NamedTuple):
    """A contiguous row-major slice of one sheet's formula cells."""

    id: str
    cells: tuple[str, ...]  # qualified, in reading order
    formula_count: int
    effective_cells: float
    estimated_minutes: float

    def to_dict(self) -> dict[str, object]:
        return {
            "id": self.id,
            "cells": list(self.cells),
            "formulaCount": self.formula_count,
            "effectiveCells": self.effective_cells,
            "estimatedMinutes": self.estimated_minutes,
        }


class InspectionPlan(NamedTuple):
    modules: tuple[Module, ...]
    team_size: int
    rate_cap: float
    session_cap_minutes: float
    rounds_recommended: int

    def to_dict(self) -> dict[str, object]:
        return {
            "modules": [m.to_dict() for m in self.modules],
            "teamSize": self.team_size,
            "rateCap": self.rate_cap,
            "sessionCapMinutes": self.session_cap_minutes,
            "roundsRecommended": self.rounds_recommended,
        }


def effective_cells(token_count: int, long_formula_tokens: int = 10) -> float:
    """Review load of one formula; excess tokens cost half a cell each."""
    return 1.0 + 0.5 * max(0, token_count - long_formula_tokens)


def plan(wb: Workbook, cfg: PlanConfig | None = None,
         asts: dict[CellAddress, FormulaAst] | None = None) -> InspectionPlan:
    """Partition formula cells into reviewable modules.

    Modules are contiguous in reading order and never span sheets. One
    closes when the next cell would push it past the size target or the
    session cap; a single cell priced over the cap stands alone, since
    cells do not split.
    """
    cfg = cfg or PlanConfig()
    if asts is None:
        asts = parse_workbook_formulas(wb)

    modules: list[Module] = []

    def close(cells: list[str], eff: float) -> None:
        modules.append(Module(
            id=f"M{len(modules) + 1}",
            cells=tuple(cells),
            formula_count=len(cells),
            effective_cells=eff,
            estimated_minutes=60.0 * eff / cfg.rate_cap,
        ))

    cur: list[str] = []
    cur_eff = 0.0
    cur_sheet: str | None = None
    for addr, _content in wb.formula_cells():
        eff = effective_cells(asts[addr].facts.token_count, cfg.long_formula_tokens)
        full = (addr.sheet != cur_sheet
                or len(cur) + 1 > cfg.target_module_size
                or 60.0 * (cur_eff + eff) / cfg.rate_cap > cfg.session_cap_minutes)
        if cur and full:
            close(cur, cur_eff)
            cur, cur_eff = [], 0.0
        cur.append(addr.qualified)
        cur_eff += eff
        cur_sheet = addr.sheet
    if cur:
        close(cur, cur_eff)

    return InspectionPlan(
        modules=tuple(modules),
        team_size=cfg.team_size,
        rate_cap=cfg.rate_cap,
        session_cap_minutes=cfg.session_cap_minutes,
        rounds_recommended=cfg.rounds,
    )


# --- Sessions -----------------------------------------------------------------


class SessionItem(NamedTuple):
    cell: str  # qualified
    note: str = ""
    suspected_class: str | None = None


class _SessionFindingsFields(NamedTuple):
    inspector_id: str
    module_id: str
    items: tuple[SessionItem, ...]
    duration_minutes: float


class SessionFindings(Checked, _SessionFindingsFields):
    """What one inspector reported for one module."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> SessionFindings:
        self = super().__new__(cls, *args, **kwargs)
        if not self.inspector_id:
            raise InvalidConfig("inspector_id must not be empty")
        if not 0 < self.duration_minutes < math.inf:
            raise InvalidConfig("duration_minutes must be finite and > 0, "
                                f"got {self.duration_minutes}")
        return self


def session_from_dict(d: dict[str, object]) -> SessionFindings:
    """A session file's object, its types checked strictly: a value of the
    wrong type is refused, not coerced."""
    where = "session"
    extra = set(d) - {"inspectorId", "moduleId", "durationMinutes", "items"}
    if extra:
        raise InvalidConfig(f"unknown session keys: {sorted(extra)}")
    inspector_id = config_value(d, "inspectorId", str, where)
    module_id = config_value(d, "moduleId", str, where)
    duration = config_value(d, "durationMinutes", float, where)
    if not isinstance(d.get("items", []), list):
        raise InvalidConfig("session items must be a list")
    items = []
    for raw in d.get("items", ()):  # type: ignore[union-attr]
        if not isinstance(raw, dict) or "cell" not in raw:
            raise InvalidConfig(f"session item {raw!r} is not an object with a cell")
        bad = set(raw) - {"cell", "note", "suspectedClass"}
        if bad:
            raise InvalidConfig(f"unknown session item keys: {sorted(bad)}")
        items.append(SessionItem(
            cell=config_value(raw, "cell", str, "session item"),
            note=config_value(raw, "note", str, "session item") if "note" in raw else "",
            suspected_class=(None if raw.get("suspectedClass") is None
                             else config_value(raw, "suspectedClass", str, "session item")),
        ))
    return SessionFindings(
        inspector_id=inspector_id,
        module_id=module_id,
        items=tuple(items),
        duration_minutes=duration,
    )


# --- Reconciliation -----------------------------------------------------------


class ReconcileResult(NamedTuple):
    union_items: tuple[SessionItem, ...]
    per_inspector_counts: tuple[tuple[str, int], ...]
    overlap_matrix: tuple[tuple[str, str, int], ...]  # (a, b, shared), a < b
    hasty_inspectors: tuple[str, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "unionItems": [
                {"cell": it.cell, "note": it.note,
                 "suspectedClass": it.suspected_class}
                for it in self.union_items
            ],
            "perInspectorCounts": {insp: n for insp, n in self.per_inspector_counts},
            "overlapMatrix": [
                {"a": a, "b": b, "shared": n} for a, b, n in self.overlap_matrix
            ],
            "hastyInspectors": list(self.hasty_inspectors),
        }


def reconcile(sessions: Iterable[SessionFindings], module: Module,
              rate_cap: float = 100.0) -> ReconcileResult:
    """Merge sessions for one module, keyed by (cell, suspected class).

    Items may name any cell inside the module's reading-order span, not
    just its formula cells: a hardwired constant or a text-typed number
    sits between the module's formulas and is exactly what an inspector
    must be able to report. A session reviewed faster than 1.5x the rate
    cap is flagged hasty; pace like that finds almost nothing and should
    not count as a round.
    """
    sessions = tuple(sessions)
    if not sessions:
        raise InvalidConfig("need at least one session to reconcile")
    for s in sessions:
        if s.module_id != module.id:
            raise ModuleMismatch(
                f"session by {s.inspector_id} covers {s.module_id!r}, "
                f"expected {module.id!r}")
    span = [parse_qualified(c) for c in module.cells]
    sheet = span[0].sheet if span else None
    lo = min(((a.row, a.col) for a in span), default=(1, 1))
    hi = max(((a.row, a.col) for a in span), default=(0, 0))
    for s in sessions:
        for item in s.items:
            addr = parse_qualified(item.cell)
            if addr.sheet != sheet or not lo <= (addr.row, addr.col) <= hi:
                raise InvalidCell(
                    f"{item.cell} reported by {s.inspector_id} is outside "
                    f"module {module.id}")

    first_seen: dict[tuple[str, str | None], SessionItem] = {}
    marks: dict[str, set[tuple[str, str | None]]] = {}
    hasty: set[str] = set()
    for s in sessions:
        keys = marks.setdefault(s.inspector_id, set())
        for item in s.items:
            key = (item.cell, item.suspected_class)
            keys.add(key)
            first_seen.setdefault(key, item)
        implied = module.effective_cells * 60.0 / s.duration_minutes
        if implied > rate_cap * 1.5:
            hasty.add(s.inspector_id)

    def reading_order(it: SessionItem) -> tuple[int, int, str]:
        addr = parse_qualified(it.cell)
        return (addr.row, addr.col, it.suspected_class or "")

    union = tuple(sorted(first_seen.values(), key=reading_order))
    counts = tuple(sorted((insp, len(keys)) for insp, keys in marks.items()))
    inspectors = sorted(marks)
    overlaps = tuple(
        (a, b, len(marks[a] & marks[b]))
        for i, a in enumerate(inspectors) for b in inspectors[i + 1:]
    )
    return ReconcileResult(
        union_items=union,
        per_inspector_counts=counts,
        overlap_matrix=overlaps,
        hasty_inspectors=tuple(sorted(hasty)),
    )


# --- Yield against seeded truth -----------------------------------------------


class YieldReport(NamedTuple):
    detected: tuple[str, ...]
    missed: tuple[str, ...]
    yield_fraction: float

    def to_dict(self) -> dict[str, object]:
        return {
            "detected": list(self.detected),
            "missed": list(self.missed),
            "yieldFraction": self.yield_fraction,
        }


def yield_report(union_items: Iterable[SessionItem],
                 truth: Iterable[str]) -> YieldReport:
    """Fraction of seeded defects the reconciled union recovered.

    Truth entries are cell addresses; an inspector who names the right
    cell has found the defect, whatever class they suspected (or none).
    """
    truth_cells = set(truth)
    if not truth_cells:
        raise EmptyTruth("yield is undefined without seeded truth")
    found = {it.cell for it in union_items}
    detected = tuple(sorted(truth_cells & found))
    missed = tuple(sorted(truth_cells - found))
    return YieldReport(
        detected=detected,
        missed=missed,
        yield_fraction=len(detected) / len(truth_cells),
    )
