"""Mechanical audit rules.

run_rules runs each enabled rule once over the book, in RULE_IDS order.
Two kinds of rule:

- Book rules (NUM_AS_TEXT, HARDWIRED, DUP_LITERAL, ORPHAN_OUTPUT,
  VERSION_NAME) read the whole book at once and return their findings.
- Cell rules (JAMMED, LONG_FORMULA, LONG_ARC, XSHEET_REF, FLOW_VIOLATION,
  UNPROTECTED_FORMULA) judge formula cells, never constants. All but
  UNPROTECTED_FORMULA judge a class by its first copy, and every copy only
  where that fires or, for LONG_ARC and FLOW_VIOLATION, the class is anchored.

A rule's examined count is the workbook cell count once the rule has run,
so the report shows the whole book was covered. A crash is never a silent
skip. A cell rule that crashes on a cell gives an INTERNAL_ERROR finding at
that cell and goes on, so coverage holds. A book rule that crashes gives
one workbook-level INTERNAL_ERROR, and its examined count stays 0, so the
coverage shortfall shows.
"""

from __future__ import annotations

import re
from itertools import groupby
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import InvalidConfig, config_value, plain
from .formula import (
    FormulaAst,
    RangeRef,
    aggregate_boxes,
    canonical_number,
    parse_workbook_formulas,
    references,
)
from .graph import DepGraph, orphan_formulas
from .model import (
    CellAddress,
    CellContent,
    Workbook,
    col_to_letters,
    Checked,
    parse_numeric_text,
    parse_qualified,
)

SEVERITIES = ("error", "warning", "info")
CLASSES = ("honest-error", "fraud-indicator", "control-gap")

INTERNAL_ERROR = "INTERNAL_ERROR"

# ruleId -> (default severity, class); order here is the tiebreak order.
RULE_TABLE: dict[str, tuple[str, str]] = {
    "NUM_AS_TEXT": ("error", "fraud-indicator"),
    "HARDWIRED": ("error", "fraud-indicator"),
    "JAMMED": ("warning", "honest-error"),
    "DUP_LITERAL": ("warning", "honest-error"),
    "LONG_FORMULA": ("warning", "honest-error"),
    "LONG_ARC": ("warning", "honest-error"),
    "XSHEET_REF": ("info", "honest-error"),
    "ORPHAN_OUTPUT": ("warning", "honest-error"),
    "FLOW_VIOLATION": ("info", "honest-error"),
    "UNPROTECTED_FORMULA": ("warning", "control-gap"),
    "VERSION_NAME": ("info", "control-gap"),
}

RULE_IDS = tuple(RULE_TABLE)


class Finding(NamedTuple):
    """One rule hit; location None means the finding is workbook-level."""

    rule_id: str
    severity: str
    category: str
    location: CellAddress | None
    message: str
    evidence: Mapping[str, object] = MappingProxyType({})

    def to_dict(self) -> dict[str, object]:
        return {
            "ruleId": self.rule_id,
            "severity": self.severity,
            "class": self.category,
            "location": None if self.location is None else self.location.qualified,
            "message": self.message,
            "evidence": dict(self.evidence),
        }


class _RuleConfigFields(NamedTuple):
    enabled: frozenset[str] = frozenset(RULE_IDS)
    long_formula_tokens: int = 10
    long_arc_distance: int = 25
    dup_literal_min_magnitude: float = 2.0
    dup_literal_exclusions: frozenset[float] = frozenset({0.0, 1.0})
    min_run_length_for_hardwire: int = 3
    severity_overrides: tuple[tuple[str, str], ...] = ()
    suppressions: tuple[tuple[str, str], ...] = ()


class RuleConfig(Checked, _RuleConfigFields):
    """Which rules run, their thresholds, and per-site suppressions.

    Suppression locations are canonical qualified addresses; "*" suppresses
    a workbook-level finding. INTERNAL_ERROR cannot be configured away.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RuleConfig:
        self = super().__new__(cls, *args, **kwargs)
        for rid in self.enabled:
            if rid not in RULE_TABLE:
                raise InvalidConfig(f"unknown rule {rid!r}")
        for name in ("long_formula_tokens", "long_arc_distance",
                     "dup_literal_min_magnitude", "min_run_length_for_hardwire"):
            if not getattr(self, name) > 0:  # NaN fails this too
                raise InvalidConfig(f"{name} must be positive")
        for rid, sev in self.severity_overrides:
            if rid not in RULE_TABLE:
                raise InvalidConfig(f"severity override for unknown rule {rid!r}")
            if sev not in SEVERITIES:
                raise InvalidConfig(f"unknown severity {sev!r}")
        for loc, rid in self.suppressions:
            if rid not in RULE_TABLE:
                raise InvalidConfig(f"suppression for unknown rule {rid!r}")
            if loc != "*":
                parse_qualified(loc)
        return self


def rule_config_from_dict(d: dict[str, object]) -> RuleConfig:
    """Build a RuleConfig from its file form; unknown keys are errors."""
    known = {"enabled", "thresholds", "severityOverrides", "suppressions"}
    extra = set(d) - known
    if extra:
        raise InvalidConfig(f"unknown config keys: {sorted(extra)}")
    for key in ("enabled", "suppressions"):
        if not isinstance(d.get(key, []), list):
            raise InvalidConfig(f"{key} must be a list")
    kwargs: dict[str, object] = {}
    if "enabled" in d:
        kwargs["enabled"] = config_value(
            d, "enabled", lambda v: frozenset(plain(r, str) for r in v), "rule config")
    thresholds = d.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise InvalidConfig("thresholds must be an object")
    mapping = {
        "longFormulaTokens": ("long_formula_tokens", int),
        "longArcDistance": ("long_arc_distance", int),
        "dupLiteralMinMagnitude": ("dup_literal_min_magnitude", float),
        "minRunLengthForHardwire": ("min_run_length_for_hardwire", int),
        "dupLiteralExclusions": ("dup_literal_exclusions",
                                 lambda v: frozenset(plain(x, float) for x in v)),
    }
    for key in thresholds:
        if key not in mapping:
            raise InvalidConfig(f"unknown threshold {key!r}")
        attr, conv = mapping[key]
        kwargs[attr] = config_value(thresholds, key, conv, "threshold")
    overrides = d.get("severityOverrides", {})
    if not isinstance(overrides, dict):
        raise InvalidConfig("severityOverrides must be an object")
    kwargs["severity_overrides"] = tuple(sorted((str(k), str(v)) for k, v in overrides.items()))
    sups = []
    for entry in d.get("suppressions", ()):  # type: ignore[union-attr]
        text = str(entry)
        loc, sep, rid = text.rpartition(":")
        if not sep or not loc:
            raise InvalidConfig(f"suppression {text!r} is not 'location:RULE_ID'")
        if loc != "*":
            loc = parse_qualified(loc).qualified
        sups.append((loc, rid))
    kwargs["suppressions"] = tuple(sups)
    return RuleConfig(**kwargs)  # type: ignore[arg-type]


class RulesReport(NamedTuple):
    findings: tuple[Finding, ...]
    suppressed_count: int
    examined: dict[str, int]
    applicable: int
    enabled: tuple[str, ...]

    @property
    def coverage_ok(self) -> bool:
        return all(self.examined.get(r, 0) == self.applicable for r in self.enabled)

    @property
    def fraud_indicator_count(self) -> int:
        return sum(1 for f in self.findings if f.category == "fraud-indicator")


def _mk(rule_id: str, location: CellAddress | None, message: str,
        evidence: dict[str, object]) -> Finding:
    severity, category = RULE_TABLE[rule_id]
    return Finding(rule_id, severity, category, location, message, evidence)


def _internal(rule_id: str, location: CellAddress | None, exc: Exception) -> Finding:
    return Finding(INTERNAL_ERROR, "error", "honest-error", location,
                   f"rule {rule_id} crashed: {exc}",
                   {"rule": rule_id, "error": repr(exc)})


def _const_repr(value: object) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return canonical_number(value)
    return str(value)


# --- Book rules ------------------------------------------------------------


def _num_as_text_findings(wb: Workbook, g: DepGraph,
                          asts: dict[CellAddress, FormulaAst]) -> dict[CellAddress, Finding]:
    """Text-numbers inside an aggregate range, or amid numeric neighbours.

    A candidate is a constant that behaves as text, a string or a number
    formatted as text, with the number it would carry if coerced. The book
    is evaluated once; for each text-number under an aggregate, only the
    formulas downstream of it are evaluated again, with the cell holding
    its coerced number. The evaluator is loaded only for a text-number
    under an aggregate, so a book with none runs without it.
    """
    texts = [(addr, cell) for addr, cell in wb.iter_cells()
             if isinstance(cell.value, str)
             or (isinstance(cell.value, float) and cell.number_format == "text")]
    candidates: dict[CellAddress, tuple[CellContent, float]] = {}
    for addr, cell in texts:
        coerced = parse_numeric_text(cell.value) if isinstance(cell.value, str) else cell.value
        if coerced is not None:
            candidates[addr] = (cell, coerced)  # type: ignore[assignment]
    if not candidates:
        return {}
    hosts_of: dict[CellAddress, set[CellAddress]] = {}
    for host, ast in asts.items():
        for sheet, r1, c1, r2, c2 in aggregate_boxes(ast):
            index = g.indexes.get(sheet)
            if index is None:
                continue
            for addr in index.iter_box(r1, c1, r2, c2):
                if addr in candidates:
                    hosts_of.setdefault(addr, set()).add(host)

    if hosts_of:
        from .engine import EvalPlan

        plan = EvalPlan(wb, asts, g)
        base = plan.run()
    out: dict[CellAddress, Finding] = {}
    for addr, (cell, coerced) in candidates.items():
        hosts = sorted(hosts_of.get(addr, ()), key=g.sort_key)
        if hosts:
            coerced_vals = plan.eval_cells(g.cone(addr), base, {addr: coerced})
            understatement = 0.0
            for h in hosts:
                before = base.get(h)
                after = coerced_vals.get(h, before)
                if isinstance(before, float) and isinstance(after, float):
                    understatement += after - before
            out[addr] = _mk(
                "NUM_AS_TEXT", addr,
                f"text {cell.value!r} is numeric but invisible to aggregation",
                {"coercedValue": coerced,
                 "aggregates": [h.qualified for h in hosts],
                 "understatement": understatement})
        else:
            neighbors = 0
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r, c = addr.row + dr, addr.col + dc
                if r < 1 or c < 1:
                    continue
                near = CellAddress(addr.sheet, r, c)
                if not near.in_bounds():
                    continue
                other = wb.cell(near)
                if other is not None and other.is_number:
                    neighbors += 1
            if neighbors >= 2:
                out[addr] = _mk(
                    "NUM_AS_TEXT", addr,
                    f"text {cell.value!r} is numeric amid numeric neighbors",
                    {"coercedValue": coerced, "aggregates": [],
                     "understatement": 0.0, "numericNeighbors": neighbors})
    return out


def _scan_line(line: list[tuple[CellAddress, CellContent]], axis: int,
               norm_text: dict[CellAddress, str], min_run: int,
               out: dict[CellAddress, Finding]) -> None:
    """Flag the constants inside each run of one row or column of cells.

    axis is the address field that advances along the line: 2 (the
    column) along a row, 1 (the row) down a column. A stretch is a part of
    the line with no empty cell in it; a run is a group of consecutive
    formulas of one stretch and one normal form, with only constants
    between them. A run of at least min_run formulas flags the constants
    strictly between its first and last formula.
    """
    def records() -> Iterator[tuple[int, str, int]]:
        """(stretch, form, position) of each formula on the line, in order."""
        stretch = 0
        for k, (addr, _cell) in enumerate(line):
            if k and addr[axis] != line[k - 1][0][axis] + 1:
                stretch += 1
            form = norm_text.get(addr)
            if form is not None:
                yield stretch, form, k

    for (_stretch, form), run in groupby(records(), key=lambda rec: rec[:2]):
        positions = [k for _s, _f, k in run]
        if len(positions) < min_run:
            continue
        for addr, cell in line[positions[0] + 1:positions[-1]]:
            if addr not in norm_text:
                out.setdefault(addr, _mk(
                    "HARDWIRED", addr,
                    f"constant {_const_repr(cell.value)} interrupts a formula run",
                    {"normalForm": form, "value": _const_repr(cell.value)}))


def _interrupted(line: list[tuple[CellAddress, CellContent]]) -> bool:
    """Whether a constant sits between two formulas of the line."""
    state = 0  # 1 after a formula, 2 after a constant after a formula
    for _addr, cell in line:
        if cell.formula is not None:
            if state == 2:
                return True
            state = 1
        elif state:
            state = 2
    return False


def _hardwired_findings(wb: Workbook, asts: dict[CellAddress, FormulaAst],
                        min_run: int) -> dict[CellAddress, Finding]:
    """Runs grouped by formula key (FormulaAst.key), read only on the lines
    a constant interrupts, the only ones where one can sit inside a run."""
    forms: dict[CellAddress, tuple[str, tuple[float, ...]]] = {}
    out: dict[CellAddress, Finding] = {}
    for sheet in wb.sheets:
        # Reading order: rows come ascending and each row's and each
        # column's cells in order.
        rows: dict[int, list[tuple[CellAddress, CellContent]]] = {}
        cols: dict[int, list[tuple[CellAddress, CellContent]]] = {}
        for pair in sheet.reading_order:
            rows.setdefault(pair[0].row, []).append(pair)
            cols.setdefault(pair[0].col, []).append(pair)
        for line, axis in ([(line, 2) for line in rows.values()]
                           + [(line, 1) for _c, line in sorted(cols.items())]):
            if _interrupted(line):
                forms.update((a, asts[a].key) for a, cell in line if cell.formula is not None)
                _scan_line(line, axis, forms, min_run, out)
    holder = {key: addr for addr, key in forms.items()}
    texts = {key: asts[holder[key]].normal.text  # once per key
             for key in {f.evidence["normalForm"] for f in out.values()}}
    for finding in out.values():
        finding.evidence["normalForm"] = texts[finding.evidence["normalForm"]]  # type: ignore
    return out


def _dup_literal_findings(wb: Workbook, asts: dict[CellAddress, FormulaAst],
                          cfg: RuleConfig) -> list[Finding]:
    def counted(value: float) -> bool:
        return (value not in cfg.dup_literal_exclusions
                and abs(value) >= cfg.dup_literal_min_magnitude)

    # each literal vector is screened once; copies of a class with equal
    # literals share one vector
    screened: dict[tuple[float, ...], list[float]] = {}
    out: list[Finding] = []
    for sheet in wb.sheets:
        occurrences: dict[float, set[CellAddress]] = {}
        for addr, cell in sheet.reading_order:
            if cell.is_number:
                if counted(cell.value):  # type: ignore[arg-type]
                    occurrences.setdefault(cell.value, set()).add(addr)  # type: ignore[arg-type]
            elif cell.is_formula:
                vector = asts[addr].literals
                lits = screened.get(vector)
                if lits is None:
                    lits = screened[vector] = [v for v in vector if counted(v)]
                for lit in lits:
                    occurrences.setdefault(lit, set()).add(addr)
        for value in sorted(occurrences):
            addrs = sorted(occurrences[value])  # one sheet: reading order
            if len(addrs) < 2:
                continue
            qualified = [a.qualified for a in addrs]
            for addr in addrs:
                out.append(_mk(
                    "DUP_LITERAL", addr,
                    f"literal {canonical_number(value)} is typed in {len(addrs)} cells",
                    {"value": canonical_number(value), "occurrences": qualified}))
    return out


def _version_name_finding(wb: Workbook) -> Finding | None:
    name = wb.name
    has_version = re.search(r"(?<![A-Za-z0-9])[vV][0-9]+", name) is not None
    date_match = re.search(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", name)
    expected = wb.meta.modified_date.isoformat()
    problems = []
    if not has_version:
        problems.append("no version token")
    if date_match is None:
        problems.append("no date token")
    elif date_match.group(0) != expected:
        problems.append(f"date token {date_match.group(0)} != modified {expected}")
    if not problems:
        return None
    return _mk("VERSION_NAME", None,
               "workbook name does not carry its version and modification date: "
               + "; ".join(problems),
               {"name": name,
                "hasVersionToken": has_version,
                "dateToken": None if date_match is None else date_match.group(0),
                "modifiedDate": expected})


# --- Cell rules ------------------------------------------------------------


def _flow_offenders(ast: FormulaAst) -> list[str]:
    """The references that read below or right of the host, in A1 text."""
    forward = ast.reach[2]
    if not forward:
        return []
    boxes = list(references(ast))
    nodes = ast.facts.refs
    bad: list[str] = []
    for i in forward:
        _sheet, r1, c1, r2, c2 = boxes[i]
        text = f"{col_to_letters(c1)}{r1}"
        if isinstance(nodes[i], RangeRef):
            text += f":{col_to_letters(c2)}{r2}"
        bad.append(text)
    return bad


# --- Runner ----------------------------------------------------------------


def run_rules(wb: Workbook, g: DepGraph, cfg: RuleConfig | None = None,
              asts: dict[CellAddress, FormulaAst] | None = None) -> RulesReport:
    cfg = RuleConfig() if cfg is None else cfg
    if asts is None:
        asts = parse_workbook_formulas(wb)
    enabled = tuple(r for r in RULE_IDS if r in cfg.enabled)

    protection_on = wb.meta.protection_enabled

    def version_name() -> list[Finding]:
        found = _version_name_finding(wb)
        return [] if found is None else [found]

    book_rules: dict[str, Callable[[], Iterable[Finding]]] = {
        "NUM_AS_TEXT": lambda: _num_as_text_findings(wb, g, asts).values(),
        "HARDWIRED": lambda: _hardwired_findings(
            wb, asts, cfg.min_run_length_for_hardwire).values(),
        "DUP_LITERAL": lambda: _dup_literal_findings(wb, asts, cfg),
        "ORPHAN_OUTPUT": lambda: [
            _mk("ORPHAN_OUTPUT", addr, "terminal formula is not a declared output",
                {"dependents": 0}) for addr in orphan_formulas(g)],
        "VERSION_NAME": version_name,
    }

    def jammed(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        literals = ast.literals
        if len(literals) >= 2:
            return _mk("JAMMED", addr, f"formula embeds {len(literals)} literals",
                       {"literals": [canonical_number(v) for v in literals]})
        return None

    def long_formula(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        tokens = ast.facts.token_count
        if tokens > cfg.long_formula_tokens:
            return _mk("LONG_FORMULA", addr,
                       f"{tokens} tokens exceeds the {cfg.long_formula_tokens} limit",
                       {"tokenCount": tokens, "threshold": cfg.long_formula_tokens})
        return None

    def long_arc(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        distance, off_axis_count, _forward = ast.reach
        if distance > cfg.long_arc_distance:
            off_axis = off_axis_count > 0
            return _mk("LONG_ARC", addr,
                       f"reference arc of {distance} cells"
                       + (" crosses rows and columns" if off_axis else ""),
                       {"maxRefDistance": distance, "threshold": cfg.long_arc_distance,
                        "offAxis": off_axis, "offAxisRefCount": off_axis_count})
        return None

    def xsheet(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        facts = ast.facts
        if facts.cross_sheet_count > 0:
            return _mk("XSHEET_REF", addr, f"{facts.cross_sheet_count} cross-sheet reference(s)",
                       {"count": facts.cross_sheet_count, "sheets": list(facts.cross_sheets)})
        return None

    def flow(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        offenders = _flow_offenders(ast)
        if offenders:
            return _mk("FLOW_VIOLATION", addr, "reads cells below or to the right of itself",
                       {"references": offenders})
        return None

    def unprotected(addr: CellAddress, cell: CellContent, ast: FormulaAst) -> Finding | None:
        if cell.locked:
            return None
        f = _mk("UNPROTECTED_FORMULA", addr, "formula cell is not locked against edits",
                {"protectionEnabled": protection_on})
        return f if protection_on else f._replace(severity="error")

    cell_rules = {"JAMMED": jammed, "LONG_FORMULA": long_formula, "LONG_ARC": long_arc,
                  "XSHEET_REF": xsheet, "FLOW_VIOLATION": flow,
                  "UNPROTECTED_FORMULA": unprotected}

    findings: list[Finding] = []
    examined = {rid: 0 if rid in book_rules else wb.total_cell_count for rid in enabled}
    for rid in (rid for rid in enabled if rid in book_rules):
        try:
            findings.extend(list(book_rules[rid]()))
        except Exception as exc:  # report and leave the coverage gap visible
            findings.append(_internal(rid, None, exc))
        else:
            examined[rid] = wb.total_cell_count

    def per_copy(rid: str, addr: CellAddress, cell: CellContent, ast: FormulaAst) -> bool:
        try:  # does rid judge each copy of the class whose first copy ast is?
            return (rid == "UNPROTECTED_FORMULA" or cell_rules[rid](addr, cell, ast) is not None
                    or (rid in ("LONG_ARC", "FLOW_VIOLATION") and ast.facts.anchored))
        except Exception:  # then each copy reports its own crash
            return True

    # One walk of the formula cells. Each takes, in RULE_IDS order (which one
    # cell's INTERNAL_ERRORs keep), the judges its class's first copy chose.
    cell_ids = [rid for rid in enabled if rid in cell_rules]
    judges_of: dict[FormulaAst, list[str]] = {}
    for addr, cell in wb.formula_cells() if cell_ids else ():
        ast = asts[addr]
        if ast.cls not in judges_of:
            judges_of[ast.cls] = [rid for rid in cell_ids if per_copy(rid, addr, cell, ast)]
        for rid in judges_of[ast.cls]:
            try:
                hit = cell_rules[rid](addr, cell, ast)
            except Exception as exc:
                hit = _internal(rid, addr, exc)
            if hit is not None:
                findings.append(hit)

    overrides = dict(cfg.severity_overrides)
    if overrides:
        findings = [f if f.rule_id not in overrides
                    else f._replace(severity=overrides[f.rule_id])
                    for f in findings]

    suppress = set(cfg.suppressions)
    kept = [f for f in findings if ("*" if f.location is None else f.location.qualified,
                                    f.rule_id) not in suppress]

    def order(f: Finding):
        if f.location is None:
            return (0, 0, 0, 0, f.rule_id)
        return (1, wb.sheet_index(f.location.sheet), f.location.row,
                f.location.col, f.rule_id)

    kept.sort(key=order)
    return RulesReport(findings=tuple(kept), suppressed_count=len(findings) - len(kept),
                       examined=examined, applicable=wb.total_cell_count,
                       enabled=enabled)
