"""Shared test utilities: compact workbook construction and random ASTs."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any

from gridaudit.formula import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    Expr,
    FormulaAst,
    FunctionCall,
    NumberLiteral,
    RangeRef,
    TextLiteral,
    UnaryOp,
    references,
)
from gridaudit.graph import Condensation, DepGraph, sheet_indexes
from gridaudit.model import (
    DOCUMENT_VERSION,
    MAX_COL,
    MAX_ROW,
    CellAddress,
    CellContent,
    Sheet,
    Workbook,
    WorkbookMeta,
    parse_cell_key,
)

DEFAULT_MODIFIED = "2026-01-15T09:30:00"
DEFAULT_NAME = "book_v1_2026-01-15"


def wb_from(
    cells: dict[str, Any],
    name: str = DEFAULT_NAME,
    outputs: tuple[str, ...] = (),
    protection: bool = True,
    modified: str = DEFAULT_MODIFIED,
    extra_sheets: dict[str, dict[str, Any]] | None = None,
) -> Workbook:
    """Build a one-sheet workbook ("S1") from a compact cell map.

    Values: "=..." strings become formulas, CellContent passes through,
    anything else is a constant. Cells are locked by default so protection
    rules stay quiet unless a test wants them.
    """

    def content(v: Any) -> CellContent:
        if isinstance(v, CellContent):
            return v
        if isinstance(v, str) and v.startswith("="):
            return CellContent(formula=v, locked=True)
        return CellContent(value=v, locked=True)

    sheets = [Sheet("S1", {k: content(v) for k, v in cells.items()})]
    for sheet_name, sheet_cells in (extra_sheets or {}).items():
        sheets.append(Sheet(sheet_name, {k: content(v) for k, v in sheet_cells.items()}))
    return Workbook(
        name=name,
        sheets=tuple(sheets),
        meta=WorkbookMeta(modified=modified, outputs=outputs, protection_enabled=protection),
    )


# Cell objects the loader refuses, each with a message naming its cell.
MALFORMED_CELLS = (
    {}, {"v": None}, {"f": 5}, {"f": "A1"}, {"f": "="}, {"v": [1]},
    {"v": 1, "locked": 1}, {"v": 1, "fmt": "pct"}, {"v": 10**400}, {"v": 1, "f": "=B1"}, 5,
)


def one_cell_document(cell: Any) -> dict[str, Any]:
    """A document whose one sheet "S1" holds cell at A1."""
    return {"version": DOCUMENT_VERSION, "name": DEFAULT_NAME,
            "meta": {"modified": DEFAULT_MODIFIED},
            "sheets": [{"name": "S1", "cells": {"A1": cell}}]}


def reference_document(wb: Workbook) -> dict[str, Any]:
    """The documented workbook shape as a dict, cells in reading order.

    The serializer's reference: serialize_workbook(wb) must equal
    json.dumps(reference_document(wb), ensure_ascii=False, indent=2) + "\\n".
    """

    def constant(v: Any) -> Any:
        # Integral floats round-trip as ints; 2^53 bounds exact conversion.
        if isinstance(v, float) and v == int(v) and abs(v) <= 2**53:
            return int(v)
        return v

    sheets = []
    for s in wb.sheets:
        cells: dict[str, Any] = {}
        for key in sorted(s.cells, key=parse_cell_key):
            c = s.cells[key]
            entry: dict[str, Any] = {}
            if c.is_formula:
                entry["f"] = c.formula
            else:
                entry["v"] = constant(c.value)
            if c.locked:
                entry["locked"] = True
            if c.number_format is not None:
                entry["fmt"] = c.number_format
            cells[key] = entry
        sheets.append({"name": s.name, "cells": cells})
    return {
        "version": DOCUMENT_VERSION,
        "name": wb.name,
        "meta": {
            "modified": wb.meta.modified,
            "outputs": list(wb.meta.outputs),
            "protectionEnabled": wb.meta.protection_enabled,
        },
        "sheets": sheets,
    }


def expanded_graph(wb: Workbook, asts: dict[CellAddress, FormulaAst]) -> DepGraph:
    """The dependency graph with every range expanded cell by cell.

    The graph's meaning spelled out, as the reference for the graph that
    counts a range's empty cells instead of listing them: a formula reads
    each cell its references cover, empty or not; a range beyond the grid
    or on a missing sheet reads its far corner. edge_count is the number of
    such cells, each once per formula. The condensation is Reachability's,
    found without Tarjan.
    """
    known_sheets = {s.name for s in wb.sheets}
    precedents: dict[CellAddress, frozenset[CellAddress]] = {}
    for addr in sorted(asts):
        cells: set[CellAddress] = set()
        for sheet, r1, c1, r2, c2 in references(asts[addr]):
            if r2 > MAX_ROW or c2 > MAX_COL or sheet not in known_sheets:
                cells.add(CellAddress(sheet, r2, c2))
            else:
                cells.update(CellAddress(sheet, row, col)
                             for row in range(r1, r2 + 1) for col in range(c1, c2 + 1))
        precedents[addr] = frozenset(cells)
    return DepGraph(
        sheet_order=tuple(s.name for s in wb.sheets),
        precedents=precedents,
        ranges={},
        output_addresses=wb.output_addresses,
        edge_count=sum(len(cells) for cells in precedents.values()),
        indexes=sheet_indexes(wb),
        condensation=Reachability(precedents).condensation(),
    )


class Reachability:
    """Cycles, chains, an order and cones from plain reachability over a
    precedents map: the reference for graph.condense, which runs Tarjan.

    A formula is on a cycle when it reaches itself through its precedents,
    and its component is itself and the formulas it reaches that reach it
    back. Quadratic, so for small books only.
    """

    def __init__(self, precedents: dict[CellAddress, frozenset[CellAddress]]):
        self.precedents = precedents
        self.reach = {f: self._reached(precedents[f]) for f in precedents}
        self.component = {f: tuple(sorted({f} | {h for h in self.reach[f] if f in self.reach[h]}))
                          for f in precedents}
        self.cycles = tuple(sorted({self.component[f] for f in precedents if f in self.reach[f]}))
        self.on_cycle = {f for cycle in self.cycles for f in cycle}

    def _reached(self, cells: frozenset[CellAddress]) -> set[CellAddress]:
        """The formulas reachable from cells through precedents, cells' own included."""
        seen: set[CellAddress] = set()
        stack = [c for c in cells if c in self.precedents]
        while stack:
            cell = stack.pop()
            if cell not in seen:
                seen.add(cell)
                stack.extend(c for c in self.precedents[cell] if c in self.precedents)
        return seen

    def condensation(self) -> Condensation:
        """A formula that reaches another's component reaches more formulas,
        counting its own, so ordering by that count puts precedents first."""
        order = sorted(self.precedents,
                       key=lambda f: (len(self.reach[f] | {f}), self.component[f]))
        return Condensation(order, self.cycles)

    def longest_chain(self) -> int:
        """Formula cells on the longest dependency path: a memoised longest
        path over the components, each weighing its number of members."""
        memo: dict[tuple[CellAddress, ...], int] = {}

        def longest(comp: tuple[CellAddress, ...]) -> int:
            if comp not in memo:
                below = {self.component[p] for m in comp for p in self.precedents[m]
                         if p in self.precedents} - {comp}
                memo[comp] = len(comp) + max(map(longest, below), default=0)
            return memo[comp]

        return max(map(longest, set(self.component.values())), default=0)

    def cone(self, cell: CellAddress) -> set[CellAddress]:
        """The off-cycle formulas reachable from cell through off-cycle formulas."""
        cone: set[CellAddress] = set()
        frontier = {cell}
        while frontier:
            frontier = {f for f, precs in self.precedents.items()
                        if f not in self.on_cycle and f not in cone and precs & frontier}
            cone |= frontier
        return cone


# --- random expression trees -------------------------------------------------

_FOREIGN_SHEETS = [None, None, None, "Data", "My Data", "it's"]
_BINOPS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]


def random_expr(rng: random.Random, depth: int = 3, coord_span: int = 40,
                uniform_range_flags: bool = False) -> Expr:
    """A random well-formed expression tree.

    Number literals are non-negative (the parser spells negatives as unary
    minus) and range corners are pre-sorted, matching parser canonical form,
    so render/parse equality holds structurally. uniform_range_flags forces
    both corners of each range axis to share an absolute marker, which keeps
    corner order stable under translation (the copy-invariance property).
    """
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            v = rng.choice([0.0, 1.0, 2.0, 2.5, 100.0, 0.052, 1e-07, 12345.678, 3.0])
            return NumberLiteral(v)
        if kind == 1:
            return TextLiteral(rng.choice(["", "x", 'say "hi"', "Ω μ"]))
        if kind == 2:
            return BooleanLiteral(rng.random() < 0.5)
        if kind == 3:
            sheet = rng.choice(_FOREIGN_SHEETS)
            return CellRef(
                sheet,
                rng.randint(1, coord_span),
                rng.randint(1, coord_span),
                abs_row=rng.random() < 0.25,
                abs_col=rng.random() < 0.25,
            )
        sheet = rng.choice(_FOREIGN_SHEETS)
        r1, r2 = sorted((rng.randint(1, coord_span), rng.randint(1, coord_span)))
        c1, c2 = sorted((rng.randint(1, coord_span), rng.randint(1, coord_span)))
        a_r1, a_r2 = rng.random() < 0.2, rng.random() < 0.2
        a_c1, a_c2 = rng.random() < 0.2, rng.random() < 0.2
        if uniform_range_flags:
            a_r2, a_c2 = a_r1, a_c1
        return RangeRef(sheet, r1, c1, r2, c2,
                        abs_r1=a_r1, abs_c1=a_c1, abs_r2=a_r2, abs_c2=a_c2)
    kind = rng.randrange(6)
    if kind == 0:
        return UnaryOp(rng.choice(["-", "+"]),
                       random_expr(rng, depth - 1, coord_span, uniform_range_flags))
    if kind <= 3:
        return BinaryOp(
            rng.choice(_BINOPS),
            random_expr(rng, depth - 1, coord_span, uniform_range_flags),
            random_expr(rng, depth - 1, coord_span, uniform_range_flags),
        )
    name = rng.choice(["SUM", "AVERAGE", "MIN", "MAX", "COUNT", "IF", "AND", "OR",
                       "NOT", "ROUND", "ABS"])
    if name in ("NOT", "ABS"):
        n = 1
    elif name == "ROUND":
        n = 2
    elif name == "IF":
        n = rng.choice([2, 3])
    else:
        n = rng.randint(1, 3)
    return FunctionCall(name, tuple(
        random_expr(rng, depth - 1, coord_span, uniform_range_flags) for _ in range(n)))


def translate_expr(node: Expr, dr: int, dc: int) -> Expr:
    """Shift the relative parts of references, as a copy-paste would."""
    if isinstance(node, CellRef):
        return replace(
            node,
            row=node.row if node.abs_row else node.row + dr,
            col=node.col if node.abs_col else node.col + dc,
        )
    if isinstance(node, RangeRef):
        return replace(
            node,
            r1=node.r1 if node.abs_r1 else node.r1 + dr,
            r2=node.r2 if node.abs_r2 else node.r2 + dr,
            c1=node.c1 if node.abs_c1 else node.c1 + dc,
            c2=node.c2 if node.abs_c2 else node.c2 + dc,
        )
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, translate_expr(node.operand, dr, dc))
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, translate_expr(node.left, dr, dc),
                        translate_expr(node.right, dr, dc))
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, tuple(translate_expr(a, dr, dc) for a in node.args))
    return node
