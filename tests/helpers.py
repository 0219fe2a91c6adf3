"""Shared test utilities: compact workbook construction and random ASTs."""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterator

from gridaudit.engine import (
    _ARITHMETIC,
    _COMPARISONS,
    CYCLE_ERR,
    DIV0,
    REF_ERR,
    VALUE_ERR,
    ErrorValue,
    Value,
    _compare,
    _Err,
    _round_half_away,
    _soft_number,
    effective_constant,
    parse_numeric_text,
)
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
    canonical_number,
    parse_formula,
    references,
    render,
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
    col_to_letters,
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


def cells_read(wb: Workbook, ast: FormulaAst) -> Iterator[CellAddress]:
    """Each cell a formula reads, once per reference naming it: its
    references in reading order, a range's occupied cells row by row."""
    known_sheets = {s.name for s in wb.sheets}
    for sheet, r1, c1, r2, c2 in references(ast):
        if r2 > MAX_ROW or c2 > MAX_COL or sheet not in known_sheets:
            yield CellAddress(sheet, r2, c2)
        elif (r1, c1) == (r2, c2):
            yield CellAddress(sheet, r1, c1)
        else:
            box = (CellAddress(sheet, row, col)
                   for row in range(r1, r2 + 1) for col in range(c1, c2 + 1))
            yield from (cell for cell in box if wb.cell(cell) is not None)


def expanded_graph(wb: Workbook, asts: dict[CellAddress, FormulaAst]) -> DepGraph:
    """The dependency graph with every range walked cell by cell.

    The graph's meaning spelled out, as the reference for the graph that
    looks up a range's occupied cells in a sheet index: a formula reads
    each cell a single reference names, occupied or empty, and each
    occupied cell of a range in the grid on a sheet of the book; any other
    range reads its far corner. edge_count is the number of such cells,
    each once per formula. The condensation is Reachability's, found
    without Tarjan.
    """
    precedents = {addr: frozenset(cells_read(wb, asts[addr])) for addr in sorted(asts)}
    return DepGraph(
        sheet_order=tuple(s.name for s in wb.sheets),
        precedents=precedents,
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


class ReferenceEvaluator:
    """evaluate()'s meaning spelled out, as the reference for the evaluator
    that calls each class's kernel at a copy's cell with its literals.

    Each formula is parsed on its own with parse_formula and evaluated by
    recursion over its tree, one call per node, reading each referenced
    cell's value on demand. A formula on a reference cycle (Reachability,
    over expanded_graph) is #CYCLE!. The operators' scalar rules are the
    engine's own helpers; what this checks is the kernels (their spine
    folds, reading order and moved references), the classes and slots,
    the order and the cycles. Recursive, so for small books only.
    """

    def __init__(self, wb: Workbook):
        self.wb = wb
        self.sheets = {s.name for s in wb.sheets}
        self.asts = {addr: parse_formula(c.formula, addr)  # type: ignore[arg-type]
                     for addr, c in wb.formula_cells()}
        cycles = expanded_graph(wb, self.asts).condensation.cycles
        self.on_cycle = {addr for cycle in cycles for addr in cycle}
        self.values: dict[CellAddress, Value] = {}

    def evaluate(self) -> dict[CellAddress, Value]:
        """The value of every non-empty cell."""
        return {addr: self.value(addr) for addr, _content in self.wb.iter_cells()}

    def value(self, addr: CellAddress) -> Value:
        if addr not in self.values:
            content = self.wb.cell(addr)
            assert content is not None
            if not content.is_formula:
                self.values[addr] = effective_constant(content)
            elif addr in self.on_cycle:
                self.values[addr] = CYCLE_ERR
            else:
                try:
                    self.values[addr] = self.eval(self.asts[addr].root, addr)  # type: ignore[arg-type]
                except _Err as err:
                    self.values[addr] = err.error
        return self.values[addr]

    # -- references

    def resolve(self, node: CellRef, host: CellAddress) -> Value | None:
        sheet = host.sheet if node.sheet is None else node.sheet
        if node.row > MAX_ROW or node.col > MAX_COL or sheet not in self.sheets:
            raise _Err(REF_ERR)
        addr = CellAddress(sheet, node.row, node.col)
        v = self.value(addr) if self.wb.cell(addr) is not None else None
        if isinstance(v, ErrorValue):
            raise _Err(v)
        return v

    def range_values(self, node: RangeRef, host: CellAddress) -> list[Value]:
        sheet = host.sheet if node.sheet is None else node.sheet
        if node.r2 > MAX_ROW or node.c2 > MAX_COL or sheet not in self.sheets:
            raise _Err(REF_ERR)
        out: list[Value] = []
        for row in range(node.r1, node.r2 + 1):
            for col in range(node.c1, node.c2 + 1):
                addr = CellAddress(sheet, row, col)
                if self.wb.cell(addr) is not None:
                    v = self.value(addr)
                    if isinstance(v, ErrorValue):
                        raise _Err(v)
                    out.append(v)
        return out

    # -- coercions of a scalar (None is an empty cell)

    def scalar(self, node: Expr, host: CellAddress) -> Value | None:
        return self.resolve(node, host) if isinstance(node, CellRef) else self.eval(node, host)

    @staticmethod
    def number(v: Value | None) -> float:
        if isinstance(v, bool):
            return 1.0 if v else 0.0
        if isinstance(v, float):
            return v
        if v is None:
            return 0.0
        parsed = parse_numeric_text(v)  # type: ignore[arg-type]
        if parsed is None:
            raise _Err(VALUE_ERR)
        return parsed

    @staticmethod
    def text(v: Value | None) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, float):
            return canonical_number(v)
        return v  # type: ignore[return-value]

    @staticmethod
    def logical(v: Value | None) -> bool:
        if isinstance(v, bool):
            return v
        if isinstance(v, float):
            return v != 0.0
        if v is None:
            return False
        word = v.strip().upper()  # type: ignore[union-attr]
        if word not in ("TRUE", "FALSE"):
            raise _Err(VALUE_ERR)
        return word == "TRUE"

    # -- the tree

    def eval(self, node: Expr, host: CellAddress) -> Value:
        if isinstance(node, (NumberLiteral, TextLiteral, BooleanLiteral)):
            return node.value
        if isinstance(node, CellRef):
            v = self.resolve(node, host)
            return 0.0 if v is None else v
        if isinstance(node, RangeRef):
            raise _Err(VALUE_ERR)  # a bare range has no scalar value
        if isinstance(node, UnaryOp):
            x = self.number(self.scalar(node.operand, host))
            return -x if node.op == "-" else x
        if isinstance(node, BinaryOp):
            left = self.scalar(node.left, host)
            if node.op in _COMPARISONS:
                return _compare(node.op, left, self.scalar(node.right, host))
            if node.op == "&":
                return self.text(left) + self.text(self.scalar(node.right, host))
            a = self.number(left)
            r = _ARITHMETIC[node.op](a, self.number(self.scalar(node.right, host)))
            if not math.isfinite(r):
                raise _Err(VALUE_ERR)
            return r
        assert isinstance(node, FunctionCall)
        return self.call(node.name, node.args, host)

    def call(self, name: str, args: tuple[Expr, ...], host: CellAddress) -> Value:
        if name == "IF":
            if self.logical(self.scalar(args[0], host)):
                return self.eval(args[1], host)
            return self.eval(args[2], host) if len(args) == 3 else False
        if name in ("AND", "OR"):
            bools = [self.logical(self.scalar(a, host)) for a in args]
            return all(bools) if name == "AND" else any(bools)
        if name == "NOT":
            return not self.logical(self.scalar(args[0], host))
        if name == "ABS":
            return abs(self.number(self.scalar(args[0], host)))
        if name == "ROUND":
            x = self.number(self.scalar(args[0], host))
            r = _round_half_away(x, int(self.number(self.scalar(args[1], host))))
            if not math.isfinite(r):
                raise _Err(VALUE_ERR)
            return r
        nums: list[float] = []
        for arg in args:
            if isinstance(arg, RangeRef):
                nums += [v for v in self.range_values(arg, host) if isinstance(v, float)]
            elif isinstance(arg, CellRef):
                v = self.resolve(arg, host)
                if isinstance(v, float):
                    nums.append(v)
            elif name == "COUNT":
                coerced = _soft_number(self.scalar(arg, host))
                if coerced is not None:
                    nums.append(coerced)
            else:
                nums.append(self.number(self.scalar(arg, host)))
        if name == "COUNT":
            return float(len(nums))
        if name in ("SUM", "AVERAGE"):
            try:
                total = math.fsum(nums)
            except OverflowError:
                raise _Err(VALUE_ERR) from None
            if name == "SUM":
                return total
            if not nums:
                raise _Err(DIV0)
            return total / len(nums)
        return (min(nums) if name == "MIN" else max(nums)) if nums else 0.0


# --- random expression trees -------------------------------------------------

_FOREIGN_SHEETS = [None, None, None, "Data", "My Data", "it's"]
_BINOPS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]


def random_expr(rng: random.Random, depth: int = 3, coord_span: int = 40,
                uniform_range_flags: bool = False) -> Expr:
    """A random well-formed expression tree.

    Number literals are non-negative (the parser spells negatives as unary
    minus) and range corners are pre-sorted, matching parser canonical form,
    so render/parse equality holds structurally; their slots are numbered
    as the parser numbers them. uniform_range_flags forces both corners of
    each range axis to share an absolute marker, which keeps corner order
    stable under translation (the copy-invariance property).
    """
    return numbered(_random_node(rng, depth, coord_span, uniform_range_flags))


def _random_node(rng: random.Random, depth: int, coord_span: int,
                 uniform_range_flags: bool) -> Expr:
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
                       _random_node(rng, depth - 1, coord_span, uniform_range_flags))
    if kind <= 3:
        return BinaryOp(
            rng.choice(_BINOPS),
            _random_node(rng, depth - 1, coord_span, uniform_range_flags),
            _random_node(rng, depth - 1, coord_span, uniform_range_flags),
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
        _random_node(rng, depth - 1, coord_span, uniform_range_flags) for _ in range(n)))


def numbered(root: Expr) -> Expr:
    """A tree built by hand, with its number literals' slots numbered in
    reading order, as the parser numbers them; FormulaAst reads a class's
    literal vector off its tree by slot."""
    slots = itertools.count()

    def walk(node: Expr) -> Expr:
        if isinstance(node, NumberLiteral):
            return NumberLiteral(node.value, next(slots))
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, walk(node.operand))
        if isinstance(node, BinaryOp):
            left = walk(node.left)
            return BinaryOp(node.op, left, walk(node.right))
        if isinstance(node, FunctionCall):
            return FunctionCall(node.name, tuple(walk(arg) for arg in node.args))
        return node

    return walk(root)


def aggregate_ranges(node: Expr, under: bool = False) -> list[RangeRef]:
    """The ranges of a tree, in reading order, that some call above them to
    SUM, AVERAGE, MIN, MAX or COUNT reads; under says whether one is above
    node already."""
    if isinstance(node, RangeRef):
        return [node] if under else []
    if isinstance(node, UnaryOp):
        return aggregate_ranges(node.operand, under)
    if isinstance(node, BinaryOp):
        return aggregate_ranges(node.left, under) + aggregate_ranges(node.right, under)
    if isinstance(node, FunctionCall):
        under = under or node.name in ("SUM", "AVERAGE", "MIN", "MAX", "COUNT")
        return [rng for arg in node.args for rng in aggregate_ranges(arg, under)]
    return []


def translate_expr(node: Expr, dr: int, dc: int,
                   literals: tuple[float, ...] | None = None) -> Expr:
    """Shift the relative parts of references, as a copy-paste would; with
    literals, each number literal also takes the value its slot indexes."""
    if isinstance(node, NumberLiteral) and literals is not None:
        return NumberLiteral(literals[node.slot], node.slot)
    if isinstance(node, CellRef):
        return node._replace(
            row=node.row if node.abs_row else node.row + dr,
            col=node.col if node.abs_col else node.col + dc,
        )
    if isinstance(node, RangeRef):
        return node._replace(
            r1=node.r1 if node.abs_r1 else node.r1 + dr,
            r2=node.r2 if node.abs_r2 else node.r2 + dr,
            c1=node.c1 if node.abs_c1 else node.c1 + dc,
            c2=node.c2 if node.abs_c2 else node.c2 + dc,
        )
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, translate_expr(node.operand, dr, dc, literals))
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, translate_expr(node.left, dr, dc, literals),
                        translate_expr(node.right, dr, dc, literals))
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, tuple(translate_expr(a, dr, dc, literals)
                                             for a in node.args))
    return node


def literal_copies_book(seed: int) -> Workbook:
    """A random small book of copied columns whose copies differ only in
    their number literals, with IF branches, error values and cycles.

    Each column is one random formula pasted down a few rows with a fresh
    literal vector per copy; one column in three has IF at its top. Copies
    read constants of every kind, error cells, and one another, so some
    columns read themselves round a cycle.
    """
    rng = random.Random(seed)
    cells: dict[str, Any] = {}
    for _ in range(30):
        row, col = rng.randint(1, 12), rng.randint(1, 12)
        cells[CellAddress("S1", row, col).a1] = rng.choice(
            [1.0, 2.5, -3.0, 0.0, "7", " 2.5", "abc", "", True, False,
             CellContent(value=4.0, number_format="text", locked=True)])
    cells.update({"A13": "=1/0", "B13": '="x"+1', "C13": "=Nowhere!A1",
                  "D13": "=E13+1", "E13": "=D13*2"})
    for _ in range(5):
        expr = random_expr(rng, depth=3, coord_span=14)
        if rng.random() < 0.34:
            expr = numbered(FunctionCall("IF", (random_expr(rng, 1, 14), expr,
                                                random_expr(rng, 2, 14))))
        row, col = rng.randint(1, 10), rng.randint(1, 12)
        first = FormulaAst("=", CellAddress("S1", row, col), expr)
        for dr in range(rng.randint(2, 5)):
            host = CellAddress("S1", row + dr, col)
            literals = tuple(rng.choice([0.0, 1.0, 2.0, 3.5, 10.0, 1e-07])
                             for _ in first.literals)
            moved = translate_expr(expr, dr, 0, literals)
            cells[host.a1] = render(FormulaAst("=", host, moved))
    return wb_from(cells, extra_sheets={"Data": {"A1": 5.0, "B2": "=A1+S1!A1"},
                                        "My Data": {"C3": "=3+Data!A1"}})


def class_time_book(seed: int) -> Workbook:
    """literal_copies_book's classes, and what judging rules by class must
    still get right copy by copy.

    Adds a column of copies anchored on $A$1, pasted down past the LONG_ARC
    distance so that only its far copies fire; a row of copies; unlocked
    copies; and constants in place of copies, inside runs, beside runs
    outside them, and between copies of two literal vectors.
    """
    rng = random.Random(seed)
    base = literal_copies_book(seed)
    sheets = {s.name: {addr.a1: cell for addr, cell in s.reading_order} for s in base.sheets}
    cells: dict[str, Any] = {a1: cell.formula or cell for a1, cell in sheets.pop("S1").items()}
    cells.update({"A1": 1.0, "T1": 2.0, "A60": 3.0})
    last = rng.randint(30, 50)
    for r in range(2, last):
        cells[f"T{r}"] = f"=$A$1+T{r - 1}*{1 if rng.random() < 0.8 else rng.choice([2, 3])}"
    cells[f"T{last}"] = 4.0
    for c in range(2, 14):
        cells[CellAddress("S1", 60, c).a1] = f"={col_to_letters(c - 1)}59*{rng.choice([2, 2, 5])}"
    for key in [k for k in cells if k[0] == "T" or k.endswith("60")]:
        if isinstance(cells[key], str) and rng.random() < 0.15:
            cells[key] = rng.choice([5.0, 7.5, "x", True])
    for key, cell in cells.items():
        if isinstance(cell, str) and cell.startswith("=") and rng.random() < 0.1:
            cells[key] = CellContent(formula=cell, locked=False)
    return wb_from(cells, protection=rng.random() < 0.5, extra_sheets=sheets)


def per_copy_cell_findings(wb: Workbook, cfg: Any) -> list[Any]:
    """The cell rules' findings, judged copy by copy: every enabled cell
    rule, in RULE_IDS order, judges every formula cell from a parse of that
    cell alone and its own normal form; sorted as run_rules sorts them."""
    from gridaudit.formula import normalize
    from gridaudit.rules import RULE_IDS, _mk

    def jammed(addr, cell, ast):
        if len(ast.literals) >= 2:
            return _mk("JAMMED", addr, f"formula embeds {len(ast.literals)} literals",
                       {"literals": [canonical_number(v) for v in ast.literals]})

    def long_formula(addr, cell, ast):
        tokens, limit = ast.facts.token_count, cfg.long_formula_tokens
        if tokens > limit:
            return _mk("LONG_FORMULA", addr, f"{tokens} tokens exceeds the {limit} limit",
                       {"tokenCount": tokens, "threshold": limit})

    def long_arc(addr, cell, ast):
        m = normalize(ast)
        if m.max_ref_distance > cfg.long_arc_distance:
            off_axis = m.off_axis_ref_count > 0
            return _mk("LONG_ARC", addr, f"reference arc of {m.max_ref_distance} cells"
                       + (" crosses rows and columns" if off_axis else ""),
                       {"maxRefDistance": m.max_ref_distance,
                        "threshold": cfg.long_arc_distance, "offAxis": off_axis,
                        "offAxisRefCount": m.off_axis_ref_count})

    def xsheet(addr, cell, ast):
        n = ast.facts.cross_sheet_count
        if n > 0:
            return _mk("XSHEET_REF", addr, f"{n} cross-sheet reference(s)",
                       {"count": n, "sheets": list(ast.facts.cross_sheets)})

    def flow(addr, cell, ast):
        boxes = list(references(ast))
        offenders = []
        for i in ast.reach[2]:  # a cell's own class: found from its own host
            _sheet, r1, c1, r2, c2 = boxes[i]
            text = f"{col_to_letters(c1)}{r1}"
            if isinstance(ast.facts.refs[i], RangeRef):
                text += f":{col_to_letters(c2)}{r2}"
            offenders.append(text)
        if offenders:
            return _mk("FLOW_VIOLATION", addr, "reads cells below or to the right of itself",
                       {"references": offenders})

    def unprotected(addr, cell, ast):
        if not cell.locked:
            on = wb.meta.protection_enabled
            f = _mk("UNPROTECTED_FORMULA", addr, "formula cell is not locked against edits",
                    {"protectionEnabled": on})
            return f if on else f._replace(severity="error")

    judges = {"JAMMED": jammed, "LONG_FORMULA": long_formula, "LONG_ARC": long_arc,
              "XSHEET_REF": xsheet, "FLOW_VIOLATION": flow, "UNPROTECTED_FORMULA": unprotected}
    formulas = [(addr, cell, parse_formula(cell.formula, addr))
                for addr, cell in wb.formula_cells()]
    found = [hit for rid in RULE_IDS if rid in judges and rid in cfg.enabled
             for addr, cell, ast in formulas
             if (hit := judges[rid](addr, cell, ast)) is not None]
    return sorted(found, key=lambda f: (wb.sheet_index(f.location.sheet),
                                        f.location.row, f.location.col, f.rule_id))


def hardwired_by_text(wb: Workbook, min_run: int) -> list[Any]:
    """HARDWIRED's findings from the full scan of every row and column,
    each formula's run read by its normal text, from a parse of that cell
    alone; in reading order."""
    from gridaudit.formula import normalize
    from gridaudit.rules import _scan_line

    norm_text = {addr: normalize(parse_formula(cell.formula, addr)).text
                 for addr, cell in wb.formula_cells()}
    out: dict = {}
    for sheet in wb.sheets:
        rows: dict[int, list] = {}
        cols: dict[int, list] = {}
        for pair in sheet.reading_order:
            rows.setdefault(pair[0].row, []).append(pair)
            cols.setdefault(pair[0].col, []).append(pair)
        for line in rows.values():
            _scan_line(line, 2, norm_text, min_run, out)
        for _c, line in sorted(cols.items()):
            _scan_line(line, 1, norm_text, min_run, out)
    return sorted(out.values(), key=lambda f: (wb.sheet_index(f.location.sheet),
                                               f.location.row, f.location.col))
