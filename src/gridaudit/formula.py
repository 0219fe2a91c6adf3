"""Formula parsing and the one normal form of each formula.

The accepted grammar is the restricted sheet-formula language of the
workbook format: numbers, quoted text (with "" escape), TRUE/FALSE, cell and
range references with optional $-markers and sheet qualifiers, the operators
= <> < <= > >= & + - * / ^ with conventional precedence (comparison lowest,
^ highest, all left-associative), unary +/-, parentheses, and calls to
SUM AVERAGE MIN MAX COUNT IF AND OR NOT ROUND ABS with arity checked at
parse time. Anything else is a diagnosed error: unknown functions,
identifiers (named ranges are deliberately unsupported), and malformed
syntax all carry a character offset.

One deliberate deviation from desktop spreadsheets: unary minus binds
tighter than ^, so "=-2^2" means (-2)^2 = 4. Ranges are normalized at parse
time (corners sorted per axis) and an explicit same-sheet qualifier is
canonicalized away, which makes the rendered forms below stable.

Normalization renders the parse tree in R1C1 style relative to the host
cell, so structurally identical copies of a formula ("=A1*2" in B1, "=A2*2"
in B2) share one normal form ("=RC[-1]*2"). The same walk records the
formula's structure: its numeric literals, its token count (literals,
references, operators and function names), the Chebyshev distance to its
farthest same-sheet reference, and how many references are off-axis or
cross-sheet. That record, NormalizedFormula, is the only one: it is
computed once per tree, kept as FormulaAst.normal, and read by unique
counting, the rules, the risk model, the planner and the seeder.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .errors import FormulaSyntaxError, UnknownFunction, UnknownName
from .model import CellAddress, Workbook, col_to_letters, letters_to_col, quote_sheet

SUPPORTED_FUNCTIONS = frozenset(
    {"SUM", "AVERAGE", "MIN", "MAX", "COUNT", "IF", "AND", "OR", "NOT", "ROUND", "ABS"}
)
AGGREGATE_FUNCTIONS = frozenset({"SUM", "AVERAGE", "MIN", "MAX", "COUNT"})

# (min_args, max_args); None = unbounded.
_ARITY: dict[str, tuple[int, int | None]] = {
    "SUM": (1, None),
    "AVERAGE": (1, None),
    "MIN": (1, None),
    "MAX": (1, None),
    "COUNT": (1, None),
    "AND": (1, None),
    "OR": (1, None),
    "IF": (2, 3),
    "NOT": (1, 1),
    "ABS": (1, 1),
    "ROUND": (2, 2),
}


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class NumberLiteral:
    value: float


@dataclass(frozen=True)
class TextLiteral:
    value: str


@dataclass(frozen=True)
class BooleanLiteral:
    value: bool


@dataclass(frozen=True)
class CellRef:
    """A single-cell reference; sheet None means the host sheet."""

    sheet: str | None
    row: int
    col: int
    abs_row: bool = False
    abs_col: bool = False


@dataclass(frozen=True)
class RangeRef:
    """A rectangular range; corners are normalized so r1 <= r2, c1 <= c2."""

    sheet: str | None
    r1: int
    c1: int
    r2: int
    c2: int
    abs_r1: bool = False
    abs_c1: bool = False
    abs_r2: bool = False
    abs_c2: bool = False


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: Expr


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple[Expr, ...]


Expr = Union[
    NumberLiteral, TextLiteral, BooleanLiteral, CellRef, RangeRef, UnaryOp, BinaryOp, FunctionCall
]


@dataclass(frozen=True)
class FormulaAst:
    """A parsed formula bound to its host cell.

    References are relative by nature; the host is what makes them concrete,
    so it travels with the tree.
    """

    source: str
    host: CellAddress
    root: Expr

    @cached_property
    def normal(self) -> NormalizedFormula:
        """The normal form, computed on first read and kept with the tree."""
        return normalize(self)


# --- Lexer ----------------------------------------------------------------

# One alternation, tried in this order at each position. A string ends at
# the first quote not followed by another, so an unterminated one matches
# nothing (the lookahead keeps it from ending inside a "" escape).
_TOKEN_RE = re.compile(r"""
    (?P<SPACE>[ \t]+)
  | (?P<STRING>"(?:[^"]|"")*"(?!"))
  | (?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<SHEET>(?:[A-Za-z_][A-Za-z0-9_]*|'(?:[^']|'')+')!)
  | (?P<REF>(?P<abs_col>\$?)(?P<letters>[A-Za-z]{1,3})(?P<abs_row>\$?)(?P<digits>[0-9]{1,7})
        (?![A-Za-z0-9_$(]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<OP><=|>=|<>|[=<>&+\-*/^(),:])
""", re.VERBOSE)

# A token is (kind, text, offset, value): kind is a group name above or
# EOF; value is the number, the unescaped text, the unquoted sheet name,
# a reference's (row, col, abs_row, abs_col), or None.
_Token = tuple[str, str, int, Union[float, str, tuple[int, int, bool, bool], None]]


def _lex(src: str, start: int = 0) -> list[_Token]:
    """Lex src from start; token offsets index into the full string."""
    tokens: list[_Token] = []
    match = _TOKEN_RE.match
    i = start
    n = len(src)
    while i < n:
        m = match(src, i)
        if m is None:
            if src[i] == '"':
                raise FormulaSyntaxError("unterminated string", i)
            raise FormulaSyntaxError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        text = m.group()
        value: float | str | tuple[int, int, bool, bool] | None = None
        if kind == "SPACE":
            i = m.end()
            continue
        if kind == "NUMBER":
            value = float(text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number {text} is out of range", i)
        elif kind == "STRING":
            value = text[1:-1].replace('""', '"')
        elif kind == "SHEET":
            value = text[1:-2].replace("''", "'") if text[0] == "'" else text[:-1]
        elif kind == "REF":
            value = (int(m.group("digits")), letters_to_col(m.group("letters")),
                     bool(m.group("abs_row")), bool(m.group("abs_col")))
        tokens.append((kind, text, i, value))  # type: ignore[arg-type]
        i = m.end()
    tokens.append(("EOF", "", n, None))
    return tokens


# --- Parser ---------------------------------------------------------------

# Deepest nesting of parentheses, function calls and unary signs a formula
# may have. Desktop spreadsheets stop function nesting at 64; the bound also
# keeps the parser and every recursive tree walk well inside Python's
# recursion limit.
MAX_NESTING = 64

# Greatest height of a formula's tree, counted in operators, unary signs and
# calls from the root down to the deepest operand. A chain such as
# A1+A1+...+A1 needs no nesting but builds one level per operator, and every
# tree walk recurses that deep; evaluation takes up to five stack frames a
# level, so the deepest tree stays well inside the default recursion limit.
MAX_DEPTH = 128

# Binary operators by precedence level, loosest first; all left-associative.
_LEVEL = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}


class _Parser:
    """Recursive descent; each parse method returns (expr, tree height)."""

    def __init__(self, tokens: list[_Token], host: CellAddress):
        self.tokens = tokens
        self.pos = 0
        self.host = host
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        kind, found, offset, _ = self.cur
        if kind != "OP" or found != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {found or 'end'!r}", offset)
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        return self.cur[0] == "OP" and self.cur[1] in texts

    def nest(self, tok: _Token) -> None:
        """Enter one nesting level at tok; the caller leaves with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok[2])

    @staticmethod
    def taller(height: int, tok: _Token) -> int:
        """The height of a node over a subtree of the given height, made at tok."""
        if height >= MAX_DEPTH:
            raise FormulaSyntaxError(
                f"more than {MAX_DEPTH} levels of operators and calls", tok[2])
        return height + 1

    def parse(self) -> Expr:
        expr, _height = self.binary(1)
        kind, text, offset, _ = self.cur
        if kind != "EOF":
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", offset)
        return expr

    def binary(self, min_level: int) -> tuple[Expr, int]:
        """Operands joined by operators of min_level or tighter (precedence
        climbing over _LEVEL); "-2^2" is (-2)^2, since unary binds tighter."""
        left, height = self.unary()
        while True:
            tok = self.tokens[self.pos]
            level = _LEVEL.get(tok[1]) if tok[0] == "OP" else None
            if level is None or level < min_level:
                return left, height
            self.pos += 1
            right, right_height = self.binary(level + 1)
            height = self.taller(max(height, right_height), tok)
            left = BinaryOp(tok[1], left, right)

    def unary(self) -> tuple[Expr, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "OP" and tok[1] in ("-", "+"):
            self.pos += 1
            self.nest(tok)
            operand, height = self.unary()
            self.depth -= 1
            return UnaryOp(tok[1], operand), self.taller(height, tok)
        return self.primary()

    def primary(self) -> tuple[Expr, int]:
        tok = self.tokens[self.pos]
        kind, text, offset, value = tok
        self.pos += 1
        if kind == "REF":
            return self.ref_or_range(None, tok), 0
        if kind == "NUMBER":
            return NumberLiteral(value), 0  # type: ignore[arg-type]
        if kind == "STRING":
            return TextLiteral(value), 0  # type: ignore[arg-type]
        if kind == "OP" and text == "(":
            self.nest(tok)
            inner = self.binary(1)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "SHEET":
            ref = self.cur
            if ref[0] != "REF":
                raise FormulaSyntaxError("expected cell reference after sheet qualifier",
                                         ref[2])
            self.advance()
            return self.ref_or_range(value, ref), 0  # type: ignore[arg-type]
        if kind == "NAME":
            if self.at_op("("):
                return self.funcall(tok)
            upper = text.upper()
            if upper == "TRUE":
                return BooleanLiteral(True), 0
            if upper == "FALSE":
                return BooleanLiteral(False), 0
            raise UnknownName(f"unknown name {text!r} (named ranges are not supported)",
                              offset)
        raise FormulaSyntaxError(f"unexpected token {text or 'end'!r}", offset)

    def funcall(self, name_tok: _Token) -> tuple[Expr, int]:
        _, text, offset, _ = name_tok
        name = text.upper()
        if name not in SUPPORTED_FUNCTIONS:
            raise UnknownFunction(f"unknown function {text!r}", offset)
        self.expect_op("(")
        self.nest(name_tok)
        args: list[Expr] = []
        height = 0
        if not self.at_op(")"):
            while True:
                arg, arg_height = self.binary(1)
                args.append(arg)
                height = max(height, arg_height)
                if not self.at_op(","):
                    break
                self.advance()
        self.expect_op(")")
        self.depth -= 1
        lo, hi = _ARITY[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            wants = f"{lo}" if hi == lo else (f"{lo}..{hi}" if hi else f">={lo}")
            raise FormulaSyntaxError(f"{name} takes {wants} argument(s), got {len(args)}", offset)
        return FunctionCall(name, tuple(args)), self.taller(height, name_tok)

    def ref_or_range(self, sheet: str | None, first: _Token) -> Expr:
        r1, c1, a_r1, a_c1 = _split_ref(first)
        if not self.at_op(":"):
            return self.make_cell_ref(sheet, r1, c1, a_r1, a_c1)
        self.advance()
        second_sheet = sheet
        if self.cur[0] == "SHEET":
            second_sheet = str(self.advance()[3])
            if sheet is not None and second_sheet != sheet:
                raise FormulaSyntaxError("range corners on different sheets", self.cur[2])
            if sheet is None:
                raise FormulaSyntaxError(
                    "sheet qualifier on second range corner only", self.cur[2]
                )
        second = self.cur
        if second[0] != "REF":
            raise FormulaSyntaxError("expected cell reference after ':'", second[2])
        self.advance()
        r2, c2, a_r2, a_c2 = _split_ref(second)
        # Canonical corners: sort each axis, markers follow their coordinate.
        if r1 > r2:
            r1, r2, a_r1, a_r2 = r2, r1, a_r2, a_r1
        if c1 > c2:
            c1, c2, a_c1, a_c2 = c2, c1, a_c2, a_c1
        norm_sheet = None if second_sheet == self.host.sheet else second_sheet
        return RangeRef(norm_sheet, r1, c1, r2, c2, a_r1, a_c1, a_r2, a_c2)

    def make_cell_ref(self, sheet: str | None, row: int, col: int,
                      abs_row: bool, abs_col: bool) -> CellRef:
        norm_sheet = None if sheet == self.host.sheet else sheet
        return CellRef(norm_sheet, row, col, abs_row, abs_col)


def _split_ref(tok: _Token) -> tuple[int, int, bool, bool]:
    _, text, offset, parts = tok
    if parts[0] == 0:  # type: ignore[index]  # rows are 1-based; row 0 never resolves
        raise FormulaSyntaxError(f"reference {text!r} names row 0", offset)
    return parts  # type: ignore[return-value]


def parse_formula(source: str, host: CellAddress) -> FormulaAst:
    """Parse formula source text (leading '=' required) at a host cell."""
    if not source.startswith("="):
        raise FormulaSyntaxError("formula must start with '='", 0)
    if not source[1:].strip():
        raise FormulaSyntaxError("empty formula", 1)
    tokens = _lex(source, 1)
    root = _Parser(tokens, host).parse()
    return FormulaAst(source=source, host=host, root=root)


# --- Rendering ------------------------------------------------------------

_UNARY_LEVEL = 6
_ATOM_LEVEL = 7


def canonical_number(v: float) -> str:
    """Shortest stable spelling; integral floats print without a point."""
    if v == int(v) and abs(v) <= 2**53:
        return str(int(v))
    return repr(v)


def _r1c1_axis(letter: str, coord: int, is_abs: bool, origin: int) -> str:
    if is_abs:
        return f"{letter}{coord}"
    delta = coord - origin
    return letter if delta == 0 else f"{letter}[{delta}]"


def _render_corner(row: int, col: int, a_r: bool, a_c: bool, host: CellAddress,
                   style: str) -> str:
    if style == "a1":
        return ("$" if a_c else "") + col_to_letters(col) + ("$" if a_r else "") + str(row)
    return _r1c1_axis("R", row, a_r, host.row) + _r1c1_axis("C", col, a_c, host.col)


def _render_ref(node: CellRef | RangeRef, host: CellAddress, style: str) -> str:
    """A reference in A1 or host-relative R1C1 style; a range is two corners."""
    prefix = "" if node.sheet is None else quote_sheet(node.sheet) + "!"
    if isinstance(node, CellRef):
        return prefix + _render_corner(node.row, node.col, node.abs_row, node.abs_col,
                                       host, style)
    return (prefix + _render_corner(node.r1, node.c1, node.abs_r1, node.abs_c1, host, style)
            + ":" + _render_corner(node.r2, node.c2, node.abs_r2, node.abs_c2, host, style))


def _render(node: Expr, host: CellAddress, style: str, parent_level: int,
            right_child: bool) -> str:
    if isinstance(node, NumberLiteral):
        return canonical_number(node.value)
    if isinstance(node, TextLiteral):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BooleanLiteral):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, (CellRef, RangeRef)):
        return _render_ref(node, host, style)
    if isinstance(node, FunctionCall):
        args = ",".join(_render(a, host, style, 0, False) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, UnaryOp):
        inner = _render(node.operand, host, style, _UNARY_LEVEL, False)
        text = node.op + inner
        if parent_level > _UNARY_LEVEL:
            return f"({text})"
        return text
    if isinstance(node, BinaryOp):
        level = _LEVEL[node.op]
        left = _render(node.left, host, style, level, False)
        right = _render(node.right, host, style, level, True)
        text = f"{left}{node.op}{right}"
        if level < parent_level or (level == parent_level and right_child):
            return f"({text})"
        return text
    raise TypeError(f"unknown node: {node!r}")


def render(ast: FormulaAst) -> str:
    """Render back to A1-style source. parse(render(ast)) is structurally
    equal to ast; parentheses appear only where precedence requires them."""
    return "=" + _render(ast.root, ast.host, "a1", 0, False)


# --- Normal form -------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFormula:
    """Host-relative normal form and structural size of one formula.

    text is the R1C1 rendering, which copies of one formula share, and
    literals the numeric constants in reading order. token_count counts
    literals, references (a range is one token), operators, and function
    names; parentheses and commas do not count. max_ref_distance is the
    Chebyshev distance (max of row and column offsets) to the farthest
    referenced cell on the host sheet; off_axis_ref_count counts the
    same-sheet references sharing neither the host's row nor its column
    (a range shares one if it spans it). Cross-sheet references have no
    spatial distance and are tallied in cross_sheet_ref_count.
    """

    text: str
    literals: tuple[float, ...]
    token_count: int
    max_ref_distance: int
    off_axis_ref_count: int
    cross_sheet_ref_count: int


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    if isinstance(node, UnaryOp):
        yield from _walk(node.operand)
    elif isinstance(node, BinaryOp):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, FunctionCall):
        for arg in node.args:
            yield from _walk(arg)


def references(ast: FormulaAst) -> Iterator[tuple[str, int, int, int, int]]:
    """Every reference of a formula as a box (sheet, r1, c1, r2, c2).

    Reading order; an unqualified reference carries the host sheet, and a
    cell reference is a 1x1 box. This is the one walk the dependency graph
    and the evaluator's ordering both take their edges from.
    """
    host_sheet = ast.host.sheet
    for node in _walk(ast.root):
        if isinstance(node, CellRef):
            sheet = node.sheet if node.sheet is not None else host_sheet
            yield (sheet, node.row, node.col, node.row, node.col)
        elif isinstance(node, RangeRef):
            sheet = node.sheet if node.sheet is not None else host_sheet
            yield (sheet, node.r1, node.c1, node.r2, node.c2)


def normalize(ast: FormulaAst) -> NormalizedFormula:
    """The normal form of a formula; read it as ast.normal, which keeps it."""
    host = ast.host
    lits: list[float] = []
    tokens = 0
    max_dist = 0
    off_axis = 0
    cross = 0
    for node in _walk(ast.root):
        tokens += 1  # every node is one counted token; parens and commas are not nodes
        if isinstance(node, NumberLiteral):
            lits.append(node.value)
        elif isinstance(node, (CellRef, RangeRef)):
            if node.sheet is not None:
                cross += 1
                continue
            if isinstance(node, CellRef):
                r1 = r2 = node.row
                c1 = c2 = node.col
            else:
                r1, c1, r2, c2 = node.r1, node.c1, node.r2, node.c2
            max_dist = max(max_dist, abs(r1 - host.row), abs(r2 - host.row),
                           abs(c1 - host.col), abs(c2 - host.col))
            if not r1 <= host.row <= r2 and not c1 <= host.col <= c2:
                off_axis += 1
    return NormalizedFormula(
        text="=" + _render(ast.root, host, "r1c1", 0, False),
        literals=tuple(lits),
        token_count=tokens,
        max_ref_distance=max_dist,
        off_axis_ref_count=off_axis,
        cross_sheet_ref_count=cross,
    )


def parse_workbook_formulas(wb: Workbook) -> dict[CellAddress, FormulaAst]:
    """Parse every formula cell once; syntax errors name the failing cell."""
    out: dict[CellAddress, FormulaAst] = {}
    for addr, content in wb.formula_cells():
        try:
            out[addr] = parse_formula(content.formula, addr)  # type: ignore[arg-type]
        except FormulaSyntaxError as exc:
            wrapped = type(exc)(f"{addr.qualified}: {exc}")
            wrapped.offset = exc.offset
            raise wrapped from None
    return out


def unique_formula_count(wb: Workbook,
                         asts: dict[CellAddress, FormulaAst] | None = None) -> int:
    """Number of distinct (sheet, normal form) formulas in the workbook.

    Copies pasted down a column count once; the same shape on two sheets
    counts per sheet.
    """
    if asts is None:
        asts = parse_workbook_formulas(wb)
    seen: set[tuple[str, str]] = set()
    for addr, ast in asts.items():
        seen.add((addr.sheet, ast.normal.text))
    return len(seen)
