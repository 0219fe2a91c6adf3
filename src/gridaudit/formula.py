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
farthest same-sheet reference, how many references are off-axis or
cross-sheet, and which read below or right of the host. That record,
NormalizedFormula, is the only one: it is kept as FormulaAst.normal, and
read by unique counting, the rules, the risk model, the planner and the
seeder.

A workbook is mostly copies of a few shapes, so parse_workbook_formulas
lexes every formula but parses each copy-translated shape once: the
repetition SpreadsheetML's shared formulas (<f t="shared">) store one text
for, and that TACO (Tang et al.) compresses formula graphs by. The copies
of one shape on one sheet form a formula class. A shape's number literals
are slots: "=A1+2" in B1 and "=A2+3" in B2 are one class, and each copy
keeps its own literal vector, the numbers it holds in reading order.
A copy has no tree of its own: it is read as the class tree at the
copy's offset, with the copy's literals in the slots. When the class's
first copy is parsed, one walk of its tree finds what every copy reads
of it, kept as FormulaAst.facts: its references, the ranges an aggregate
reads, whether one is anchored ($) on its own sheet, its literal vector
and the evaluator's walk. Other modules read them through facts,
references and aggregate_boxes, and move a class reference to a copy
with moved. A copy whose literals equal the class's shares its normal
form too. Every walk over a tree is a loop over its postorder, so a
formula of any length walks in one frame.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import FormulaSyntaxError, UnknownFunction, UnknownName
from .model import (CellAddress, Workbook, canonical_number, col_to_letters, letters_to_col,
                    quote_sheet)

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


@dataclass(frozen=True, slots=True)
class NumberLiteral:
    """A number; slot is its index in the formula's literal vector
    (FormulaAst.literals), which readers take a copy's value from."""

    value: float
    slot: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class TextLiteral:
    value: str


@dataclass(frozen=True, slots=True)
class BooleanLiteral:
    value: bool


@dataclass(frozen=True, slots=True)
class CellRef:
    """A single-cell reference; sheet None means the host sheet."""

    sheet: str | None
    row: int
    col: int
    abs_row: bool = False
    abs_col: bool = False


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class BinaryOp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class FunctionCall:
    name: str
    args: tuple[Expr, ...]


Expr = Union[
    NumberLiteral, TextLiteral, BooleanLiteral, CellRef, RangeRef, UnaryOp, BinaryOp, FunctionCall
]


class FormulaAst:
    """A parsed formula bound to its host cell.

    References are relative by nature; the host is what makes them concrete,
    so it travels with the tree.

    cls is the first copy of the formula's class (see
    parse_workbook_formulas), itself for a formula parsed on its own. Only
    cls holds a tree (root); a copy has none, and every reader takes the
    class tree with its relative references moved by the copy's offset and
    its number literals read from the copy's literals, the vector each
    NumberLiteral's slot indexes. cls is built from its tree, and its facts
    (see facts) are found then, its literals among them; a copy is built
    from cls and its own literals, and one equal to the class's holds the
    class's tuple. A tree built by hand numbers its slots in reading order,
    as the parser does.
    """

    __slots__ = ("source", "host", "root", "cls", "literals", "_normal", "_facts")

    def __init__(self, source: str, host: CellAddress, root: Expr | None = None,
                 cls: FormulaAst | None = None, literals: tuple[float, ...] = ()):
        self.source = source
        self.host = host
        self.root = root
        self._normal: NormalizedFormula | None = None
        if cls is None:
            self.cls = self
            self._facts = _ClassFacts(root)  # type: ignore[arg-type]
            self.literals = self._facts.literals
        else:
            self.cls = cls
            self._facts = cls._facts
            self.literals = literals

    @property
    def facts(self) -> _ClassFacts:
        """Its class's facts, found once when the class was parsed."""
        return self._facts

    @property
    def offset(self) -> tuple[int, int]:
        """How many rows down and columns right of its class's host it sits."""
        cls_host = self.cls.host
        return self.host.row - cls_host.row, self.host.col - cls_host.col

    @property
    def normal(self) -> NormalizedFormula:
        """The normal form, computed once per (class, literal vector) and
        kept with the class.

        A copy shares its class's record if it holds the class's literals,
        else the record of the first copy to ask with its literals. Where
        the class has an absolute reference on its own sheet, the distances
        depend on where the copy sits, and the copy keeps its own.
        """
        normal = self._normal
        if normal is None:
            cls, facts = self.cls, self._facts
            if self.literals is cls.literals:
                normal = normalize(self) if cls is self else cls.normal
            else:
                normal = facts.normals.get(self.literals)
                if normal is None:
                    normal = facts.normals[self.literals] = normalize(self)
            if cls is not self and facts.anchored:
                normal = dataclasses.replace(normal, **_reach(self))
            self._normal = normal
        return normal


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


def _lex(src: str, host: CellAddress) -> tuple[list[_Token], tuple, tuple[float, ...]]:
    """Lex formula source text (leading '=' required) at a host cell.

    Token offsets index into the full string. Also returns, built in the
    same pass, the formula's class key and its literal vector: the values
    of its numbers in reading order. The key is the host sheet, then each
    token's text, except that a number is a slot (None) and a reference
    gives each axis as its offset from the host, or as its coordinate
    where the axis is absolute ($). So formulas with equal keys parse to
    trees that differ only by that shift and by their literal vectors. A
    row-0 reference keeps its row, so it never keys like a valid one. A
    range's second corner adds whether the corners swap when sorted: with
    one absolute and one relative corner on an axis, that differs by host.
    """
    if not src.startswith("="):
        raise FormulaSyntaxError("formula must start with '='", 0)
    if not src[1:].strip():
        raise FormulaSyntaxError("empty formula", 1)
    tokens: list[_Token] = []
    key: list[object] = [host.sheet]
    literals: list[float] = []
    host_row, host_col = host.row, host.col
    match = _TOKEN_RE.match
    i = 1
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
        if kind == "REF":
            abs_col, letters, abs_row, digits = m.group("abs_col", "letters", "abs_row",
                                                         "digits")
            row, col = int(digits), letters_to_col(letters)
            fixed_row, fixed_col = bool(abs_row) or not row, bool(abs_col)
            key += (row if fixed_row else row - host_row,
                    col if fixed_col else col - host_col, fixed_row, fixed_col)
            # a second corner follows "REF :" or "REF : SHEET"
            k = len(tokens) - (2 if tokens and tokens[-1][0] == "SHEET" else 1)
            if k >= 1 and tokens[k][1] == ":" and tokens[k - 1][0] == "REF":
                first_row, first_col = tokens[k - 1][3][:2]  # type: ignore[index]
                key += (first_row > row, first_col > col)
            tokens.append((kind, text, i, (row, col, bool(abs_row), fixed_col)))
            i = m.end()
            continue
        if kind == "NUMBER":
            value = float(text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number {text} is out of range", i)
            literals.append(value)
            key.append(None)
        else:
            if kind == "STRING":
                value = text[1:-1].replace('""', '"')
            elif kind == "SHEET":
                value = text[1:-2].replace("''", "'") if text[0] == "'" else text[:-1]
            key.append(text)
        tokens.append((kind, text, i, value))  # type: ignore[arg-type]
        i = m.end()
    tokens.append(("EOF", "", n, None))
    return tokens, tuple(key), tuple(literals)


# --- Parser ---------------------------------------------------------------

# Deepest nesting of parentheses, function calls and unary signs a formula
# may have. Desktop spreadsheets stop function nesting at 64; the bound also
# keeps the parser, and the evaluator's walk into a taken IF branch, well
# inside Python's recursion limit.
MAX_NESTING = 64

# Binary operators by precedence level, loosest first; all left-associative.
_LEVEL = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}


class _Parser:
    """Recursive descent; it recurses only into a nesting level, so an
    operator chain of any length parses in a loop."""

    def __init__(self, tokens: list[_Token], host: CellAddress):
        self.tokens = tokens
        self.pos = 0
        self.host = host
        self.depth = 0
        self.slots = 0  # number literals so far, in reading order

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

    def parse(self) -> Expr:
        expr = self.binary(1)
        kind, text, offset, _ = self.cur
        if kind != "EOF":
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", offset)
        return expr

    def binary(self, min_level: int) -> Expr:
        """Operands joined by operators of min_level or tighter (precedence
        climbing over _LEVEL); "-2^2" is (-2)^2, since unary binds tighter."""
        left = self.unary()
        while True:
            tok = self.tokens[self.pos]
            level = _LEVEL.get(tok[1]) if tok[0] == "OP" else None
            if level is None or level < min_level:
                return left
            self.pos += 1
            left = BinaryOp(tok[1], left, self.binary(level + 1))

    def unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok[0] == "OP" and tok[1] in ("-", "+"):
            self.pos += 1
            self.nest(tok)
            operand = self.unary()
            self.depth -= 1
            return UnaryOp(tok[1], operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind, text, offset, value = tok
        self.pos += 1
        if kind == "REF":
            return self.ref_or_range(None, tok)
        if kind == "NUMBER":
            self.slots += 1
            return NumberLiteral(value, self.slots - 1)  # type: ignore[arg-type]
        if kind == "STRING":
            return TextLiteral(value)  # type: ignore[arg-type]
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
            return self.ref_or_range(value, ref)  # type: ignore[arg-type]
        if kind == "NAME":
            if self.at_op("("):
                return self.funcall(tok)
            upper = text.upper()
            if upper == "TRUE":
                return BooleanLiteral(True)
            if upper == "FALSE":
                return BooleanLiteral(False)
            raise UnknownName(f"unknown name {text!r} (named ranges are not supported)",
                              offset)
        raise FormulaSyntaxError(f"unexpected token {text or 'end'!r}", offset)

    def funcall(self, name_tok: _Token) -> Expr:
        _, text, offset, _ = name_tok
        name = text.upper()
        if name not in SUPPORTED_FUNCTIONS:
            raise UnknownFunction(f"unknown function {text!r}", offset)
        self.expect_op("(")
        self.nest(name_tok)
        args: list[Expr] = []
        if not self.at_op(")"):
            while True:
                args.append(self.binary(1))
                if not self.at_op(","):
                    break
                self.advance()
        self.expect_op(")")
        self.depth -= 1
        lo, hi = _ARITY[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            wants = f"{lo}" if hi == lo else (f"{lo}..{hi}" if hi else f">={lo}")
            raise FormulaSyntaxError(f"{name} takes {wants} argument(s), got {len(args)}", offset)
        return FunctionCall(name, tuple(args))

    def ref_or_range(self, sheet: str | None, first: _Token) -> Expr:
        r1, c1, a_r1, a_c1 = _split_ref(first)
        if self.tokens[self.pos][1] != ":":  # no token but the operator reads ":"
            return CellRef(None if sheet == self.host.sheet else sheet, r1, c1, a_r1, a_c1)
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


def _split_ref(tok: _Token) -> tuple[int, int, bool, bool]:
    _, text, offset, parts = tok
    if parts[0] == 0:  # type: ignore[index]  # rows are 1-based; row 0 never resolves
        raise FormulaSyntaxError(f"reference {text!r} names row 0", offset)
    return parts  # type: ignore[return-value]


def parse_formula(source: str, host: CellAddress) -> FormulaAst:
    """Parse formula source text (leading '=' required) at a host cell."""
    tokens, _key, _literals = _lex(source, host)
    return FormulaAst(source, host, _Parser(tokens, host).parse())


def moved(node: CellRef | RangeRef, dr: int, dc: int) -> tuple[int, int, int, int]:
    """A reference's box (r1, c1, r2, c2) in a copy dr rows down and dc
    columns right: relative axes move, absolute ones stay."""
    if type(node) is CellRef:
        row = node.row if node.abs_row else node.row + dr
        col = node.col if node.abs_col else node.col + dc
        return row, col, row, col
    return (node.r1 if node.abs_r1 else node.r1 + dr,
            node.c1 if node.abs_c1 else node.c1 + dc,
            node.r2 if node.abs_r2 else node.r2 + dr,
            node.c2 if node.abs_c2 else node.c2 + dc)


def postorder(root: Expr, branches: bool = True) -> list[Expr]:
    """Every node of a tree, each after the operands it takes, in reading order.

    The one walk over formula trees, and a loop, so a tree of any height
    walks in one frame. With branches False, an IF takes only its
    condition: its second and third arguments are left out, with all below
    them, for the evaluator to walk when it takes one.
    """
    out: list[Expr] = []  # filled in reverse: a node, then its operands right to left
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        kind = type(node)
        if kind is BinaryOp:
            stack.append(node.left)  # type: ignore[union-attr]
            stack.append(node.right)  # type: ignore[union-attr]
        elif kind is FunctionCall:
            if branches or node.name != "IF":  # type: ignore[union-attr]
                stack += node.args  # type: ignore[union-attr]
            else:
                stack.append(node.args[0])  # type: ignore[union-attr]
        elif kind is UnaryOp:
            stack.append(node.operand)  # type: ignore[union-attr]
    out.reverse()
    return out


# --- Rendering ------------------------------------------------------------

_UNARY_LEVEL = 6
_ATOM_LEVEL = 7


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


def _render_ref(node: CellRef | RangeRef, host: CellAddress, dr: int, dc: int,
                style: str) -> str:
    """A reference moved dr rows and dc columns, in A1 or host-relative R1C1
    style; a range is two corners."""
    r1, c1, r2, c2 = moved(node, dr, dc)
    prefix = "" if node.sheet is None else quote_sheet(node.sheet) + "!"
    if isinstance(node, CellRef):
        return prefix + _render_corner(r1, c1, node.abs_row, node.abs_col, host, style)
    return (prefix + _render_corner(r1, c1, node.abs_r1, node.abs_c1, host, style)
            + ":" + _render_corner(r2, c2, node.abs_r2, node.abs_c2, host, style))


def _render(nodes: list[Expr], literals: tuple[float, ...], host: CellAddress, dr: int,
            dc: int, style: str) -> str:
    """The text of a tree from its postorder, references moved dr rows and dc
    columns and number literals read from literals. Each operand's stack
    entry keeps its precedence level, so its consumer adds parentheses only
    where precedence requires them."""
    stack: list[tuple[str, int]] = []
    for node in nodes:
        if isinstance(node, BinaryOp):
            level = _LEVEL[node.op]
            right, right_level = stack.pop()
            left, left_level = stack.pop()
            if left_level < level:
                left = f"({left})"
            if right_level <= level:  # left-associative: a right operand at par groups
                right = f"({right})"
            stack.append((left + node.op + right, level))
        elif isinstance(node, UnaryOp):
            inner, inner_level = stack.pop()
            if inner_level < _UNARY_LEVEL:
                inner = f"({inner})"
            stack.append((node.op + inner, _UNARY_LEVEL))
        elif isinstance(node, FunctionCall):
            n = len(node.args)  # never 0: every function takes an argument
            args = ",".join(text for text, _level in stack[-n:])
            del stack[-n:]
            stack.append((f"{node.name}({args})", _ATOM_LEVEL))
        elif isinstance(node, NumberLiteral):
            stack.append((canonical_number(literals[node.slot]), _ATOM_LEVEL))
        elif isinstance(node, TextLiteral):
            stack.append(('"' + node.value.replace('"', '""') + '"', _ATOM_LEVEL))
        elif isinstance(node, BooleanLiteral):
            stack.append(("TRUE" if node.value else "FALSE", _ATOM_LEVEL))
        else:
            stack.append((_render_ref(node, host, dr, dc, style), _ATOM_LEVEL))
    return stack[0][0]


def render(ast: FormulaAst) -> str:
    """Render back to A1-style source. parse(render(ast)) is structurally
    equal to ast; parentheses appear only where precedence requires them."""
    return "=" + _render(postorder(ast.cls.root), ast.literals, ast.host, *ast.offset, "a1")


# --- Normal form -------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFormula:
    """Host-relative normal form and structural size of one formula.

    text is the R1C1 rendering, which copies of one formula with equal
    literals share; the literals themselves are the formula's
    FormulaAst.literals, the vector its normal form is kept under.
    token_count counts literals, references (a range is one token),
    operators, and function names; parentheses and commas do not count.
    max_ref_distance is the Chebyshev distance (max of row and column
    offsets) to the farthest referenced cell on the host sheet;
    off_axis_ref_count counts the same-sheet references sharing neither the
    host's row nor its column (a range shares one if it spans it).
    forward_refs gives the positions, in the order references() yields
    them, of the same-sheet references that reach below the host or right
    of it on its row. Cross-sheet references have no spatial distance and
    are tallied in cross_sheet_ref_count.
    """

    text: str
    token_count: int
    max_ref_distance: int
    off_axis_ref_count: int
    cross_sheet_ref_count: int
    forward_refs: tuple[int, ...]


class _ClassFacts:
    """What every copy of a class reads of its tree, found in one walk of
    the tree when the class's first copy is parsed; read as FormulaAst.facts.

    refs are the tree's references in reading order, at the class's host,
    and aggregates the ranges among them that a call to an aggregate
    function reads, at any depth below it. anchored says whether a
    reference on the class's own sheet has an absolute axis, so that the
    copies' distances differ by where they sit. literals are the class's
    own literal vector, its number literals' values in slot order, and walk
    the evaluator's walk: the tree's postorder without IF branches. normals
    holds the normal form of each literal vector but the class's own that
    a copy has asked for.
    """

    __slots__ = ("refs", "aggregates", "anchored", "literals", "walk", "normals")

    def __init__(self, root: Expr):
        nodes = postorder(root)
        refs: list[CellRef | RangeRef] = []
        read: list[bool] = []  # per reference: whether an aggregate above it reads it
        starts: list[int] = []  # per operand on the stack: its first reference's index
        literals: list[float] = []
        branched = False
        for node in nodes:
            if isinstance(node, BinaryOp):
                starts.pop()  # the left operand's start is the node's
            elif isinstance(node, FunctionCall):
                n = len(node.args)
                start = starts[-n]
                del starts[len(starts) - n + 1:]
                if node.name in AGGREGATE_FUNCTIONS:
                    read[start:] = [True] * (len(read) - start)
                branched = branched or node.name == "IF"
            elif not isinstance(node, UnaryOp):
                starts.append(len(refs))
                if isinstance(node, NumberLiteral):
                    literals.append(node.value)
                elif isinstance(node, (CellRef, RangeRef)):
                    refs.append(node)
                    read.append(False)
        self.refs = tuple(refs)
        self.aggregates = tuple(node for node, by_aggregate in zip(refs, read)
                                if by_aggregate and type(node) is RangeRef)
        self.anchored = any(
            node.sheet is None and (node.abs_row or node.abs_col
                                    if isinstance(node, CellRef)
                                    else node.abs_r1 or node.abs_c1
                                    or node.abs_r2 or node.abs_c2)
            for node in refs)
        self.literals = tuple(literals)
        self.walk = postorder(root, branches=False) if branched else nodes
        self.normals: dict[tuple[float, ...], NormalizedFormula] = {}


Box = tuple[str, int, int, int, int]


def _boxes(ast: FormulaAst, nodes: tuple[CellRef | RangeRef, ...]) -> Iterator[Box]:
    """Class references as boxes (sheet, r1, c1, r2, c2) moved to ast's
    host; an unqualified reference carries the host sheet."""
    sheet = ast.host.sheet
    dr, dc = ast.offset
    for node in nodes:
        yield (node.sheet if node.sheet is not None else sheet, *moved(node, dr, dc))


def references(ast: FormulaAst) -> Iterator[Box]:
    """Every reference of a formula as a box (sheet, r1, c1, r2, c2).

    Reading order; a cell reference is a 1x1 box: the class's references,
    found when the class was parsed, moved to the host. graph.precedents_of,
    which the dependency graph and the evaluator's ordering both take their
    edges from, reads them.
    """
    return _boxes(ast, ast.facts.refs)


def aggregate_boxes(ast: FormulaAst) -> Iterator[Box]:
    """Boxes of the ranges an aggregate of a formula reads, in reading
    order: its class's, found when the class was parsed, moved to the host."""
    return _boxes(ast, ast.facts.aggregates)


def _reach(ast: FormulaAst) -> dict[str, object]:
    """The NormalizedFormula fields that depend on where ast's host is."""
    host = ast.host
    max_dist = 0
    off_axis = 0
    forward: list[int] = []
    cross = 0
    for i, (sheet, r1, c1, r2, c2) in enumerate(references(ast)):
        if sheet != host.sheet:
            cross += 1
            continue
        max_dist = max(max_dist, abs(r1 - host.row), abs(r2 - host.row),
                       abs(c1 - host.col), abs(c2 - host.col))
        if not r1 <= host.row <= r2 and not c1 <= host.col <= c2:
            off_axis += 1
        if r2 > host.row or (r1 <= host.row <= r2 and c2 > host.col):
            forward.append(i)
    return {"max_ref_distance": max_dist, "off_axis_ref_count": off_axis,
            "cross_sheet_ref_count": cross, "forward_refs": tuple(forward)}


def normalize(ast: FormulaAst) -> NormalizedFormula:
    """The normal form of a formula; read it as ast.normal, which keeps it.

    A copy's R1C1 text is its class's with its own literals: relative parts
    are offsets from the host, which the copy shares, and absolute parts do
    not move.
    """
    cls = ast.cls
    nodes = postorder(cls.root)  # every node is one counted token; parens and commas are not
    return NormalizedFormula(
        text="=" + _render(nodes, ast.literals, cls.host, 0, 0, "r1c1"),
        token_count=len(nodes),
        **_reach(ast),  # type: ignore[arg-type]
    )


def parse_workbook_formulas(wb: Workbook) -> dict[CellAddress, FormulaAst]:
    """Parse every formula cell; syntax errors name the failing cell.

    Each formula is lexed, and keyed by its class as it is (see _lex). The
    parser runs once per class, on its first copy in reading order, and
    every later copy is bound to that copy with its own literal vector, or
    the class's tuple where they are equal. Copies parse alike, so the
    first cell with a syntax error is the one a parse of every cell would
    stop at.
    """
    out: dict[CellAddress, FormulaAst] = {}
    classes: dict[tuple, FormulaAst] = {}
    for addr, content in wb.formula_cells():
        source: str = content.formula  # type: ignore[assignment]
        try:
            tokens, key, literals = _lex(source, addr)
            cls = classes.get(key)
            if cls is None:
                ast = classes[key] = FormulaAst(source, addr, _Parser(tokens, addr).parse())
            else:
                if literals == cls.literals:
                    literals = cls.literals
                ast = FormulaAst(source, addr, None, cls, literals)
        except FormulaSyntaxError as exc:
            wrapped = type(exc)(f"{addr.qualified}: {exc}")
            wrapped.offset = exc.offset
            raise wrapped from None
        out[addr] = ast
    return out


def unique_formula_count(wb: Workbook,
                         asts: dict[CellAddress, FormulaAst] | None = None) -> int:
    """Number of distinct (sheet, normal form) formulas in the workbook.

    Copies pasted down a column count once, unless their literals differ;
    the same shape on two sheets counts per sheet. Read over one copy of
    each (class, literal vector), the unit a normal form is computed for.
    """
    if asts is None:
        asts = parse_workbook_formulas(wb)
    firsts: dict[tuple[FormulaAst, tuple[float, ...]], FormulaAst] = {}
    for ast in asts.values():
        firsts.setdefault((ast.cls, ast.literals), ast)
    return len({(ast.host.sheet, ast.normal.text) for ast in firsts.values()})
