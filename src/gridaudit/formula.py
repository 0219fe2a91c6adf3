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
in B2) share one normal form ("=RC[-1]*2"). NormalizedFormula keeps what
a copy's literals or position change: that text and its reach. No stage
renders a text per copy: a class renders its shape once, its text with a
slot per number literal, and a copy's key, (shape, literal vector), stands
for its text where forms are compared. A class finds its reach once, a
copy its own only where the class has an absolute reference on its sheet.

A workbook is mostly runs of copies of a few shapes: the repetition
SpreadsheetML's shared formulas (<f t="shared">) store one text for, and
that TACO (Tang et al.) compresses formula graphs by. The copies of one
shape on one sheet form a formula class. parse_workbook_formulas reads a
formula first as a copy of a neighbour's class, above it or before it,
with one match of that class's copy pattern; failing that, it lexes the
formula for its class key and literals alone, and builds tokens for and
parses only a new key. A shape's number literals are slots: "=A1+2" in
B1 and "=A2+3" in B2 are one class, and each copy keeps its own literal
vector, the numbers it holds in reading order.
A copy has no tree of its own: it is read as the class tree at the
copy's offset, with the copy's literals in the slots. When the class's
first copy is parsed, one walk of its tree finds what no copy can change,
kept as FormulaAst.facts: its postorder, its token count (literals,
references, operators and function names), its references and the
sheets of those that are cross-sheet, the ranges an aggregate reads,
whether a reference is anchored ($) on its own sheet, and its literal
vector. Other modules read them through facts, references and
aggregate_boxes, and move a class reference to a copy with moved; the
evaluator compiles the class tree into one kernel per plan. A copy whose
literals equal the class's shares its normal form too. Every walk over a
tree is a loop over its postorder, so a formula of any length walks in
one frame.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Iterator, NamedTuple, Union

from .errors import FormulaSyntaxError, UnknownFunction, UnknownName
from .model import (CellAddress, Frozen, Workbook, canonical_number, col_to_letters,
                    letters_to_col, quote_sheet)

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


# Each node is immutable, and equal only to a node of its own class with
# equal fields. A number is a slotted record, equal by value alone; the
# others are tuples, each a NamedTuple of its fields under _Node.


class NumberLiteral(Frozen):
    """A number; slot is its index in the formula's literal vector
    (FormulaAst.literals), which readers take a copy's value from. Two are
    equal when their values are, whatever their slots."""

    __slots__ = ("value", "slot")
    _fields = __slots__

    def __init__(self, value: float, slot: int = 0) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "slot", slot)

    def _key(self) -> tuple[object, ...]:
        return (self.value,)


class _Node:
    """Base, before its NamedTuple, of every other node: equal fields make
    equal nodes only within one class, and no node equals a plain tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)  # type: ignore[arg-type]

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class _TextFields(NamedTuple):
    value: str


class TextLiteral(_Node, _TextFields):
    __slots__ = ()


class _BooleanFields(NamedTuple):
    value: bool


class BooleanLiteral(_Node, _BooleanFields):
    __slots__ = ()


class _CellRefFields(NamedTuple):
    sheet: str | None
    row: int
    col: int
    abs_row: bool = False
    abs_col: bool = False


class CellRef(_Node, _CellRefFields):
    """A single-cell reference; sheet None means the host sheet."""

    __slots__ = ()


class _RangeRefFields(NamedTuple):
    sheet: str | None
    r1: int
    c1: int
    r2: int
    c2: int
    abs_r1: bool = False
    abs_c1: bool = False
    abs_r2: bool = False
    abs_c2: bool = False


class RangeRef(_Node, _RangeRefFields):
    """A rectangular range; corners are normalized so r1 <= r2, c1 <= c2."""

    __slots__ = ()


class _UnaryFields(NamedTuple):
    op: str
    operand: Expr


class UnaryOp(_Node, _UnaryFields):
    __slots__ = ()


class _BinaryFields(NamedTuple):
    op: str
    left: Expr
    right: Expr


class BinaryOp(_Node, _BinaryFields):
    __slots__ = ()


class _CallFields(NamedTuple):
    name: str
    args: tuple[Expr, ...]


class FunctionCall(_Node, _CallFields):
    __slots__ = ()


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

    __slots__ = ("source", "host", "cls", "literals", "_facts")

    def __init__(self, source: str, host: CellAddress, root: Expr | None = None,
                 cls: FormulaAst | None = None, literals: tuple[float, ...] = ()):
        self.source = source
        self.host = host
        if cls is None:
            self.cls = self
            self._facts = _ClassFacts(root)  # type: ignore[arg-type]
            self.literals = self._facts.literals
        else:
            self.cls = cls
            self._facts = cls._facts
            self.literals = literals

    @property
    def root(self) -> Expr | None:
        """The class's tree, the last node of its kept postorder; None for a
        copy. Read from the facts, since a slot would cost every formula 16
        bytes."""
        return self._facts.nodes[-1] if self.cls is self else None

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
    def key(self) -> tuple[str, tuple[float, ...]]:
        """(shape, literal vector), equal exactly where normal texts are: the
        shape, the class's R1C1 text with a slot (#) per number literal, is
        text, not the class ("=sum(A1)" and "=SUM(A1)" share a text)."""
        facts = self._facts
        facts.shape = facts.shape or _render(facts.nodes, None, self.cls.host, 0, 0, "r1c1")
        return facts.shape, self.literals

    @property
    def reach(self) -> tuple[int, int, tuple[int, ...]]:
        """Its _reach: the class's, kept at the first read, or the copy's
        own where the class is anchored."""
        facts = self._facts
        if facts.reach is None and not facts.anchored:
            facts.reach = _reach(self.cls)
        return _reach(self) if facts.anchored else facts.reach

    @property
    def normal(self) -> NormalizedFormula:
        """The normal form; the class's is kept at the first read, and the
        copies holding its literals share its text."""
        if self.literals is not self.cls.literals:
            return normalize(self)
        facts = self._facts
        facts.normal = facts.normal or normalize(self.cls)
        return NormalizedFormula(facts.normal.text, *self.reach[:2])


# --- Lexer ----------------------------------------------------------------

# A reference's four groups ($, column letters, $, row digits), and a
# number: the lexer's alternatives below and a class's copy pattern
# (_CopyPattern) are built from them.
_REF_RE = r"(\$?)([A-Za-z]{1,3})(\$?)([0-9]{1,7})(?![A-Za-z0-9_$(])"
_NUMBER_RE = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# One alternation, tried in this order at each position. A string ends at
# the first quote not followed by another, so an unterminated one matches
# nothing (the lookahead keeps it from ending inside a "" escape). A
# reference's groups are 6 to 9.
_TOKEN_RE = re.compile(rf"""
    (?P<SPACE>[ \t]+)
  | (?P<STRING>"(?:[^"]|"")*"(?!"))
  | (?P<NUMBER>{_NUMBER_RE})
  | (?P<SHEET>(?:[A-Za-z_][A-Za-z0-9_]*|'(?:[^']|'')+')!)
  | (?P<REF>{_REF_RE})
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<OP><=|>=|<>|[=<>&+\-*/^(),:])
""", re.VERBOSE)

# A token is (kind, text, offset, value): kind is a group name above or
# EOF; value is the number, the unescaped text, the unquoted sheet name,
# a reference's (row, col, abs_row, abs_col), or None.
_Token = tuple[str, str, int, Union[float, str, tuple[int, int, bool, bool], None]]


def _ref_key(groups: tuple[str, ...], host_row: int, host_col: int,
             corner: tuple[int, int] | None) -> tuple[int, int, tuple]:
    """A reference's row, column and piece of its formula's class key, from
    its four REF groups at a host.

    The piece gives each axis as its offset from the host, or as its
    coordinate where the axis is absolute ($), then whether each axis is
    fixed. A row-0 reference keeps its row, so it never keys like a valid
    one. A range's second corner (corner is the first's row and column)
    adds whether the corners swap when sorted: with one absolute and one
    relative corner on an axis, that differs by host.
    """
    abs_col, letters, abs_row, digits = groups
    row, col = int(digits), letters_to_col(letters)
    fixed_row = bool(abs_row) or not row
    piece = (row if fixed_row else row - host_row, col if abs_col else col - host_col,
             fixed_row, bool(abs_col))
    if corner is not None:
        piece += (corner[0] > row, corner[1] > col)
    return row, col, piece


def _lex(src: str, host: CellAddress, tokens: list[_Token] | None = None
         ) -> tuple[tuple, tuple[float, ...]]:
    """Lex formula source text (leading '=' required) at a host cell.

    Returns the formula's class key and its literal vector: the values of
    its numbers in reading order. With a tokens list, it also appends the
    tokens, then EOF, for the parser; token offsets index into the full
    string. Without one it builds no token, and fails at the same offset
    with the same error.

    The key is the host sheet, then each token's text, except that a
    number is a slot (None) and a reference gives its piece (_ref_key): a
    range's second corner is a reference after "REF :" or "REF : SHEET".
    So formulas with equal keys parse to trees that differ only by a shift
    and by their literal vectors.
    """
    if not src.startswith("="):
        raise FormulaSyntaxError("formula must start with '='", 0)
    if not src[1:].strip():
        raise FormulaSyntaxError("empty formula", 1)
    key: list[object] = [host.sheet]
    literals: list[float] = []
    host_row, host_col = host.row, host.col
    match = _TOKEN_RE.match
    corner = (0, 0)  # the last reference's (row, col)
    colon = 0  # 1 after "REF", 2 after "REF :", 3 after "REF : SHEET"
    i = 1
    n = len(src)
    while i < n:
        m = match(src, i)
        if m is None:
            if src[i] == '"':
                raise FormulaSyntaxError("unterminated string", i)
            raise FormulaSyntaxError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        if kind == "SPACE":
            i = m.end()
            continue
        if kind == "REF":
            groups = m.group(6, 7, 8, 9)
            row, col, piece = _ref_key(groups, host_row, host_col,
                                       corner if colon >= 2 else None)
            key += piece
            corner, colon = (row, col), 1
            if tokens is not None:
                tokens.append((kind, m.group(), i, (row, col, bool(groups[2]), bool(groups[0]))))
            i = m.end()
            continue
        text = m.group()
        value: float | str | None = None
        if kind == "NUMBER":
            value = float(text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number {text} is out of range", i)
            literals.append(value)
            key.append(None)
            colon = 0
        else:
            key.append(text)
            colon = (2 if colon == 1 and text == ":" else
                     3 if colon == 2 and kind == "SHEET" else 0)
            if kind == "STRING":
                value = text[1:-1].replace('""', '"')
            elif kind == "SHEET":
                value = text[1:-2].replace("''", "'") if text[0] == "'" else text[:-1]
        if tokens is not None:
            tokens.append((kind, text, i, value))
        i = m.end()
    if tokens is not None:
        tokens.append(("EOF", "", n, None))
    return tuple(key), tuple(literals)


# --- Parser ---------------------------------------------------------------

# Deepest nesting of parentheses, function calls and unary signs a formula
# may have. Desktop spreadsheets stop function nesting at 64; the bound also
# keeps the parser, and the evaluator's kernels, built and run, well inside
# Python's recursion limit.
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
    tokens: list[_Token] = []
    _lex(source, host, tokens)
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


def postorder(root: Expr) -> list[Expr]:
    """Every node of a tree, each after the operands it takes, in reading order.

    The one walk over formula trees, and a loop, so a tree of any height
    walks in one frame.
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
            stack += node.args  # type: ignore[union-attr]
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


def _render(nodes: list[Expr], literals: tuple[float, ...] | None, host: CellAddress,
            dr: int, dc: int, style: str) -> str:
    """The text of a tree from its postorder, references moved dr rows and dc
    columns and number literals read from literals (a slot, #, for None).
    Each operand's stack entry keeps its precedence level, so its consumer
    adds parentheses only where precedence requires them, and its pieces,
    which an operator extends and the end joins: linear in the text."""
    stack: list[tuple[list[str], int]] = []
    for node in nodes:
        if isinstance(node, BinaryOp):
            level = _LEVEL[node.op]
            right, right_level = stack.pop()
            left, left_level = stack.pop()
            if left_level < level:
                left = ["(", *left, ")"]
            if right_level <= level:  # left-associative: a right operand at par groups
                right = ["(", *right, ")"]
            left += [node.op, *right]
            stack.append((left, level))
        elif isinstance(node, UnaryOp):
            inner, inner_level = stack.pop()
            if inner_level < _UNARY_LEVEL:
                inner = ["(", *inner, ")"]
            stack.append(([node.op, *inner], _UNARY_LEVEL))
        elif isinstance(node, FunctionCall):
            n = len(node.args)  # never 0: every function takes an argument
            args = ",".join("".join(pieces) for pieces, _level in stack[-n:])
            del stack[-n:]
            stack.append(([f"{node.name}({args})"], _ATOM_LEVEL))
        elif isinstance(node, NumberLiteral):
            stack.append((["#" if literals is None else canonical_number(literals[node.slot])],
                          _ATOM_LEVEL))
        elif isinstance(node, TextLiteral):
            stack.append((['"' + node.value.replace('"', '""') + '"'], _ATOM_LEVEL))
        elif isinstance(node, BooleanLiteral):
            stack.append((["TRUE" if node.value else "FALSE"], _ATOM_LEVEL))
        else:
            stack.append(([_render_ref(node, host, dr, dc, style)], _ATOM_LEVEL))
    return "".join(stack[0][0])


def render(ast: FormulaAst) -> str:
    """Render back to A1-style source. parse(render(ast)) is structurally
    equal to ast; parentheses appear only where precedence requires them."""
    return "=" + _render(ast.facts.nodes, ast.literals, ast.host, *ast.offset, "a1")


# --- Normal form -------------------------------------------------------------


class NormalizedFormula(NamedTuple):
    """Host-relative normal form of one formula, what a copy's literals or
    position change (its class's share is in _ClassFacts): its R1C1 text,
    shared by copies with equal literals, and its _reach's first two fields."""

    text: str
    max_ref_distance: int
    off_axis_ref_count: int


class _ClassFacts:
    """What no copy of a class can change, found in one walk of the tree
    when the class's first copy is parsed; read as FormulaAst.facts.

    nodes is the tree's postorder, which rendering and normalizing read,
    and token_count its length: literals, references (a range is one
    token), operators and function names; parentheses and commas do not
    count. refs are the tree's references in reading order, at the class's
    host, and aggregates the ranges among them that a call to an aggregate
    function reads, at any depth below it. cross_sheet_count counts the
    references to other sheets, and cross_sheets names those sheets,
    sorted. anchored says whether a reference on the class's own sheet has
    an absolute axis, so that the copies' distances differ by where they
    sit. literals are the class's own literal vector, its number literals'
    values in slot order. The evaluator needs only the tree: it compiles
    it into the class's kernel (engine.EvalPlan), once per plan; shape,
    reach and normal keep what FormulaAst.key, reach and normal find.
    """

    __slots__ = ("nodes", "token_count", "refs", "aggregates", "cross_sheet_count",
                 "cross_sheets", "anchored", "literals", "shape", "reach", "normal")

    def __init__(self, root: Expr):
        nodes = postorder(root)
        refs: list[CellRef | RangeRef] = []
        read: list[bool] = []  # per reference: whether an aggregate above it reads it
        starts: list[int] = []  # per operand on the stack: its first reference's index
        literals: list[float] = []
        for node in nodes:
            if isinstance(node, BinaryOp):
                starts.pop()  # the left operand's start is the node's
            elif isinstance(node, FunctionCall):
                n = len(node.args)
                start = starts[-n]
                del starts[len(starts) - n + 1:]
                if node.name in AGGREGATE_FUNCTIONS:
                    read[start:] = [True] * (len(read) - start)
            elif not isinstance(node, UnaryOp):
                starts.append(len(refs))
                if isinstance(node, NumberLiteral):
                    literals.append(node.value)
                elif isinstance(node, (CellRef, RangeRef)):
                    refs.append(node)
                    read.append(False)
        self.nodes = nodes
        self.token_count = len(nodes)
        self.refs = tuple(refs)
        self.aggregates = tuple(node for node, by_aggregate in zip(refs, read)
                                if by_aggregate and type(node) is RangeRef)
        # a reference on the host sheet has sheet None (the parser drops the qualifier)
        cross = [node.sheet for node in refs if node.sheet is not None]
        self.cross_sheet_count = len(cross)
        self.cross_sheets = tuple(sorted(set(cross)))
        self.anchored = any(
            node.sheet is None and (node.abs_row or node.abs_col
                                    if isinstance(node, CellRef)
                                    else node.abs_r1 or node.abs_c1
                                    or node.abs_r2 or node.abs_c2)
            for node in refs)
        self.literals = tuple(literals)
        self.shape = self.reach = self.normal = None


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
    found when the class was parsed, moved to the host.
    """
    return _boxes(ast, ast.facts.refs)


def aggregate_boxes(ast: FormulaAst) -> Iterator[Box]:
    """Boxes of the ranges an aggregate of a formula reads, in reading
    order: its class's, found when the class was parsed, moved to the host."""
    return _boxes(ast, ast.facts.aggregates)


def _reach(ast: FormulaAst) -> tuple[int, int, tuple[int, ...]]:
    """What depends on where ast's host is: the Chebyshev distance (max of
    row and column offsets) to the farthest referenced cell on the host
    sheet; how many same-sheet references share neither the host's row nor
    its column (a range shares one if it spans it); and the positions, in
    the order references() yields them, of the same-sheet references that
    reach below the host or right of it on its row."""
    host = ast.host
    max_dist = 0
    off_axis = 0
    forward: list[int] = []
    for i, (sheet, r1, c1, r2, c2) in enumerate(references(ast)):
        if sheet != host.sheet:
            continue
        max_dist = max(max_dist, abs(r1 - host.row), abs(r2 - host.row),
                       abs(c1 - host.col), abs(c2 - host.col))
        if not r1 <= host.row <= r2 and not c1 <= host.col <= c2:
            off_axis += 1
        if r2 > host.row or (r1 <= host.row <= r2 and c2 > host.col):
            forward.append(i)
    return max_dist, off_axis, tuple(forward)


def normalize(ast: FormulaAst) -> NormalizedFormula:
    """The normal form of a formula, its text rendered at each call.

    A copy's R1C1 text is its class's shape (see FormulaAst.key) with its
    own literals in the slots: relative parts are offsets from the host,
    which the copy shares, and absolute parts do not move. Its reach is
    read as ast.reach.
    """
    text = "=" + _render(ast.facts.nodes, ast.literals, ast.cls.host, 0, 0, "r1c1")
    return NormalizedFormula(text, *ast.reach[:2])


class _CopyPattern:
    """A formula class as parse_workbook_formulas reads its copies.

    Nothing is compiled until the class's second copy is found by its key
    (compile). Then the class's first copy is lexed again, and its text
    becomes one pattern: each reference is the lexer's REF groups, each
    number a NUMBER group, every other token its own text, with blanks
    allowed between tokens. A text that fullmatches splits into the tokens
    _lex would give it (the class parsed, so no two of its tokens could
    lex as one), and it is a copy where each reference's key piece equals
    the class's and each number is finite. refs holds, per group run, the
    class's piece for a reference and None for a number.
    """

    __slots__ = ("cls", "fullmatch", "refs")

    def __init__(self, cls: FormulaAst):
        self.cls = cls
        self.fullmatch = None
        self.refs: tuple[tuple | None, ...] = ()

    def compile(self) -> None:
        tokens: list[_Token] = []
        cls = self.cls
        key = _lex(cls.source, cls.host, tokens)[0]
        parts = ["="]
        refs: list[tuple | None] = []
        k = 1  # the key's item for the token at hand
        for kind, text, _, _ in tokens[:-1]:  # not EOF
            if kind == "REF":
                # four items, six for a range's second corner, whose swap
                # flags are the only bools after a reference's four
                end = k + 6 if k + 4 < len(key) and type(key[k + 4]) is bool else k + 4
                refs.append(key[k:end])
                k = end
                parts.append(_REF_RE)
                continue
            k += 1
            if kind == "NUMBER":
                refs.append(None)
                parts.append(f"({_NUMBER_RE})")
            else:
                parts.append(re.escape(text))
        self.fullmatch = re.compile("[ \t]*".join(parts) + "[ \t]*").fullmatch
        self.refs = tuple(refs)

    def copy(self, source: str, host: CellAddress) -> FormulaAst | None:
        """source at host as a copy of the class, or None where the pattern
        is not compiled or does not take it (_lex then decides)."""
        fullmatch = self.fullmatch
        m = fullmatch(source) if fullmatch is not None else None
        if m is None:
            return None
        groups = m.groups()
        literals: list[float] = []
        host_row, host_col = host.row, host.col
        corner = None
        i = 0
        for want in self.refs:
            if want is None:
                value = float(groups[i])
                if not math.isfinite(value):
                    return None
                literals.append(value)
                i += 1
                continue
            row, col, piece = _ref_key(groups[i:i + 4], host_row, host_col,
                                       corner if len(want) == 6 else None)
            if piece != want:
                return None
            corner = (row, col)
            i += 4
        cls = self.cls
        values = tuple(literals)
        return FormulaAst(source, host, None, cls,
                          cls.literals if values == cls.literals else values)


def parse_workbook_formulas(wb: Workbook) -> dict[CellAddress, FormulaAst]:
    """Parse every formula cell; syntax errors name the failing cell.

    A workbook is mostly runs of copies, so each formula is first tried as
    a copy of a neighbour's class: of the last formula above it in its
    column, then before it in its row, then of the class before each of
    those, each with one call of that class's copy pattern (_CopyPattern).
    Any other formula is lexed for its class key and literal vector only
    (see _lex). A formula whose key is new is lexed again, into tokens,
    and parsed: the parser runs once per class, on its first copy in
    reading order. A known key is a copy, and its class compiles its
    pattern at the second copy. Every copy is bound to its class's first
    copy with its own literal vector, or the class's tuple where they are
    equal. A pattern takes only what _lex would key as the class, and the
    key-only lex fails where the full one does, so the first cell with a
    syntax error is the one a parse of every cell would stop at, with the
    same message and offset.
    """
    out: dict[CellAddress, FormulaAst] = {}
    classes: dict[tuple, _CopyPattern] = {}
    for sheet in wb.sheets:  # wb.formula_cells()'s order, without its generators
        # The classes of the last two formulas, told apart, above in each
        # column and before in the row: a run of copies resumes after a
        # formula of another class, and two classes may alternate.
        above: dict[int, _CopyPattern] = {}
        above2: dict[int, _CopyPattern | None] = {}
        row = 0
        left = left2 = None
        for addr, content in sheet.reading_order:
            source = content.formula
            if source is None:
                continue
            if addr.row != row:
                row, left, left2 = addr.row, None, None
            col = addr.col
            up = pattern = above.get(col)
            ast = pattern.copy(source, addr) if pattern is not None else None
            if ast is None:
                for pattern in (left, above2.get(col), left2):
                    if pattern is not None and (ast := pattern.copy(source, addr)) is not None:
                        break
                else:
                    try:
                        key, literals = _lex(source, addr)
                        pattern = classes.get(key)
                        if pattern is None:
                            tokens: list[_Token] = []
                            _lex(source, addr, tokens)
                            ast = FormulaAst(source, addr, _Parser(tokens, addr).parse())
                            pattern = classes[key] = _CopyPattern(ast)
                        else:
                            if pattern.fullmatch is None:
                                pattern.compile()
                            cls = pattern.cls
                            if literals == cls.literals:
                                literals = cls.literals
                            ast = FormulaAst(source, addr, None, cls, literals)
                    except FormulaSyntaxError as exc:
                        wrapped = type(exc)(f"{addr.qualified}: {exc}")
                        wrapped.offset = exc.offset
                        raise wrapped from None
                if pattern is not up:
                    above[col], above2[col] = pattern, up  # type: ignore[assignment]
            if pattern is not left:
                left2, left = left, pattern
            out[addr] = ast
    return out


def unique_formula_count(wb: Workbook,
                         asts: dict[CellAddress, FormulaAst] | None = None) -> int:
    """Number of distinct (sheet, normal form) formulas in the workbook.

    Copies pasted down a column count once, unless their literals differ;
    the same shape on two sheets counts per sheet. Counted as distinct
    (sheet, shape, literal vector), the key (FormulaAst.key) standing for
    the text, over the (class, literal vector) pairs: no text is rendered.
    """
    if asts is None:
        asts = parse_workbook_formulas(wb)
    vectors: dict[FormulaAst, set[tuple[float, ...]]] = defaultdict(set)
    for ast in asts.values():
        vectors[ast.cls].add(ast.literals)
    forms: dict[tuple[str, str], set[tuple[float, ...]]] = defaultdict(set)
    for cls, of_class in vectors.items():
        forms[cls.host.sheet, cls.key[0]] |= of_class
    return sum(map(len, forms.values()))
