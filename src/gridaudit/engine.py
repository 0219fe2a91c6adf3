"""Deterministic workbook evaluation, snapshots, and recheck.

Semantics are pinned down so audits are reproducible; where desktop
spreadsheets disagree with each other, the choice here is documented and
tested rather than left to chance:

* Scalar operators coerce: numeric-looking text becomes a number, booleans
  become 1/0, empty cells become 0; non-numeric text is #VALUE!. This is the
  asymmetry that makes number-stored-as-text dangerous, and it is modeled
  on purpose.
* Aggregates (SUM AVERAGE MIN MAX COUNT) skip text, booleans, and empties
  in referenced cells and ranges, but coerce typed (literal) arguments like
  operators do. Error values are never skipped: an error inside a summed
  range poisons the aggregate, COUNT included.
* A constant number cell marked fmt:"text" behaves as its text rendering;
  operators still coerce it back, aggregates skip it.
* Errors are values: #DIV/0!, #VALUE!, #REF! (reference beyond the grid or
  to a missing sheet; a range with a corner beyond the grid is one #REF!
  and reads no cell, so it is never a cycle edge), #CYCLE! (every cell on a
  reference cycle). Errors propagate through anything that consumes them.
* IF evaluates only the taken branch; AND/OR evaluate all arguments and
  take scalars only. ROUND rounds half away from zero. "^" on a negative
  base with a fractional exponent is #VALUE!; 0^0 is 1; 0^negative is
  #DIV/0!. Overflow to infinity reports #VALUE!, in SUM, AVERAGE and
  ROUND too; numeric text beyond float range (such as "1e400") is not
  numeric.
* Comparisons order mixed types as number < text < logical, compare text
  case-insensitively, and coerce an empty operand to the other side's type.

Evaluation is non-recursive over the dependency structure: its order is
graph.condense's, reading order if each formula reads only earlier cells,
else a Tarjan pass over precedents, with every cycle's cells put aside.
Ten-thousand-cell chains evaluate without blowing the stack. Each formula
is one call of its class's kernel: a closure per node of the class tree,
built by the plan at the first copy it evaluates (the formula compilation
of Sestoft's Spreadsheet Implementation Technology), and called with the
copy's host cell and literal vector, which each literal's slot indexes.
Copies differ only there, so a class is compiled once however many copies
it has. A left spine of binary operators is one loop in one closure, so a
sum of thousands of terms evaluates in one frame, and a kernel's depth is
bounded by the formula's nesting (formula.MAX_NESTING). IF evaluates only
the branch it takes.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
from typing import Any, Callable, Iterator, NamedTuple, Union

from .errors import (
    MalformedDocument,
    MissingInputCell,
    NoDeclaredOutputs,
    OutputIsError,
)
from .graph import DepGraph, SheetIndex, condense, precedents_of, sheet_indexes
from .formula import (
    BinaryOp,
    CellRef,
    Expr,
    FormulaAst,
    FunctionCall,
    NumberLiteral,
    RangeRef,
    UnaryOp,
    canonical_number,
    moved,
    parse_workbook_formulas,
)
from .model import (
    MAX_COL,
    MAX_ROW,
    CellAddress,
    CellContent,
    Constant,
    Workbook,
    decode_json,
    parse_numeric_text,
    parse_qualified,
)


class ErrorValue(NamedTuple):
    code: str

    def __str__(self) -> str:
        return self.code


DIV0 = ErrorValue("#DIV/0!")
VALUE_ERR = ErrorValue("#VALUE!")
REF_ERR = ErrorValue("#REF!")
CYCLE_ERR = ErrorValue("#CYCLE!")

Value = Union[float, str, bool, ErrorValue]

def effective_constant(content: CellContent) -> Value:
    """The value a constant cell presents to the evaluator.

    fmt:"text" on a number makes the cell a text cell holding the rendered
    number; that is the whole mechanism the number-as-text rule audits.
    """
    v = content.value
    if isinstance(v, bool) or isinstance(v, str):
        return v
    assert isinstance(v, float)
    if content.number_format == "text":
        return canonical_number(v)
    return v


class _Err(Exception):
    """Internal control flow: carries an error value up to the cell boundary."""

    def __init__(self, error: ErrorValue):
        self.error = error


def value_to_json(v: Value) -> Any:
    if isinstance(v, ErrorValue):
        return {"error": v.code}
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        if v == int(v) and abs(v) <= 2**53:
            return int(v)
        return v
    return v


def value_from_json(raw: Any) -> Value:
    if isinstance(raw, dict):
        code = raw.get("error")
        if not isinstance(code, str):
            raise MalformedDocument(f"bad value entry: {raw!r}")
        return ErrorValue(code)
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            raise MalformedDocument("number too large for a float in a snapshot") from None
        if not math.isfinite(value):  # Infinity would match any number in recheck
            raise MalformedDocument(f"non-finite number in a snapshot: {value}")
        return value
    if isinstance(raw, str):
        return raw
    raise MalformedDocument(f"bad value entry: {raw!r}")


# --- evaluator ---------------------------------------------------------------


# A kernel evaluates the copies of one formula class, and so does each
# closure it is built from, for its node of the class tree. Each takes the
# value map, a copy's literal vector and its host cell's (sheet, row, col),
# and gives the node's scalar value in that copy: None for an empty cell,
# and an error is raised as _Err.
_Read = Callable[[dict, tuple, str, int, int], Any]


def resolve_cell(values: dict[CellAddress, Value], indexes: dict[str, SheetIndex],
                 sheet: str, row: int, col: int) -> Value | None:
    """A referenced cell's value, None when empty: a reference beyond the
    grid or to a missing sheet is #REF!, and the cell's error is raised."""
    if row > MAX_ROW or col > MAX_COL or sheet not in indexes:
        raise _Err(REF_ERR)
    v = values.get((sheet, row, col))  # equals its CellAddress
    if type(v) is ErrorValue:
        raise _Err(v)
    return v


def iter_range(values: dict[CellAddress, Value], indexes: dict[str, SheetIndex],
               sheet: str, r1: int, c1: int, r2: int, c2: int) -> Iterator[Value]:
    """The values of a range's occupied cells in reading order: a corner
    beyond the grid or a missing sheet is #REF!, and a cell's error is
    raised."""
    if r2 > MAX_ROW or c2 > MAX_COL:
        raise _Err(REF_ERR)
    index = indexes.get(sheet)
    if index is None:
        raise _Err(REF_ERR)
    for addr in index.iter_box(r1, c1, r2, c2):
        v = values[addr]
        if type(v) is ErrorValue:
            raise _Err(v)
        yield v


# -- coercions of a scalar (None is an empty cell)


def as_number(v: Value | None) -> float:
    if isinstance(v, float):
        return v
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if v is None:
        return 0.0
    parsed = parse_numeric_text(v)  # type: ignore[arg-type]
    if parsed is None:
        raise _Err(VALUE_ERR)
    return parsed


def as_text(v: Value | None) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return canonical_number(v)
    return v  # type: ignore[return-value]


def as_logical(v: Value | None) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return v != 0.0
    if v is None:
        return False
    s = v.strip().upper()  # type: ignore[union-attr]
    if s == "TRUE":
        return True
    if s == "FALSE":
        return False
    raise _Err(VALUE_ERR)


# -- aggregates

_CELL, _RANGE, _TYPED = 0, 1, 2  # how an aggregate reads an argument


def gather(args: list[tuple[int, _Read]], counting: bool,
           values: dict[CellAddress, Value], lits: tuple[float, ...], sheet: str,
           row: int, col: int) -> list[float]:
    """Numeric stream feeding an aggregate, its arguments read in order.

    Referenced cells/ranges contribute plain numbers only (text,
    booleans, empties skipped); typed arguments coerce, except that
    COUNT just declines to count a non-numeric typed argument.
    """
    out: list[float] = []
    for how, read in args:
        if how == _RANGE:
            out += [v for v in read(values, lits, sheet, row, col) if type(v) is float]
        elif how == _CELL:
            v = read(values, lits, sheet, row, col)
            if type(v) is float:
                out.append(v)
        elif counting:
            coerced = _soft_number(read(values, lits, sheet, row, col))
            if coerced is not None:
                out.append(coerced)
        else:
            out.append(as_number(read(values, lits, sheet, row, col)))
    return out


def aggregate(name: str, nums: list[float]) -> Value:
    if name == "COUNT":
        return float(len(nums))
    if name in ("SUM", "AVERAGE"):
        try:
            total = math.fsum(nums)
        except OverflowError:  # finite numbers, total beyond float range
            raise _Err(VALUE_ERR) from None
        if name == "SUM":
            return total
        if not nums:
            raise _Err(DIV0)
        return total / len(nums)
    if name == "MIN":
        return min(nums) if nums else 0.0
    if name == "MAX":
        return max(nums) if nums else 0.0
    raise TypeError(f"unknown aggregate {name!r}")


# -- kernels

_ARITH, _CONCAT, _COMPARE = 0, 1, 2  # the kinds of binary operator


class _Compiler:
    """Builds the kernel of a formula class: a closure per node of its
    tree, made once. A cell reference's axes are kept as offsets from the
    class's host, or as coordinates where absolute ($), so a call moves
    them to the copy's host; a range is moved by the copy's offset (moved).

    Each binary operator's left spine is one closure, a loop over its
    operators innermost first, since every operator is left-associative:
    only right operands, arguments and unary operands are closures of
    their own, so a kernel's depth, built and run, is bounded by the
    formula's nesting (MAX_NESTING), not by its length.
    """

    def __init__(self, cls: FormulaAst, indexes: dict[str, SheetIndex]):
        self.indexes = indexes
        self.row, self.col = cls.host.row, cls.host.col

    def scalar(self, node: Expr) -> _Read:
        """A node's scalar value: a cell reference gives its cell's value
        (None when empty, so each consumer applies its own empty rule), a
        range has none (#VALUE!); a number literal is the copy's."""
        kind = type(node)
        if kind is BinaryOp:
            spine: list[BinaryOp] = []
            while type(node) is BinaryOp:
                spine.append(node)  # type: ignore[arg-type]
                node = node.left  # type: ignore[union-attr]
            first = self.scalar(node)
            steps = []
            for op_node in reversed(spine):
                op, right = op_node.op, op_node.right
                if op in _COMPARISONS:
                    steps.append((_COMPARE, op, self.scalar(right)))
                elif op == "&":
                    steps.append((_CONCAT, op, self.scalar(right)))
                elif type(right) is NumberLiteral:  # its slot, read in the loop
                    steps.append((_ARITH, _ARITHMETIC[op], right.slot))
                else:
                    steps.append((_ARITH, _ARITHMETIC[op], self.scalar(right)))
            return _fold(first, tuple(steps))
        if kind is CellRef:
            return self.cell(node)  # type: ignore[arg-type]
        if kind is NumberLiteral:
            slot = node.slot  # type: ignore[union-attr]
            return lambda values, lits, sheet, row, col: lits[slot]
        if kind is RangeRef:
            return _raise_value
        if kind is UnaryOp:
            operand = self.scalar(node.operand)  # type: ignore[union-attr]
            if node.op == "-":  # type: ignore[union-attr]
                return lambda values, lits, sheet, row, col: -as_number(
                    operand(values, lits, sheet, row, col))
            return lambda values, lits, sheet, row, col: as_number(
                operand(values, lits, sheet, row, col))
        if kind is FunctionCall:
            return self.call(node)  # type: ignore[arg-type]
        value = node.value  # text or a logical
        return lambda values, lits, sheet, row, col: value

    def cell(self, node: CellRef) -> _Read:
        """A cell reference read at the copy's host (resolve_cell)."""
        indexes, ref_sheet = self.indexes, node.sheet
        r = node.row if node.abs_row else node.row - self.row
        c = node.col if node.abs_col else node.col - self.col
        abs_row, abs_col = node.abs_row, node.abs_col

        def cell(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value | None:
            return resolve_cell(values, indexes, sheet if ref_sheet is None else ref_sheet,
                                r if abs_row else row + r, c if abs_col else col + c)
        return cell

    def range(self, node: RangeRef) -> Callable[..., Iterator[Value]]:
        """A range's cell values at the copy's host (iter_range)."""
        indexes, ref_sheet, origin_row, origin_col = self.indexes, node.sheet, self.row, self.col

        def cells(values: dict, lits: tuple, sheet: str, row: int, col: int
                  ) -> Iterator[Value]:
            return iter_range(values, indexes, sheet if ref_sheet is None else ref_sheet,
                              *moved(node, row - origin_row, col - origin_col))
        return cells

    def call(self, node: FunctionCall) -> _Read:
        name, args = node.name, node.args
        reads = []
        for arg in args:  # a loop: a comprehension would add a frame per level
            reads.append(self.scalar(arg))
        if name == "IF":  # only the branch taken is evaluated
            cond, then = reads[0], _result(args[1], reads[1])
            other = (_result(args[2], reads[2]) if len(args) == 3
                     else lambda values, lits, sheet, row, col: False)

            def if_(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value:
                taken = then if as_logical(cond(values, lits, sheet, row, col)) else other
                return taken(values, lits, sheet, row, col)
            return if_
        if name in ("AND", "OR"):
            # No short-circuit: arguments are all evaluated, IF is the only
            # lazy form.
            test = all if name == "AND" else any
            return lambda values, lits, sheet, row, col: test(
                [as_logical(read(values, lits, sheet, row, col)) for read in reads])
        if name == "NOT":
            arg = reads[0]
            return lambda values, lits, sheet, row, col: not as_logical(
                arg(values, lits, sheet, row, col))
        if name == "ABS":
            arg = reads[0]
            return lambda values, lits, sheet, row, col: abs(as_number(
                arg(values, lits, sheet, row, col)))
        if name == "ROUND":
            x, digits = reads

            def round_(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value:
                r = _round_half_away(as_number(x(values, lits, sheet, row, col)),
                                     int(as_number(digits(values, lits, sheet, row, col))))
                if not math.isfinite(r):  # 1.7e308 rounded to -308 digits
                    raise _Err(VALUE_ERR)
                return r
            return round_
        pieces = []  # an aggregate reads a reference its own way (gather)
        for arg, read in zip(args, reads):
            if type(arg) is RangeRef:
                pieces.append((_RANGE, self.range(arg)))  # type: ignore[arg-type]
            else:
                pieces.append((_CELL if type(arg) is CellRef else _TYPED, read))
        counting = name == "COUNT"
        return lambda values, lits, sheet, row, col: aggregate(
            name, gather(pieces, counting, values, lits, sheet, row, col))


def _result(node: Expr, read: _Read) -> _Read:
    """A node read as the value of a cell or of a taken IF branch: its
    scalar value, with an empty cell read as 0.0."""
    if type(node) is not CellRef:
        return read  # only a cell reference reads an empty cell

    def result(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value:
        v = read(values, lits, sheet, row, col)
        return 0.0 if v is None else v
    return result


def _raise_value(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value:
    raise _Err(VALUE_ERR)  # a range in scalar context


def _fold(first: _Read, steps: tuple[tuple[int, Any, Any], ...]) -> _Read:
    """A left spine of binary operators as one loop over its steps, each
    (kind, operator, right operand's closure or literal slot). Each
    operator reads its left operand, the spine so far, before it evaluates
    its right, so the first error in reading order wins ("abc"+1/0 is
    #VALUE!)."""

    def spine(values: dict, lits: tuple, sheet: str, row: int, col: int) -> Value:
        v = first(values, lits, sheet, row, col)
        for kind, fn, right in steps:
            if kind == _ARITH:
                if type(v) is not float:
                    v = as_number(v)
                if type(right) is int:
                    r = lits[right]
                else:
                    r = right(values, lits, sheet, row, col)
                    if type(r) is not float:
                        r = as_number(r)
                v = fn(v, r)
                if not math.isfinite(v):
                    raise _Err(VALUE_ERR)
            elif kind == _CONCAT:
                v = as_text(v) + as_text(right(values, lits, sheet, row, col))
            else:
                v = _compare(fn, v, right(values, lits, sheet, row, col))
        return v
    return spine


def _kernel(cls: FormulaAst, indexes: dict[str, SheetIndex]) -> _Read:
    """The kernel of cls's class: the closure of the value a copy takes."""
    root = cls.root
    return _result(root, _Compiler(cls, indexes).scalar(root))  # type: ignore[arg-type]


def _zero_like(v: Value) -> Value:
    if isinstance(v, bool):
        return False
    if isinstance(v, float):
        return 0.0
    return ""


def _order_key(v: Value) -> tuple[int, Value]:
    """Mixed types order number < text < logical; text ignores case."""
    if isinstance(v, bool):
        return 2, v
    if isinstance(v, float):
        return 0, v
    return 1, v.casefold()  # type: ignore[union-attr]


def _compare(op: str, left: Value | None, right: Value | None) -> bool:
    if left is None and right is None:
        left = right = 0.0
    elif left is None:
        left = _zero_like(right)  # type: ignore[arg-type]
    elif right is None:
        right = _zero_like(left)
    return _COMPARISONS[op](_order_key(left), _order_key(right))  # type: ignore[arg-type]


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise _Err(DIV0)
    return a / b


def _power(a: float, b: float) -> float:
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0 and b < 0.0:
        raise _Err(DIV0)
    try:
        r = a**b
    except OverflowError:
        raise _Err(VALUE_ERR) from None
    except ZeroDivisionError:
        raise _Err(DIV0) from None
    if isinstance(r, complex):  # negative base, fractional exponent
        raise _Err(VALUE_ERR)
    return float(r)


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
               "^": _power}


def _soft_number(v: Value | None) -> float | None:
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return parse_numeric_text(v)
    return None


def _round_half_away(x: float, digits: int) -> float:
    from decimal import ROUND_HALF_UP, Decimal, localcontext  # loaded at the first ROUND

    digits = max(-400, min(400, digits))
    with localcontext() as ctx:
        ctx.prec = 800  # widest float spans ~725 digits against the quantum
        q = Decimal(1).scaleb(-digits)
        return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


# --- dependency ordering -----------------------------------------------------


class EvalPlan:
    """The value-independent half of evaluation, built once per formula set:
    the sheet indexes, the cells on reference cycles (each is #CYCLE!), and
    the other formula cells in the condensation's order. run() evaluates the
    whole book; eval_cells() re-evaluates a few cells, such as a graph's
    cone(), against a changed input without touching the rest. Both run
    each formula through its class's kernel, which the plan builds at the
    first copy it evaluates and keeps.

    The indexes and condensation are those of g, the graph of the same
    formulas, if given; else the plan condenses the formulas itself and
    keeps no precedents.
    """

    def __init__(self, wb: Workbook, asts: dict[CellAddress, FormulaAst],
                 g: DepGraph | None = None):
        self.wb = wb
        self.asts = asts
        if g is None:
            self.indexes = sheet_indexes(wb)
            cond = condense(asts, wb, lambda: {addr: precedents_of(ast, self.indexes)
                                               for addr, ast in asts.items()})
        else:
            self.indexes, cond = g.indexes, g.condensation
        self.in_cycle = {addr for cycle in cond.cycles for addr in cycle}
        self.order = ([addr for addr in cond.order if addr not in self.in_cycle]
                      if self.in_cycle else cond.order)
        self.kernels: dict[FormulaAst, _Read] = {}  # by class

    def run(self, overrides: dict[CellAddress, Constant] | None = None
            ) -> dict[CellAddress, Value]:
        """Evaluate every non-empty cell to a Value.

        overrides replace cell content with constants; an overridden
        formula cell must have been left out of the plan's asts.
        """
        wb = self.wb
        values: dict[CellAddress, Value] = {addr: effective_constant(content)
                                            for addr, content in wb.iter_cells()
                                            if content.formula is None}
        for addr, constant in (overrides or {}).items():
            content = wb.cell(addr)
            if content is not None:
                values[addr] = effective_constant(
                    CellContent(value=constant, number_format=content.number_format))
        for addr in self.in_cycle:
            values[addr] = CYCLE_ERR
        self._eval_into(self.order, values)
        return values

    def eval_cells(self, addrs: list[CellAddress], values: dict[CellAddress, Value],
                   overlay: dict[CellAddress, Value]) -> dict[CellAddress, Value]:
        """New values of addrs, evaluated over values with overlay laid on top.

        values is a full result of run(); overlay gives new values for some
        of its constant cells. addrs must be in plan order and hold every
        formula the overlay reaches (the union of the overlaid cells'
        cones), or the result mixes old and new inputs. values is left as
        it was: the overlay and the new values go into it only for the
        length of the call, so nothing is copied.
        """
        saved = {addr: values[addr] for addr in (*overlay, *addrs)}
        try:
            values.update(overlay)
            self._eval_into(addrs, values)
            return {addr: values[addr] for addr in addrs}
        finally:
            values.update(saved)

    def _eval_into(self, addrs: list[CellAddress], values: dict[CellAddress, Value]) -> None:
        """Each formula's value, an error included, into values: one call
        of its class's kernel at its host with its literals."""
        asts, kernels = self.asts, self.kernels
        cls = kernel = None
        for addr in addrs:
            ast = asts[addr]
            if ast.cls is not cls:
                cls = ast.cls
                kernel = kernels.get(cls)
                if kernel is None:
                    kernel = kernels[cls] = _kernel(cls, self.indexes)
            try:
                values[addr] = kernel(values, ast.literals, *addr)  # type: ignore[misc]
            except _Err as err:
                values[addr] = err.error


def evaluate(
    wb: Workbook, overrides: dict[CellAddress, Constant] | None = None
) -> dict[CellAddress, Value]:
    """Evaluate every non-empty cell to a Value.

    overrides replace cell content with constants for this evaluation (the
    recheck path); overridden formula cells are treated as constants. Same
    workbook, same overrides: same values, always.
    """
    overrides = overrides or {}
    asts = parse_workbook_formulas(wb)
    if any(addr in asts for addr in overrides):
        asts = {a: t for a, t in asts.items() if a not in overrides}
    return EvalPlan(wb, asts).run(overrides)


# --- snapshot / recheck ------------------------------------------------------

SNAPSHOT_VERSION = 1


class Snapshot(NamedTuple):
    """Frozen inputs and expected outputs for regression rechecks."""

    workbook_name: str
    created_at: str
    inputs: dict[str, Constant]   # qualified address -> raw constant
    outputs: dict[str, Constant]  # qualified address -> evaluated value


class Mismatch(NamedTuple):
    address: str
    expected: Constant
    actual: Value | None


class RecheckReport(NamedTuple):
    matches: tuple[str, ...]
    mismatches: tuple[Mismatch, ...]
    missing_outputs: tuple[str, ...]

    @property
    def mismatch_count(self) -> int:
        # A deleted output is as much a regression as a changed one.
        return len(self.mismatches) + len(self.missing_outputs)

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0


def snapshot(wb: Workbook, created_at: str | None = None) -> Snapshot:
    """Freeze all constant cells and the evaluated declared outputs."""
    if not wb.meta.outputs:
        raise NoDeclaredOutputs(f"workbook {wb.name!r} declares no outputs")
    values = evaluate(wb)
    outputs: dict[str, Constant] = {}
    for qualified, addr in zip(wb.meta.outputs, wb.output_addresses):
        v = values[addr]
        if isinstance(v, ErrorValue):
            raise OutputIsError(f"output {qualified} evaluates to {v.code}")
        outputs[qualified] = v
    inputs: dict[str, Constant] = {}
    for addr, content in wb.iter_cells():
        if not content.is_formula:
            inputs[addr.qualified] = content.value  # type: ignore[assignment]
    return Snapshot(
        workbook_name=wb.name,
        created_at=created_at or datetime.datetime.now().isoformat(timespec="seconds"),
        inputs=inputs,
        outputs=outputs,
    )


REL_TOL = 1e-9
ABS_TOL = 1e-12


def values_match(expected: Constant, actual: Value | None) -> bool:
    """Numeric closeness for numbers, exactness for text and booleans."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual if isinstance(actual, bool) else False
    if isinstance(expected, float) and isinstance(actual, float):
        return abs(expected - actual) <= max(ABS_TOL, REL_TOL * max(abs(expected), abs(actual)))
    return type(expected) is type(actual) and expected == actual


def recheck(wb: Workbook, snap: Snapshot) -> RecheckReport:
    """Re-apply snapshot inputs, re-evaluate, compare declared outputs."""
    overrides: dict[CellAddress, Constant] = {}
    for qualified, constant in snap.inputs.items():
        addr = parse_qualified(qualified)
        if wb.cell(addr) is None:
            raise MissingInputCell(f"snapshot input {qualified} is missing from the workbook")
        overrides[addr] = constant
    values = evaluate(wb, overrides=overrides)
    matches: list[str] = []
    mismatches: list[Mismatch] = []
    missing: list[str] = []
    for qualified in sorted(snap.outputs):
        expected = snap.outputs[qualified]
        addr = parse_qualified(qualified)
        if wb.cell(addr) is None:
            missing.append(qualified)
            continue
        actual = values.get(addr)
        if values_match(expected, actual):
            matches.append(qualified)
        else:
            mismatches.append(Mismatch(qualified, expected, actual))
    return RecheckReport(tuple(matches), tuple(mismatches), tuple(missing))


def snapshot_to_json(snap: Snapshot) -> str:
    doc = {
        "version": SNAPSHOT_VERSION,
        "workbook": snap.workbook_name,
        "createdAt": snap.created_at,
        "inputs": {k: value_to_json(v) for k, v in sorted(snap.inputs.items())},
        "outputs": {k: value_to_json(v) for k, v in sorted(snap.outputs.items())},
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def parse_snapshot(text: str | bytes) -> Snapshot:
    doc = decode_json(text, "snapshot")
    if not isinstance(doc, dict) or doc.get("version") != SNAPSHOT_VERSION:
        raise MalformedDocument("unsupported snapshot document")
    name = doc.get("workbook")
    created = doc.get("createdAt")
    if not isinstance(name, str) or not isinstance(created, str):
        raise MalformedDocument("snapshot missing workbook/createdAt")

    def load_constants(key: str) -> dict[str, Constant]:
        raw = doc.get(key)
        if not isinstance(raw, dict):
            raise MalformedDocument(f"snapshot {key} must be an object")
        out: dict[str, Constant] = {}
        for addr, v in raw.items():
            parse_qualified(addr)
            loaded = value_from_json(v)
            if isinstance(loaded, ErrorValue):
                raise MalformedDocument(f"snapshot {key} may not hold errors: {addr}")
            out[addr] = loaded
        return out

    return Snapshot(name, created, load_constants("inputs"), load_constants("outputs"))
