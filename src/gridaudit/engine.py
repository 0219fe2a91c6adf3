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
Ten-thousand-cell chains evaluate without blowing the stack. Nor does it
recurse inside a formula: each formula is one loop, with a stack of
operands, over its class's walk (the postorder of the class tree without
IF branches), so a sum of thousands of terms evaluates in one frame. The
class finds that walk when its first copy is parsed (FormulaAst.facts),
and each copy reads its own number literals from its literal vector by
each literal's slot. IF still evaluates only the branch it takes, by
running that branch's walk, which the class also keeps, one level per
nested IF.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from typing import Any, Iterator, Union

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
    parse_qualified,
)


@dataclass(frozen=True)
class ErrorValue:
    code: str

    def __str__(self) -> str:
        return self.code


DIV0 = ErrorValue("#DIV/0!")
VALUE_ERR = ErrorValue("#VALUE!")
REF_ERR = ErrorValue("#REF!")
CYCLE_ERR = ErrorValue("#CYCLE!")

Value = Union[float, str, bool, ErrorValue]

_NUMERIC_TEXT_RE = re.compile(r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


def parse_numeric_text(s: str) -> float | None:
    """The coercion rule for text in numeric context; None when not numeric,
    as is text beyond float range ("1e400"), which no cell value can hold."""
    s = s.strip()
    if not _NUMERIC_TEXT_RE.match(s):
        return None
    v = float(s)
    return v if math.isfinite(v) else None


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


# An operand on the evaluator's stack: a value, or a reference that its
# consumer reads in its own way (an aggregate skips text, an operator coerces).
_Operand = Union[Value, CellRef, RangeRef]


class _Evaluator:
    """Evaluates formulas over a value map. A formula is read as its class's
    tree at the formula's offset with the formula's literals, which sheet,
    dr, dc and literals hold during run, and branches its class's IF
    branch walks."""

    def __init__(self, values: dict[CellAddress, Value], indexes: dict[str, SheetIndex]):
        self.values = values
        self.indexes = indexes
        self.sheet = ""
        self.dr = self.dc = 0
        self.literals: tuple[float, ...] = ()
        self.branches: dict[int, tuple[list[Expr], ...]] = {}

    def run(self, ast: FormulaAst) -> Value:
        """The value of one formula; an error is a value here."""
        self.sheet = ast.host.sheet
        self.dr, self.dc = ast.offset
        self.literals = ast.literals
        facts = ast.facts
        self.branches = facts.branches
        try:
            return self.eval(facts.walk)
        except _Err as err:
            return err.error

    def eval(self, nodes: list[Expr]) -> Value:
        """The value of a walk (a postorder without IF branches): each node
        takes its operands off the stack and leaves its value there.

        A node that fails leaves its error there, raised again when its
        consumer reads it; consumers read operands in order, so the first
        error in reading order wins ("abc"+1/0 is #VALUE!). An IF's
        branches are not in the walk: IF evaluates the one it takes, the
        only recursion, one level per nested IF.
        """
        stack: list[_Operand] = []
        literals = self.literals
        for node in nodes:
            kind = type(node)
            v: _Operand
            try:
                if kind is BinaryOp:
                    right = stack.pop()
                    v = self.binary(node.op, stack.pop(), right)  # type: ignore[union-attr]
                elif kind is FunctionCall:
                    n = 1 if node.name == "IF" else len(node.args)  # type: ignore[union-attr]
                    args = stack[-n:]
                    del stack[-n:]
                    v = self.call(node, args)  # type: ignore[arg-type]
                elif kind is UnaryOp:
                    v = self.as_number(stack.pop())
                    v = -v if node.op == "-" else v  # type: ignore[union-attr]
                elif kind is CellRef or kind is RangeRef:
                    v = node  # type: ignore[assignment]
                elif kind is NumberLiteral:
                    v = literals[node.slot]  # type: ignore[union-attr]
                else:  # text or a logical
                    v = node.value  # type: ignore[union-attr]
            except _Err as err:
                v = err.error
            stack.append(v)
        v = self.scalar(stack[0])
        return 0.0 if v is None else v

    # -- reading operands

    def scalar(self, v: _Operand) -> Value | None:
        """An operand's scalar value: a cell reference gives its cell's value
        (None when empty, so each consumer applies its own empty rule), a
        range has none, and an error is raised."""
        kind = type(v)
        if kind is CellRef:
            return self.resolve_cell(v)  # type: ignore[arg-type]
        if kind is RangeRef:
            raise _Err(VALUE_ERR)
        if kind is ErrorValue:
            raise _Err(v)  # type: ignore[arg-type]
        return v  # type: ignore[return-value]

    def as_number(self, v: _Operand) -> float:
        if type(v) is not float:
            v = self.scalar(v)
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

    def as_text(self, v: _Operand) -> str:
        v = self.scalar(v)
        if v is None:
            return ""
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, float):
            return canonical_number(v)
        return v  # type: ignore[return-value]

    def as_logical(self, v: _Operand) -> bool:
        v = self.scalar(v)
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

    # -- reference resolution, at the offset of the formula being run

    def resolve_cell(self, node: CellRef) -> Value | None:
        row = node.row if node.abs_row else node.row + self.dr
        col = node.col if node.abs_col else node.col + self.dc
        sheet = node.sheet if node.sheet is not None else self.sheet
        if row > MAX_ROW or col > MAX_COL or sheet not in self.indexes:
            raise _Err(REF_ERR)
        v = self.values.get((sheet, row, col))  # equals its CellAddress
        if isinstance(v, ErrorValue):
            raise _Err(v)
        return v

    def iter_range(self, node: RangeRef) -> Iterator[Value]:
        r1, c1, r2, c2 = moved(node, self.dr, self.dc)
        if r2 > MAX_ROW or c2 > MAX_COL:
            raise _Err(REF_ERR)
        index = self.indexes.get(node.sheet if node.sheet is not None else self.sheet)
        if index is None:
            raise _Err(REF_ERR)
        for addr in index.iter_box(r1, c1, r2, c2):
            v = self.values[addr]
            if isinstance(v, ErrorValue):
                raise _Err(v)
            yield v

    def binary(self, op: str, left: _Operand, right: _Operand) -> Value:
        if op in _COMPARISONS:
            return _compare(op, self.scalar(left), self.scalar(right))
        if op == "&":
            return self.as_text(left) + self.as_text(right)
        r = _ARITHMETIC[op](self.as_number(left), self.as_number(right))
        if not math.isfinite(r):
            raise _Err(VALUE_ERR)
        return r

    # -- functions

    def call(self, node: FunctionCall, args: list[_Operand]) -> Value:
        """Apply a function to its operands; an IF's one operand is its
        condition, and it evaluates the branch that condition picks."""
        name = node.name
        if name == "IF":
            walks = self.branches[id(node)]
            if self.as_logical(args[0]):
                return self.eval(walks[0])
            if len(walks) == 2:
                return self.eval(walks[1])
            return False
        if name in ("AND", "OR"):
            # No short-circuit: arguments are all evaluated, IF is the only
            # lazy form.
            bools = [self.as_logical(a) for a in args]
            return all(bools) if name == "AND" else any(bools)
        if name == "NOT":
            return not self.as_logical(args[0])
        if name == "ABS":
            return abs(self.as_number(args[0]))
        if name == "ROUND":
            x = self.as_number(args[0])
            d = int(self.as_number(args[1]))
            r = _round_half_away(x, d)
            if not math.isfinite(r):  # 1.7e308 rounded to -308 digits
                raise _Err(VALUE_ERR)
            return r
        return self.aggregate(name, args)

    def gather(self, args: list[_Operand], counting: bool) -> list[float]:
        """Numeric stream feeding an aggregate.

        Referenced cells/ranges contribute plain numbers only (text,
        booleans, empties skipped); typed arguments coerce, except that
        COUNT just declines to count a non-numeric typed argument.
        """
        out: list[float] = []
        for arg in args:
            if isinstance(arg, RangeRef):
                for v in self.iter_range(arg):
                    if isinstance(v, float):
                        out.append(v)
            elif isinstance(arg, CellRef):
                v = self.resolve_cell(arg)
                if isinstance(v, float):
                    out.append(v)
            elif counting:
                coerced = _soft_number(self.scalar(arg))
                if coerced is not None:
                    out.append(coerced)
            else:
                out.append(self.as_number(arg))
        return out

    def aggregate(self, name: str, args: list[_Operand]) -> Value:
        nums = self.gather(args, counting=(name == "COUNT"))
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
    cone(), against a changed input without touching the rest.

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
        self.order = [addr for addr in cond.order if addr not in self.in_cycle]

    def run(self, overrides: dict[CellAddress, Constant] | None = None
            ) -> dict[CellAddress, Value]:
        """Evaluate every non-empty cell to a Value.

        overrides replace cell content with constants; an overridden
        formula cell must have been left out of the plan's asts.
        """
        overrides = overrides or {}
        values: dict[CellAddress, Value] = {}
        for addr, content in self.wb.iter_cells():
            if addr in overrides:
                override_content = CellContent(value=overrides[addr],
                                               number_format=content.number_format)
                values[addr] = effective_constant(override_content)
            elif not content.is_formula:
                values[addr] = effective_constant(content)
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
        run = _Evaluator(values, self.indexes).run
        asts = self.asts
        for addr in addrs:
            values[addr] = run(asts[addr])


def evaluate(
    wb: Workbook, overrides: dict[CellAddress, Constant] | None = None
) -> dict[CellAddress, Value]:
    """Evaluate every non-empty cell to a Value.

    overrides replace cell content with constants for this evaluation (the
    recheck path); overridden formula cells are treated as constants. Same
    workbook, same overrides: same values, always.
    """
    overrides = overrides or {}
    asts = {a: t for a, t in parse_workbook_formulas(wb).items() if a not in overrides}
    return EvalPlan(wb, asts).run(overrides)


# --- snapshot / recheck ------------------------------------------------------

SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Snapshot:
    """Frozen inputs and expected outputs for regression rechecks."""

    workbook_name: str
    created_at: str
    inputs: dict[str, Constant]   # qualified address -> raw constant
    outputs: dict[str, Constant]  # qualified address -> evaluated value


@dataclass(frozen=True)
class Mismatch:
    address: str
    expected: Constant
    actual: Value | None


@dataclass(frozen=True)
class RecheckReport:
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
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"snapshot is not UTF-8: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise MalformedDocument(f"snapshot is not valid JSON: {exc}") from None
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
