"""Workbook data model and the canonical JSON interchange format.

A workbook document looks like:

    {
      "version": 1,
      "name": "forecast_v3_2026-01-15",
      "meta": {
        "modified": "2026-01-15T09:30:00",
        "outputs": ["Summary!B9"],
        "protectionEnabled": true
      },
      "sheets": [
        {"name": "Summary",
         "cells": {
           "B2": {"v": 1200, "locked": false},
           "B9": {"f": "=SUM(B2:B8)", "locked": true}
         }}
      ]
    }

Cells hold exactly one of a constant ("v": number, string, or boolean) or a
formula ("f": text starting with "="), plus optional "locked" (a boolean,
default false) and "fmt" ("text" or "general"; omitted means general).
Empty cells are absent from the map. Unknown fields anywhere are ignored
with a warning so documents from newer writers still load. CellContent's
rules judge what a cell holds: the loader admits the commonest shapes the
writer writes inline under them, and any other through CellContent; a
property test keeps the two in step.

Model objects cannot change once built: a cell, sheet or workbook keeps its
fields in slots (Frozen), and metadata and addresses are immutable tuples.
Constructors validate their invariants, so a Workbook that exists is a
Workbook that holds. Numbers are stored as floats and serialized as JSON
ints when integral, which keeps parse(serialize(wb)) == wb exact.
"""

from __future__ import annotations

import datetime
import json
import math
import re
import sys
import warnings
from functools import lru_cache
from json.encoder import encode_basestring
from string import ascii_uppercase
from typing import Any, Iterator, NamedTuple

from .errors import (
    DanglingOutput,
    DuplicateSheet,
    GridAuditError,
    InvalidAddress,
    InvalidCell,
    MalformedDocument,
)

# Grid caps of the host spreadsheet model.
MAX_ROW = 1_048_576
MAX_COL = 16_384

DOCUMENT_VERSION = 1

Constant = float | str | bool


class UnknownFieldWarning(UserWarning):
    """Raised (as a warning) when a document carries fields we do not know."""


class Frozen:
    """A record kept in slots that cannot change once built.

    _fields names a subclass's constructor fields in order: its repr shows
    them, and two records of one class are equal when their _key(), by
    default those fields, is. The constructor sets each slot past
    __setattr__; assigning or deleting one afterwards raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Checked:
    """Base, before the NamedTuple, of a tuple record whose __new__ checks
    its fields: _replace builds through _make, so it checks them too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Any) -> Any:
        return cls(*iterable)


# A key ends at \Z, since $ would also match before a final newline.
_CELL_KEY_RE = re.compile(r"([A-Za-z]{1,3})([0-9]{1,7})\Z")
# A canonical key: upper-case letters, a row with no leading zero.
_CANONICAL_KEY_RE = re.compile(r"([A-Z]{1,3})([1-9][0-9]{0,6})\Z")
_BARE_SHEET_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def col_to_letters(col: int) -> str:
    """1-based column index to letters (1 -> A, 27 -> AA)."""
    if col < 1:
        raise InvalidAddress(f"column index must be >= 1, got {col}")
    out = ""
    while col:
        col, rem = divmod(col - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


@lru_cache(maxsize=4096)
def letters_to_col(letters: str) -> int:
    """Column letters to 1-based index (A -> 1, XFD -> 16384).

    Kept per string: a book names few columns, and each of its cells and
    references asks again. The loader and lexer pass one to three letters.
    """
    if not letters or not letters.isalpha():
        raise InvalidAddress(f"bad column letters: {letters!r}")
    col = 0
    for ch in letters.upper():
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


class _Coordinates(NamedTuple):
    sheet: str
    row: int
    col: int


class CellAddress(_Coordinates):
    """Absolute location of one cell: sheet name plus 1-based row/column.

    An immutable (sheet, row, col) tuple, so hashing, equality and ordering
    run in C: an address equals, hashes and sorts like that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, sheet: str, row: int, col: int) -> CellAddress:
        if not sheet:
            raise InvalidAddress("empty sheet name")
        if row < 1 or col < 1:
            raise InvalidAddress(f"coordinates must be >= 1: {row},{col}")
        return tuple.__new__(cls, (sheet, row, col))

    @property
    def a1(self) -> str:
        return f"{col_to_letters(self.col)}{self.row}"

    @property
    def qualified(self) -> str:
        return f"{quote_sheet(self.sheet)}!{self.a1}"

    def in_bounds(self) -> bool:
        return self.row <= MAX_ROW and self.col <= MAX_COL


def quote_sheet(name: str) -> str:
    """Render a sheet name for qualified addresses, quoting when needed."""
    if _BARE_SHEET_RE.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def parse_cell_key(key: str) -> tuple[int, int]:
    """Parse a bare cell-map key like "B12" into (row, col).

    Strict form: no sheet qualifier, no $-markers. Enforces grid caps.
    """
    m = _CELL_KEY_RE.match(key)
    if not m:
        raise InvalidAddress(f"bad cell address: {key!r}")
    col = letters_to_col(m.group(1))
    row = int(m.group(2))
    if row < 1 or row > MAX_ROW or col > MAX_COL:
        raise InvalidAddress(f"address out of grid bounds: {key!r}")
    return row, col


def _split_sheet_prefix(text: str) -> tuple[str | None, str]:
    """Split an optional Sheet!/'Quoted Sheet'! prefix off an address string."""
    if text.startswith("'"):
        # Quoted sheet name; '' is an escaped quote.
        end = text.find("'", 1)
        while end >= 0 and text[end + 1 : end + 2] == "'":
            end = text.find("'", end + 2)
        if end < 0:
            raise InvalidAddress(f"unterminated sheet quote: {text!r}")
        if text[end + 1 : end + 2] != "!":
            raise InvalidAddress(f"expected '!' after sheet name: {text!r}")
        name = text[1:end].replace("''", "'")
        if not name:
            raise InvalidAddress(f"empty sheet name: {text!r}")
        return name, text[end + 2 :]
    if "!" in text:
        name, rest = text.split("!", 1)
        if not _BARE_SHEET_RE.match(name):
            raise InvalidAddress(f"bad sheet name: {name!r}")
        return name, rest
    return None, text


def parse_qualified(text: str) -> CellAddress:
    """Parse a fully qualified address like "Summary!B9" (no $-markers)."""
    sheet, rest = _split_sheet_prefix(text)
    if sheet is None:
        raise InvalidAddress(f"sheet qualifier required: {text!r}")
    row, col = parse_cell_key(rest)
    return CellAddress(sheet, row, col)


_NUMERIC_TEXT_RE = re.compile(r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


def parse_numeric_text(s: str) -> float | None:
    """The coercion rule for text in numeric context; None when not numeric,
    as is text beyond float range ("1e400"), which no cell value can hold."""
    s = s.strip()
    if not _NUMERIC_TEXT_RE.match(s):
        return None
    v = float(s)
    return v if math.isfinite(v) else None


class CellContent(Frozen):
    """One cell: exactly one of a constant value or a formula source string;
    number_format is "text" or None (general).

    Two cells are equal when they hold equal values of one type: True ==
    1.0 in Python, but not as a cell.
    """

    __slots__ = ("value", "formula", "locked", "number_format")
    _fields = __slots__

    def __init__(self, value: Constant | None = None, formula: str | None = None,
                 locked: bool = False, number_format: str | None = None) -> None:
        if (value is None) == (formula is None):
            raise InvalidCell("cell must hold exactly one of value or formula")
        if not isinstance(locked, bool):
            raise InvalidCell("'locked' must be a boolean")
        if number_format not in (None, "text"):
            raise InvalidCell(f"unsupported fmt: {number_format!r}")
        if formula is not None:
            if not isinstance(formula, str) or not formula.startswith("="):
                raise InvalidCell(f"formula must start with '=': {formula!r}")
            if len(formula) == 1:
                raise InvalidCell("empty formula")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise InvalidCell("number too large for a float") from None
            if not math.isfinite(value):
                raise InvalidCell("non-finite number")
        elif not isinstance(value, (str, bool)):
            raise InvalidCell(f"unsupported constant type: {type(value).__name__}")
        _set_value(self, value)
        _set_formula(self, formula)
        _set_locked(self, locked)
        _set_format(self, number_format)

    def _key(self) -> tuple[object, ...]:
        return (type(self.value), self.value, self.formula, self.locked, self.number_format)

    @property
    def is_formula(self) -> bool:
        return self.formula is not None

    @property
    def is_number(self) -> bool:
        """True for a plain numeric constant (fmt text excluded)."""
        return type(self.value) is float and self.number_format != "text"


# The slot setters, past Frozen.__setattr__: CellContent.__init__ and the
# loader build a cell through them.
_set_value = CellContent.value.__set__
_set_formula = CellContent.formula.__set__
_set_locked = CellContent.locked.__set__
_set_format = CellContent.number_format.__set__


class Sheet(Frozen):
    """A named grid; cells keyed by canonical A1 strings, empty cells absent
    (a new empty map by default)."""

    __slots__ = ("name", "cells", "_reading_order")
    _fields = ("name", "cells")

    def __init__(self, name: str, cells: dict[str, CellContent] | None = None) -> None:
        if not name:
            raise InvalidAddress("empty sheet name")
        if cells is None:
            cells = {}
        for key in cells:
            m = _CANONICAL_KEY_RE.match(key)
            if m is None or int(m[2]) > MAX_ROW or letters_to_col(m[1]) > MAX_COL:
                row, col = parse_cell_key(key.removesuffix("\n"))  # raises off the grid
                canonical = f"{col_to_letters(col)}{row}"
                raise InvalidAddress(f"cell key not canonical: {key!r} (want {canonical!r})")
        put = object.__setattr__
        put(self, "name", name)
        put(self, "cells", cells)
        put(self, "_reading_order", None)

    @classmethod
    def _loaded(cls, name: str, cells: dict[str, CellContent],
                pairs: list[tuple[CellAddress, CellContent]]) -> Sheet:
        """A sheet from a document load, which has already parsed and checked
        every key, and made pairs of them as reading_order holds them."""
        sheet, put = object.__new__(cls), object.__setattr__
        put(sheet, "name", name)
        put(sheet, "cells", cells)
        pairs.sort()  # keys are canonical, so no two addresses tie
        put(sheet, "_reading_order", tuple(pairs))
        return sheet

    @property
    def reading_order(self) -> tuple[tuple[CellAddress, CellContent], ...]:
        """The cells as (address, content) pairs, row-major, made once (on
        load, or on the first read) and kept with the sheet, not as a field.
        Every walk over the cells reads them, so value maps and indexes hold
        these address objects.
        """
        order = self._reading_order
        if order is None:
            pairs = [(CellAddress(self.name, *parse_cell_key(key)), content)
                     for key, content in self.cells.items()]
            pairs.sort()  # keys are canonical, so no two addresses tie
            order = tuple(pairs)
            object.__setattr__(self, "_reading_order", order)
        return order


def _parse_iso(ts: str) -> datetime.datetime:
    try:
        return datetime.datetime.fromisoformat(ts)
    except (TypeError, ValueError):
        raise MalformedDocument(f"meta.modified is not ISO-8601: {ts!r}") from None


class _MetaFields(NamedTuple):
    modified: str
    outputs: tuple[str, ...] = ()
    protection_enabled: bool = False


class WorkbookMeta(Checked, _MetaFields):
    """Document metadata: modification stamp, declared outputs, protection."""

    __slots__ = ()

    def __new__(cls, modified: str, outputs: tuple[str, ...] = (),
                protection_enabled: bool = False) -> WorkbookMeta:
        _parse_iso(modified)
        return tuple.__new__(cls, (modified, outputs, protection_enabled))

    @property
    def modified_date(self) -> datetime.date:
        return _parse_iso(self.modified).date()


class Workbook(Frozen):
    """An in-memory workbook; construction validates all structural invariants."""

    # Sheet name -> position and the parsed outputs, built once; not
    # fields, so equality and repr see only the sheets and meta.
    __slots__ = ("name", "sheets", "meta", "_positions", "_outputs")
    _fields = ("name", "sheets", "meta")

    def __init__(self, name: str, sheets: tuple[Sheet, ...], meta: WorkbookMeta) -> None:
        positions: dict[str, int] = {}
        for i, sheet in enumerate(sheets):
            if sheet.name in positions:
                raise DuplicateSheet(f"duplicate sheet name: {sheet.name!r}")
            positions[sheet.name] = i
        put = object.__setattr__
        put(self, "name", name)
        put(self, "sheets", sheets)
        put(self, "meta", meta)
        put(self, "_positions", positions)
        outputs = tuple(map(parse_qualified, meta.outputs))
        for out, addr in zip(meta.outputs, outputs):
            if self.cell(addr) is None:
                raise DanglingOutput(f"declared output does not resolve: {out!r}")
        put(self, "_outputs", outputs)

    def sheet(self, name: str) -> Sheet | None:
        i = self._positions.get(name)
        return None if i is None else self.sheets[i]

    def sheet_index(self, name: str) -> int:
        return self._positions[name]

    def cell(self, addr: CellAddress) -> CellContent | None:
        s = self.sheet(addr.sheet)
        if s is None:
            return None
        return s.cells.get(addr.a1)

    def iter_cells(self) -> Iterator[tuple[CellAddress, CellContent]]:
        """All non-empty cells, sheets in order, row-major within a sheet."""
        for s in self.sheets:
            yield from s.reading_order

    def formula_cells(self) -> Iterator[tuple[CellAddress, CellContent]]:
        for addr, content in self.iter_cells():
            if content.is_formula:
                yield addr, content

    @property
    def total_cell_count(self) -> int:
        return sum(len(s.cells) for s in self.sheets)

    @property
    def output_addresses(self) -> tuple[CellAddress, ...]:
        return self._outputs

    def replace_cell(self, addr: CellAddress, content: CellContent | None) -> Workbook:
        """Functional update: returns a new workbook with one cell replaced.

        content None deletes the cell. The sheet must exist.
        """
        i = self._positions.get(addr.sheet)
        if i is None:
            raise InvalidAddress(f"no such sheet: {addr.sheet!r}")
        cells = dict(self.sheets[i].cells)
        if content is None:
            cells.pop(addr.a1, None)
        else:
            cells[addr.a1] = content
        sheets = list(self.sheets)
        sheets[i] = Sheet(addr.sheet, cells)
        return Workbook(self.name, tuple(sheets), self.meta)


_FLOAT_INT_MAX = int(sys.float_info.max)  # float() takes every int up to this in size


def decode_json(data: str | bytes, what: str, error: type[GridAuditError] = MalformedDocument,
                **options: Any) -> Any:
    """The JSON document in data, text or UTF-8 bytes, read by json.loads with
    options. A failure is error naming what: not UTF-8, not valid JSON (an
    integer too long to read is one), or nested past the recursion limit."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data, **options)
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from None
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} is nested too deeply") from None


def _reject_nonfinite(token: str) -> Any:
    raise MalformedDocument(f"non-finite number in document: {token}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedDocument(message)


def _warn_unknown(fields: dict[str, Any], known: set[str], where: str) -> None:
    for key in fields:
        if key not in known:
            warnings.warn(f"ignoring unknown field {key!r} in {where}", UnknownFieldWarning)


_CELL_FIELDS = {"v", "f", "locked", "fmt"}


def _parse_cell(raw: Any, sheet_name: str, key: str) -> CellContent:
    """A document cell of a shape the loader does not admit inline: its JSON
    shape is checked here, CellContent checks what it holds, and a refusal
    names the cell."""
    if not isinstance(raw, dict):
        raise MalformedDocument(f"cell {sheet_name}!{key} must be an object")
    _warn_unknown(raw, _CELL_FIELDS, f"cell {sheet_name}!{key}")
    if ("v" in raw) == ("f" in raw):
        raise InvalidCell(f"cell {sheet_name}!{key} must have exactly one of 'v' or 'f'")
    fmt = raw.get("fmt")
    try:
        return CellContent(raw.get("v"), raw.get("f"), raw.get("locked", False),
                           None if fmt == "general" else fmt)
    except InvalidCell as exc:
        raise InvalidCell(f"cell {sheet_name}!{key}: {exc}") from None


def parse_workbook(data: str | bytes) -> Workbook:
    """Parse a workbook document from JSON text or bytes.

    Raises MalformedDocument / InvalidAddress / InvalidCell / DuplicateSheet /
    DanglingOutput with a location in the message. Cell keys are
    canonicalized (b2 -> B2); unknown fields warn and are dropped.
    """
    doc = decode_json(data, "workbook", parse_constant=_reject_nonfinite)
    _require(isinstance(doc, dict), "document root must be an object")
    _warn_unknown(doc, {"version", "name", "meta", "sheets"}, "document root")
    _require(doc.get("version") == DOCUMENT_VERSION,
             f"unsupported document version: {doc.get('version')!r}")
    name = doc.get("name")
    _require(isinstance(name, str), "'name' must be a string")

    raw_meta = doc.get("meta")
    _require(isinstance(raw_meta, dict), "'meta' must be an object")
    _warn_unknown(raw_meta, {"modified", "outputs", "protectionEnabled"}, "meta")
    _require("modified" in raw_meta, "meta.modified is required")
    modified = raw_meta["modified"]
    _require(isinstance(modified, str), "meta.modified must be a string")
    raw_outputs = raw_meta.get("outputs", [])
    _require(isinstance(raw_outputs, list) and all(isinstance(o, str) for o in raw_outputs),
             "meta.outputs must be a list of strings")
    protection = raw_meta.get("protectionEnabled", False)
    _require(isinstance(protection, bool), "meta.protectionEnabled must be a boolean")

    outputs = []
    for out in raw_outputs:
        try:
            outputs.append(parse_qualified(out).qualified)
        except InvalidAddress as exc:
            raise InvalidAddress(f"output {out!r}: {exc}") from None

    raw_sheets = doc.get("sheets")
    _require(isinstance(raw_sheets, list), "'sheets' must be a list")
    sheets = []
    match_key, new_cell, isfinite = _CANONICAL_KEY_RE.match, object.__new__, math.isfinite
    for raw_sheet in raw_sheets:
        _require(isinstance(raw_sheet, dict), "sheet entries must be objects")
        _warn_unknown(raw_sheet, {"name", "cells"}, "sheet")
        sheet_name = raw_sheet.get("name")
        _require(isinstance(sheet_name, str) and sheet_name != "",
                 "sheet 'name' must be a non-empty string")
        raw_cells = raw_sheet.get("cells", {})
        _require(isinstance(raw_cells, dict), f"sheet {sheet_name!r}: 'cells' must be an object")
        cells: dict[str, CellContent] = {}
        pairs: list[tuple[CellAddress, CellContent]] = []
        row_digits, row_number = "", 0
        for key, raw_cell in raw_cells.items():
            m = match_key(key)
            if m is not None:
                digits = m[2]
                if digits != row_digits:  # a row's cells in a run share its number
                    row_digits, row_number = digits, int(digits)
                canonical, row, col = key, row_number, letters_to_col(m[1])
            if m is None or row > MAX_ROW or col > MAX_COL:
                try:
                    row, col = parse_cell_key(key)
                except InvalidAddress:
                    raise InvalidAddress(
                        f"sheet {sheet_name!r}: bad cell address {key!r}") from None
                canonical = f"{col_to_letters(col)}{row}"
            if canonical in cells:
                raise InvalidCell(f"sheet {sheet_name!r}: duplicate cell {canonical}")
            # The writer's shapes pass CellContent's rules here: {"f": "=..."}
            # or {"v": finite float, int in float range or text}, "locked":
            # true or absent. Any other shape, and every refusal, is _parse_cell's.
            f = v = None
            if type(raw_cell) is dict and (
                    len(raw_cell) == 1 or len(raw_cell) == 2 and raw_cell.get("locked") is True):
                f, v = raw_cell.get("f"), raw_cell.get("v")  # one at most is present
            if (type(f) is str and len(f) > 1 and f[0] == "="
                    or type(v) is float and isfinite(v) or type(v) is str
                    or type(v) is int and -_FLOAT_INT_MAX <= v <= _FLOAT_INT_MAX):
                content = new_cell(CellContent)
                _set_value(content, float(v) if type(v) is int else v)
                _set_formula(content, f)
                _set_locked(content, len(raw_cell) == 2)
                _set_format(content, None)
            else:
                content = _parse_cell(raw_cell, sheet_name, canonical)
            cells[canonical] = content
            # the key is checked in the grid, so the address needs no check
            pairs.append((tuple.__new__(CellAddress, (sheet_name, row, col)), content))
        sheets.append(Sheet._loaded(sheet_name, cells, pairs))

    return Workbook(
        name=name,
        sheets=tuple(sheets),
        meta=WorkbookMeta(modified=modified, outputs=tuple(outputs),
                          protection_enabled=protection),
    )


def canonical_number(v: float) -> str:
    """Shortest stable spelling; integral floats print without a point (2^53
    bounds exact conversion)."""
    if v == int(v) and abs(v) <= 2**53:
        return str(int(v))
    return repr(v)


def _constant_json(v: Constant) -> str:
    """A constant as JSON text; a number in its canonical spelling."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return canonical_number(v)
    return encode_basestring(v)


def _reading_key(key: str) -> tuple[int, str, int, str]:
    """Sort key putting canonical keys in (row, col) order without parsing
    them: rows compare by digit count, then as text (no leading zeros); in
    one row, the key's length and then its text order the column letters."""
    digits = key.lstrip(ascii_uppercase)
    return len(digits), digits, len(key), key


def serialize_workbook(wb: Workbook) -> str:
    """Serialize deterministically; parse(serialize(wb)) == wb.

    The text is json.dumps(doc, ensure_ascii=False, indent=2) + "\\n" for
    the documented shape with each sheet's cells in reading order. It is
    written in one pass, one chunk per cell, with strings escaped by the
    json module's own encoder.
    """
    enc = encode_basestring
    meta = wb.meta
    out = [f'{{\n  "version": {DOCUMENT_VERSION},\n  "name": {enc(wb.name)},\n'
           f'  "meta": {{\n    "modified": {enc(meta.modified)},\n    "outputs": [']
    sep = "\n      "
    for output in meta.outputs:
        out.append(sep + enc(output))
        sep = ",\n      "
    out.append("\n    ]" if meta.outputs else "]")
    out.append(f',\n    "protectionEnabled": {"true" if meta.protection_enabled else "false"}'
               f'\n  }},\n  "sheets": [')
    sheet_sep = "\n    "
    for sheet in wb.sheets:
        out.append(f'{sheet_sep}{{\n      "name": {enc(sheet.name)},\n      "cells": {{')
        sheet_sep = ",\n    "
        cells = sheet.cells
        sep = "\n        "
        for key in sorted(cells, key=_reading_key):
            c = cells[key]
            if c.formula is not None:
                first = f'"f": {enc(c.formula)}'
            else:
                first = f'"v": {_constant_json(c.value)}'  # type: ignore[arg-type]
            locked = ',\n          "locked": true' if c.locked else ""
            fmt = ("" if c.number_format is None
                   else f',\n          "fmt": {enc(c.number_format)}')
            out.append(f'{sep}"{key}": {{\n          {first}{locked}{fmt}\n        }}')
            sep = ",\n        "
        out.append("\n      }\n    }" if cells else "}\n    }")
    out.append("\n  ]\n}\n" if wb.sheets else "]\n}\n")
    return "".join(out)
