"""Workbook model and document format tests."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridaudit.errors import (
    DanglingOutput,
    DuplicateSheet,
    InvalidAddress,
    InvalidCell,
    MalformedDocument,
)
from gridaudit.model import (
    MAX_COL,
    MAX_ROW,
    CellAddress,
    CellContent,
    Sheet,
    UnknownFieldWarning,
    Workbook,
    WorkbookMeta,
    col_to_letters,
    letters_to_col,
    parse_cell_key,
    parse_qualified,
    parse_workbook,
    serialize_workbook,
)
from gridaudit.rules import RULE_IDS
from gridaudit.simlab import SeedSpec, generate_clean, seed_defects
from helpers import MALFORMED_CELLS, one_cell_document, reference_document

def make_workbook(cells: dict[str, dict], name: str = "wb_v1_2026-01-15",
                  outputs: list[str] | None = None, protection: bool = False) -> Workbook:
    doc = {
        "version": 1,
        "name": name,
        "meta": {
            "modified": "2026-01-15T09:30:00",
            "outputs": outputs or [],
            "protectionEnabled": protection,
        },
        "sheets": [{"name": "S1", "cells": cells}],
    }
    return parse_workbook(json.dumps(doc))


# --- column letters ---------------------------------------------------------

def test_column_letters_known_values():
    assert col_to_letters(1) == "A"
    assert col_to_letters(26) == "Z"
    assert col_to_letters(27) == "AA"
    assert col_to_letters(702) == "ZZ"
    assert col_to_letters(703) == "AAA"
    assert col_to_letters(16384) == "XFD"
    assert letters_to_col("XFD") == 16384
    assert letters_to_col("a") == 1


def test_column_letters_roundtrip_exhaustive_head():
    for col in range(1, 20000):
        assert letters_to_col(col_to_letters(col)) == col


# --- address parsing --------------------------------------------------------

def test_parse_cell_key_strict():
    assert parse_cell_key("B12") == (12, 2)
    assert parse_cell_key("xfd1048576") == (1048576, 16384)
    for bad in ("", "B", "12", "$B$1", "S!B1", "B0", "XFE1", "B1048577", "B1\n"):
        with pytest.raises(InvalidAddress):
            parse_cell_key(bad)


def test_parse_qualified_requires_sheet():
    assert parse_qualified("Summary!B9") == CellAddress("Summary", 9, 2)
    assert parse_qualified("'My Data'!B2") == CellAddress("My Data", 2, 2)
    assert parse_qualified("'It''s'!A1") == CellAddress("It's", 1, 1)
    for bad in ("B9", "'Unterminated!A1", "'S1'A1", "''!A1", "Data!XFE1", "Data!$B$2",
                "S1!B2\n"):
        with pytest.raises(InvalidAddress):
            parse_qualified(bad)


def test_cell_address_is_a_validated_tuple():
    addr = CellAddress("S1", 12, 2)
    assert repr(addr) == "CellAddress(sheet='S1', row=12, col=2)"
    assert (addr.sheet, addr.row, addr.col) == ("S1", 12, 2)
    assert (addr.a1, addr.qualified, addr.in_bounds()) == ("B12", "S1!B12", True)
    assert not CellAddress("S1", MAX_ROW + 1, 1).in_bounds()
    for bad in (("", 1, 1), ("S1", 0, 1), ("S1", 1, 0)):
        with pytest.raises(InvalidAddress):
            CellAddress(*bad)
    # Addresses built apart are one dict key, and equal their plain tuple.
    values = {addr: "x"}
    assert values[CellAddress(sheet="S1", row=12, col=2)] == "x"
    assert values[parse_qualified("S1!B12")] == "x"
    assert values[("S1", 12, 2)] == "x"
    assert sorted([CellAddress("S1", 2, 1), addr]) == [CellAddress("S1", 2, 1), addr]


def test_qualified_rendering_quotes_when_needed():
    assert CellAddress("Summary", 9, 2).qualified == "Summary!B9"
    assert CellAddress("My Data", 1, 1).qualified == "'My Data'!A1"
    assert parse_qualified("'My Data'!A1") == CellAddress("My Data", 1, 1)


# --- cell content -----------------------------------------------------------

def test_cell_content_exactly_one_of_value_or_formula():
    with pytest.raises(InvalidCell):
        CellContent()
    with pytest.raises(InvalidCell):
        CellContent(value=1.0, formula="=A1")
    with pytest.raises(InvalidCell):
        CellContent(formula="A1")  # no '='
    with pytest.raises(InvalidCell, match="'locked' must be a boolean"):
        CellContent(value=1, locked="yes")
    assert CellContent(value=3).value == 3.0
    assert CellContent(value=True).value is True
    assert CellContent(formula="=A1").is_formula


def test_cell_content_numeric_text_flags():
    assert not CellContent(value=500.0, number_format="text").is_number
    assert CellContent(value=500.0).is_number
    assert not CellContent(value=True).is_number


# --- document parse/serialize ----------------------------------------------

def test_parse_workbook_roundtrip():
    wb = make_workbook(
        {
            "A1": {"v": 100},
            "A2": {"v": "label"},
            "A3": {"v": True, "locked": True},
            "B1": {"v": 2.5, "fmt": "text"},
            "B2": {"f": "=A1*2", "locked": True},
        },
        outputs=["S1!B2"],
        protection=True,
    )
    text = serialize_workbook(wb)
    again = parse_workbook(text)
    assert again == wb
    assert serialize_workbook(again) == text


def test_parse_canonicalizes_keys_and_fmt():
    wb = make_workbook({"b2": {"v": 1, "fmt": "general"}})
    sheet = wb.sheets[0]
    assert list(sheet.cells) == ["B2"]
    assert sheet.cells["B2"].number_format is None


def test_integral_floats_serialize_as_ints():
    wb = make_workbook({"A1": {"v": 100.0}, "A2": {"v": 2.5}})
    doc = json.loads(serialize_workbook(wb))
    cells = doc["sheets"][0]["cells"]
    assert cells["A1"]["v"] == 100 and isinstance(cells["A1"]["v"], int)
    assert cells["A2"]["v"] == 2.5


def test_unknown_fields_warn_and_are_dropped():
    doc = {
        "version": 1,
        "name": "x",
        "surprise": 1,
        "meta": {"modified": "2026-01-01T00:00:00", "outputs": [], "protectionEnabled": False},
        "sheets": [{"name": "S1", "cells": {"A1": {"v": 1, "note": "hi"}}}],
    }
    with pytest.warns(UnknownFieldWarning):
        wb = parse_workbook(json.dumps(doc))
    assert wb.sheets[0].cells["A1"].value == 1.0


def test_parse_errors_name_the_location():
    with pytest.raises(MalformedDocument):
        parse_workbook("not json")
    with pytest.raises(MalformedDocument):
        parse_workbook(json.dumps({"version": 2, "name": "x", "meta": {}, "sheets": []}))
    base = {
        "version": 1,
        "name": "x",
        "meta": {"modified": "2026-01-01T00:00:00", "outputs": [], "protectionEnabled": False},
    }
    with pytest.raises(InvalidAddress, match="ZZZZ1"):
        parse_workbook(json.dumps({**base, "sheets": [{"name": "S1", "cells": {"ZZZZ1": {"v": 1}}}]}))


@pytest.mark.parametrize("cell", MALFORMED_CELLS, ids=repr)
def test_malformed_cell_is_refused_naming_its_cell(cell):
    with pytest.raises((InvalidCell, MalformedDocument), match="S1!A1"):
        parse_workbook(json.dumps(one_cell_document(cell)))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
    | st.sampled_from(["=", "=A1", "A1", "=1+", "text", "general", "pct"]),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(raw=st.dictionaries(st.sampled_from(["v", "f", "locked", "fmt"]), _JSON_VALUES))
def test_a_cell_loads_iff_cell_content_accepts_it(raw):
    # The loader's one shape rule: exactly one of the keys "v" and "f".
    # Then "general" means no fmt, and CellContent judges the rest.
    fmt = raw.get("fmt")
    try:
        if ("v" in raw) == ("f" in raw):
            raise InvalidCell("shape")
        expected = CellContent(raw.get("v"), raw.get("f"), raw.get("locked", False),
                               None if fmt == "general" else fmt)
    except InvalidCell:
        with pytest.raises(InvalidCell, match="S1!A1"):
            parse_workbook(json.dumps(one_cell_document(raw)))
        return
    loaded = parse_workbook(json.dumps(one_cell_document(raw))).sheets[0].cells["A1"]
    assert loaded == expected and type(loaded.value) is type(expected.value)


def test_duplicate_sheet_and_dangling_output():
    doc = {
        "version": 1,
        "name": "x",
        "meta": {"modified": "2026-01-01T00:00:00", "outputs": [], "protectionEnabled": False},
        "sheets": [{"name": "S1", "cells": {}}, {"name": "S1", "cells": {}}],
    }
    with pytest.raises(DuplicateSheet):
        parse_workbook(json.dumps(doc))
    with pytest.raises(DanglingOutput, match="Z99"):
        make_workbook({"A1": {"v": 1}}, outputs=["S1!Z99"])


def test_sheet_lookup_by_name_leaves_equality_and_repr_alone():
    sheets = (Sheet("S1", {"A1": CellContent(value=1.0)}), Sheet("My Data", {}))
    meta = WorkbookMeta(modified="2026-01-01T00:00:00")
    wb = Workbook("book", sheets, meta)
    assert wb.sheet("My Data") is sheets[1] and wb.sheet("Nope") is None
    assert wb.sheet_index("My Data") == 1
    with pytest.raises(KeyError):
        wb.sheet_index("Nope")
    assert wb == Workbook("book", sheets, meta)
    assert repr(wb) == f"Workbook(name='book', sheets={sheets!r}, meta={meta!r})"


def test_nonfinite_numbers_rejected():
    text = '{"version":1,"name":"x","meta":{"modified":"2026-01-01T00:00:00"},' \
           '"sheets":[{"name":"S1","cells":{"A1":{"v":NaN}}}]}'
    with pytest.raises(MalformedDocument):
        parse_workbook(text)


def test_grid_caps_constants():
    assert MAX_ROW == 1_048_576
    assert MAX_COL == 16_384
    assert parse_cell_key(f"XFD{MAX_ROW}") == (MAX_ROW, MAX_COL)
    assert list(Sheet("S1", {f"XFD{MAX_ROW}": CellContent(value=1.0)}).cells) == [f"XFD{MAX_ROW}"]


def test_workbook_helpers():
    wb = make_workbook({"A1": {"v": 1}, "B2": {"f": "=A1"}}, outputs=["S1!B2"])
    addrs = [a.a1 for a, _ in wb.iter_cells()]
    assert addrs == ["A1", "B2"]
    assert [a.a1 for a, _ in wb.formula_cells()] == ["B2"]
    assert wb.total_cell_count == 2
    assert wb.output_addresses == (CellAddress("S1", 2, 2),)
    wb2 = wb.replace_cell(CellAddress("S1", 1, 1), CellContent(value=7))
    assert wb2.cell(CellAddress("S1", 1, 1)).value == 7.0
    assert wb.cell(CellAddress("S1", 1, 1)).value == 1.0  # original untouched


def test_iter_cells_row_major_order():
    wb = make_workbook({"C1": {"v": 1}, "A2": {"v": 2}, "B1": {"v": 3}, "A1": {"v": 4}})
    order = [a.a1 for a, _ in wb.iter_cells()]
    assert order == ["A1", "B1", "C1", "A2"]


def test_reading_order_is_kept_with_the_sheet():
    wb = make_workbook({"C1": {"v": 1}, "A2": {"f": "=C1"}, "B1": {"v": 3}})
    sheet = wb.sheets[0]
    assert [(a.a1, c) for a, c in sheet.reading_order] == [
        ("B1", sheet.cells["B1"]), ("C1", sheet.cells["C1"]), ("A2", sheet.cells["A2"])]
    # Every walk hands out the same address objects.
    first = [a for a, _ in wb.iter_cells()]
    assert all(a is b for a, b in zip(first, (a for a, _ in wb.iter_cells())))
    assert [a for a, _ in wb.formula_cells()][0] is first[2]
    # Not a field: equality and repr see only the cells.
    twin = Sheet("S1", dict(sheet.cells))
    assert twin == sheet and repr(twin) == repr(sheet)


def test_meta_modified_must_be_iso():
    with pytest.raises(MalformedDocument):
        WorkbookMeta(modified="yesterday")
    assert WorkbookMeta(modified="2026-01-15T09:30:00").modified_date.isoformat() == "2026-01-15"


# --- cell keys ----------------------------------------------------------------

@pytest.mark.parametrize("key, message", [
    ("B02", "cell key not canonical: 'B02' (want 'B2')"),
    ("A0", "address out of grid bounds: 'A0'"),
    ("XFE1", "address out of grid bounds: 'XFE1'"),
    ("A1048577", "address out of grid bounds: 'A1048577'"),
    ("AAAA1", "bad cell address: 'AAAA1'"),
    ("A1\n", "cell key not canonical: 'A1\\n' (want 'A1')"),  # \Z, not $, ends a key
    ("b2", "cell key not canonical: 'b2' (want 'B2')"),
])
def test_sheet_rejects_keys_not_canonical(key, message):
    with pytest.raises(InvalidAddress) as exc:
        Sheet("S1", {key: CellContent(value=1.0)})
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["A0", "XFE1", "A1048577", "AAAA1", "a0", "", "A1\n"])
def test_load_rejects_keys_off_the_grid(key):
    with pytest.raises(InvalidAddress) as exc:
        make_workbook({key: {"v": 1}})
    assert str(exc.value) == f"sheet 'S1': bad cell address {key!r}"


def test_load_rejects_an_output_ending_in_a_newline():
    with pytest.raises(InvalidAddress) as exc:
        make_workbook({"A1\n": {"v": 1}}, outputs=["S1!A1\n"])
    assert str(exc.value) == "output 'S1!A1\\n': bad cell address: 'A1\\n'"
    with pytest.raises(InvalidAddress) as exc:
        make_workbook({"A1": {"v": 1}}, outputs=["Data!XFE1"])
    assert str(exc.value) == "output 'Data!XFE1': address out of grid bounds: 'XFE1'"


@pytest.mark.parametrize("key, canonical", [("b2", "B2"), ("B02", "B2"), ("xfd1048576", "XFD1048576")])
def test_load_canonicalizes_keys(key, canonical):
    wb = make_workbook({key: {"v": 1}})
    assert list(wb.sheets[0].cells) == [canonical]
    assert [a.a1 for a, _ in wb.iter_cells()] == [canonical]


# --- the serializer -------------------------------------------------------------

_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\ufeffé数'),
                max_size=10)
_CONSTANTS = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 2.0**53, -(2.0**53), 2.0**53 + 2, 1e16, 5e-324, 0.1])
              | st.booleans() | _TEXT)
_FORMATS = st.sampled_from([None, "text"])
_CONTENTS = (st.builds(CellContent, value=_CONSTANTS, locked=st.booleans(), number_format=_FORMATS)
             | st.builds(CellContent, formula=_TEXT.map(lambda t: "=" + t + "1"),
                         locked=st.booleans(), number_format=_FORMATS))
_KEYS = st.builds(lambda r, c: f"{col_to_letters(c)}{r}",
                  st.integers(1, 30) | st.sampled_from([9, 10, 99, 100, MAX_ROW]),
                  st.integers(1, 30) | st.sampled_from([26, 27, 702, 703, MAX_COL]))


@st.composite
def _workbooks(draw) -> Workbook:
    sheets = [Sheet(name, cells) for name, cells in draw(st.lists(
        st.tuples(_TEXT.filter(bool), st.dictionaries(_KEYS, _CONTENTS, max_size=8)),
        max_size=3, unique_by=lambda s: s[0]))]
    cells = [CellAddress(s.name, *parse_cell_key(k)).qualified for s in sheets for k in s.cells]
    outputs = draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else []
    meta = WorkbookMeta(modified=draw(st.datetimes()).isoformat(), outputs=tuple(outputs),
                        protection_enabled=draw(st.booleans()))
    return Workbook(draw(_TEXT), tuple(sheets), meta)


@settings(max_examples=300, deadline=None)
@given(wb=_workbooks())
def test_serializer_writes_what_json_dumps_writes(wb):
    text = serialize_workbook(wb)
    assert text == json.dumps(reference_document(wb), ensure_ascii=False, indent=2) + "\n"
    assert parse_workbook(text) == wb
    # The writer leaves a sheet's reading order unbuilt.
    assert not any("reading_order" in s.__dict__ for s in wb.sheets)


@pytest.mark.parametrize("topology, inputs, seed, digest", [
    ("chain", 20, 3, "632330df6e0a146baa4275df50beffa305fdbe036ffcdc030ed43bdfdb533231"),
    ("tree", 40, 5, "6698e3104e34c5f7c39ae3dc96cb3e34e9cc37fb35238706fbc16184521addef"),
    ("grid", 12, 7, "a9ec42b8c2ba2b128adb41649b177e88d50032e8c3d220871e280f2dabacf80d"),
])
def test_seeded_books_serialize_to_pinned_bytes(topology, inputs, seed, digest):
    mix = tuple((cls, 1 / len(RULE_IDS)) for cls in RULE_IDS)
    spec = SeedSpec(topology, 400, inputs, error_rate=0.3, defect_mix=mix, rng_seed=seed)
    text = serialize_workbook(seed_defects(generate_clean(spec), spec).workbook)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
