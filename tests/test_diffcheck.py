"""Structural workbook diffs and the two-copy change control."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridaudit.diffcheck import (
    DiffEntry,
    diff,
    entry_from_dict,
    three_way_check,
    three_way_result_from_dict,
)
from gridaudit.errors import InvalidConfig
from gridaudit.model import CellContent
from gridaudit.simlab import SeedSpec, generate_clean, seed_defects
from helpers import wb_from


def kinds_at(entries):
    return {e.location.qualified: e.kind for e in entries}


# --- diff kinds ---------------------------------------------------------------

def test_identical_workbooks_diff_empty():
    a = wb_from({"A1": 5.0, "B1": "=A1*2"})
    b = wb_from({"A1": 5.0, "B1": "=A1*2"})
    assert diff(a, b) == ()


def test_formula_to_constant_is_fraud_indicator():
    a = wb_from({"A1": 5.0, "B1": "=A1*2"})
    b = wb_from({"A1": 5.0, "B1": 10.0})
    entries = diff(a, b)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.kind == "formulaToConstant"
    assert entry.location.qualified == "S1!B1"
    assert entry.fraud_indicator
    assert entry.before.formula == "=A1*2"
    assert entry.after.value == 10.0
    assert entry.to_dict()["class"] == "fraud-indicator"


def test_added_and_removed_cells():
    a = wb_from({"A1": 5.0, "B2": "=A1"})
    b = wb_from({"A1": 5.0, "C1": 7.0})
    assert kinds_at(diff(a, b)) == {"S1!B2": "removed", "S1!C1": "added"}


def test_value_changes_respect_numeric_tolerance():
    a = wb_from({"A1": 5.0})
    assert diff(a, wb_from({"A1": 5.0 + 5e-13}))  == ()
    entries = diff(a, wb_from({"A1": 5.1}))
    assert kinds_at(entries) == {"S1!A1": "valueChanged"}
    assert not entries[0].fraud_indicator


def test_type_and_text_changes_are_value_changes():
    a = wb_from({"A1": 5.0, "B1": "note", "C1": True})
    b = wb_from({"A1": "5", "B1": "note!", "C1": False})
    assert set(kinds_at(diff(a, b)).values()) == {"valueChanged"}
    assert len(diff(a, b)) == 3


def test_format_change_alone_is_a_value_change():
    a = wb_from({"A1": 300.0})
    b = wb_from({"A1": CellContent(value=300.0, number_format="text",
                                   locked=True)})
    assert kinds_at(diff(a, b)) == {"S1!A1": "valueChanged"}


def test_lock_change_requires_identical_content():
    a = wb_from({"A1": "=B1*2", "A2": 5.0})
    b = wb_from({"A1": CellContent(formula="=B1*2", locked=False),
                 "A2": CellContent(value=6.0, locked=False)})
    kinds = kinds_at(diff(a, b))
    assert kinds == {"S1!A1": "lockChanged", "S1!A2": "valueChanged"}


def test_formula_edits_and_reverse_conversion():
    a = wb_from({"A1": "=B1*2", "A2": 4.0})
    b = wb_from({"A1": "=B1*3", "A2": "=B1+1"})
    kinds = kinds_at(diff(a, b))
    assert kinds == {"S1!A1": "formulaChanged", "S1!A2": "constantToFormula"}


def test_sheet_appearing_in_one_workbook_only():
    a = wb_from({"A1": 1.0})
    b = wb_from({"A1": 1.0}, extra_sheets={"Data": {"A1": 2.0, "B2": "=A1"}})
    kinds = kinds_at(diff(a, b))
    assert kinds == {"Data!A1": "added", "Data!B2": "added"}
    assert kinds_at(diff(b, a)) == {"Data!A1": "removed", "Data!B2": "removed"}


def test_diff_order_is_sheet_then_reading_order():
    a = wb_from({"B2": 1.0, "A1": 1.0, "A3": 1.0},
                extra_sheets={"Data": {"C1": 1.0}})
    b = wb_from({"B2": 2.0, "A1": 2.0, "A3": 2.0},
                extra_sheets={"Data": {"C1": 2.0}})
    locs = [e.location.qualified for e in diff(a, b)]
    assert locs == ["S1!A1", "S1!B2", "S1!A3", "Data!C1"]


# --- properties ---------------------------------------------------------------

PALETTE = [
    CellContent(value=1.0),
    CellContent(value=2.5),
    CellContent(value="x"),
    CellContent(value=True),
    CellContent(value=3.0, number_format="text"),
    CellContent(value=1.0, locked=True),
    CellContent(formula="=A1+1"),
    CellContent(formula="=A1+2"),
    CellContent(formula="=A1+1", locked=True),
]

cell_maps = st.dictionaries(
    st.sampled_from(["A1", "B1", "B2", "C3"]),
    st.sampled_from(PALETTE),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(cells=cell_maps)
def test_self_diff_is_empty(cells):
    wb = wb_from(cells)
    assert diff(wb, wb) == ()


# the kind a change has when the diff runs the other way
_MIRRORED = {"added": "removed", "removed": "added",
             "formulaToConstant": "constantToFormula",
             "constantToFormula": "formulaToConstant"}


@settings(max_examples=150, deadline=None)
@given(a=cell_maps, b=cell_maps)
def test_diff_symmetry_mirrors_kinds(a, b):
    wa, wE = wb_from(a), wb_from(b)
    forward = diff(wa, wE)
    backward = {e.location: e for e in diff(wE, wa)}
    assert len(forward) == len(backward)
    for e in forward:
        twin = backward[e.location]
        assert twin.kind == _MIRRORED.get(e.kind, e.kind)
        assert twin.before == e.after
        assert twin.after == e.before


@settings(max_examples=150, deadline=None)
@given(a=cell_maps, b=cell_maps, c=cell_maps)
def test_diff_triangle_over_locations(a, b, c):
    wa, wc, wm = wb_from(a), wb_from(c), wb_from(b)
    far = {e.location for e in diff(wa, wc)}
    via = ({e.location for e in diff(wa, wm)}
           | {e.location for e in diff(wm, wc)})
    assert far <= via


# --- seeded workbooks produce the expected kinds -------------------------------

EXPECTED_KIND = {
    "JAMMED": "formulaChanged",
    "DUP_LITERAL": "formulaChanged",
    "LONG_FORMULA": "formulaChanged",
    "LONG_ARC": "formulaChanged",
    "XSHEET_REF": "formulaChanged",
    "FLOW_VIOLATION": "formulaChanged",
    "HARDWIRED": "formulaToConstant",
    "NUM_AS_TEXT": "valueChanged",
    "UNPROTECTED_FORMULA": "lockChanged",
    "ORPHAN_OUTPUT": "added",
}


def test_seeded_mutations_surface_with_expected_kinds():
    for topology, fc, ic in [("chain", 60, 6), ("grid", 120, 10)]:
        spec = SeedSpec(topology, fc, ic, error_rate=0.25, rng_seed=5)
        clean = generate_clean(spec)
        seeded = seed_defects(clean, spec)
        kinds = kinds_at(diff(clean, seeded.workbook))
        cell_truth = [t for t in seeded.truth if t.cell != "*"]
        assert len(kinds) == len(cell_truth)
        for t in cell_truth:
            assert kinds[t.cell] == EXPECTED_KIND[t.defect_class], t


# --- three-way control ---------------------------------------------------------

def test_three_way_agreeing_change():
    base = wb_from({"A1": 5.0})
    res = three_way_check(base, wb_from({"A1": 6.0}), wb_from({"A1": 6.0}))
    assert res.conflicting == ()
    assert len(res.agreeing) == 1
    assert res.agreeing[0].kind == "valueChanged"
    assert res.agreeing[0].after.value == 6.0


def test_three_way_divergent_change_conflicts():
    base = wb_from({"A1": 5.0})
    res = three_way_check(base, wb_from({"A1": 6.0}), wb_from({"A1": 7.0}))
    assert res.agreeing == ()
    assert len(res.conflicting) == 1
    c = res.conflicting[0]
    assert c.location.qualified == "S1!A1"
    assert c.first.after.value == 6.0
    assert c.second.after.value == 7.0


def test_three_way_unilateral_change_conflicts():
    base = wb_from({"A1": 5.0, "B1": 1.0})
    res = three_way_check(base, wb_from({"A1": 6.0, "B1": 1.0}),
                          wb_from({"A1": 5.0, "B1": 1.0}))
    assert res.agreeing == ()
    assert len(res.conflicting) == 1
    assert res.conflicting[0].second is None


def test_three_way_untouched_locations_are_omitted():
    base = wb_from({"A1": 5.0, "B1": 1.0, "C1": 2.0})
    copy1 = wb_from({"A1": 6.0, "B1": 1.0, "C1": 2.0})
    copy2 = wb_from({"A1": 6.0, "B1": 9.0, "C1": 2.0})
    res = three_way_check(base, copy1, copy2)
    assert [e.location.qualified for e in res.agreeing] == ["S1!A1"]
    assert [c.location.qualified for c in res.conflicting] == ["S1!B1"]


# --- serialization --------------------------------------------------------------

def test_entry_dict_round_trip():
    a = wb_from({"A1": 5.0, "B1": "=A1*2"})
    b = wb_from({"A1": "5", "C2": True})
    for entry in diff(a, b):
        doc = json.loads(json.dumps(entry.to_dict()))
        assert entry_from_dict(doc) == entry
    with pytest.raises(InvalidConfig):
        entry_from_dict({"location": "S1!A1", "kind": "renamed",
                         "before": None, "after": None, "class": None})
    good = diff(a, b)[0].to_dict()
    for bad, where in (({}, "'kind'"), ({"kind": "added"}, "location"),
                       ({**good, "before": 5}, "cell content"),
                       ({**good, "after": {"value": [1]}}, "cell content"),
                       ({**good, "after": {"value": 1, "locked": "false"}}, "cell content"),
                       ("x", "object")):
        with pytest.raises(InvalidConfig, match=where):
            entry_from_dict(bad)  # type: ignore[arg-type]


def test_three_way_dict_round_trip():
    base = wb_from({"A1": 5.0, "B1": 1.0})
    res = three_way_check(base, wb_from({"A1": 6.0, "B1": 2.0}),
                          wb_from({"A1": 6.0, "B1": 1.0}))
    doc = json.loads(json.dumps(res.to_dict()))
    assert three_way_result_from_dict(doc) == res
    conflict = doc["conflicting"][0]
    for bad, where in (({}, "agreeing"), ({**doc, "agreeing": 5}, "agreeing"),
                       ({**doc, "conflicting": [{}]}, "location"),
                       ({**doc, "conflicting": [{**conflict, "second": 5}]}, "object"),
                       ({**doc, "agreeing": [{}]}, "'kind'"),
                       (None, "object")):
        with pytest.raises(InvalidConfig, match=where):
            three_way_result_from_dict(bad)  # type: ignore[arg-type]
