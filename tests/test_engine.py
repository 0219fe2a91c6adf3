"""Evaluator semantics and snapshot/recheck tests."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridaudit.engine as engine_mod
import gridaudit.formula as formula_mod
from gridaudit.engine import (
    CYCLE_ERR,
    DIV0,
    REF_ERR,
    VALUE_ERR,
    ErrorValue,
    EvalPlan,
    Snapshot,
    effective_constant,
    evaluate,
    parse_numeric_text,
    parse_snapshot,
    recheck,
    snapshot,
    snapshot_to_json,
    value_to_json,
    values_match,
)
from gridaudit.errors import MalformedDocument, MissingInputCell, NoDeclaredOutputs, OutputIsError
from gridaudit.formula import FormulaAst, parse_workbook_formulas, postorder, render
from gridaudit.graph import build_graph, chain_stats
from gridaudit.model import CellAddress, CellContent, Workbook, col_to_letters
from gridaudit.simlab import SeedSpec, generate_clean, seed_defects
from helpers import (ReferenceEvaluator, literal_copies_book, random_expr, translate_expr,
                     wb_from)


def val(wb, a1: str, sheet: str = "S1"):
    from gridaudit.model import parse_cell_key

    row, col = parse_cell_key(a1)
    return evaluate(wb)[CellAddress(sheet, row, col)]


def formula_result(src: str, cells: dict | None = None):
    cells = dict(cells or {})
    cells["Z99"] = src
    return val(wb_from(cells), "Z99")


# --- coercion asymmetry -------------------------------------------------------

def test_operator_coerces_text_aggregate_skips_it():
    wb = wb_from({"A1": 100, "A2": "200", "A3": "=A1+A2", "A4": "=SUM(A1:A2)"})
    assert val(wb, "A3") == 300.0
    assert val(wb, "A4") == 100.0


def test_fmt_text_number_behaves_as_text():
    cells = {
        "A1": CellContent(value=100.0, number_format="text", locked=True),
        "A2": "=A1+1",
        "A3": "=SUM(A1:A1)",
    }
    wb = wb_from(cells)
    assert effective_constant(wb.sheets[0].cells["A1"]) == "100"
    assert val(wb, "A2") == 101.0
    assert val(wb, "A3") == 0.0


def test_numeric_text_parsing_rule():
    assert parse_numeric_text(" 200 ") == 200.0
    assert parse_numeric_text("+2.5e3") == 2500.0
    assert parse_numeric_text(".5") == 0.5
    assert parse_numeric_text("") is None
    assert parse_numeric_text("12x") is None
    assert parse_numeric_text("inf") is None
    assert parse_numeric_text("nan") is None
    assert parse_numeric_text("1e400") is None   # beyond float range
    assert parse_numeric_text("-1e400") is None
    assert formula_result('=COUNT("1e400")') == 0.0


def test_boolean_and_empty_coercion_in_arithmetic():
    assert formula_result("=TRUE+1") == 2.0
    assert formula_result("=A1+5") == 5.0  # A1 empty
    assert formula_result('="  7 "*2') == 14.0
    assert formula_result('="x"+1') == VALUE_ERR


# --- operators -----------------------------------------------------------------

def test_unary_minus_power_pinned():
    assert formula_result("=-2^2") == 4.0
    assert formula_result("=0-2^2") == -4.0


def test_power_edge_cases():
    assert formula_result("=0^0") == 1.0
    assert formula_result("=0^-1") == DIV0
    assert formula_result("=(0-8)^0.5") == VALUE_ERR
    assert formula_result("=2^10") == 1024.0


def test_division_by_zero():
    assert formula_result("=1/0") == DIV0
    assert formula_result("=1/A1") == DIV0  # empty divisor coerces to 0


def test_overflow_is_value_error():
    assert formula_result("=1e300*1e300") == VALUE_ERR
    huge = {"A1": "1e400"}  # numeric-looking text beyond float range
    assert formula_result("=-A1", huge) == VALUE_ERR
    assert formula_result("=ABS(A1)", huge) == VALUE_ERR
    assert formula_result('=SUM("1e400")') == VALUE_ERR
    assert formula_result("=SUM(-A1,-(-A1))", huge) == VALUE_ERR
    big = {"A1": 1e308, "A2": 1e308}
    assert formula_result("=SUM(A1:A2)", big) == VALUE_ERR
    assert formula_result("=AVERAGE(A1:A2)", big) == VALUE_ERR
    assert formula_result("=ROUND(1.7e308,0-308)") == VALUE_ERR


def test_concatenation_renders_canonically():
    assert formula_result('="a"&1') == "a1"
    assert formula_result("=2&TRUE") == "2TRUE"
    assert formula_result("=A1&2") == "2"  # empty renders ""
    assert formula_result("=2.5&0") == "2.50"


def test_comparisons_type_order_and_case():
    assert formula_result('=1<"a"') is True       # number < text
    assert formula_result('="a"<TRUE') is True    # text < logical
    assert formula_result('="A"="a"') is True     # case-insensitive text
    assert formula_result('="x"=1') is False      # mixed types never equal
    assert formula_result('="x"<>1') is True
    assert formula_result("=A1=0") is True        # empty vs number -> 0
    assert formula_result('=A1=""') is True       # empty vs text -> ""
    assert formula_result("=A1=FALSE") is True    # empty vs logical -> FALSE
    assert formula_result("=FALSE<TRUE") is True


def test_errors_propagate_through_operators():
    wb = wb_from({"A1": "=1/0", "A2": "=A1+1", "A3": "=NOT(A1)", "A4": '=A1&"x"'})
    assert val(wb, "A2") == DIV0
    assert val(wb, "A3") == DIV0
    assert val(wb, "A4") == DIV0


# --- functions -----------------------------------------------------------------

def test_if_is_lazy_and_or_are_not():
    assert formula_result("=IF(TRUE,1,1/0)") == 1.0
    assert formula_result("=IF(FALSE,1/0,2)") == 2.0
    assert formula_result("=IF(FALSE,1)") is False  # missing else
    assert formula_result("=AND(FALSE,1/0)") == DIV0
    assert formula_result("=OR(TRUE,1/0)") == DIV0


def test_if_never_reads_the_branch_it_does_not_take(monkeypatch):
    def no_range_read(*_args):
        raise AssertionError("an untaken branch read a range")

    monkeypatch.setattr(engine_mod._Evaluator, "iter_range", no_range_read)
    cells = {"A1": 1.0, "A2": 2.0}
    assert formula_result("=IF(TRUE,1,SUM(A1:A2))", cells) == 1.0
    assert formula_result("=IF(A1>5,SUM(A1:A2)/0,2)+IF(FALSE,COUNT(A1:A2))", cells) == 2.0
    assert formula_result("=SUM(IF(A1,IF(A2<0,MAX(A1:A2),3),MIN(A1:A2)),1)", cells) == 4.0
    with pytest.raises(AssertionError, match="untaken"):  # a taken branch does read
        formula_result("=IF(TRUE,SUM(A1:A2))", cells)


def test_a_warm_run_walks_no_if_branch_again(monkeypatch):
    # Each IF branch's walk is kept with its class, so running the plan
    # again builds none; both branches are taken across the copies.
    cells: dict[str, object] = {f"A{r}": float(r % 3 - 1) for r in range(1, 5001)}
    cells.update({f"B{r}": f"=IF(A{r}>0,A{r}*2+1,A{r}-1)" for r in range(1, 5001)})
    wb = wb_from(cells)
    plan = EvalPlan(wb, parse_workbook_formulas(wb))
    plan.run()
    walks: list = []

    def counted_postorder(*args, **kwargs):
        walks.append(args)
        return postorder(*args, **kwargs)

    monkeypatch.setattr(formula_mod, "postorder", counted_postorder)
    monkeypatch.setattr(engine_mod, "postorder", counted_postorder, raising=False)
    values = plan.run()
    assert walks == []
    assert [values[CellAddress("S1", r, 2)] for r in (1, 2, 3)] == [-1.0, 3.0, -2.0]


def test_if_condition_coercion():
    assert formula_result("=IF(2,1,0)") == 1.0
    assert formula_result('=IF("true",1,0)') == 1.0
    assert formula_result("=IF(A1,1,0)") == 0.0  # empty -> FALSE
    assert formula_result('=IF("maybe",1,0)') == VALUE_ERR


def test_and_or_not():
    assert formula_result("=AND(TRUE,1,\"true\")") is True
    assert formula_result("=AND(TRUE,0)") is False
    assert formula_result("=OR(FALSE,0)") is False
    assert formula_result("=NOT(0)") is True
    # ranges are not scalars for logic functions
    assert formula_result("=AND(A1:A2)", {"A1": True, "A2": True}) == VALUE_ERR


def test_round_half_away_from_zero():
    assert formula_result("=ROUND(2.5,0)") == 3.0
    assert formula_result("=ROUND(0-2.5,0)") == -3.0
    assert formula_result("=ROUND(1.005,2)") == 1.01
    assert formula_result("=ROUND(1234.567,0-2)") == 1200.0
    assert formula_result("=ROUND(1e30,2)") == 1e30


def test_abs():
    assert formula_result("=ABS(0-3.5)") == 3.5


def test_aggregates_reference_skip_semantics():
    cells = {"A1": 10, "A2": "x", "A3": True, "A5": 30}
    assert formula_result("=SUM(A1:A5)", cells) == 40.0
    assert formula_result("=COUNT(A1:A5)", cells) == 2.0
    assert formula_result("=AVERAGE(A1:A5)", cells) == 20.0
    assert formula_result("=MIN(A1:A5)", cells) == 10.0
    assert formula_result("=MAX(A1:A5)", cells) == 30.0


def test_aggregates_typed_args_coerce():
    assert formula_result('=SUM("5",TRUE,4)') == 10.0
    assert formula_result('=SUM("x")') == VALUE_ERR
    assert formula_result('=COUNT("5","x",7)') == 2.0  # COUNT declines, no error
    assert formula_result("=AVERAGE(A1:A2)") == DIV0  # empty set
    assert formula_result("=MIN(A1:A2)") == 0.0
    assert formula_result("=MAX(A1:A2)") == 0.0


def test_errors_are_not_skipped_by_aggregates():
    cells = {"A1": 1, "A2": "=1/0", "A3": 3}
    assert formula_result("=SUM(A1:A3)", cells) == DIV0
    assert formula_result("=COUNT(A1:A3)", cells) == DIV0
    assert formula_result("=MAX(A1:A3)", cells) == DIV0


def test_single_cell_reference_value_passthrough():
    assert formula_result("=A1", {"A1": "label"}) == "label"
    assert formula_result("=A1", {"A1": True}) is True
    assert formula_result("=A1") == 0.0  # empty direct reference


# --- references ----------------------------------------------------------------

def test_out_of_bounds_and_missing_sheet_are_ref_errors():
    assert formula_result("=XFE1") == REF_ERR       # column beyond the grid
    assert formula_result("=A1048577") == REF_ERR   # row beyond the grid
    assert formula_result("=Nope!A1") == REF_ERR
    assert formula_result("=SUM(Nope!A1:A2)") == REF_ERR
    # a range reaching beyond the grid is one #REF!, not a cycle through its host
    assert val(wb_from({"A1": "=SUM(A1:A2000000)"}), "A1") == REF_ERR


def test_cross_sheet_references_work():
    wb = wb_from({"A1": "=Data!B1*2"}, extra_sheets={"Data": {"B1": 21}})
    assert val(wb, "A1") == 42.0


# --- cycles ---------------------------------------------------------------------

def test_direct_and_indirect_cycles():
    wb = wb_from({"A1": "=B1", "B1": "=A1", "C1": "=A1+1", "D1": 5, "E1": "=D1"})
    assert val(wb, "A1") == CYCLE_ERR
    assert val(wb, "B1") == CYCLE_ERR
    assert val(wb, "C1") == CYCLE_ERR  # propagated, not on the cycle itself
    assert val(wb, "E1") == 5.0

    plan = EvalPlan(wb, parse_workbook_formulas(wb))
    assert {a.a1 for a in plan.in_cycle} == {"A1", "B1"}


def test_eval_cells_reevaluates_a_cone_over_an_overlay():
    wb = wb_from({"A1": "2", "A2": 3.0, "B1": "=SUM(A1:A2)", "B2": "=B1*10",
                  "C1": "=A2+1", "D1": "=D1+A1"})
    a1 = CellAddress("S1", 1, 1)
    asts = parse_workbook_formulas(wb)
    g = build_graph(wb, asts=asts)
    plan = EvalPlan(wb, asts, g)
    values = plan.run()
    before = dict(values)
    cone = g.cone(a1)
    assert [a.a1 for a in cone] == ["B1", "B2"]  # D1 is on a cycle, C1 does not read A1
    new = plan.eval_cells(cone, values, {a1: 2.0})
    assert new == {CellAddress("S1", 1, 2): 5.0, CellAddress("S1", 2, 2): 50.0}
    assert values == before


def test_self_reference_cycle():
    wb = wb_from({"A1": "=A1+1"})
    assert val(wb, "A1") == CYCLE_ERR


def test_cycle_through_range():
    wb = wb_from({"A1": 1, "A2": "=SUM(A1:A3)", "A3": "=A2*2"})
    assert val(wb, "A2") == CYCLE_ERR
    assert val(wb, "A3") == CYCLE_ERR


def _seeded(topology: str, formulas: int, inputs: int):
    spec = SeedSpec(topology, formulas, inputs, error_rate=0.3, rng_seed=7)
    return seed_defects(generate_clean(spec), spec).workbook


AGREEMENT_BOOKS = {
    "out-of-grid range over its host": lambda: wb_from(
        {"A1": "=SUM(A1:A2000000)", "A2": "=A1+1", "B1": "=SUM(A1:B2)"}),
    "cycle through a range": lambda: wb_from(
        {"A1": 1, "A2": "=SUM(A1:A3)", "A3": "=A2*2", "B1": "=A3+A1", "B2": "=B1"}),
    "cross-sheet cycle": lambda: wb_from(
        {"A1": "=Data!A1+1", "A2": "=A1*2", "A3": "=Data!B1"},
        extra_sheets={"Data": {"A1": "=S1!A1*2", "B1": 4, "B2": "=B1+S1!A3"}}),
    "missing-sheet reference": lambda: wb_from(
        {"A1": "=Nope!A1+1", "A2": "=SUM(Nope!A1:B3)", "A3": "=A1+A2", "A4": "=A3"}),
    "seeded chain": lambda: _seeded("chain", 120, 6),
    "seeded tree": lambda: _seeded("tree", 60, 60),
    "seeded grid": lambda: _seeded("grid", 144, 12),
}


@pytest.mark.parametrize("name", AGREEMENT_BOOKS)
def test_engine_and_graph_agree_on_cycles_and_order(name):
    wb = AGREEMENT_BOOKS[name]()
    asts = parse_workbook_formulas(wb)
    plan = EvalPlan(wb, asts)
    g = build_graph(wb, asts=asts)
    assert plan.in_cycle == {a for cycle in chain_stats(g).cycles for a in cycle}

    position = {addr: i for i, addr in enumerate(plan.order)}
    assert len(position) == len(plan.order)
    assert position.keys() | plan.in_cycle == asts.keys()
    for addr in plan.order:
        for prec in g.precedents[addr]:
            if prec in g.formula_cells and prec not in plan.in_cycle:
                assert position[prec] < position[addr], (addr, prec)


def test_long_chain_no_recursion_limit():
    n = 10_000
    cells: dict[str, object] = {"A1": 1}
    for i in range(2, n + 1):
        cells[f"A{i}"] = f"=A{i-1}+1"
    wb = wb_from(cells)
    assert val(wb, f"A{n}") == float(n)


def _random_book(seed: int) -> Workbook:
    """Constants of every kind, error cells, a cycle and depth-4 random
    formulas pasted as copies, on S1 and two sheets its references name."""
    rng = random.Random(seed)

    def constant() -> object:
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice(["12", " 3.5", "abc", "TRUE", "", "1e400"])
        if kind == 1:
            return CellContent(value=float(rng.randint(0, 99)), number_format="text",
                               locked=True)
        if kind == 2:
            return rng.random() < 0.5
        return rng.choice([0.0, 1.0, -2.5, 7.0, 1e300, float(rng.randint(-50, 50))])

    cells: dict[str, object] = {f"{col_to_letters(rng.randint(1, 14))}{rng.randint(1, 14)}":
                                constant() for _ in range(60)}
    for _ in range(8):
        expr = random_expr(rng, depth=4, coord_span=12)
        row, col = rng.randint(1, 8), rng.randint(1, 8)
        for _ in range(4):
            dr, dc = rng.randint(0, 5), rng.randint(0, 5)
            host = CellAddress("S1", row + dr, col + dc)
            cells[host.a1] = render(FormulaAst("=", host, translate_expr(expr, dr, dc)))
    cells.update({"P1": "=1/0", "P2": '="abc"+1', "P3": "=Nowhere!A1", "P4": "=P1+P2",
                  "Q1": "=Q2+1", "Q2": "=Q1*2", "Q3": "=SUM(Q1:Q2)"})
    data = {f"A{r}": constant() for r in range(1, 13)}
    data.update({"B1": "=SUM(A1:A12)", "B2": "=S1!A1&A2", "B3": "=COUNT(S1!A1:C14)"})
    return wb_from(cells, extra_sheets={"Data": data, "it's": {"A1": 5.0, "C3": "=A1*2"}})


# sha256 of evaluate() over seeded random books, values in address order,
# pinned so that any change to a value shows at once. A change that means
# to alter values updates these and says so in CHANGES.md.
@pytest.mark.parametrize("seed, digest", [
    (1, "6051921730f1fd3c8f6a5aa7830248a89cb3811617e534a61e55f14a73095d14"),
    (2, "2423ee68c2556f356f9d47dc15039dac7492edfa268168379ad4833052093983"),
    (3, "2f249594fc1e5fbab739587df0f512f6ce80c39873ae53ddd04bdb00e7c9d249"),
    (4, "5efc7260029774eb321b9676a80fecbe7a32ff39399b0bbdbf99addbfa9cce41"),
])
def test_evaluation_digest_is_pinned(seed, digest):
    values = evaluate(_random_book(seed))
    doc = [[addr.qualified, value_to_json(values[addr])] for addr in sorted(values)]
    assert sum(isinstance(v, dict) for _, v in doc) > 5  # error values are there
    assert hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest() == digest


def test_evaluate_is_deterministic():
    wb = wb_from({"A1": 2, "A2": "=A1*3", "A3": "=SUM(A1:A2)"})
    assert evaluate(wb) == evaluate(wb)


def test_evaluate_with_overrides():
    wb = wb_from({"A1": 2, "A2": "=A1*3"})
    values = evaluate(wb, overrides={CellAddress("S1", 1, 1): 10.0})
    assert values[CellAddress("S1", 2, 1)] == 30.0
    # overriding a formula cell freezes it to a constant
    values = evaluate(wb, overrides={CellAddress("S1", 2, 1): 99.0})
    assert values[CellAddress("S1", 2, 1)] == 99.0


# --- values and rendering --------------------------------------------------------

def test_values_match_tolerances():
    assert values_match(1.0, 1.0 + 1e-13)
    assert values_match(1e9, 1e9 * (1 + 1e-10))
    assert not values_match(1.0, 1.001)
    assert values_match("x", "x")
    assert not values_match("x", 1.0)
    assert values_match(True, True)
    assert not values_match(True, 1.0)
    assert not values_match(1.0, ErrorValue("#DIV/0!"))
    assert not values_match(1.0, None)


# --- snapshot / recheck -----------------------------------------------------------

def make_model():
    return wb_from(
        {"A1": 100, "A2": 18, "A3": "=A1*A2", "A4": "=A3/2"},
        outputs=("S1!A3", "S1!A4"),
    )


def test_snapshot_then_recheck_clean():
    wb = make_model()
    snap = snapshot(wb, created_at="2026-01-15T00:00:00")
    assert snap.outputs == {"S1!A3": 1800.0, "S1!A4": 900.0}
    assert snap.inputs == {"S1!A1": 100.0, "S1!A2": 18.0}
    report = recheck(wb, snap)
    assert report.ok
    assert report.mismatch_count == 0
    assert set(report.matches) == {"S1!A3", "S1!A4"}


def test_recheck_detects_formula_tampering():
    wb = make_model()
    snap = snapshot(wb, created_at="2026-01-15T00:00:00")
    tampered = wb.replace_cell(
        CellAddress("S1", 3, 1), CellContent(value=1801.0, locked=True)
    )
    report = recheck(tampered, snap)
    assert not report.ok
    # the hardwired cell itself and everything downstream of it drift
    assert [m.address for m in report.mismatches] == ["S1!A3", "S1!A4"]
    assert report.mismatches[0].expected == 1800.0
    assert report.mismatches[0].actual == 1801.0
    assert report.mismatches[1].actual == 900.5


def test_recheck_reapplies_inputs_over_current_values():
    wb = make_model()
    snap = snapshot(wb, created_at="2026-01-15T00:00:00")
    moved = wb.replace_cell(CellAddress("S1", 1, 1), CellContent(value=999.0, locked=True))
    # input differs now, but recheck pins it back to the snapshot value
    assert recheck(moved, snap).ok


def test_recheck_missing_output_counts_as_mismatch():
    wb = make_model()
    snap = snapshot(wb, created_at="2026-01-15T00:00:00")
    # drop the declaration first (the model refuses dangling declarations),
    # then delete the cell; the snapshot still remembers it
    from gridaudit.model import Workbook, WorkbookMeta

    gutted = Workbook(
        name=wb.name,
        sheets=wb.sheets,
        meta=WorkbookMeta(wb.meta.modified, ("S1!A3",), wb.meta.protection_enabled),
    ).replace_cell(CellAddress("S1", 4, 1), None)
    report = recheck(gutted, snap)
    assert report.missing_outputs == ("S1!A4",)
    assert report.mismatch_count == 1
    assert not report.ok


def test_recheck_missing_input_raises():
    wb = make_model()
    snap = snapshot(wb, created_at="2026-01-15T00:00:00")
    smaller = wb.replace_cell(CellAddress("S1", 2, 1), None)
    smaller = type(wb)(
        name=smaller.name,
        sheets=smaller.sheets,
        meta=wb.meta,
    )
    with pytest.raises(MissingInputCell):
        recheck(smaller, snap)


def test_snapshot_requires_outputs_and_no_error_outputs():
    with pytest.raises(NoDeclaredOutputs):
        snapshot(wb_from({"A1": 1}))
    with pytest.raises(OutputIsError):
        snapshot(wb_from({"A1": "=1/0"}, outputs=("S1!A1",)))


def test_snapshot_json_roundtrip():
    snap = snapshot(make_model(), created_at="2026-01-15T00:00:00")
    text = snapshot_to_json(snap)
    again = parse_snapshot(text)
    assert again == snap


@pytest.mark.parametrize("doc, message", [
    (b"\xe9", "not UTF-8"),
    (b'{"version": 1,', "not valid JSON"),
    ('{"version": 2, "workbook": "b", "createdAt": "t", "inputs": {}, "outputs": {}}',
     "unsupported snapshot"),
])
def test_parse_snapshot_rejects_malformed_documents(doc, message):
    with pytest.raises(MalformedDocument, match=message):
        parse_snapshot(doc)


def test_parse_snapshot_rejects_numbers_that_are_not_finite_floats():
    doc = {"version": 1, "workbook": "b", "createdAt": "t",
           "inputs": {"S1!A1": 10 ** 400}, "outputs": {}}
    with pytest.raises(MalformedDocument, match="number too large for a float"):
        parse_snapshot(json.dumps(doc))
    for value in (math.inf, -math.inf, math.nan):
        doc["inputs"]["S1!A1"] = value
        with pytest.raises(MalformedDocument, match="non-finite number"):
            parse_snapshot(json.dumps(doc))
    doc["inputs"]["S1!A1"] = 10 ** 4000
    with pytest.raises(MalformedDocument, match="not valid JSON"):
        parse_snapshot(json.dumps(doc).replace("1" + "0" * 4000, "1" + "0" * 5000))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluate_matches_the_reference_evaluator_property(seed):
    # Copies that differ only in their literals are one class, evaluated
    # through one kept walk; the reference parses and recurses per cell.
    wb = literal_copies_book(seed)
    typed = [{addr: (type(v), v) for addr, v in values.items()}
             for values in (evaluate(wb), ReferenceEvaluator(wb).evaluate())]
    assert typed[0] == typed[1]
