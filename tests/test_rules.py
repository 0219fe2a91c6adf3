"""Detector rule tests: one oracle workbook per rule plus runner plumbing."""

from __future__ import annotations

import io
import json
import random
import tempfile
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridaudit.engine as engine_mod
import gridaudit.formula as formula_mod
import gridaudit.graph as graph_mod
import gridaudit.rules as rules_mod
from gridaudit.cli import build_audit_report, main
from gridaudit.engine import EvalPlan, evaluate
from gridaudit.errors import InvalidConfig
from gridaudit.formula import FormulaAst, parse_workbook_formulas
from gridaudit.graph import build_graph
from gridaudit.model import (
    CellAddress,
    CellContent,
    col_to_letters,
    parse_qualified,
    serialize_workbook,
)
from gridaudit.rules import (
    RULE_IDS,
    RuleConfig,
    rule_config_from_dict,
    run_rules,
)
from gridaudit.simlab import SeedSpec, generate_clean
from helpers import wb_from


def run(wb, cfg=None):
    return run_rules(wb, build_graph(wb), cfg)


def hits(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


CLEAN = {"A1": 1.0, "A2": 2.0, "A3": "=SUM(A1:A2)"}


def test_clean_workbook_zero_findings_full_coverage():
    wb = wb_from(CLEAN, outputs=("S1!A3",))
    report = run(wb)
    assert report.findings == ()
    assert report.applicable == 3
    assert set(report.examined) == set(RULE_IDS)
    assert all(n == 3 for n in report.examined.values())
    assert report.coverage_ok


def test_determinism():
    wb = wb_from({"A1": 1500.0, "B1": "=A1*2+3", "C1": 1500.0})
    assert run(wb) == run(wb)


def test_num_as_text_inside_aggregate_understatement():
    wb = wb_from(
        {"B1": 100.0, "B2": "300", "B3": 200.0, "B9": "=SUM(B1:B3)"},
        outputs=("S1!B9",),
    )
    found = hits(run(wb), "NUM_AS_TEXT")
    assert len(found) == 1
    f = found[0]
    assert f.location.a1 == "B2"
    assert f.severity == "error"
    assert f.category == "fraud-indicator"
    assert f.evidence["coercedValue"] == 300.0
    assert f.evidence["aggregates"] == ["S1!B9"]
    assert f.evidence["understatement"] == 300.0


def test_num_as_text_formatted_number_counts():
    wb = wb_from(
        {
            "B1": 100.0,
            "B2": CellContent(value=300.0, number_format="text", locked=True),
            "B9": "=SUM(B1:B2)",
        },
        outputs=("S1!B9",),
    )
    found = hits(run(wb), "NUM_AS_TEXT")
    assert len(found) == 1
    assert found[0].evidence["understatement"] == 300.0


def test_num_as_text_adjacency_trigger():
    wb = wb_from({"A1": 5.0, "A2": "42", "A3": 6.0})
    found = hits(run(wb), "NUM_AS_TEXT")
    assert len(found) == 1
    assert found[0].evidence["numericNeighbors"] == 2
    assert found[0].evidence["understatement"] == 0.0


def test_num_as_text_requires_context():
    # numeric text with one numeric neighbor and no aggregate: not flagged
    wb = wb_from({"A1": 5.0, "A2": "42"})
    assert hits(run(wb), "NUM_AS_TEXT") == []
    # plain labels never flag
    wb = wb_from({"B1": "total", "B2": 1.0, "B3": 2.0, "B9": "=SUM(B1:B3)"})
    assert hits(run(wb), "NUM_AS_TEXT") == []
    # text too large for a float has no number to be retyped as
    wb = wb_from({"B1": "1e400", "B2": 1.0, "B3": 2.0, "B9": "=SUM(B1:B3)"})
    report = run(wb)
    assert hits(report, "NUM_AS_TEXT") == [] and hits(report, "INTERNAL_ERROR") == []


def test_num_as_text_understatement_matches_full_reevaluation():
    wb = wb_from(
        {
            "A1": 100.0, "A2": "200", "A4": 400.0, "A5": "50",
            "A3": CellContent(value=300.0, number_format="text", locked=True),
            "B1": "=SUM(A1:A5)",
            "B2": "=AVERAGE(A1:A4)",
            "B3": "=MAX(A1:A5)",
            "B4": "=SUM(SUM(A1:A3),A4:A5)",  # nested aggregate
            "C1": "=SUM(A1:A2,B1)",          # a host that also reads a host
            "C2": "=B1*2",                   # depends on a host
            "C3": "=SUM(A2:A3)*C2",          # a host downstream of a host
            "C4": "=SUM(B1:B4)",             # sums hosts, covers no text-number
            "D1": "=D2+SUM(A1:A3)",          # a host on a reference cycle
            "D2": "=D1",
            "D3": "=SUM(A4:A5)+D1",          # a host reading the cycle
        },
        extra_sheets={"Data": {"A1": "=SUM(S1!A2:A3)", "A2": "=A1+S1!C1"}},
    )
    found = hits(run(wb), "NUM_AS_TEXT")
    assert {f.location.a1 for f in found} == {"A2", "A3", "A5"}
    base = evaluate(wb)
    for f in found:
        locked = wb.cell(f.location).locked
        retyped = evaluate(wb.replace_cell(
            f.location, CellContent(value=f.evidence["coercedValue"], locked=locked)))
        expected = 0.0
        for host in map(parse_qualified, f.evidence["aggregates"]):
            before, after = base[host], retyped[host]
            if isinstance(before, float) and isinstance(after, float):
                expected += after - before
        assert f.evidence["understatement"] == expected
    a2 = next(f for f in found if f.location.a1 == "A2")
    # B1, B2, B4, C1 (A2 directly and again through B1), C3 (through C2), Data!A1
    assert a2.evidence["understatement"] == pytest.approx(
        200 + (700 / 3 - 250) + 200 + 400 + 200 * 1400 + 200)


@pytest.mark.parametrize("k", [5, 40])
def test_num_as_text_evaluates_the_book_once_plus_each_cone(monkeypatch, k):
    cells: dict[str, object] = {f"A{r}": str(r) for r in range(1, k + 1)}
    cells.update({"B1": f"=SUM(A1:A{k})", "B2": "=B1+1", "B3": "=B2*2",  # every cone
                  "C1": 7.0, "C2": "=C1+1", "C3": "=C2+1", "C4": "=C3+1"})
    evaluated: list[int] = []
    real = EvalPlan._eval_into

    def counting(self, addrs, values):
        evaluated.append(len(addrs))
        return real(self, addrs, values)

    monkeypatch.setattr(EvalPlan, "_eval_into", counting)
    assert len(hits(run(wb_from(cells)), "NUM_AS_TEXT")) == k
    assert evaluated == [6] + [3] * k  # the whole book once, then one cone per text-number


def test_num_as_text_audit_walks_each_formula_once(monkeypatch):
    walked: list[CellAddress] = []
    real = graph_mod.precedents_of

    def counting(ast, indexes):
        walked.append(ast.host)
        return real(ast, indexes)

    monkeypatch.setattr(graph_mod, "precedents_of", counting)
    monkeypatch.setattr(engine_mod, "precedents_of", counting)
    wb = wb_from({"A1": "5", "A2": 3.0, "A3": "7", "B1": "=SUM(A1:A3)", "B2": "=B1*2",
                  "C1": "=A2+1"})
    rep = build_audit_report(wb)
    assert len([f for f in rep.findings if f.rule_id == "NUM_AS_TEXT"]) == 2
    assert sorted(walked) == sorted(addr for addr, _cell in wb.formula_cells())


def test_num_as_text_walks_each_class_for_its_aggregates_once(monkeypatch):
    # A4:D4 are copies of one SUM, whose ranges are the class's moved by each
    # copy's offset; E1 is a class of its own. Each class's tree is walked
    # once, when its first copy is parsed, and the rule reads what it found.
    walked: list[object] = []

    class CountingFacts(formula_mod._ClassFacts):
        __slots__ = ()

        def __init__(self, root):
            walked.append(root)
            super().__init__(root)

    monkeypatch.setattr(formula_mod, "_ClassFacts", CountingFacts)
    cells: dict[str, object] = {"A1": "5", "A2": 1.0, "A3": 2.0, "B1": 3.0, "B2": "6",
                                "B3": 4.0, "C1": 1.0, "C2": 1.0, "C3": "7", "D1": 2.0,
                                "D2": 2.0, "D3": 2.0, "E1": "=MAX(A1:D1)+1"}
    cells.update({f"{col}4": f"=SUM({col}1:{col}3)" for col in "ABCD"})
    wb = wb_from(cells)
    asts = parse_workbook_formulas(wb)
    report = run_rules(wb, build_graph(wb, asts), asts=asts)
    found = {f.location.a1: (f.evidence["aggregates"], f.evidence["understatement"])
             for f in hits(report, "NUM_AS_TEXT")}
    assert found == {"A1": (["S1!E1", "S1!A4"], 5.0 + 2.0), "B2": (["S1!B4"], 6.0),
                     "C3": (["S1!C4"], 7.0)}
    assert len(walked) == 2


@pytest.mark.parametrize("command, exit_code", [
    ("audit", 1), ("risk", 0), ("snapshot", 0), ("recheck", 0)])
def test_each_command_condenses_and_indexes_the_book_once(monkeypatch, tmp_path, command,
                                                          exit_code):
    # two text-numbers under a SUM: an audit's NUM_AS_TEXT evaluates the book
    wb = wb_from({"A1": "5", "A2": 3.0, "A3": "7", "B1": "=SUM(A1:A3)", "B2": "=B1*2",
                  "C1": "=A2+1", "D1": "=D1+A1"}, outputs=("S1!B2",))
    path = tmp_path / "book.json"
    path.write_text(serialize_workbook(wb), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["snapshot", str(path)]) == 0
    calls = {"tarjan_sccs": 0, "sheet_indexes": 0}
    for name in calls:
        real = getattr(graph_mod, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        # every module that holds the function, by any name, calls the counter
        for mod in (graph_mod, engine_mod, rules_mod):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    with redirect_stdout(io.StringIO()) as out:
        assert main([command, str(path)]) == exit_code
    assert command != "audit" or "NUM_AS_TEXT" in out.getvalue()
    assert calls == {"tarjan_sccs": 1, "sheet_indexes": 1}


@pytest.mark.parametrize("command, exit_code", [
    ("audit", 1), ("risk", 0), ("snapshot", 0), ("recheck", 0)])
def test_a_book_that_reads_only_before_itself_is_not_sorted(monkeypatch, tmp_path, command,
                                                             exit_code):
    # every formula reads cells above it or to its left, so reading order is
    # the evaluation order: no Tarjan pass, and evaluation alone builds no
    # precedent set; two text-numbers under a SUM make the audit evaluate
    wb = wb_from({"A1": "5", "B1": 3.0, "C1": "7", "A2": "=SUM(A1:C1)", "B2": "=A2*2",
                  "C2": "=B1+1", "A3": "=A2+B2"}, outputs=("S1!A3",),
                 extra_sheets={"Data": {"A1": "=S1!A3+S1!C2"}})
    path = tmp_path / "book.json"
    path.write_text(serialize_workbook(wb), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["snapshot", str(path)]) == 0
    calls = {"tarjan_sccs": 0, "precedents_of": 0}
    for name in calls:
        real = getattr(graph_mod, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for mod in (graph_mod, engine_mod, rules_mod):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    with redirect_stdout(io.StringIO()) as out:
        assert main([command, str(path)]) == exit_code
    assert command != "audit" or "NUM_AS_TEXT" in out.getvalue()
    assert calls["tarjan_sccs"] == 0
    assert calls["precedents_of"] == (5 if command in ("audit", "risk") else 0)


def test_hardwired_interior_constant():
    wb = wb_from(
        {
            "A2": 1.0, "A3": 2.0, "A4": 3.0, "A5": 4.0,
            "B2": "=A2*2", "B3": "=A3*2", "B4": 500.0, "B5": "=A5*2",
        },
    )
    found = hits(run(wb), "HARDWIRED")
    assert [f.location.a1 for f in found] == ["B4"]
    assert found[0].evidence["normalForm"] == "=RC[-1]*2"
    assert found[0].evidence["value"] == "500"


def test_hardwired_needs_min_run_and_interior():
    # only two copies around the constant: below the run threshold
    wb = wb_from({"B2": "=A2*2", "B3": 500.0, "B4": "=A4*2"})
    assert hits(run(wb), "HARDWIRED") == []
    # trailing constant after the run is a legitimate input, not interior
    wb = wb_from({"B2": "=A2*2", "B3": "=A3*2", "B4": "=A4*2", "B5": 500.0})
    assert hits(run(wb), "HARDWIRED") == []


def test_hardwired_row_run():
    wb = wb_from({"B2": "=B1*2", "C2": "=C1*2", "D2": 7.5, "E2": "=E1*2"})
    found = hits(run(wb), "HARDWIRED")
    assert [f.location.a1 for f in found] == ["D2"]


def _hardwired_reference(grid: dict[tuple[int, int], int | None],
                         min_run: int) -> dict[tuple[int, int], int]:
    """Brute force: (row, col) -> form of each constant HARDWIRED flags.

    grid maps a cell to its formula's form, or None for a constant. Along a
    line, a constant is flagged when two formulas of one form enclose it
    with no empty cell and no formula of another form between them, and
    at least min_run formulas of that form from the first to the second.
    Rows are scanned before columns, and a cell keeps its first flag.
    """
    rows = sorted({r for r, _ in grid})
    cols = sorted({c for _, c in grid})
    # (index of the coordinate that advances along the line, its cells)
    lines = ([(1, [(r, c) for c in cols if (r, c) in grid]) for r in rows]
             + [(0, [(r, c) for r in rows if (r, c) in grid]) for c in cols])
    out: dict[tuple[int, int], int] = {}
    for axis, line in lines:
        for i, first in enumerate(line):
            form = grid[first]
            for j in range(i + 1, len(line)):
                span = line[i:j + 1]
                if form is None or grid[line[j]] != form:
                    continue
                if any(b[axis] != a[axis] + 1 for a, b in zip(span, span[1:])):
                    continue
                if any(grid[cell] not in (None, form) for cell in span):
                    continue
                if sum(grid[cell] == form for cell in span) < min_run:
                    continue
                for cell in span:
                    if grid[cell] is None:
                        out.setdefault(cell, form)
    return out


def test_hardwired_matches_brute_force_on_random_lines():
    rng = random.Random(8)
    flagged = 0
    for trial in range(300):
        forms = rng.choice([2, 3])
        grid: dict[tuple[int, int], int | None] = {}
        for r in range(1, rng.randint(2, 5) + 1):
            for c in range(1, rng.randint(3, 12) + 1):
                roll = rng.random()
                if roll < 0.15:
                    continue  # a gap
                grid[(r, c)] = None if roll < 0.45 else rng.randrange(forms)
        cells = {}
        for (r, c), form in grid.items():
            # form k reads the cell 30 + k rows below: normal form =R[30+k]C*2
            cells[f"{col_to_letters(c)}{r}"] = (
                float(r * 100 + c) + 0.5 if form is None
                else f"={col_to_letters(c)}{r + 30 + form}*2")
        min_run = rng.randint(1, 4)
        cfg = RuleConfig(enabled=frozenset({"HARDWIRED"}), min_run_length_for_hardwire=min_run)
        got = {(f.location.row, f.location.col): f.evidence["normalForm"]
               for f in run(wb_from(cells), cfg).findings}
        want = {cell: f"=R[{30 + form}]C*2"
                for cell, form in _hardwired_reference(grid, min_run).items()}
        assert got == want, (trial, cells, min_run)
        flagged += len(got)
    assert flagged > 100  # the lines are not all trivially clean


def test_jammed_literal_count():
    wb = wb_from({"A1": "=A2*2+3", "B1": "=B2*2"})
    found = hits(run(wb), "JAMMED")
    assert [f.location.a1 for f in found] == ["A1"]
    assert found[0].evidence["literals"] == ["2", "3"]


def test_dup_literal_flags_each_occurrence():
    wb = wb_from({"A1": 1500.0, "B1": "=A1+1500", "C1": 1.0, "D1": 1.0})
    found = hits(run(wb), "DUP_LITERAL")
    assert [f.location.a1 for f in found] == ["A1", "B1"]
    assert all(f.evidence["occurrences"] == ["S1!A1", "S1!B1"] for f in found)


def test_dup_literal_scope_and_exclusions():
    # below the magnitude floor
    wb = wb_from({"A1": 0.5, "B1": 0.5})
    assert hits(run(wb), "DUP_LITERAL") == []
    # repeated across sheets but once per sheet
    wb = wb_from({"A1": 1500.0}, extra_sheets={"Data": {"A1": 1500.0}})
    assert hits(run(wb), "DUP_LITERAL") == []
    # reference reuse is the endorsed pattern
    wb = wb_from({"A1": 1500.0, "B1": "=A1", "C1": "=A1*2"})
    assert hits(run(wb), "DUP_LITERAL") == []


def test_long_formula_threshold():
    wb = wb_from({"A1": "=A2+A3+A4+A5+A6+A7+A8+A9+A10+A11"})  # 19 tokens
    found = hits(run(wb), "LONG_FORMULA")
    assert len(found) == 1
    assert found[0].evidence["tokenCount"] == 19
    cfg = RuleConfig(long_formula_tokens=19)
    assert hits(run(wb, cfg), "LONG_FORMULA") == []


def test_long_arc_and_off_axis():
    wb = wb_from({"A30": "=A1*2", "AB30": "=B1*2"})
    found = hits(run(wb), "LONG_ARC")
    assert [f.location.a1 for f in found] == ["A30", "AB30"]
    by_cell = {f.location.a1: f for f in found}
    assert by_cell["A30"].evidence["offAxis"] is False
    assert by_cell["A30"].evidence["maxRefDistance"] == 29
    assert by_cell["AB30"].evidence["offAxis"] is True


def test_xsheet_ref_and_workbook_total():
    wb = wb_from(
        {"A1": "=Data!B1+Data!B2", "A2": "=A1*2"},
        extra_sheets={"Data": {"B1": 1.0, "B2": 2.0}},
    )
    report = run(wb)
    found = hits(report, "XSHEET_REF")
    assert len(found) == 1
    assert found[0].evidence == {"count": 2, "sheets": ["Data"]}
    assert report.cross_sheet_total == 2


def test_orphan_output():
    wb = wb_from({"A1": 1.0, "A2": "=A1*2", "A3": "=A1*3"}, outputs=("S1!A2",))
    found = hits(run(wb), "ORPHAN_OUTPUT")
    assert [f.location.a1 for f in found] == ["A3"]


def test_flow_violation_cases():
    wb = wb_from(
        {
            "A1": "=A2",          # below
            "B1": "=C1",          # same row, right
            "C3": "=SUM(C4:C9)",  # range dips below
            "D1": "=Data!Z9",     # cross-sheet refs carry no flow
            "E5": "=E4+D5",       # above and left: fine
        },
        extra_sheets={"Data": {"Z9": 1.0}},
    )
    found = hits(run(wb), "FLOW_VIOLATION")
    assert [f.location.a1 for f in found] == ["A1", "B1", "C3"]
    assert found[0].evidence["references"] == ["A2"]
    assert found[2].evidence["references"] == ["C4:C9"]


def test_copies_judge_flow_and_arcs_at_their_own_host():
    # Column B holds copies of one formula class each. A relative class is
    # judged once and its offenders rendered per copy; an absolute part
    # makes arc and flow depend on the copy's row.
    cells: dict[str, object] = {f"A{r}": float(r) + 0.5 for r in range(1, 62)}
    cells.update({f"B{r}": f"=$C$30+A{r}" for r in range(1, 61)})
    cells.update({f"D{r}": f"=A{r + 1}*1" for r in range(1, 61)})
    cells["C30"] = 7.5
    report = run(wb_from(cells))
    flow = {f.location.a1: f.evidence["references"] for f in hits(report, "FLOW_VIOLATION")}
    assert flow == {**{f"B{r}": ["C30"] for r in range(1, 31)},
                    **{f"D{r}": [f"A{r + 1}"] for r in range(1, 61)}}
    arcs = {f.location.a1: (f.evidence["maxRefDistance"], f.evidence["offAxisRefCount"])
            for f in hits(report, "LONG_ARC")}
    assert arcs == {**{f"B{r}": (30 - r, 1) for r in range(1, 5)},
                    **{f"B{r}": (r - 30, 1) for r in range(56, 61)}}


def test_unprotected_formula_severity_tracks_workbook_protection():
    unlocked = CellContent(formula="=A1*2", locked=False)
    wb = wb_from({"A1": 1.0, "A2": unlocked}, protection=True)
    found = hits(run(wb), "UNPROTECTED_FORMULA")
    assert len(found) == 1 and found[0].severity == "warning"
    wb = wb_from({"A1": 1.0, "A2": unlocked}, protection=False)
    found = hits(run(wb), "UNPROTECTED_FORMULA")
    assert len(found) == 1 and found[0].severity == "error"
    assert found[0].category == "control-gap"


def test_version_name_checks():
    ok = run(wb_from({"A1": 1.0}, name="model_v2_2026-01-15"))
    assert hits(ok, "VERSION_NAME") == []
    report = run(wb_from({"A1": 1.0}, name="model_final"))
    found = hits(report, "VERSION_NAME")
    assert len(found) == 1
    assert found[0].location is None
    assert found[0].evidence["hasVersionToken"] is False
    stale = run(wb_from({"A1": 1.0}, name="model_v2_2025-12-31"))
    assert "2025-12-31" in hits(stale, "VERSION_NAME")[0].message


def test_findings_sorted_workbook_level_first():
    wb = wb_from(
        {"B2": "=B3*40+50", "A1": "=A2*2+3"},  # jammed + flow in two cells
        name="no_tokens_here",
        outputs=("S1!A1", "S1!B2"),
    )
    report = run(wb)
    keys = [(f.rule_id, None if f.location is None else f.location.a1)
            for f in report.findings]
    assert keys == [
        ("VERSION_NAME", None),
        ("FLOW_VIOLATION", "A1"),
        ("JAMMED", "A1"),
        ("FLOW_VIOLATION", "B2"),
        ("JAMMED", "B2"),
    ]


def test_suppressions_and_count():
    wb = wb_from({"A1": "=A2*2+3"}, name="model_final")
    cfg = RuleConfig(suppressions=(("S1!A1", "JAMMED"), ("*", "VERSION_NAME")))
    report = run(wb, cfg)
    assert hits(report, "JAMMED") == []
    assert hits(report, "VERSION_NAME") == []
    assert report.suppressed_count == 2


def test_severity_override():
    wb = wb_from({"A1": "=A2*2+3"})
    cfg = RuleConfig(severity_overrides=(("JAMMED", "info"),))
    assert hits(run(wb, cfg), "JAMMED")[0].severity == "info"


def test_disabled_rules_not_examined():
    wb = wb_from({"A1": "=A2*2+3"})
    cfg = RuleConfig(enabled=frozenset({"JAMMED"}))
    report = run(wb, cfg)
    assert report.enabled == ("JAMMED",)
    assert set(report.examined) == {"JAMMED"}
    assert hits(report, "FLOW_VIOLATION") == []


def test_crashing_rule_reports_internal_findings(monkeypatch):
    wb = wb_from({"A1": 1.0, "A2": "=A1*2"})

    def boom(ast):
        raise RuntimeError("rule bug")

    monkeypatch.setattr(rules_mod, "_flow_offenders", boom)
    report = run(wb)
    internal = hits(report, "INTERNAL_ERROR")
    assert len(internal) == 1
    assert internal[0].location.a1 == "A2"
    assert internal[0].evidence["rule"] == "FLOW_VIOLATION"
    assert report.coverage_ok  # the cell was examined, the crash is on record


def test_two_cell_rules_crashing_on_one_cell_report_in_rule_order(monkeypatch):
    wb = wb_from({"A1": "=Data!A1+B9", "B9": 1.0}, extra_sheets={"Data": {"A1": 2.0}})

    def boom(ast):
        raise RuntimeError("rule bug")

    asts = parse_workbook_formulas(wb)
    g = build_graph(wb, asts)
    for ast in asts.values():
        ast.normal  # kept on the formula, read while facts still works
    # XSHEET_REF's sheet list and FLOW_VIOLATION's offenders both read the
    # class's references through facts
    monkeypatch.setattr(FormulaAst, "facts", property(boom))
    report = run_rules(wb, g, asts=asts)
    internal = [(f.location.qualified, f.evidence["rule"])
                for f in hits(report, "INTERNAL_ERROR")]
    # RULE_IDS order, not the alphabetical order of the rule names
    assert internal == [("S1!A1", "XSHEET_REF"), ("S1!A1", "FLOW_VIOLATION")]
    assert report.coverage_ok
    assert set(report.examined.values()) == {3}


def test_crashing_prepass_breaks_coverage(monkeypatch):
    wb = wb_from({"A1": 1.0})

    def boom(wb_):
        raise RuntimeError("setup bug")

    monkeypatch.setattr(rules_mod, "_version_name_finding", boom)
    report = run(wb)
    internal = hits(report, "INTERNAL_ERROR")
    assert len(internal) == 1 and internal[0].location is None
    assert not report.coverage_ok
    assert report.examined["VERSION_NAME"] == 0


def test_rule_config_validation():
    with pytest.raises(InvalidConfig):
        RuleConfig(enabled=frozenset({"NOT_A_RULE"}))
    with pytest.raises(InvalidConfig):
        RuleConfig(long_formula_tokens=0)
    with pytest.raises(InvalidConfig, match="dup_literal_min_magnitude"):
        rule_config_from_dict({"thresholds": {"dupLiteralMinMagnitude": float("nan")}})
    with pytest.raises(InvalidConfig):
        RuleConfig(severity_overrides=(("JAMMED", "fatal"),))
    with pytest.raises(InvalidConfig):
        RuleConfig(suppressions=(("S1!A1", "NOT_A_RULE"),))


def test_rule_config_from_dict():
    cfg = rule_config_from_dict(
        {
            "enabled": ["JAMMED", "DUP_LITERAL"],
            "thresholds": {
                "longFormulaTokens": 12,
                "dupLiteralMinMagnitude": 10,
                "dupLiteralExclusions": [0, 1, 100],
            },
            "severityOverrides": {"JAMMED": "info"},
            "suppressions": ["S1!A1:JAMMED", "*:VERSION_NAME"],
        }
    )
    assert cfg.enabled == frozenset({"JAMMED", "DUP_LITERAL"})
    assert cfg.long_formula_tokens == 12
    assert cfg.dup_literal_exclusions == frozenset({0.0, 1.0, 100.0})
    assert cfg.suppressions == (("S1!A1", "JAMMED"), ("*", "VERSION_NAME"))
    with pytest.raises(InvalidConfig):
        rule_config_from_dict({"threshold": {}})
    with pytest.raises(InvalidConfig):
        rule_config_from_dict({"thresholds": {"bogus": 1}})
    with pytest.raises(InvalidConfig, match="longFormulaTokens"):
        rule_config_from_dict({"thresholds": {"longFormulaTokens": "x"}})
    with pytest.raises(InvalidConfig, match="dupLiteralExclusions"):
        rule_config_from_dict({"thresholds": {"dupLiteralExclusions": 5}})
    with pytest.raises(InvalidConfig, match="enabled"):
        rule_config_from_dict({"enabled": 5})


# --- any document: a report or a located error -----------------------------

_HUGE = st.integers(min_value=2 * 10 ** 308, max_value=10 ** 400)  # beyond any float
_NUMBERS = st.one_of(st.integers(), st.floats(), _HUGE, _HUGE.map(lambda n: -n))
_FORMULAS = st.one_of(
    st.sampled_from(["=A1+1", "=SUM(A1:B2)", "=Data!A1*2", "=A2", "=B1-$A$1",
                     "=AVERAGE(A1:A3)+1500", "=IF(A1>2,A2,B1)", "=A1&\"x\"", "=1/0"]),
    st.text(alphabet="AB12:$!+-*/(),.\"= SUMIF", max_size=12).map(lambda s: "=" + s))
_CELLS = st.one_of(
    st.fixed_dictionaries({"v": st.one_of(_NUMBERS, st.text(max_size=6), st.booleans())},
                          optional={"locked": st.booleans(),
                                    "fmt": st.sampled_from(["text", "general"])}),
    st.fixed_dictionaries({"f": _FORMULAS}, optional={"locked": st.booleans()}),
    st.dictionaries(st.sampled_from(["v", "f", "locked", "fmt", "x"]),
                    st.one_of(st.none(), _NUMBERS, st.text(max_size=4)), max_size=3),
)
_SHEETS = st.fixed_dictionaries({
    "name": st.sampled_from(["S1", "Data"] * 4 + [""]),
    "cells": st.dictionaries(st.sampled_from(["A1", "A2", "A3", "B1", "B2", "a1", "C9"] * 3
                                             + ["A0", "XFD1048576", "XFE1"]),
                             _CELLS, max_size=6),
})
_WORKBOOKS = st.fixed_dictionaries(
    {"version": st.sampled_from([1] * 5 + [2]),
     "name": st.one_of(st.just("book_v1_2026-01-15"), st.text(max_size=8)),
     "meta": st.fixed_dictionaries(
         {"modified": st.sampled_from(["2026-01-15T09:30:00"] * 3 + ["yesterday"])},
         optional={"outputs": st.lists(st.sampled_from(["S1!A1", "Data!A1"] * 3
                                                       + ["S1!Z9", "A1"]), max_size=2),
                   "protectionEnabled": st.sampled_from([True, False] * 3 + [1])}),
     "sheets": st.lists(_SHEETS, max_size=2)},
    optional={"extra": st.none()})
_JSON = st.recursive(st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
                     lambda inner: st.one_of(st.lists(inner, max_size=3),
                                             st.dictionaries(st.text(max_size=4), inner,
                                                             max_size=3)),
                     max_leaves=8)
# mostly near the format, so that most documents get as far as the cells
_DOCUMENTS = st.integers(0, 9).flatmap(lambda k: _JSON if k == 0 else _WORKBOOKS)




def _near(fields: dict, optional: dict | None = None) -> st.SearchStrategy:
    """Mostly documents shaped like a side file, sometimes any JSON."""
    shaped = st.fixed_dictionaries(fields, optional=optional or {})
    return st.integers(0, 4).flatmap(lambda k: _JSON if k == 0 else shaped)


_CELL_NAMES = st.one_of(st.sampled_from(["Model!A5", "S1!A1", "*", "A1", "nonsense", "S1!A0"]),
                        _JSON)
_SIDE_FILES = st.fixed_dictionaries({
    "snapshot": _near({"version": st.sampled_from([1, 1, 1, 2]), "workbook": _JSON,
                       "createdAt": st.sampled_from(["2026-01-15T09:30:00", 5]),
                       "inputs": st.dictionaries(_CELL_NAMES.filter(lambda c: isinstance(c, str)),
                                                 _JSON, max_size=3),
                       "outputs": st.one_of(_JSON, st.dictionaries(
                           st.sampled_from(["S1!A1", "Data!A1", "Model!A5"]), _JSON, max_size=2))}),
    "config": _near({}, {"rules": st.dictionaries(
                             st.sampled_from(["enabled", "thresholds", "severityOverrides",
                                              "suppressions", "x"]), _JSON, max_size=2),
                         "plan": st.dictionaries(
                             st.sampled_from(["targetModuleSize", "rateCap", "rounds", "x"]),
                             _JSON, max_size=2)}),
    "session": _near({"inspectorId": _JSON, "moduleId": st.sampled_from(["M1", "M9"]),
                      "durationMinutes": st.one_of(_NUMBERS, _JSON),
                      "items": st.one_of(_JSON, st.lists(st.one_of(_JSON, st.fixed_dictionaries(
                          {"cell": _CELL_NAMES}, optional={"note": _JSON,
                                                           "suspectedClass": _JSON})),
                          max_size=2))}),
    "truth": _near({"entries": st.one_of(_JSON, st.lists(st.one_of(_JSON, st.fixed_dictionaries(
                        {"cell": _CELL_NAMES},
                        optional={"class": st.sampled_from(["JAMMED", "TYPO"]),
                                  "original": _JSON})), max_size=2))},
                   {"workbook": _JSON}),
})


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS, side=_SIDE_FILES)
def test_any_workbook_document_audits_or_fails_located(doc, side):
    # Every command ends in exit 0, 1 or 2 on the document, and so do the
    # commands that read a snapshot, config, session or truth file.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        files = {name: Path(tmp) / f"{name}.json" for name in ("book", *side)}
        files["book"].write_text(json.dumps(doc), encoding="utf-8")
        for name, value in side.items():
            files[name].write_text(json.dumps(value), encoding="utf-8")
        book, clean = str(files["book"]), str(Path(tmp) / "clean.json")
        Path(clean).write_text(serialize_workbook(generate_clean(SeedSpec("chain", 6, 2))),
                               encoding="utf-8")
        session = Path(tmp) / "ana.session"
        session.write_text(json.dumps({"inspectorId": "ana", "moduleId": "M1",
                                       "durationMinutes": 30, "items": []}), encoding="utf-8")
        own_snapshot = str(Path(tmp) / "own.snapshot.json")
        for argv in (["audit", book, "--format", "machine"],
                     ["snapshot", book, "--out", own_snapshot],
                     ["recheck", book, "--snapshot", own_snapshot],
                     ["recheck", book, "--snapshot", str(files["snapshot"])],
                     ["graph-dump", book], ["plan", book], ["risk", book],
                     ["diff", book, clean], ["threeway", clean, book, book],
                     ["audit", book, "--config", str(files["config"])],
                     ["plan", clean, "--config", str(files["config"])],
                     ["reconcile", clean, "M1", str(files["session"])],
                     ["reconcile", clean, "M1", str(session), "--truth", str(files["truth"])]):
            with redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv
