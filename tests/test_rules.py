"""Detector rule tests: one oracle workbook per rule plus runner plumbing."""

from __future__ import annotations

import pytest

import gridaudit.rules as rules_mod
from gridaudit.engine import EvalPlan, evaluate
from gridaudit.errors import InvalidConfig
from gridaudit.graph import build_graph
from gridaudit.model import CellContent, parse_qualified
from gridaudit.rules import (
    RULE_IDS,
    Finding,
    RuleConfig,
    finding_from_dict,
    rule_config_from_dict,
    run_rules,
)
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


def test_finding_round_trip():
    wb = wb_from({"A1": "=A2*2+3"}, name="model_final")
    for f in run(wb).findings:
        assert finding_from_dict(f.to_dict()) == f
    good = run(wb).findings[0].to_dict()
    for bad, where in (({}, "ruleId"), ({**good, "evidence": 5}, "evidence"),
                       ({k: v for k, v in good.items() if k != "location"}, "location"),
                       ("x", "object")):
        with pytest.raises(InvalidConfig, match=where):
            finding_from_dict(bad)  # type: ignore[arg-type]
