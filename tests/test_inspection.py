"""Inspection planning, session reconciliation, and yield scoring."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridaudit.errors import (
    EmptyTruth,
    InvalidCell,
    InvalidConfig,
    InvalidTeamSize,
    ModuleMismatch,
)
from gridaudit.inspection import (
    Module,
    PlanConfig,
    SessionFindings,
    SessionItem,
    effective_cells,
    plan,
    plan_config_from_dict,
    reconcile,
    session_from_dict,
    yield_report,
)
from gridaudit.simlab import SeedSpec, generate_clean
from helpers import wb_from


def simple_session(inspector: str, module_id: str, cells: list[str],
                   minutes: float = 60.0, cls: str | None = "JAMMED"):
    items = tuple(SessionItem(cell=c, suspected_class=cls) for c in cells)
    return SessionFindings(inspector_id=inspector, module_id=module_id,
                           items=items, duration_minutes=minutes)


MODULE = Module(id="M1", cells=("S1!B3", "S1!C7", "S1!D9", "S1!E2"),
                formula_count=4, effective_cells=4.0, estimated_minutes=2.4)


# --- Config -------------------------------------------------------------------

def test_plan_config_validation():
    with pytest.raises(InvalidConfig):
        PlanConfig(target_module_size=0)
    with pytest.raises(InvalidConfig):
        PlanConfig(rate_cap=0)
    with pytest.raises(InvalidTeamSize):
        PlanConfig(team_size=0)
    with pytest.raises(InvalidConfig):
        PlanConfig(rounds=-1)
    with pytest.raises(InvalidConfig):
        PlanConfig(session_cap_minutes=0)


def test_plan_config_from_dict():
    cfg = plan_config_from_dict({"targetModuleSize": 80, "rateCap": 50,
                                 "teamSize": 4})
    assert cfg.target_module_size == 80
    assert cfg.rate_cap == 50.0
    assert cfg.team_size == 4
    assert cfg.rounds == 3
    with pytest.raises(InvalidConfig):
        plan_config_from_dict({"rate_cap": 50})
    with pytest.raises(InvalidConfig, match="rateCap"):
        plan_config_from_dict({"rateCap": "x"})
    for bad in ({"rateCap": float("nan")}, {"rateCap": float("inf")}, {"rateCap": 0},
                {"sessionCapMinutes": float("nan")}, {"sessionCapMinutes": float("inf")},
                {"sessionCapMinutes": -5}):
        with pytest.raises(InvalidConfig, match="finite and > 0"):
            plan_config_from_dict(bad)


# --- Planning -----------------------------------------------------------------

def test_effective_cells_prices_excess_tokens():
    assert effective_cells(3) == 1.0
    assert effective_cells(10) == 1.0
    assert effective_cells(30) == 11.0
    assert effective_cells(30, long_formula_tokens=29) == 1.5


def test_default_plan_splits_450_simple_formulas_into_three_sittings():
    wb = generate_clean(SeedSpec("chain", 450, 2, rng_seed=0))
    p = plan(wb)
    assert [m.formula_count for m in p.modules] == [150, 150, 150]
    assert [m.estimated_minutes for m in p.modules] == [90.0, 90.0, 90.0]
    assert [m.id for m in p.modules] == ["M1", "M2", "M3"]
    assert p.team_size == 3
    assert p.rounds_recommended == 3
    assert p.session_cap_minutes == 120.0


def test_small_workbook_is_one_quick_module():
    wb = generate_clean(SeedSpec("chain", 10, 2, rng_seed=0))
    p = plan(wb)
    assert len(p.modules) == 1
    assert p.modules[0].formula_count == 10
    assert p.modules[0].estimated_minutes == pytest.approx(6.0)


def test_one_heavy_formula_is_budgeted_extra_time():
    # call + range + 14 (operator + ref) pairs = 30 tokens
    src = "=SUM(B1:B3)" + "+B1" * 14
    wb = wb_from({"A2": src})
    p = plan(wb)
    assert p.modules[0].effective_cells == pytest.approx(11.0)
    assert p.modules[0].estimated_minutes == pytest.approx(6.6)


def test_session_cap_splits_before_size_target():
    # 11 tokens -> 1.5 effective cells; 150 of them would run 135 minutes
    src = "=" + "+".join(["B1"] * 5) + "+2"
    wb = wb_from({f"A{r}": src for r in range(2, 202)})
    p = plan(wb)
    assert [m.formula_count for m in p.modules] == [133, 67]
    for m in p.modules:
        assert m.estimated_minutes <= 120.0


def test_modules_never_span_sheets():
    wb = wb_from({"A2": "=A1*2", "A3": "=A2*3"},
                 extra_sheets={"Data": {"A2": "=A1*4"}})
    p = plan(wb)
    sheets = [{c.partition("!")[0] for c in m.cells} for m in p.modules]
    assert all(len(s) == 1 for s in sheets)
    assert len(p.modules) == 2


def test_empty_workbook_plans_no_modules():
    wb = generate_clean(SeedSpec("chain", 0, 3, rng_seed=0))
    assert plan(wb).modules == ()


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(["chain", "tree", "grid"]),
    fc=st.integers(min_value=0, max_value=400),
    ic=st.integers(min_value=0, max_value=12),
    target=st.integers(min_value=1, max_value=200),
)
def test_plan_partitions_formula_cells_exactly(topology, fc, ic, target):
    wb = generate_clean(SeedSpec(topology, fc, ic, rng_seed=1))
    p = plan(wb, PlanConfig(target_module_size=target))
    covered = [c for m in p.modules for c in m.cells]
    expected = [addr.qualified for addr, _ in wb.formula_cells()]
    assert covered == expected  # disjoint cover, reading order preserved
    for m in p.modules:
        assert m.formula_count == len(m.cells) <= target
        assert m.estimated_minutes <= 120.0


def test_plan_dict_is_json_safe():
    p = plan(generate_clean(SeedSpec("grid", 60, 10, rng_seed=2)))
    assert json.loads(json.dumps(p.to_dict())) == p.to_dict()


# --- Sessions -----------------------------------------------------------------

def test_session_validation():
    with pytest.raises(InvalidConfig):
        SessionFindings("", "M1", (), 60.0)
    with pytest.raises(InvalidConfig):
        SessionFindings("ana", "M1", (), 0.0)
    good = {"inspectorId": "ana", "moduleId": "M1", "durationMinutes": 5, "items": []}
    for bad, where in (
            ({**good, "durationMinutes": json.loads("NaN")}, "finite"),
            ({**good, "durationMinutes": json.loads("Infinity")}, "finite"),
            ({k: v for k, v in good.items() if k != "durationMinutes"}, "durationMinutes"),
            ({**good, "items": 5}, "items"),
            ({**good, "items": [3]}, "cell"),
            # a wrong-typed value is refused, not coerced
            ({**good, "inspectorId": None}, "inspectorId"),
            ({**good, "moduleId": 7}, "moduleId"),
            ({**good, "durationMinutes": True}, "durationMinutes"),
            ({**good, "durationMinutes": "5"}, "durationMinutes"),
            ({**good, "items": [{"cell": 5}]}, "cell"),
            ({**good, "items": [{"cell": "S1!A1", "note": ["x"]}]}, "note"),
            ({**good, "items": [{"cell": "S1!A1", "suspectedClass": 1}]}, "suspectedClass")):
        with pytest.raises(InvalidConfig, match=where):
            session_from_dict(bad)


def test_session_dict_round_trip():
    text = json.dumps({"inspectorId": "ana", "moduleId": "M1", "durationMinutes": 60.0,
                       "items": [{"cell": "S1!B3", "note": "", "suspectedClass": "JAMMED"},
                                 {"cell": "S1!C7", "suspectedClass": "JAMMED"}]})
    assert session_from_dict(json.loads(text)) == simple_session("ana", "M1", ["S1!B3", "S1!C7"])
    with pytest.raises(InvalidConfig, match="unknown session keys"):
        session_from_dict({"inspectorId": "x", "moduleId": "M1",
                           "durationMinutes": 5, "items": [], "oops": 1})
    with pytest.raises(InvalidConfig, match="unknown session item keys"):
        session_from_dict({"inspectorId": "x", "moduleId": "M1",
                           "durationMinutes": 5,
                           "items": [{"cell": "S1!A1", "severity": "high"}]})


# --- Reconciliation -----------------------------------------------------------

def test_reconcile_union_and_overlap():
    a = simple_session("ana", "M1", ["S1!B3", "S1!C7"])
    b = simple_session("ben", "M1", ["S1!C7", "S1!D9"])
    res = reconcile([a, b], MODULE)
    assert [it.cell for it in res.union_items] == ["S1!B3", "S1!C7", "S1!D9"]
    assert res.per_inspector_counts == (("ana", 2), ("ben", 2))
    assert res.overlap_matrix == (("ana", "ben", 1),)
    assert res.hasty_inspectors == ()


def test_reconcile_single_session_is_identity():
    a = simple_session("ana", "M1", ["S1!B3", "S1!C7"])
    res = reconcile([a], MODULE)
    assert res.union_items == a.items
    assert res.overlap_matrix == ()


def test_reconcile_keys_on_cell_and_class():
    items = (SessionItem("S1!B3", suspected_class="JAMMED"),
             SessionItem("S1!B3", suspected_class="HARDWIRED"))
    a = SessionFindings("ana", "M1", items, 60.0)
    b = simple_session("ben", "M1", ["S1!B3"], cls="JAMMED")
    res = reconcile([a, b], MODULE)
    assert len(res.union_items) == 2
    assert res.overlap_matrix == (("ana", "ben", 1),)


def test_reconcile_keeps_first_note_per_key():
    a = SessionFindings("ana", "M1",
                        (SessionItem("S1!B3", note="typed total"),), 60.0)
    b = SessionFindings("ben", "M1",
                        (SessionItem("S1!B3", note="looks off"),), 60.0)
    res = reconcile([a, b], MODULE)
    assert len(res.union_items) == 1
    assert res.union_items[0].note == "typed total"


def test_reconcile_validates_inputs():
    with pytest.raises(InvalidConfig):
        reconcile([], MODULE)
    with pytest.raises(ModuleMismatch):
        reconcile([simple_session("ana", "M2", ["S1!B3"])], MODULE)
    with pytest.raises(InvalidCell):
        reconcile([simple_session("ana", "M1", ["S1!Z99"])], MODULE)
    with pytest.raises(InvalidCell):
        reconcile([simple_session("ana", "M1", ["Other!B3"])], MODULE)


def test_reconcile_accepts_constants_inside_the_span():
    # a hardwired constant sits between the module's formulas; inspectors
    # must be able to report it even though plans list formula cells only
    res = reconcile([simple_session("ana", "M1", ["S1!C5"])], MODULE)
    assert res.union_items[0].cell == "S1!C5"


def test_hasty_session_is_flagged():
    big = Module(id="M1", cells=tuple(f"S1!A{r}" for r in range(1, 151)),
                 formula_count=150, effective_cells=150.0,
                 estimated_minutes=90.0)
    rushed = SessionFindings("ana", "M1", (), 30.0)  # implied 300/h
    steady = SessionFindings("ben", "M1", (), 90.0)  # implied 100/h
    on_the_line = SessionFindings("cam", "M1", (), 60.0)  # implied 150/h
    res = reconcile([rushed, steady, on_the_line], big, rate_cap=100.0)
    assert res.hasty_inspectors == ("ana",)


def test_reconcile_union_is_idempotent():
    a = simple_session("ana", "M1", ["S1!B3", "S1!C7"])
    b = simple_session("ben", "M1", ["S1!C7", "S1!D9"])
    first = reconcile([a, b], MODULE)
    again = SessionFindings("merged", "M1", first.union_items, 60.0)
    assert reconcile([again], MODULE).union_items == first.union_items


def test_reconcile_dict_shape():
    res = reconcile([simple_session("ana", "M1", ["S1!B3"])], MODULE)
    doc = res.to_dict()
    assert doc["perInspectorCounts"] == {"ana": 1}
    assert doc["unionItems"][0]["cell"] == "S1!B3"
    assert doc["hastyInspectors"] == []


# --- Yield scoring ------------------------------------------------------------

TRUTH = [f"Model!A{r}" for r in range(1, 11)]


def test_yield_fraction_counts_located_cells():
    union = [SessionItem(cell, suspected_class="JAMMED")
             for cell in TRUTH[:6]]
    rep = yield_report(union, TRUTH)
    assert rep.yield_fraction == pytest.approx(0.6)
    assert len(rep.detected) == 6
    assert len(rep.missed) == 4


def test_yield_superset_and_disjoint():
    union = [SessionItem(cell, suspected_class="JAMMED") for cell in TRUTH]
    union.append(SessionItem("Model!Z1", suspected_class="JAMMED"))
    assert yield_report(union, TRUTH).yield_fraction == 1.0
    assert yield_report([], TRUTH).yield_fraction == 0.0


def test_yield_ignores_the_suspected_class():
    # locating the defect counts even when the diagnosis is off or absent
    union = [SessionItem(TRUTH[0], suspected_class="HARDWIRED"),
             SessionItem(TRUTH[1], suspected_class=None)]
    rep = yield_report(union, TRUTH)
    assert rep.yield_fraction == pytest.approx(0.2)
    assert rep.detected == (TRUTH[0], TRUTH[1])


def test_yield_requires_truth():
    with pytest.raises(EmptyTruth):
        yield_report([], [])
