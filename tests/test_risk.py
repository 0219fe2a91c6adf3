"""Risk model tests: pinned closed-form values and shape of the report."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridaudit.errors import InvalidConfig, InvalidTeamSize
from gridaudit.graph import build_graph, chain_stats
from gridaudit.risk import (
    SHOW_STOPPER_RATE,
    RiskParams,
    assess,
    complexity_multiplier,
    detection_yield,
    expected_errors,
    p_any_error,
    p_chain_correct,
    p_material,
    report_from_dict,
    residual_after_inspection,
    risk_score,
)
from helpers import wb_from


def test_param_validation():
    with pytest.raises(InvalidConfig):
        RiskParams(p=1.5)
    with pytest.raises(InvalidConfig):
        RiskParams(s=-0.1)
    with pytest.raises(InvalidConfig):
        RiskParams(team_yields=((1, 0.63), (3, 0.5)))  # decreasing
    with pytest.raises(InvalidConfig):
        RiskParams(team_yields=((3, 0.83), (1, 0.63)))  # keys out of order
    with pytest.raises(InvalidConfig):
        RiskParams(residual_band=(0.0, 0.003))
    with pytest.raises(InvalidConfig):
        RiskParams(multiplier_cap=0.5)


def test_complexity_multiplier_clamps():
    assert complexity_multiplier(6.0) == 1.0
    assert complexity_multiplier(12.0) == 2.0
    assert complexity_multiplier(3.0) == 1.0     # floor
    assert complexity_multiplier(60.0) == 4.0    # cap
    assert complexity_multiplier(0.0) == 1.0


def test_detection_yield_table():
    params = RiskParams()
    assert detection_yield(params, team_size=1) == 0.63
    assert detection_yield(params, team_size=3) == 0.83
    assert detection_yield(params, team_size=2) == pytest.approx(0.73)
    assert detection_yield(params, team_size=10) == 0.83   # clamped high
    assert detection_yield(params) == 0.60                 # generic
    assert detection_yield(params, team_size=1, round_yield=0.7) == 0.7
    with pytest.raises(InvalidTeamSize):
        detection_yield(params, team_size=0)
    with pytest.raises(InvalidConfig):
        detection_yield(params, round_yield=1.2)


def test_closed_forms_pinned():
    # frozen against independent arithmetic: 1 - 0.98^100 and 0.98^50
    assert p_any_error(0.02, 100) == pytest.approx(0.8674, abs=1e-4)
    assert p_chain_correct(0.02, 50) == pytest.approx(0.3642, abs=1e-4)
    assert expected_errors(0.02, 1000) == pytest.approx(20.0)
    # the audited rate makes errors near-certain at moderate size
    assert p_any_error(0.052, 150) > 0.999
    assert p_material(0.02, 0.15, 50) == pytest.approx(1 - (1 - 0.003) ** 50)


def test_residuals_pinned():
    out = residual_after_inspection(20.0, None, 3)  # generic yield 0.60
    assert out == pytest.approx([8.0, 3.2, 1.28])
    assert residual_after_inspection(20.0, 1, 1) == pytest.approx([7.4])
    assert residual_after_inspection(20.0, None, 0) == []
    with pytest.raises(InvalidTeamSize):
        residual_after_inspection(20.0, 0, 1)


def test_residual_band_reached_at_three_rounds():
    params = RiskParams()
    lo, hi = params.residual_band
    for u in (50, 77, 100, 1000):
        e = 0.02 * u
        residuals = residual_after_inspection(e, None, 5, params)
        per_formula = [r / u for r in residuals]
        hits = [r + 1 for r, v in enumerate(per_formula) if lo <= v <= hi]
        assert hits and hits[0] == 3
    # three generic rounds catch 93.6% of errors
    assert 1 - 0.4 ** 3 == pytest.approx(0.936)


def test_risk_score_pinned():
    assert risk_score(0, 1.0, 0, 0, False) == pytest.approx(3.0)
    assert risk_score(999, 1.0, 0, 0, False) == pytest.approx(33.0)
    doubled = risk_score(200, 1.0, 0, 0, False) - risk_score(100, 1.0, 0, 0, False)
    assert 2.9 < doubled < 3.1
    assert risk_score(10, 1.0, 0, 0, True) - risk_score(10, 1.0, 0, 0, False) == 5.0


@given(st.integers(min_value=100, max_value=10**6), st.floats(1.0, 4.0),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_risk_score_size_term_dominates(u, mult, chain, cross):
    chain = min(chain, u)
    cross = min(cross, u)
    size_term = 10.0 * math.log10(1 + u)
    assert size_term > 3.0 * min(4.0, mult)
    assert size_term > 2.0 * math.log10(1 + chain)
    assert size_term > 1.0 * math.log10(1 + cross)
    assert size_term > 5.0


@given(st.floats(0.001, 0.2), st.floats(0.001, 0.2),
       st.integers(1, 500), st.integers(1, 500))
def test_p_any_error_monotone(p1, p2, u1, u2):
    lo_p, hi_p = sorted((p1, p2))
    lo_u, hi_u = sorted((u1, u2))
    assert p_any_error(lo_p, lo_u) <= p_any_error(hi_p, lo_u) + 1e-15
    assert p_any_error(lo_p, lo_u) <= p_any_error(lo_p, hi_u) + 1e-15


@given(st.floats(0.001, 0.2), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       st.integers(1, 500), st.integers(1, 500))
def test_p_material_monotone(p, s1, s2, l1, l2):
    lo_s, hi_s = sorted((s1, s2))
    lo_l, hi_l = sorted((l1, l2))
    assert p_material(p, lo_s, lo_l) <= p_material(p, hi_s, lo_l) + 1e-15
    assert p_material(p, lo_s, lo_l) <= p_material(p, lo_s, hi_l) + 1e-15
    assert 0.0 <= p_material(p, lo_s, lo_l) <= 1.0


def test_assess_report_shape():
    wb = wb_from(
        {
            "A1": 1.0, "A2": 2.0, "A3": 3.0,
            "B1": "=A1*2", "B2": "=A2*2", "B3": "=A3*2",
            "C3": "=SUM(B1:B3)",
        },
        outputs=("S1!C3",),
    )
    report = assess(wb, chain_stats(build_graph(wb)))
    assert report.unique_formulas == 2  # three copies share one form
    assert report.multiplier == 1.0     # tiny formulas
    assert report.expected_errors == pytest.approx(0.02 * 2)
    out = report.per_output["S1!C3"]
    assert out.chain_length == 4
    assert out.p_chain_correct == pytest.approx(0.98 ** 4)
    assert out.p_material == pytest.approx(1 - (1 - 0.02 * 0.15) ** 4)
    assert len(report.residual_after_rounds) == 3
    assert report.notes == (
        "probabilities assume independent errors per unique formula; "
        "clustered defects will be underestimated",)
    assert report.risk_score == pytest.approx(
        10 * math.log10(3) + 3.0 + 2 * math.log10(5))


def test_assess_fraud_term_and_missing_outputs():
    wb = wb_from({"A1": 1.0, "A2": "=A1*2"})
    base = assess(wb, chain_stats(build_graph(wb)))
    flagged = assess(wb, chain_stats(build_graph(wb)), fraud_indicator_count=2)
    assert flagged.risk_score - base.risk_score == pytest.approx(5.0)
    assert any("no declared outputs" in n for n in base.notes)
    assert base.per_output == {}


def test_assess_team_size_changes_residuals():
    wb = wb_from({"A1": 1.0, "A2": "=A1*2"})
    generic = assess(wb, chain_stats(build_graph(wb)))
    team = assess(wb, chain_stats(build_graph(wb)), team_size=3, rounds=2)
    assert len(team.residual_after_rounds) == 2
    assert team.residual_after_rounds[0] == pytest.approx(
        generic.expected_errors * 0.17)


def test_effective_rate_capped():
    params = RiskParams(p=0.3)
    wb = wb_from({"A1": "=A2+A3+A4+A5+A6+A7+A8+A9+A10+A11+A12+A13+A14"})
    report = assess(wb, chain_stats(build_graph(wb)), params)
    # 25 tokens / 6 > 4 -> multiplier caps at 4; 0.3*4 would pass 1.0
    assert report.multiplier == 4.0
    assert report.expected_errors <= report.unique_formulas
    assert 0.0 <= report.p_any_error <= 1.0


def test_report_round_trip():
    wb = wb_from({"A1": 1.0, "A2": "=A1*2"}, outputs=("S1!A2",))
    report = assess(wb, chain_stats(build_graph(wb)), team_size=3)
    assert report_from_dict(report.to_dict()) == report
    good = report.to_dict()
    for bad, where in (({}, "'U'"), ({**good, "U": "x"}, "'U'"),
                       ({**good, "perOutput": {"S1!A2": {}}}, "'L'"),
                       ({**good, "perOutput": [1]}, "perOutput"),
                       ({**good, "residualAfterRounds": 5}, "residualAfterRounds"),
                       ({**good, "params": {**good["params"], "residualBand": [1]}},
                        "residualBand"),
                       ({**good, "params": {**good["params"], "teamYields": [5]}}, "teamYields"),
                       (5, "object")):
        with pytest.raises(InvalidConfig, match=where):
            report_from_dict(bad)  # type: ignore[arg-type]


def test_show_stopper_is_a_constant():
    assert SHOW_STOPPER_RATE == 0.05
