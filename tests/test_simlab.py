"""Synthetic corpus generation, defect seeding, and Monte Carlo estimators."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridaudit.errors import EmptyTruth, InvalidConfig
from gridaudit.formula import parse_workbook_formulas
from gridaudit.graph import build_graph
from gridaudit.model import Workbook
from gridaudit.risk import RiskParams, p_any_error, p_chain_correct
from gridaudit.rules import run_rules
from gridaudit.simlab import (
    AUX_SHEET,
    MAIN_SHEET,
    SeedSpec,
    detection_experiment,
    generate_clean,
    monte_carlo,
    seed_defects,
    spec_from_dict,
    truth_from_dict,
    truth_to_json,
)

JAM_ONLY = (("JAMMED", 1.0),)


def audit(wb):
    asts = parse_workbook_formulas(wb)
    g = build_graph(wb, asts=asts)
    return run_rules(wb, g, asts=asts)


def findings_by_cell(report) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for f in report.findings:
        key = f.location.qualified if f.location else "*"
        out.setdefault(key, set()).add(f.rule_id)
    return out


# --- SeedSpec validation ------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(InvalidConfig):
        SeedSpec("ring", 5, 2)
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", -1, 2)
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", 5, 2, error_rate=1.5)
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", 5, 2, defect_mix=(("NOT_A_RULE", 1.0),))
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", 5, 2, defect_mix=(("JAMMED", 0.7),))
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", 5, 2, defect_mix=(("JAMMED", -1.0), ("HARDWIRED", 2.0)))
    with pytest.raises(InvalidConfig):
        SeedSpec("chain", 5, 2, rng_seed=-1)


def test_spec_dict_round_trip():
    spec = SeedSpec("grid", 60, 10, error_rate=0.12, rng_seed=42)
    assert spec_from_dict(spec.to_dict()) == spec
    with pytest.raises(InvalidConfig):
        spec_from_dict({"topology": "chain", "formulaCount": 1,
                        "inputCount": 1, "bogus": 3})
    good = spec.to_dict()
    for bad, where in (({}, "topology"), ({**good, "formulaCount": "x"}, "formulaCount"),
                       ({**good, "errorRate": [0.1]}, "errorRate"),
                       ({**good, "defectMix": {"JAMMED": "x"}}, "defectMix"),
                       ({**good, "defectMix": 5}, "defectMix"), ([], "object")):
        with pytest.raises(InvalidConfig, match=where):
            spec_from_dict(bad)  # type: ignore[arg-type]


@settings(max_examples=50, deadline=None)
@given(
    topology=st.sampled_from(["chain", "tree", "grid"]),
    fc=st.integers(min_value=0, max_value=200),
    ic=st.integers(min_value=0, max_value=40),
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_spec_round_trip_property(topology, fc, ic, rate, seed):
    spec = SeedSpec(topology, fc, ic, error_rate=rate, rng_seed=seed)
    assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# --- Clean generation ---------------------------------------------------------

def test_chain_layout_is_exact():
    wb = generate_clean(SeedSpec("chain", 5, 3, rng_seed=0))
    model = wb.sheets[0]
    assert model.name == MAIN_SHEET
    assert model.cells["A1"].value == 1000.5
    assert model.cells["A3"].value == 1026.5
    assert model.cells["A4"].formula == "=A3+2"
    assert model.cells["A8"].formula == "=A7+6"
    assert wb.meta.outputs == (f"{MAIN_SHEET}!A8",)
    assert wb.sheets[1].name == AUX_SHEET
    assert wb.meta.protection_enabled


def test_no_formulas_yields_constants_only():
    wb = generate_clean(SeedSpec("chain", 0, 3, rng_seed=1))
    assert not list(wb.formula_cells())
    assert wb.meta.outputs == (f"{MAIN_SHEET}!A3",)


def test_grid_outputs_are_bottom_frontier():
    # 25 formulas over width 5 leave a full 5x5 block: outputs are its last row
    wb = generate_clean(SeedSpec("grid", 25, 5, rng_seed=0))
    assert wb.meta.outputs == tuple(f"{MAIN_SHEET}!{c}6" for c in "ABCDE")

    # a ragged last row exposes frontier cells from the row above as well
    ragged = generate_clean(SeedSpec("grid", 22, 5, rng_seed=0))
    assert set(ragged.meta.outputs) == {
        f"{MAIN_SHEET}!A6", f"{MAIN_SHEET}!B6",
        f"{MAIN_SHEET}!C5", f"{MAIN_SHEET}!D5", f"{MAIN_SHEET}!E5",
    }


def test_generation_is_deterministic_and_seed_sensitive():
    spec = SeedSpec("tree", 30, 30, rng_seed=9)
    assert generate_clean(spec) == generate_clean(spec)
    other = generate_clean(SeedSpec("tree", 30, 30, rng_seed=10))
    assert generate_clean(spec) != other


@pytest.mark.parametrize("topology,fc,ic", [
    ("chain", 80, 6), ("chain", 0, 0), ("chain", 3, 0),
    ("tree", 80, 80), ("tree", 1, 1),
    ("grid", 80, 10), ("grid", 5, 0), ("grid", 0, 4),
])
def test_clean_workbooks_have_no_findings(topology, fc, ic):
    for seed in (0, 7, 123):
        report = audit(generate_clean(SeedSpec(topology, fc, ic, rng_seed=seed)))
        assert report.findings == ()
        assert report.coverage_ok


# --- Defect seeding -----------------------------------------------------------

def test_rate_zero_returns_workbook_untouched():
    spec = SeedSpec("chain", 30, 3, error_rate=0.0, rng_seed=5)
    clean = generate_clean(spec)
    seeded = seed_defects(clean, spec)
    assert seeded.workbook is clean
    assert seeded.truth == ()


def test_rate_one_defects_every_formula():
    spec = SeedSpec("chain", 20, 2, error_rate=1.0, defect_mix=JAM_ONLY,
                    rng_seed=3)
    seeded = seed_defects(generate_clean(spec), spec)
    assert len(seeded.truth) == 20
    assert {t.defect_class for t in seeded.truth} == {"JAMMED"}
    cells = {t.cell for t in seeded.truth}
    assert len(cells) == 20


def test_dup_literal_seeding_walks_the_book_a_fixed_number_of_times(monkeypatch):
    walks: list = []
    iter_cells = Workbook.iter_cells

    def counted(self):
        walks.append(self)
        return iter_cells(self)

    monkeypatch.setattr(Workbook, "iter_cells", counted)
    per_size = []
    for formulas in (40, 160):
        spec = SeedSpec("tree", formulas, 20, error_rate=1.0,
                        defect_mix=(("DUP_LITERAL", 1.0),), rng_seed=5)
        clean = generate_clean(spec)
        walks.clear()
        seeded = seed_defects(clean, spec)
        assert [t.defect_class for t in seeded.truth] == ["DUP_LITERAL"] * formulas
        per_size.append(len(walks))
    assert per_size[0] == per_size[1]


def test_seeding_is_deterministic():
    spec = SeedSpec("grid", 120, 10, error_rate=0.2, rng_seed=11)
    a = seed_defects(generate_clean(spec), spec)
    b = seed_defects(generate_clean(spec), spec)
    assert a.workbook == b.workbook
    assert a.truth == b.truth
    c = seed_defects(generate_clean(spec), SeedSpec("grid", 120, 10,
                                                    error_rate=0.2, rng_seed=12))
    assert c.truth != a.truth


def test_truth_records_the_original_content():
    spec = SeedSpec("chain", 20, 2, error_rate=1.0, defect_mix=JAM_ONLY,
                    rng_seed=3)
    clean = generate_clean(spec)
    seeded = seed_defects(clean, spec)
    for entry in seeded.truth:
        sheet, _, key = entry.cell.partition("!")
        before = clean.sheets[0].cells[key]
        after = seeded.workbook.sheets[0].cells[key]
        assert sheet == MAIN_SHEET
        assert entry.original == before.formula
        assert after.formula != before.formula


def test_truth_json_shape():
    spec = SeedSpec("chain", 10, 2, error_rate=1.0, defect_mix=JAM_ONLY,
                    rng_seed=1)
    seeded = seed_defects(generate_clean(spec), spec)
    doc = json.loads(truth_to_json(seeded))
    assert doc["workbook"] == seeded.workbook.name
    assert len(doc["entries"]) == 10
    assert set(doc["entries"][0]) == {"cell", "class", "original"}


def test_truth_round_trips_through_its_dict():
    spec = SeedSpec("grid", 40, 6, error_rate=0.5,
                    defect_mix=(("JAMMED", 0.5), ("VERSION_NAME", 0.5)), rng_seed=2)
    seeded = seed_defects(generate_clean(spec), spec)
    assert any(t.cell == "*" for t in seeded.truth)
    assert truth_from_dict(json.loads(truth_to_json(seeded))) == seeded.truth


def test_seeded_count_tracks_binomial_mean():
    # mean of |truth| over many seeds must sit near formula_count * rate
    n, rate, seeds = 20, 0.15, 2000
    total = 0
    for seed in range(seeds):
        spec = SeedSpec("chain", n, 2, error_rate=rate, defect_mix=JAM_ONLY,
                        rng_seed=seed)
        total += len(seed_defects(generate_clean(spec), spec).truth)
    mean = total / seeds
    se = math.sqrt(n * rate * (1 - rate) / seeds)
    assert abs(mean - n * rate) < 3 * se


# --- Per-class recall ---------------------------------------------------------

RECALL_CASES = [
    # class, topology, formulas, inputs, rate
    ("NUM_AS_TEXT", "chain", 3, 9, 1.0),
    ("JAMMED", "chain", 10, 2, 1.0),
    ("DUP_LITERAL", "chain", 4, 3, 1.0),
    ("LONG_FORMULA", "grid", 12, 4, 1.0),
    ("LONG_ARC", "chain", 40, 2, 1.0),
    ("XSHEET_REF", "tree", 6, 6, 1.0),
    ("ORPHAN_OUTPUT", "chain", 5, 2, 1.0),
    ("UNPROTECTED_FORMULA", "grid", 9, 3, 1.0),
    ("FLOW_VIOLATION", "grid", 9, 3, 1.0),
    ("VERSION_NAME", "chain", 2, 1, 1.0),
    # a saturating rate mutates every neighbor, so hardwire runs only form
    # at lower densities
    ("HARDWIRED", "grid", 120, 10, 0.2),
]


@pytest.mark.parametrize("cls,topology,fc,ic,rate", RECALL_CASES)
def test_each_class_is_planted_and_found(cls, topology, fc, ic, rate):
    spec = SeedSpec(topology, fc, ic, error_rate=rate,
                    defect_mix=((cls, 1.0),), rng_seed=3)
    seeded = seed_defects(generate_clean(spec), spec)
    report = audit(seeded.workbook)
    assert report.coverage_ok
    by_cell = findings_by_cell(report)
    planted = [t for t in seeded.truth if t.defect_class == cls]
    assert planted, f"{cls} never applied"
    for entry in planted:
        assert cls in by_cell.get(entry.cell, set()), entry


def test_inapplicable_draws_fall_back_to_jammed():
    # hosts below row 27 cannot carry a long reference arc
    spec = SeedSpec("chain", 40, 2, error_rate=1.0,
                    defect_mix=(("LONG_ARC", 1.0),), rng_seed=3)
    seeded = seed_defects(generate_clean(spec), spec)
    classes = {t.defect_class for t in seeded.truth}
    assert classes == {"LONG_ARC", "JAMMED"}
    assert len(seeded.truth) == 40


def test_rename_defect_is_workbook_level():
    spec = SeedSpec("chain", 2, 1, error_rate=1.0,
                    defect_mix=(("VERSION_NAME", 1.0),), rng_seed=3)
    clean = generate_clean(spec)
    seeded = seed_defects(clean, spec)
    marks = [t for t in seeded.truth if t.defect_class == "VERSION_NAME"]
    assert len(marks) == 1
    assert marks[0].cell == "*"
    assert marks[0].original == clean.name
    assert seeded.workbook.name != clean.name
    report = audit(seeded.workbook)
    hits = [f for f in report.findings if f.rule_id == "VERSION_NAME"]
    assert len(hits) == 1 and hits[0].location is None


def test_mixed_corpus_recall_is_total():
    for seed in (1, 2, 3, 4, 5):
        for topology, fc, ic in [("chain", 60, 6), ("tree", 60, 60),
                                 ("grid", 60, 10)]:
            spec = SeedSpec(topology, fc, ic, error_rate=0.15, rng_seed=seed)
            seeded = seed_defects(generate_clean(spec), spec)
            by_cell = findings_by_cell(audit(seeded.workbook))
            for entry in seeded.truth:
                assert entry.defect_class in by_cell.get(entry.cell, set()), (
                    topology, seed, entry)


# --- Monte Carlo --------------------------------------------------------------

def test_monte_carlo_validates_inputs():
    params = RiskParams()
    with pytest.raises(InvalidConfig):
        monte_carlo(params, 10, 5, trials=999)
    with pytest.raises(InvalidConfig):
        monte_carlo(params, -1, 5, trials=1000)
    for multiplier in (-1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidConfig, match="multiplier"):
            monte_carlo(params, 10, 5, trials=1000, multiplier=multiplier)


def test_monte_carlo_degenerate_edges():
    zero = RiskParams(p=0.0)
    res = monte_carlo(zero, 50, 30, trials=1000, rng_seed=1)
    assert res.p_any_error_hat == 0.0
    assert res.p_chain_correct_hat == 1.0
    assert res.se_any_error == 0.0

    sure = RiskParams(p=0.5)
    res = monte_carlo(sure, 50, 30, trials=1000, rng_seed=1, multiplier=4.0)
    assert res.p_any_error_hat == 1.0
    assert res.p_chain_correct_hat == 0.0

    empty = monte_carlo(RiskParams(), 0, 0, trials=1000, rng_seed=1)
    assert empty.p_any_error_hat == 0.0
    assert empty.p_chain_correct_hat == 1.0


def test_monte_carlo_matches_closed_forms():
    params = RiskParams()
    res = monte_carlo(params, 50, 30, trials=20_000, rng_seed=7)
    assert res.trials == 20_000
    expect_any = p_any_error(params.p, 50)
    expect_chain = p_chain_correct(params.p, 30)
    assert abs(res.p_any_error_hat - expect_any) < 4 * max(res.se_any_error, 1e-4)
    assert abs(res.p_chain_correct_hat - expect_chain) < 4 * max(
        res.se_chain_correct, 1e-4)


def test_monte_carlo_is_seed_stable():
    a = monte_carlo(RiskParams(), 20, 10, trials=5000, rng_seed=3)
    b = monte_carlo(RiskParams(), 20, 10, trials=5000, rng_seed=3)
    assert a == b


# --- Detection experiments ----------------------------------------------------

def seeded_fixture(count: int = 20):
    spec = SeedSpec("chain", count, 2, error_rate=1.0, defect_mix=JAM_ONLY,
                    rng_seed=3)
    return seed_defects(generate_clean(spec), spec)


def test_detection_requires_truth_and_valid_args():
    spec = SeedSpec("chain", 5, 2, error_rate=0.0, rng_seed=1)
    empty = seed_defects(generate_clean(spec), spec)
    with pytest.raises(EmptyTruth):
        detection_experiment(empty, 3, 3)
    with pytest.raises(InvalidConfig):
        detection_experiment(seeded_fixture(), 3, -1)
    with pytest.raises(InvalidConfig):
        detection_experiment(seeded_fixture(), 3, 3, trials=0)


def test_perfect_round_clears_everything():
    res = detection_experiment(seeded_fixture(), None, 2, round_yield=1.0,
                               trials=8)
    assert res.initial_count == 20
    assert res.counts.shape == (8, 2)
    assert not res.counts.any()


def test_zero_rounds_yields_empty_trajectory():
    res = detection_experiment(seeded_fixture(), 3, 0, trials=4)
    assert res.counts.shape == (4, 0)
    assert res.mean_by_round == ()


def test_survivors_never_increase():
    res = detection_experiment(seeded_fixture(), 1, 5, trials=64, rng_seed=9)
    padded = np.column_stack([np.full(64, res.initial_count), res.counts])
    assert (np.diff(padded, axis=1) <= 0).all()


def test_mean_trajectory_tracks_geometric_decay():
    res = detection_experiment(seeded_fixture(), None, 3, round_yield=0.4,
                               trials=4000, rng_seed=5)
    for r, mean in enumerate(res.mean_by_round, start=1):
        expect = 20 * 0.6**r
        se = math.sqrt(20 * 0.6**r * (1 - 0.6**r) / 4000)
        assert abs(mean - expect) < 3 * se, (r, mean, expect)
