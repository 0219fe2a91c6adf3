"""Acceptance gate: one test per release criterion, each printing a PASS line.

These are the checks the toolkit must clear before shipping: agreement
between the Monte Carlo lab and the closed forms, full recall on seeded
corpora, the documented inspection arithmetic, round-trip identities, and
runtime caps. Tolerances are pinned here rather than imported so a
regression elsewhere cannot quietly loosen the gate.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from gridaudit.cli import main
from gridaudit.engine import evaluate, recheck, snapshot
from gridaudit.formula import (
    FormulaAst,
    normalize,
    parse_formula,
    parse_workbook_formulas,
    render,
)
from gridaudit.graph import build_graph, chain_stats
from gridaudit.inspection import plan
from gridaudit.model import (
    CellAddress,
    CellContent,
    Sheet,
    Workbook,
    parse_qualified,
    parse_workbook,
    serialize_workbook,
)
from gridaudit.risk import RiskParams, assess, detection_yield, p_any_error
from gridaudit.rules import run_rules
from gridaudit.simlab import (
    SeedSpec,
    detection_experiment,
    generate_clean,
    monte_carlo,
    seed_defects,
)

from helpers import random_expr, translate_expr, wb_from


def announce(capsys, n: int) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE AC{n}: PASS")


# --- 1: Monte Carlo estimates agree with the closed forms ----------------------


def test_ac1_monte_carlo_agrees_with_closed_forms(capsys):
    t0 = time.monotonic()
    grid = [(p, u) for p in (0.01, 0.02, 0.052) for u in (10, 100, 1000)]
    for i, (p, u) in enumerate(grid):
        res = monte_carlo(RiskParams(p=p), u, 0, trials=100_000, rng_seed=i + 1)
        cf = p_any_error(p, u)
        # dispersion implied by the closed form itself; the sample SE
        # collapses to zero once every trial shows an error
        se = math.sqrt(cf * (1.0 - cf) / res.trials)
        assert abs(res.p_any_error_hat - cf) <= 3.0 * se, (p, u)
        if (p, u) == (0.02, 100):
            assert cf == pytest.approx(0.8674, abs=5e-5)
            assert res.p_any_error_hat == pytest.approx(0.8674, abs=0.004)
    assert time.monotonic() - t0 < 30.0
    announce(capsys, 1)


# --- 2: at the audited error rate, sizeable workbooks almost surely err --------


def test_ac2_audited_rate_implies_nearly_certain_errors(capsys):
    rate = 0.052
    values = [p_any_error(rate, u) for u in range(1, 5001)]
    # non-decreasing in U, so the sweep covers every larger workbook too
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v >= 0.94 for v in values[56:])  # U >= 57
    # the inequality in fact holds from U = 53 onward
    assert p_any_error(rate, 52) < 0.94 <= p_any_error(rate, 53)
    announce(capsys, 2)


# --- 3: three inspection rounds leave 0.128% of formulas wrong -----------------


def test_ac3_inspection_residual_lands_in_reported_band(capsys):
    params = RiskParams()
    d = detection_yield(params)
    assert d == 0.6

    u = 400
    wb = generate_clean(SeedSpec("chain", u, 3))
    rep = assess(wb, chain_stats(build_graph(wb)), params)
    assert rep.unique_formulas == u
    assert rep.multiplier == 1.0

    fractions = [r / u for r in rep.residual_after_rounds]
    assert fractions == pytest.approx(
        [params.p * (1.0 - d) ** r for r in (1, 2, 3)], rel=1e-12)
    assert fractions[2] == pytest.approx(0.00128, rel=1e-12)
    # rounds one and two still sit above the plausible-residual band
    assert [0.001 <= f <= 0.003 for f in fractions] == [False, False, True]

    cumulative = 1.0 - (1.0 - d) ** 3
    assert cumulative == pytest.approx(0.936, rel=1e-12)
    announce(capsys, 3)


# --- 4: simulated inspections decay geometrically ------------------------------


def test_ac4_detection_experiment_matches_geometric_decay(capsys):
    t0 = time.monotonic()
    spec = SeedSpec("chain", 20, 2, error_rate=1.0,
                    defect_mix=(("JAMMED", 1.0),), rng_seed=7)
    seeded = seed_defects(generate_clean(spec), spec)
    assert len(seeded.truth) == 20

    trials = 10_000
    res = detection_experiment(seeded, None, 3, RiskParams(),
                               rng_seed=11, trials=trials)
    expected = [20 * 0.4 ** r for r in (1, 2, 3)]
    assert expected == pytest.approx([8.0, 3.2, 1.28], rel=1e-12)
    for mean, target, r in zip(res.mean_by_round, expected, (1, 2, 3)):
        sigma = math.sqrt(20 * 0.4 ** r * (1 - 0.4 ** r) / trials)
        assert abs(mean - target) <= 3.0 * sigma, r
    assert time.monotonic() - t0 < 10.0
    announce(capsys, 4)


# --- 5: every rule finds every seeded defect, and stays quiet on clean books ---

# shapes chosen so each class has room to apply without falling back
RECALL_SHAPES = {
    "NUM_AS_TEXT": ("chain", 3, 9, 1.0),
    "JAMMED": ("chain", 10, 2, 1.0),
    "DUP_LITERAL": ("chain", 4, 3, 1.0),
    "LONG_FORMULA": ("grid", 12, 4, 1.0),
    "LONG_ARC": ("chain", 40, 2, 1.0),
    "XSHEET_REF": ("tree", 6, 6, 1.0),
    "ORPHAN_OUTPUT": ("chain", 5, 2, 1.0),
    "UNPROTECTED_FORMULA": ("grid", 9, 3, 1.0),
    "FLOW_VIOLATION": ("grid", 9, 3, 1.0),
    "VERSION_NAME": ("chain", 2, 1, 1.0),
    # a saturating rate mutates every neighbor, so runs only form below it
    "HARDWIRED": ("grid", 120, 10, 0.2),
}


def findings_key_set(wb: Workbook) -> set[tuple[str, str]]:
    asts = parse_workbook_formulas(wb)
    rep = run_rules(wb, build_graph(wb, asts=asts), asts=asts)
    return {(f.location.qualified if f.location else "*", f.rule_id)
            for f in rep.findings}


def error_severity_count(wb: Workbook) -> int:
    asts = parse_workbook_formulas(wb)
    rep = run_rules(wb, build_graph(wb, asts=asts), asts=asts)
    return sum(1 for f in rep.findings if f.severity == "error")


def test_ac5_full_recall_on_single_class_corpora(capsys):
    t0 = time.monotonic()
    clean_error_findings = 0
    per_class_truths: dict[str, int] = {}
    for cls, (topo, fc, ic, rate) in RECALL_SHAPES.items():
        for seed in range(1, 101):
            spec = SeedSpec(topo, fc, ic, error_rate=rate,
                            defect_mix=((cls, 1.0),), rng_seed=seed)
            clean = generate_clean(spec)
            clean_error_findings += error_severity_count(clean)
            seeded = seed_defects(clean, spec)
            found = findings_key_set(seeded.workbook)
            for t in seeded.truth:
                per_class_truths[t.defect_class] = (
                    per_class_truths.get(t.defect_class, 0) + 1)
                assert (t.cell, t.defect_class) in found, (cls, seed, t)
    assert clean_error_findings == 0
    assert set(per_class_truths) >= set(RECALL_SHAPES)
    assert all(n >= 100 for n in per_class_truths.values())
    assert time.monotonic() - t0 < 60.0
    announce(capsys, 5)


# --- 6: a number stored as text understates the total by exactly itself --------


def test_ac6_text_number_understatement_is_the_skipped_amount(capsys):
    wb = wb_from({
        "B1": 100.0,
        "B2": 200.0,
        "B3": CellContent(value="300", number_format="text", locked=True),
        "B4": "=SUM(B1:B3)",
    }, outputs=("S1!B4",))
    report = run_rules(wb, build_graph(wb))
    finding = next(f for f in report.findings if f.rule_id == "NUM_AS_TEXT")
    assert finding.location == CellAddress("S1", 3, 2)
    assert finding.evidence["understatement"] == 300.0

    # independent route: evaluate as-is, then with the text retyped as a number
    out = parse_qualified("S1!B4")
    skewed = evaluate(wb)[out]
    retyped = wb_from({
        "B1": 100.0, "B2": 200.0, "B3": 300.0, "B4": "=SUM(B1:B3)",
    }, outputs=("S1!B4",))
    honest = evaluate(retyped)[out]
    assert (skewed, honest) == (300.0, 600.0)
    assert honest - skewed == finding.evidence["understatement"]
    announce(capsys, 6)


# --- 7: snapshots replay exactly, and logic edits never slip through -----------

EXECUTION_CORPUS = [
    ("chain", 40, 4), ("chain", 120, 6),
    ("tree", 30, 30), ("tree", 60, 60),
    ("grid", 60, 10), ("grid", 144, 12),
]


def with_formula(wb: Workbook, addr: CellAddress, formula: str) -> Workbook:
    sheets = []
    for sh in wb.sheets:
        if sh.name != addr.sheet:
            sheets.append(sh)
            continue
        cells = dict(sh.cells)
        old = cells[addr.a1]
        cells[addr.a1] = CellContent(old.value, formula, old.locked, old.number_format)
        sheets.append(Sheet(sh.name, cells))
    return Workbook(wb.name, tuple(sheets), wb.meta)


def output_closure(wb: Workbook) -> set[CellAddress]:
    g = build_graph(wb)
    seen: set[CellAddress] = set()
    frontier = list(g.output_addresses)
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(g.precedents.get(node, ()))
    return seen & g.formula_cells


def test_ac7_recheck_is_exact_and_catches_every_closure_edit(capsys):
    t0 = time.monotonic()
    rng = random.Random(99)
    for topo, fc, ic in EXECUTION_CORPUS:
        for seed in range(1, 11):
            wb = generate_clean(SeedSpec(topo, fc, ic, rng_seed=seed))
            snap = snapshot(wb)
            rep = recheck(wb, snap)
            assert rep.ok and not rep.mismatches and not rep.missing_outputs

            candidates = sorted(output_closure(wb),
                                key=lambda a: (a.sheet, a.row, a.col))
            for addr in rng.sample(candidates, k=min(3, len(candidates))):
                old = wb.cell(addr).formula
                mutated = with_formula(wb, addr, old + "+1000000")
                bad = recheck(mutated, snap)
                assert not bad.ok and bad.mismatch_count >= 1, (topo, seed, addr)
    assert time.monotonic() - t0 < 30.0
    announce(capsys, 7)


# --- 8: serialization and normalization are loss-free at scale -----------------


def random_workbook(rng: random.Random) -> Workbook:
    cells: dict[str, CellContent] = {}
    formula_keys: list[str] = []
    host = CellAddress("S1", 30, 30)
    for _ in range(rng.randint(1, 6)):
        key = f"{chr(ord('A') + rng.randrange(8))}{rng.randint(1, 20)}"
        roll = rng.random()
        locked = rng.random() < 0.6
        if roll < 0.4:
            src = render(FormulaAst("=", host, random_expr(rng, depth=2)))
            cells[key] = CellContent(formula=src, locked=locked)
            formula_keys.append(key)
        elif roll < 0.6:
            value = rng.choice([0.0, 2.5, -3.25, 1e10, 12345.678, 7.0])
            cells[key] = CellContent(value=value, locked=locked)
        elif roll < 0.8:
            fmt = "text" if rng.random() < 0.5 else None
            text = rng.choice(["", "total", 'say "hi"', "Ω μ", "42"])
            cells[key] = CellContent(value=text, locked=locked, number_format=fmt)
        else:
            cells[key] = CellContent(value=rng.random() < 0.5, locked=locked)
    outputs: tuple[str, ...] = ()
    if formula_keys and rng.random() < 0.5:
        outputs = (f"S1!{rng.choice(formula_keys)}",)
    extra = None
    if rng.random() < 0.3:
        extra = {"My Data": {"A1": CellContent(value=1.5, locked=True)}}
    return wb_from(cells, outputs=outputs, protection=rng.random() < 0.8,
                   extra_sheets=extra)


def test_ac8_round_trips_hold_at_scale(capsys):
    cases = 10_000
    rng = random.Random(2026)
    for _ in range(cases):
        expr = random_expr(rng, depth=3, uniform_range_flags=True)
        host = CellAddress("S1", 60, 60)
        src = render(FormulaAst("=", host, expr))
        assert parse_formula(src, host).root == expr
        dr, dc = rng.randint(0, 25), rng.randint(0, 25)
        moved = CellAddress("S1", 60 + dr, 60 + dc)
        moved_src = render(FormulaAst("=", moved, translate_expr(expr, dr, dc)))
        assert (normalize(parse_formula(src, host)).text
                == normalize(parse_formula(moved_src, moved)).text)

    for case in range(cases):
        wb = random_workbook(random.Random(case))
        text = serialize_workbook(wb)
        again = parse_workbook(text)
        assert again == wb
        assert serialize_workbook(again) == text
    announce(capsys, 8)


# --- 9: planning arithmetic and the session cap ---------------------------------


def test_ac9_planner_arithmetic_and_session_cap(capsys):
    wb = generate_clean(SeedSpec("chain", 450, 3))
    p = plan(wb)
    assert [len(m.cells) for m in p.modules] == [150, 150, 150]
    assert [m.estimated_minutes for m in p.modules] == [90.0, 90.0, 90.0]

    for topo, fc, ic in EXECUTION_CORPUS:
        for seed in range(1, 6):
            spec = SeedSpec(topo, fc, ic, error_rate=0.15, rng_seed=seed)
            seeded = seed_defects(generate_clean(spec), spec)
            for wb in (generate_clean(spec), seeded.workbook):
                assert all(m.estimated_minutes <= 120.0
                           for m in plan(wb).modules)
    announce(capsys, 9)


# --- 10: a ten-thousand-formula audit stays interactive -------------------------


def test_ac10_ten_thousand_formula_audit_under_budget(tmp_path, capsys):
    wb = generate_clean(SeedSpec("grid", 10_000, 120))
    path = tmp_path / "big.json"
    path.write_text(serialize_workbook(wb), encoding="utf-8")

    t0 = time.monotonic()
    rc = main(["audit", str(path), "--format", "machine",
               "--out", str(tmp_path / "report.json")])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 5.0, f"audit took {elapsed:.2f}s"
    announce(capsys, 10)
