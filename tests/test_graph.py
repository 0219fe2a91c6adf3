"""Dependency graph construction and path statistics tests."""

from __future__ import annotations

import contextlib
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridaudit import graph
from gridaudit.engine import EvalPlan
from gridaudit.errors import ExplosionCap
from gridaudit.formula import (BinaryOp, CellRef, FormulaAst, FunctionCall, NumberLiteral,
                               RangeRef, UnaryOp, parse_workbook_formulas, render)
from gridaudit.graph import build_graph, chain_stats, dump_edges, orphan_formulas
from gridaudit.model import CellAddress, CellContent, col_to_letters
from helpers import (Reachability, ReferenceEvaluator, expanded_graph, numbered,
                     random_expr, translate_expr, wb_from)


def A(a1: str, sheet: str = "S1") -> CellAddress:
    from gridaudit.model import parse_cell_key

    row, col = parse_cell_key(a1)
    return CellAddress(sheet, row, col)


def test_range_fans_out_to_per_cell_edges():
    wb = wb_from({"B2": 1, "B5": 2, "B9": "=SUM(B2:B8)"}, outputs=("S1!B9",))
    g = build_graph(wb)
    assert g.edge_count == 2
    # the occupied cells are precedents; the empty ones are not edges
    assert g.precedents[A("B9")] == frozenset({A("B2"), A("B5")})
    assert [f for f, precs in g.precedents.items() if A("B2") in precs] == [A("B9")]
    assert dump_edges(g) == "".join(f"S1!B{r}\tS1!B9\n" for r in (2, 5))


def test_tall_range_is_counted_not_listed():
    wb = wb_from({"A1": 1, "A2": 2, "B1": "=SUM(A1:A900000)"})
    asts = parse_workbook_formulas(wb)
    tracemalloc.start()
    try:
        g = build_graph(wb, asts=asts)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dump = dump_edges(g)
        dump_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 2
    assert g.precedents[A("B1")] == frozenset({A("A1"), A("A2")})
    assert dump == "S1!A1\tS1!B1\nS1!A2\tS1!B1\n"
    assert peak < 1_000_000
    assert dump_peak < 100_000


def test_overlapping_ranges_count_each_cell_once():
    wb = wb_from({"A2": 1, "C1": "=SUM(A1:B3,B2:B5,A3:A4,Nope!A1:B2)+A4+B9"})
    g = build_graph(wb)
    # A2 and A4 of the union, B9 outside it, and the missing sheet's corner
    assert g.edge_count == 4
    assert {a.qualified for a in g.precedents[A("C1")]} == {
        "S1!A2", "S1!A4", "S1!B9", "Nope!B2"}


def test_duplicate_references_deduplicate():
    wb = wb_from({"A1": 1, "B1": "=A1+A1*A1"})
    g = build_graph(wb)
    assert g.edge_count == 1
    assert g.precedents[A("B1")] == frozenset({A("A1")})


def test_edge_cap_guard(monkeypatch):
    wb = wb_from({"A1": "=SUM(B1:B200)", **{f"B{r}": float(r) for r in range(1, 201)}})
    monkeypatch.setattr(graph, "EDGE_CAP", 100)
    with pytest.raises(ExplosionCap):
        build_graph(wb)
    monkeypatch.setattr(graph, "EDGE_CAP", 200)
    assert build_graph(wb).edge_count == 200


def test_out_of_bounds_and_missing_sheet_nodes_are_flagged():
    wb = wb_from({"A1": "=XFE1+Nope!B2", "A2": "=SUM(B1:B1048577)"})
    g = build_graph(wb)
    assert {a.qualified for a in g.precedents[A("A1")]} == {"S1!XFE1", "Nope!B2"}
    # the overflowing range collapses to one corner node
    assert {a.qualified for a in g.precedents[A("A2")]} == {"S1!B1048577"}
    assert {"S1!XFE1", "Nope!B2", "S1!B1048577"} <= {a.qualified for a in g.nodes}


def test_cross_sheet_edges():
    wb = wb_from({"A1": "=Data!B1*2"}, extra_sheets={"Data": {"B1": 5}})
    g = build_graph(wb)
    assert g.precedents[A("A1")] == frozenset({A("B1", "Data")})
    assert [f for f, precs in g.precedents.items() if A("B1", "Data") in precs] == [A("A1")]


def test_chain_stats_linear_chain():
    wb = wb_from(
        {"A1": 1, "A2": "=A1*2", "A3": "=A2*2", "A4": "=A3*2"},
        outputs=("S1!A4",),
    )
    stats = chain_stats(build_graph(wb))
    assert stats.longest_chain_length == 3
    assert stats.closure_sizes == {"S1!A4": 3}
    assert stats.cycles == ()

    # constants and empty cells feed the chain but are not links of it
    wb = wb_from(
        {"A1": 1, "C1": 5, "A2": "=SUM(A1:A1)+Z9", "A3": "=SUM(A1:A2)+Z10",
         "A4": "=A3*2+C1+SUM(D1:D50)"},
        outputs=("S1!A4",),
    )
    stats = chain_stats(build_graph(wb))
    assert stats.longest_chain_length == 3
    assert stats.closure_sizes == {"S1!A4": 3}
    assert stats.cycles == ()


def test_chain_stats_constant_output():
    wb = wb_from({"A1": 7}, outputs=("S1!A1",))
    stats = chain_stats(build_graph(wb))
    assert stats.closure_sizes == {"S1!A1": 0}
    assert stats.longest_chain_length == 0


def test_chain_stats_branching_takes_longest():
    wb = wb_from(
        {
            "A1": 1,
            "B1": "=A1+1",      # depth 1
            "B2": "=B1+1",      # depth 2
            "C1": "=A1*2",      # depth 1, other branch
            "D1": "=B2+C1",     # depth 3 through B branch
        },
        outputs=("S1!D1",),
    )
    stats = chain_stats(build_graph(wb))
    assert stats.longest_chain_length == 3
    assert stats.closure_sizes["S1!D1"] == 4


def test_chain_stats_cycles_and_condensation():
    wb = wb_from(
        {"A1": "=B1+1", "B1": "=A1+1", "C1": "=A1*2"},
    )
    stats = chain_stats(build_graph(wb))
    assert len(stats.cycles) == 1
    assert {a.a1 for a in stats.cycles[0]} == {"A1", "B1"}
    # two formulas in the cycle plus the dependent one
    assert stats.longest_chain_length == 3


def test_closure_counts_formula_cells_including_output():
    wb = wb_from(
        {"A1": 1, "A2": "=A1*2", "A3": "=SUM(A1:A2)"},
        outputs=("S1!A3",),
    )
    stats = chain_stats(build_graph(wb))
    assert stats.closure_sizes["S1!A3"] == 2


def test_orphan_formulas_sorted_reading_order():
    wb = wb_from(
        {
            "A1": 1,
            "B2": "=A1*2",   # orphan
            "A2": "=A1+1",   # orphan
            "C1": "=A1*3",   # declared output, not an orphan
            "D1": "=C1*2",   # consumes C1... and is itself an orphan
            "A3": "=A3+1",   # reads only itself, which consumes it
            "B3": "=A1*4",   # consumed only through C3's range
            "C3": "=SUM(B3:B5)",  # orphan
        },
        outputs=("S1!C1",),
    )
    g = build_graph(wb)
    assert [a.a1 for a in orphan_formulas(g)] == ["D1", "A2", "B2", "C3"]


def test_dump_edges_stable_tab_separated():
    wb = wb_from({"A1": 1, "B1": "=A1", "C1": "=A1+B1"})
    text = dump_edges(build_graph(wb))
    assert text == (
        "S1!A1\tS1!B1\n"
        "S1!A1\tS1!C1\n"
        "S1!B1\tS1!C1\n"
    )


def test_graph_of_10k_formulas_is_quick():
    import time

    cells: dict[str, object] = {"A1": 1}
    for i in range(2, 5001):
        cells[f"A{i}"] = f"=A{i-1}+1"
    wb = wb_from(cells)
    start = time.monotonic()
    g = build_graph(wb)
    stats = chain_stats(g)
    assert time.monotonic() - start < 5.0
    assert stats.longest_chain_length == 4999


# --- the graph against its cell-by-cell meaning --------------------------------

_PREFIXES = ["", "", "", "S1!", "Data!", "Nope!"]


def _ref(prefix: str, r1: int, c1: int, r2: int, c2: int) -> str:
    first = f"{col_to_letters(c1)}{r1}"
    return prefix + (first if (r1, c1) == (r2, c2) else f"{first}:{col_to_letters(c2)}{r2}")


_rows = st.integers(1, 7)
_cols = st.integers(1, 4)
# a far row or column puts a range's corner beyond the grid
_refs = st.builds(_ref, st.sampled_from(_PREFIXES), _rows, _cols,
                  _rows | st.just(1_048_577), _cols | st.just(16_385))
_formulas = st.lists(_refs, min_size=1, max_size=4).map(lambda refs: f"=SUM({','.join(refs)})")
_cells = st.dictionaries(st.builds(lambda r, c: f"{col_to_letters(c)}{r}", _rows, _cols),
                         st.sampled_from([1, 2.5, "x"]) | _formulas, max_size=10)


def _assert_precedents_first(order: list[CellAddress], ref: Reachability) -> None:
    """order holds every formula once, each after its precedents' components,
    with each component's members adjacent."""
    position = {addr: i for i, addr in enumerate(order)}
    assert len(position) == len(order) and position.keys() == ref.precedents.keys()
    for addr, comp in ref.component.items():
        spots = sorted(position[m] for m in comp)
        assert spots == list(range(spots[0], spots[0] + len(comp)))
        for prec in ref.precedents[addr]:
            if prec in position and prec not in comp:
                assert position[prec] < position[addr], (addr, prec)


@settings(max_examples=200, deadline=None)
@given(s1=_cells, data=_cells)
def test_graph_and_plan_match_the_cell_by_cell_expansion(s1, data):
    wb = wb_from(s1, extra_sheets={"Data": data})
    asts = parse_workbook_formulas(wb)
    event("reads only before itself" if graph._reads_before(asts, wb) else "Tarjan pass")
    ref = expanded_graph(wb, asts)
    reach = Reachability(ref.precedents)
    g = build_graph(wb, asts=asts)
    assert g.edge_count == ref.edge_count
    assert dump_edges(g) == dump_edges(ref)
    assert g.condensation.cycles == reach.cycles
    _assert_precedents_first(g.condensation.order, reach)
    _assert_precedents_first(ref.condensation.order, reach)
    stats = chain_stats(g)
    assert stats.longest_chain_length == reach.longest_chain()
    assert stats == chain_stats(ref)
    assert orphan_formulas(g) == orphan_formulas(ref)

    plan = EvalPlan(wb, asts)
    assert plan.in_cycle == reach.on_cycle
    plan_g = EvalPlan(wb, asts, g)
    assert plan_g.in_cycle == plan.in_cycle
    for p in (plan, plan_g):
        position = {addr: i for i, addr in enumerate(p.order)}
        assert len(position) == len(p.order)
        assert position.keys() == asts.keys() - p.in_cycle
        for addr in p.order:
            for prec in ref.precedents[addr]:
                if prec in position:
                    assert position[prec] < position[addr], (addr, prec)
    position = {addr: i for i, addr in enumerate(plan_g.order)}
    for cell, content in wb.iter_cells():
        if not content.is_formula:
            cone = g.cone(cell)
            assert set(cone) == reach.cone(cell), cell
            assert [position[addr] for addr in cone] == sorted(position[addr] for addr in cone)
    assert plan.run() == plan_g.run() == EvalPlan(wb, asts, ref).run()


# --- the reading-order shortcut against the Tarjan pass ------------------------

def _tarjan_forced():
    return mock.patch.object(graph, "_reads_before", return_value=False)


def _typed(values):
    return {addr: (type(v), v) for addr, v in values.items()}


# Each book, and whether every formula in it reads only cells before it.
_EDGE_BOOKS = {
    "forward reads": (wb_from({"A1": 1, "B1": "=A1*2", "A2": "=SUM(A1:B1)",
                               "B2": "=A2+B1"}), True),
    "a self-read": (wb_from({"A1": 1, "A2": "=A2+A1", "A3": "=A2*2"}), False),
    "a range ending at its host": (wb_from({"A1": 1, "A2": 2, "A3": "=SUM(A1:A3)"}), False),
    "an anchored class from after to before": (
        wb_from({"A1": 1, **{f"A{r}": f"=$A$5+A{r - 1}" for r in range(2, 9)}}), False),
    # B1 and C1 read A1, before them; their copy at A2 reads itself
    "an anchored class from before to after": (
        wb_from({"A1": 1, "B1": "=$A1+1", "C1": "=$A1+2", "A2": "=$A2+3", "B2": "=A2+B1"}),
        False),
    "a read of an earlier sheet": (
        wb_from({"A1": 2, "B1": "=A1*3"}, extra_sheets={"Data": {"A1": "=S1!B1+S1!B9"}}), True),
    "a read of a later sheet": (
        wb_from({"A1": "=Data!B1+1"}, extra_sheets={"Data": {"A1": 5, "B1": "=A1*2"}}), False),
    "a missing sheet": (wb_from({"A1": 1, "A2": "=Nope!A1+A1"}), False),
    "a column beyond the grid, above": (wb_from({"A1": 1, "A2": "=A1+XFE1"}), True),
    "a row beyond the grid": (wb_from({"A1": 1, "A2": "=A1+B1048577"}), False),
}


@pytest.mark.parametrize("name", list(_EDGE_BOOKS))
def test_the_shortcut_matches_the_tarjan_pass_on_edge_books(name):
    wb, shortcut = _EDGE_BOOKS[name]
    assert graph._reads_before(parse_workbook_formulas(wb), wb) == shortcut
    results = []
    for paths in (contextlib.nullcontext(), _tarjan_forced()):
        with paths:
            g = build_graph(wb, asts=parse_workbook_formulas(wb))
            plan = EvalPlan(wb, parse_workbook_formulas(wb))
            results.append((g.condensation, chain_stats(g), plan.order, _typed(plan.run())))
    assert results[0] == results[1]


_SHEETS = ("S1", "Data", "My Data", "it's")  # the sheets random_expr reads, in book order


def _read_before(node, host: CellAddress, rng: random.Random):
    """node with every reference that reads the host's cell or one after it
    moved onto the host's sheet, above the host's row or, on row 1, left of
    its column; a host at A1 gets a number instead."""
    if isinstance(node, (CellRef, RangeRef)):
        if node.sheet in _SHEETS[:_SHEETS.index(host.sheet)]:
            return node
        cell = isinstance(node, CellRef)
        r1, c1, r2, c2 = ((node.row, node.col) * 2 if cell else
                          (node.r1, node.c1, node.r2, node.c2))
        if (r2, c2) >= (host.row, host.col):
            if host.row > 1:
                shift = r2 - rng.randint(1, host.row - 1)
                r1, r2 = max(1, r1 - shift), r2 - shift
            elif host.col > 1:
                shift = c2 - rng.randint(1, host.col - 1)
                r1, r2, c1, c2 = 1, 1, max(1, c1 - shift), c2 - shift
            else:
                return NumberLiteral(1.0)
        if cell:
            return replace(node, sheet=None, row=r2, col=c2)
        return replace(node, sheet=None, r1=r1, c1=c1, r2=r2, c2=c2)
    if isinstance(node, UnaryOp):
        return replace(node, operand=_read_before(node.operand, host, rng))
    if isinstance(node, BinaryOp):
        return replace(node, left=_read_before(node.left, host, rng),
                       right=_read_before(node.right, host, rng))
    if isinstance(node, FunctionCall):
        return replace(node, args=tuple(_read_before(a, host, rng) for a in node.args))
    return node


def _reads_before_book(seed: int):
    """A random book of four sheets whose formulas read only cells before
    them: same-sheet references above or to the left, with absolute axes,
    and references to earlier sheets anywhere. Each formula is pasted down a
    few rows with its own literals, so copies form classes; later formulas
    read earlier ones, on their sheet and across sheets."""
    rng = random.Random(seed)
    sheets: dict[str, dict[str, object]] = {name: {} for name in _SHEETS}
    for name, cells in sheets.items():
        for _ in range(8):
            cells[CellAddress(name, rng.randint(1, 12), rng.randint(1, 6)).a1] = rng.choice(
                [1.0, 2.5, -3.0, "7", "abc", True,
                 CellContent(value=4.0, number_format="text", locked=True)])
        for _ in range(4):
            host = CellAddress(name, rng.randint(1, 10), rng.randint(1, 6))
            expr = numbered(_read_before(random_expr(rng, depth=3, coord_span=12), host, rng))
            first = FormulaAst("=", host, expr)
            for dr in range(rng.randint(1, 4)):
                copy = CellAddress(name, host.row + dr, host.col)
                literals = tuple(rng.choice([0.0, 1.0, 2.0, 3.5]) for _ in first.literals)
                moved = translate_expr(expr, dr, 0, literals)
                cells[copy.a1] = render(FormulaAst("=", copy, moved))
    return wb_from(sheets.pop("S1"), extra_sheets=sheets)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_books_that_read_only_before_themselves_take_the_shortcut(seed):
    wb = _reads_before_book(seed)
    asts = parse_workbook_formulas(wb)
    assert graph._reads_before(asts, wb)
    g = build_graph(wb, asts=asts)
    with _tarjan_forced():
        forced = build_graph(wb, asts=parse_workbook_formulas(wb)).condensation
    assert g.condensation == forced
    reach = Reachability(expanded_graph(wb, asts).precedents)
    assert g.condensation.cycles == reach.cycles == ()
    _assert_precedents_first(g.condensation.order, reach)
    # out of reading order, the order of asts is no evaluation order
    backwards = graph.condense(dict(reversed(asts.items())), wb, lambda: g.precedents)
    assert backwards.cycles == ()
    _assert_precedents_first(backwards.order, reach)
    plan = EvalPlan(wb, asts)
    assert plan.order == forced.order
    assert _typed(plan.run()) == _typed(ReferenceEvaluator(wb).evaluate())
