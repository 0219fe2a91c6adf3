"""Dependency graph over workbook cells, stored as each formula's precedents.

Nodes are every defined cell plus every referenced cell (including empty
ones: a formula may depend on a blank that someone later fills). Each
formula cell maps to the set of cells it reads; that map is the graph's one
edge store, and dependents are found by searching it. Range references
expand to per-cell edges, which is honest about fan-in but can explode, so
expansion is capped at EDGE_CAP edges and breaching the cap is a diagnosed
error rather than a hang.

References beyond the grid caps, or into sheets that do not exist, stay
nodes and edges: the breakage is part of the picture, not an exception. A
range with any corner beyond the caps is represented by a single node at
its far corner, mirroring how the evaluator treats the whole range as one
#REF!.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from .errors import ExplosionCap
from .formula import FormulaAst, parse_workbook_formulas, references
from .model import MAX_COL, MAX_ROW, CellAddress, Workbook


def tarjan_sccs(
    nodes: Iterable[CellAddress], adj: Mapping[CellAddress, AbstractSet[CellAddress]]
) -> Iterator[tuple[list[CellAddress], bool]]:
    """Strongly connected components, iteratively (chains can be 10k deep).

    Yields each component as (members, is_cycle). is_cycle holds when the
    members lie on a reference cycle: there are several, or the one reads
    itself. Every component comes after the ones it points to through
    adj, so a single pass in emission order is a topological sweep of the
    condensation. Which such order it is follows the iteration order of
    nodes and of the adj sets.
    """
    index: dict[CellAddress, int] = {}
    low: dict[CellAddress, int] = {}
    on_stack: set[CellAddress] = set()
    stack: list[CellAddress] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[CellAddress, Iterator[CellAddress]]] = [
            (root, iter(adj.get(root, ())))
        ]
        while work:
            node, children = work[-1]
            descended = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj.get(child, ()))))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                yield comp, len(comp) > 1 or node in adj.get(node, ())


EDGE_CAP = 1_000_000


@dataclass(frozen=True)
class DepGraph:
    """Built once from a workbook, then read-only."""

    sheet_order: tuple[str, ...]
    nodes: frozenset[CellAddress]
    formula_cells: frozenset[CellAddress]
    precedents: dict[CellAddress, frozenset[CellAddress]]  # formula cell -> cells it reads
    output_addresses: tuple[CellAddress, ...]
    edge_count: int

    def sheet_index(self, name: str) -> int:
        try:
            return self.sheet_order.index(name)
        except ValueError:
            return len(self.sheet_order)

    def sort_key(self, addr: CellAddress) -> tuple[int, int, int]:
        return (self.sheet_index(addr.sheet), addr.row, addr.col)


def _expand_refs(ast: FormulaAst, known_sheets: set[str]) -> Iterator[CellAddress]:
    """Every cell a formula references, ranges expanded, #REF! targets kept."""
    for sheet, r1, c1, r2, c2 in references(ast):
        single = r1 == r2 and c1 == c2
        if single or r2 > MAX_ROW or c2 > MAX_COL or sheet not in known_sheets:
            # A single cell (kept off the range loop so its address shares
            # the AST's coordinates), or one flagged node standing in for an
            # unusable range; either way the far corner.
            yield CellAddress(sheet, r2, c2)
            continue
        for row in range(r1, r2 + 1):
            for col in range(c1, c2 + 1):
                yield CellAddress(sheet, row, col)


def build_graph(wb: Workbook, asts: dict[CellAddress, FormulaAst] | None = None) -> DepGraph:
    """Construct the full dependency graph; ExplosionCap if it would not fit."""
    if asts is None:
        asts = parse_workbook_formulas(wb)
    known_sheets = {s.name for s in wb.sheets}

    nodes: set[CellAddress] = set()
    for addr, _content in wb.iter_cells():
        nodes.add(addr)

    precedents: dict[CellAddress, frozenset[CellAddress]] = {}
    edge_count = 0
    for addr in sorted(asts):  # sheet name, then grid position
        ast = asts[addr]
        precs: set[CellAddress] = set()
        for target in _expand_refs(ast, known_sheets):
            if target in precs:
                continue
            precs.add(target)
            edge_count += 1
            if edge_count > EDGE_CAP:
                raise ExplosionCap(
                    f"dependency expansion exceeds {EDGE_CAP} edges at {addr.qualified}"
                )
        precedents[addr] = frozenset(precs)
        nodes.update(precs)

    return DepGraph(
        sheet_order=tuple(s.name for s in wb.sheets),
        nodes=frozenset(nodes),
        formula_cells=frozenset(asts),
        precedents=precedents,
        output_addresses=wb.output_addresses,
        edge_count=edge_count,
    )


@dataclass(frozen=True)
class ChainStats:
    """Path structure of the graph, in formula-cell units."""

    longest_chain_length: int
    closure_sizes: dict[str, int]  # qualified output -> formula cells feeding it
    cycles: tuple[tuple[CellAddress, ...], ...]


def chain_stats(g: DepGraph) -> ChainStats:
    # Only formula cells have precedents, so every other node is a singleton
    # component that weighs nothing and lies on no cycle. Components come out
    # precedents-first, so one sweep finds the longest dependency path,
    # counting the formula cells on it. g.precedents is in reading order, and
    # so are the roots of the search (see EvalPlan).
    cycles = []
    depth: dict[CellAddress, int] = {}  # formula cells on the longest path ending here
    for comp, is_cycle in tarjan_sccs(g.precedents, g.precedents):
        if comp[0] not in g.formula_cells:
            continue
        if is_cycle:
            cycles.append(tuple(sorted(comp)))
        # comp's own members have no depth yet, so only earlier components feed it
        feeding = max((depth.get(p, 0) for m in comp for p in g.precedents[m]), default=0)
        for member in comp:
            depth[member] = len(comp) + feeding
    cycles.sort()

    closures: dict[str, int] = {}
    for out in g.output_addresses:
        seen: set[CellAddress] = set()
        stack = [out]
        count = 0
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in g.formula_cells:
                count += 1
            stack.extend(g.precedents.get(cur, ()))
        closures[out.qualified] = count

    return ChainStats(
        longest_chain_length=max(depth.values(), default=0),
        closure_sizes=closures,
        cycles=tuple(cycles),
    )


def orphan_formulas(g: DepGraph) -> list[CellAddress]:
    """Formula cells nothing consumes and no output declares: suspicious.

    Sorted reading order (sheet order, then row-major).
    """
    consumed = set(g.output_addresses).union(*g.precedents.values())
    out = [addr for addr in g.formula_cells if addr not in consumed]
    out.sort(key=g.sort_key)
    return out


def dump_edges(g: DepGraph) -> str:
    """Edge list, one "precedent<TAB>dependent" line per edge, stable order."""
    lines = []
    for dependent in sorted(g.precedents, key=g.sort_key):
        for precedent in sorted(g.precedents[dependent], key=g.sort_key):
            lines.append(f"{precedent.qualified}\t{dependent.qualified}\n")
    return "".join(lines)
