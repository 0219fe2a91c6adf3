"""Precedent/dependent graph over workbook cells.

Nodes are every defined cell plus every referenced cell (including empty
ones: a formula may depend on a blank that someone later fills). Edges run
precedent -> dependent and are deduplicated per pair. Range references
expand to per-cell edges, which is honest about fan-in but can explode, so
expansion is capped (default one million edges) and breaching the cap is a
diagnosed error rather than a hang.

References beyond the grid caps, or into sheets that do not exist, become
flagged #REF! nodes: the breakage is part of the picture, not an exception.
A range with any corner beyond the caps is represented by a single flagged
node at its far corner, mirroring how the evaluator treats the whole range
as one #REF!.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ExplosionCap
from .formula import FormulaAst, parse_workbook_formulas, references
from .model import MAX_COL, MAX_ROW, CellAddress, Workbook


def tarjan_sccs(
    nodes: Iterable[CellAddress], adj: dict[CellAddress, set[CellAddress]]
) -> list[list[CellAddress]]:
    """Strongly connected components, iteratively (chains can be 10k deep).

    Components come out with every component after the ones it points to
    through adj, so a single pass in emission order is a topological sweep
    of the condensation. Which such order it is follows the iteration
    order of nodes and of the adj sets.
    """
    index: dict[CellAddress, int] = {}
    low: dict[CellAddress, int] = {}
    on_stack: set[CellAddress] = set()
    stack: list[CellAddress] = []
    comps: list[list[CellAddress]] = []
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
                comps.append(comp)
    return comps


DEFAULT_EDGE_CAP = 1_000_000


@dataclass(frozen=True)
class DepGraph:
    """Built once from a workbook, then read-only."""

    sheet_order: tuple[str, ...]
    nodes: frozenset[CellAddress]
    formula_cells: frozenset[CellAddress]
    precedents: dict[CellAddress, frozenset[CellAddress]]
    dependents: dict[CellAddress, frozenset[CellAddress]]
    ref_error_nodes: frozenset[CellAddress]
    output_addresses: tuple[CellAddress, ...]
    edge_count: int

    def precedent_count(self, addr: CellAddress) -> int:
        return len(self.precedents.get(addr, ()))

    def dependent_count(self, addr: CellAddress) -> int:
        """Distinct formula cells consuming this cell."""
        return len(self.dependents.get(addr, ()))

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


def build_graph(
    wb: Workbook,
    edge_cap: int = DEFAULT_EDGE_CAP,
    asts: dict[CellAddress, FormulaAst] | None = None,
) -> DepGraph:
    """Construct the full dependency graph; ExplosionCap if it would not fit."""
    if asts is None:
        asts = parse_workbook_formulas(wb)
    known_sheets = {s.name for s in wb.sheets}

    nodes: set[CellAddress] = set()
    for addr, _content in wb.iter_cells():
        nodes.add(addr)

    precedents: dict[CellAddress, frozenset[CellAddress]] = {}
    dependents: dict[CellAddress, set[CellAddress]] = {}
    ref_errors: set[CellAddress] = set()
    edge_count = 0
    for addr in sorted(asts):  # sheet name, then grid position
        ast = asts[addr]
        precs: set[CellAddress] = set()
        for target in _expand_refs(ast, known_sheets):
            if target in precs:
                continue
            precs.add(target)
            edge_count += 1
            if edge_count > edge_cap:
                raise ExplosionCap(
                    f"dependency expansion exceeds {edge_cap} edges at {addr.qualified}"
                )
            if not target.in_bounds() or target.sheet not in known_sheets:
                ref_errors.add(target)
        precedents[addr] = frozenset(precs)
        nodes.update(precs)
        for p in precs:
            dependents.setdefault(p, set()).add(addr)

    return DepGraph(
        sheet_order=tuple(s.name for s in wb.sheets),
        nodes=frozenset(nodes),
        formula_cells=frozenset(asts),
        precedents=precedents,
        dependents={k: frozenset(v) for k, v in dependents.items()},
        ref_error_nodes=frozenset(ref_errors),
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
    # Cycles live in the formula-to-formula subgraph. g.precedents is in
    # reading order, and so are the roots of the search (see EvalPlan).
    formula_adj = {
        addr: {p for p in precs if p in g.formula_cells}
        for addr, precs in g.precedents.items()
    }
    cycles = []
    comp_of: dict[CellAddress, int] = {}
    comps = tarjan_sccs(formula_adj, formula_adj)
    for i, comp in enumerate(comps):
        for member in comp:
            comp_of[member] = i
        if len(comp) > 1 or comp[0] in formula_adj.get(comp[0], ()):
            cycles.append(tuple(sorted(comp)))
    cycles.sort()

    # Longest dependency path, counting formula cells on it. Components come
    # out precedents-first, so one sweep is enough; constants weigh nothing
    # and sit in singleton components.
    longest = 0
    best: list[int] = []
    for i, comp in enumerate(comps):
        weight = len(comp)  # members are formula cells by construction
        feeding = 0
        for member in comp:
            for p in formula_adj.get(member, ()):
                j = comp_of[p]
                if j != i:
                    feeding = max(feeding, best[j])
        best.append(weight + feeding)
        longest = max(longest, best[-1])

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
        longest_chain_length=longest,
        closure_sizes=closures,
        cycles=tuple(cycles),
    )


def orphan_formulas(g: DepGraph) -> list[CellAddress]:
    """Formula cells nothing consumes and no output declares: suspicious.

    Sorted reading order (sheet order, then row-major).
    """
    declared = set(g.output_addresses)
    out = [
        addr
        for addr in g.formula_cells
        if g.dependent_count(addr) == 0 and addr not in declared
    ]
    out.sort(key=g.sort_key)
    return out


def dump_edges(g: DepGraph) -> str:
    """Edge list, one "precedent<TAB>dependent" line per edge, stable order."""
    lines = []
    for dependent in sorted(g.precedents, key=g.sort_key):
        for precedent in sorted(g.precedents[dependent], key=g.sort_key):
            lines.append(f"{precedent.qualified}\t{dependent.qualified}\n")
    return "".join(lines)
