"""Dependency graph over workbook cells, stored as each formula's precedents.

precedents_of is the one dependency walker, and condense the one pass that
orders the formulas (Tarjan's, unless each reads only earlier cells):
chain_stats, cone() and the evaluation order read the condensation
build_graph keeps. The precedents are the graph's edges. A formula reads
each cell a single reference names, occupied or empty (someone may fill it
later), and each occupied cell of a range in the grid; a range's empty
cells are not edges, as in the range-compressed graph of TACO (Tang et
al.). edge_count is the sum of the precedent sets' sizes, dump_edges prints
one line per precedent, and the count is capped at EDGE_CAP, so breaching
the cap is a diagnosed error rather than a hang.

References beyond the grid caps, or into sheets that do not exist, stay
nodes and edges: the breakage is part of the picture, not an exception. A
range with any corner beyond the caps, or on a missing sheet, reads its far
corner, one node, mirroring how the evaluator treats the whole range as one
#REF!.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Callable, Iterable, Iterator, KeysView, Mapping, NamedTuple

from .errors import ExplosionCap
from .formula import FormulaAst, parse_workbook_formulas, references
from .model import MAX_COL, MAX_ROW, CellAddress, Sheet, Workbook

class SheetIndex:
    """Index over a sheet's non-empty cells for cell and range lookups.

    cells is the sheet's own address objects in reading order, and address
    maps each to itself, so a lookup yields the very keys of the value map;
    rows[k] is an occupied row and its cells are cells[starts[k]:starts[k+1]].
    """

    def __init__(self, sheet: Sheet):
        self.name = sheet.name
        self.cells = tuple(addr for addr, _content in sheet.reading_order)
        self.address = {addr: addr for addr in self.cells}
        self.rows: list[int] = []
        self.starts: list[int] = []
        for i, addr in enumerate(self.cells):
            if not self.rows or self.rows[-1] != addr.row:
                self.rows.append(addr.row)
                self.starts.append(i)
        self.starts.append(len(self.cells))

    def iter_box(self, r1: int, c1: int, r2: int, c2: int) -> Iterator[CellAddress]:
        """Non-empty cells inside the box, reading order."""
        cells, name, starts = self.cells, self.name, self.starts
        for k in range(bisect_left(self.rows, r1), bisect_right(self.rows, r2)):
            row = self.rows[k]
            a = bisect_left(cells, (name, row, c1), starts[k], starts[k + 1])
            b = bisect_right(cells, (name, row, c2), a, starts[k + 1])
            yield from cells[a:b]


def sheet_indexes(wb: Workbook) -> dict[str, SheetIndex]:
    """One index per sheet, keyed by sheet name."""
    return {s.name: SheetIndex(s) for s in wb.sheets}


def precedents_of(ast: FormulaAst, indexes: Mapping[str, SheetIndex]) -> frozenset[CellAddress]:
    """The cells a formula reads.

    A single reference gives its cell, and a range in the grid on a sheet of
    the book its occupied cells; any other range its far corner. An occupied
    cell is the sheet's own address object."""
    precs: set[CellAddress] = set()
    for sheet, r1, c1, r2, c2 in references(ast):
        index = indexes.get(sheet)
        if index is not None and r2 <= MAX_ROW and c2 <= MAX_COL:
            if r1 != r2 or c1 != c2:
                precs.update(index.iter_box(r1, c1, r2, c2))
                continue
            occupied = index.address.get((sheet, r1, c1))
            if occupied is not None:
                precs.add(occupied)
                continue
        precs.add(CellAddress(sheet, r2, c2))
    return frozenset(precs)


def tarjan_sccs(
    nodes: Iterable[CellAddress], adj: Mapping[CellAddress, AbstractSet[CellAddress]]
) -> Iterator[tuple[list[CellAddress], bool]]:
    """Strongly connected components, iteratively (chains can be 10k deep).

    Yields each component as (members, is_cycle). is_cycle holds when the
    members lie on a reference cycle: there are several, or the one reads
    itself. Every component comes after the ones it points to through
    adj. Which such order it is follows the iteration order of nodes and
    of the adj sets. condense is its one caller.
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


class Condensation(NamedTuple):
    """The formula cells' strongly connected components, flattened: a list
    of (members, is_cycle) tuples cost a 20k-formula chain about 1 MB."""

    order: list[CellAddress]  # every formula cell, precedents first, a cycle's members together
    cycles: tuple[tuple[CellAddress, ...], ...]  # members sorted, cycles sorted


def condense(asts: Mapping[CellAddress, FormulaAst], wb: Workbook,
             precedents: Callable[[], Mapping[CellAddress, AbstractSet[CellAddress]]]
             ) -> Condensation:
    """Reading order if _reads_before holds: no cycle, and the order Tarjan
    would yield. Else one Tarjan pass over precedents(), roots in the order
    of asts; the other cells it reaches read nothing and are passed over."""
    if _reads_before(asts, wb):
        return Condensation(list(asts), ())
    order: list[CellAddress] = []
    cycles = []
    for comp, is_cycle in tarjan_sccs(asts, precedents()):
        if comp[0] in asts:
            order += comp
            if is_cycle:
                cycles.append(tuple(sorted(comp)))
    return Condensation(order, tuple(sorted(cycles)))


def _reads_before(asts: Mapping[CellAddress, FormulaAst], wb: Workbook) -> bool:
    """Whether asts come in reading order and each reads only earlier
    cells, a range by its last cell; a class with no absolute axis on its
    own sheet is judged at its first copy."""
    last = (-1, 0, 0)
    judged: set[FormulaAst] = set()
    for addr, ast in asts.items():
        host = (wb.sheet_index(addr.sheet), addr.row, addr.col)
        if host <= last:
            return False
        last, cls = host, ast.cls
        if cls not in judged:
            if any(wb.sheet(sheet) is None or (wb.sheet_index(sheet), r2, c2) >= host
                   for sheet, _r1, _c1, r2, c2 in references(ast)):
                return False
            if not ast.facts.anchored:
                judged.add(cls)
    return True


EDGE_CAP = 1_000_000


@dataclass(frozen=True)
class DepGraph:
    """Built once from a workbook, then read-only."""

    sheet_order: tuple[str, ...]
    precedents: dict[CellAddress, frozenset[CellAddress]]  # formula cell -> cells it reads
    output_addresses: tuple[CellAddress, ...]
    edge_count: int  # the precedent sets' sizes, summed
    indexes: dict[str, SheetIndex]
    condensation: Condensation

    @property
    def formula_cells(self) -> KeysView[CellAddress]:
        return self.precedents.keys()

    @cached_property
    def nodes(self) -> frozenset[CellAddress]:
        """Defined cells and the cells formulas read."""
        return frozenset(addr for index in self.indexes.values()
                         for addr in index.cells).union(*self.precedents.values())

    def sheet_index(self, name: str) -> int:
        try:
            return self.sheet_order.index(name)
        except ValueError:
            return len(self.sheet_order)

    def sort_key(self, addr: CellAddress) -> tuple[int, int, int]:
        return (self.sheet_index(addr.sheet), addr.row, addr.col)

    def cone(self, cell: CellAddress) -> list[CellAddress]:
        """The formulas whose value can depend on cell, in condensation order:
        its readers and their dependents, stopping at cycle cells, which are
        #CYCLE! whatever their inputs."""
        readers, position = self._cone_index
        stack = list(readers.get(cell, ()))
        seen = set(stack)
        while stack:
            for dep in readers.get(stack.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        return sorted(seen, key=position.__getitem__)

    @cached_property
    def _cone_index(self) -> tuple[dict[CellAddress, list[CellAddress]], dict[CellAddress, int]]:
        """Each cell's off-cycle formula readers, and each off-cycle formula's
        position in the condensation order; built on the first cone()."""
        on_cycle = {addr for cycle in self.condensation.cycles for addr in cycle}
        readers: dict[CellAddress, list[CellAddress]] = {}
        position: dict[CellAddress, int] = {}
        for i, addr in enumerate(self.condensation.order):
            if addr not in on_cycle:
                position[addr] = i
                for prec in self.precedents[addr]:
                    readers.setdefault(prec, []).append(addr)
        return readers, position


def build_graph(wb: Workbook, asts: dict[CellAddress, FormulaAst] | None = None) -> DepGraph:
    """Construct the full dependency graph; ExplosionCap if it would not fit."""
    if asts is None:
        asts = parse_workbook_formulas(wb)
    indexes = sheet_indexes(wb)
    precedents: dict[CellAddress, frozenset[CellAddress]] = {}
    edge_count = 0
    for addr in sorted(asts):  # sheet name, then grid position
        precs = precedents_of(asts[addr], indexes)
        edge_count += len(precs)
        if edge_count > EDGE_CAP:
            raise ExplosionCap(
                f"dependency expansion exceeds {EDGE_CAP} edges at {addr.qualified}"
            )
        precedents[addr] = precs
    return DepGraph(
        sheet_order=tuple(s.name for s in wb.sheets),
        precedents=precedents,
        output_addresses=wb.output_addresses,
        edge_count=edge_count,
        indexes=indexes,
        condensation=condense(asts, wb, lambda: precedents),
    )


@dataclass(frozen=True)
class ChainStats:
    """Path structure of the graph, in formula-cell units."""

    longest_chain_length: int
    closure_sizes: dict[str, int]  # qualified output -> formula cells feeding it
    cycles: tuple[tuple[CellAddress, ...], ...]


def chain_stats(g: DepGraph) -> ChainStats:
    # The condensation lists precedents first, so one sweep finds the longest
    # dependency path, counting the formula cells on it. A cycle's members
    # come together and share one depth, set at the first of them.
    cycle_of = {addr: cycle for cycle in g.condensation.cycles for addr in cycle}
    depth: dict[CellAddress, int] = {}  # formula cells on the longest path ending here
    for addr in g.condensation.order:
        if addr not in depth:
            comp = cycle_of.get(addr, (addr,))
            # comp's own members have no depth yet, so only earlier cells feed it
            feeding = max((depth.get(p, 0) for m in comp for p in g.precedents[m]), default=0)
            for member in comp:
                depth[member] = len(comp) + feeding

    closures: dict[str, int] = {}
    for out in g.output_addresses:
        seen: set[CellAddress] = set()
        stack = [out]
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(g.precedents.get(cur, ()))
        closures[out.qualified] = len(seen & g.formula_cells)

    return ChainStats(
        longest_chain_length=max(depth.values(), default=0),
        closure_sizes=closures,
        cycles=g.condensation.cycles,
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
    """Edge list, one "precedent<TAB>dependent" line per precedent, stable order."""
    lines = []
    for dependent in sorted(g.precedents, key=g.sort_key):
        for precedent in sorted(g.precedents[dependent], key=g.sort_key):
            lines.append(f"{precedent.qualified}\t{dependent.qualified}\n")
    return "".join(lines)
