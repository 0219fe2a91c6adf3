"""Traced in-process replay of a workload, with a span per layer call.

Spans are recorded around the calls into each module's public entry points
(``BOUNDARIES``) by rebinding those names, for the length of the replay,
in every ``gridaudit`` module that holds them and in the benchmark's own
workload module. The program itself is not changed. The replay runs the
workload's own set-up and its own CLI operations, through
``gridaudit.cli.main`` in this process, so a layer the workload does not
call reads 0. Spans stay in memory and are written out when the
benchmark ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

import workloads
from workloads import Op, Workload, expect, verify, write_inputs

# per-layer metric -> the entry point whose self time it sums
SELF_TIME_METRICS = {
    "model.parse_s": "model.parse_workbook",
    "model.serialize_s": "model.serialize_workbook",
    "formula.parse_s": "formula.parse_workbook_formulas",
    "formula.unique_s": "formula.unique_formula_count",
    "graph.build_s": "graph.build_graph",
    "graph.chain_stats_s": "graph.chain_stats",
    "rules.run_s": "rules.run_rules",
    "risk.assess_s": "risk.assess",
    "engine.evaluate_s": "engine.evaluate",
    "engine.snapshot_s": "engine.snapshot",
    "engine.recheck_s": "engine.recheck",
    "inspection.plan_s": "inspection.plan",
    "diffcheck.diff_s": "diffcheck.diff",
    "simlab.generate_s": "simlab.generate_clean",
    "simlab.seed_s": "simlab.seed_defects",
}
# the layer entry points whose calls get a span
BOUNDARIES = (*SELF_TIME_METRICS.values(), "cli.build_audit_report")


def _empty_edges(wb, g) -> int:
    """Edges whose precedent is an empty cell."""
    return sum(1 for f in g.formula_cells for p in g.precedents[f] if wb.cell(p) is None)


def _internal_errors(rep) -> int:
    from gridaudit.rules import INTERNAL_ERROR
    return sum(f.rule_id == INTERNAL_ERROR for f in rep.findings)


# entry point -> the work counts one call adds, from its arguments and result
COUNTERS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "model.parse_workbook": lambda args, wb: {"model.cells": wb.total_cell_count},
    "formula.parse_workbook_formulas": lambda args, asts: {"formula.formulas": len(asts)},
    "formula.unique_formula_count": lambda args, n: {
        "unique": n, "unique_of": sum(1 for _ in args[0].formula_cells())},
    "graph.build_graph": lambda args, g: {
        "graph.nodes": len(g.nodes), "graph.edges": g.edge_count,
        "empty_edges": _empty_edges(args[0], g)},
    "rules.run_rules": lambda args, rep: {
        "rules.findings": len(rep.findings), "rules.internal_errors": _internal_errors(rep)},
    "inspection.plan": lambda args, p: {"inspection.modules": len(p.modules)},
    "diffcheck.diff": lambda args, entries: {"diffcheck.entries": len(entries)},
    "simlab.seed_defects": lambda args, seeded: {"simlab.truth": len(seeded.truth)},
}
COUNT_METRICS = ("model.cells", "formula.formulas", "graph.nodes", "graph.edges",
                 "rules.findings", "rules.internal_errors", "inspection.modules",
                 "diffcheck.entries", "simlab.truth")

# each single-rule run and the no-rule run before it are repeated this many
# times, and the fastest of each is kept
SPLIT_REPEATS = 3
IMPORT_REPEATS = 3


class Tracer:
    """Spans as [name, start, end, parent index, run id], kept in memory,
    and the work counts of the current run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run = 0
        self.enabled = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside get no span and add no count."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, n in (count(args, result) if count else {}).items():
                self.counts[key] = self.counts.get(key, 0) + n
            return result
        return traced

    def self_times(self, run: int) -> dict[str, float]:
        """Summed self time per span name in one run.

        A span's self time is its duration minus that of its child spans.
        """
        out: dict[str, float] = {}
        for name, start, end, parent, r in self.spans:
            if r != run:
                continue
            out[name] = out.get(name, 0.0) + (end - start)
            if parent is not None:
                above = self.spans[parent][0]
                out[above] = out.get(above, 0.0) - (end - start)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route every call of a boundary function through a tracing wrapper."""
    originals = {}
    for name in BOUNDARIES:
        layer, fname = name.split(".")
        originals[name] = getattr(importlib.import_module(f"gridaudit.{layer}"), fname)
    holders: list[ModuleType] = [m for name, m in sys.modules.items()
                                 if name.startswith("gridaudit.")] + [workloads]
    patched: list[tuple[ModuleType, str, Callable]] = []
    for name, original in originals.items():
        wrapper = tracer.wrap(name, original)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
    try:
        yield
    finally:
        for holder, attr, original in patched:
            setattr(holder, attr, original)


def _timed(fn: Callable, *args, **kwargs) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _run_op(op: Op, tracer: Tracer, workdir: Path) -> int:
    """Run one CLI operation in this process; stdout and stderr go to files."""
    from gridaudit import cli

    with (workdir / "stdout.txt").open("w", encoding="utf-8") as out, \
            (workdir / "stderr.txt").open("w", encoding="utf-8") as err, \
            redirect_stdout(out), redirect_stderr(err), tracer.span(f"op.{op.name}"):
        return cli.main(list(op.argv))


def _split_rules(wb) -> tuple[float, dict[str, float], int]:
    """Time run_rules with no rule enabled and with each rule alone.

    Returns the no-rule time, each rule's time over the no-rule run just
    before it, and the single-rule finding counts summed.
    """
    from gridaudit import formula, graph, rules

    asts = formula.parse_workbook_formulas(wb)
    g = graph.build_graph(wb, asts=asts)

    def run(enabled: frozenset[str]) -> tuple[float, int]:
        took, rep = _timed(rules.run_rules, wb, g, rules.RuleConfig(enabled=enabled),
                           asts=asts)
        return took, len(rep.findings)

    preps, per_rule, found = [], {}, 0
    for rid in rules.RULE_IDS:
        pairs = [(run(frozenset()), run(frozenset({rid}))) for _ in range(SPLIT_REPEATS)]
        prep = min(p for (p, _), _ in pairs)
        per_rule[rid] = min(s for _, (s, _) in pairs) - prep
        preps.append(prep)
        found += pairs[0][1][1]
    return min(preps), per_rule, found


def replay(w: Workload, seed: int, tracer: Tracer, workdir: Path) -> dict[str, float]:
    """Run the workload's set-up and operations in-process once.

    Each operation's output gets the same check as in an untraced run.
    Around each ``audit`` operation the audited book is also reported
    with tracing paused, once before and once after, and its rules are
    split one by one. Returns the per-layer metrics; checks raise
    CheckFailed.
    """
    from gridaudit import cli, model, rules

    tracer.counts = {}
    times = dict.fromkeys(("cli.report_s", "cli.render_s", "trace.overhead_s",
                           "rules.prep_s", *(f"rules.{rid}_s" for rid in rules.RULE_IDS)),
                          0.0)
    with tracer.span("step.setup"):
        inputs, _ = write_inputs(w, seed, workdir)
    for op in w.ops(inputs):
        audited = op.argv[0] == "audit"
        if audited:
            with tracer.paused():
                wb = model.parse_workbook(Path(op.argv[1]).read_bytes())
                before_s, report = _timed(cli.build_audit_report, wb, fixed_timestamp=True)
        first = len(tracer.spans)
        code = _run_op(op, tracer, workdir)
        verify(op, inputs, code, workdir / "stdout.txt", workdir / "stderr.txt")
        if not audited:
            continue
        with tracer.paused():
            after_s, _ = _timed(cli.build_audit_report, wb, fixed_timestamp=True)
            render_s, doc = _timed(lambda: json.dumps(report.to_dict(), ensure_ascii=False,
                                                      indent=2))
            prep_s, per_rule, found = _split_rules(wb)
        traced_s = sum(s[2] - s[1] for s in tracer.spans[first:]
                       if s[0] == "cli.build_audit_report")
        report_s = (before_s + after_s) / 2  # both sides of the traced run, so drift cancels
        times["cli.report_s"] += report_s
        times["cli.render_s"] += render_s
        times["trace.overhead_s"] += traced_s - report_s
        times["rules.prep_s"] += prep_s
        for rid, took in per_rule.items():
            times[f"rules.{rid}_s"] += took
        written = json.loads((inputs.dir / op.output).read_text(encoding="utf-8"))
        expect(written == json.loads(doc), "traced and untraced audit reports differ")
        expect(found == len(report.findings),
               f"single-rule findings sum to {found}, all rules give {len(report.findings)}")

    selfs = tracer.self_times(tracer.run)
    metrics: dict[str, float] = {name: selfs.get(fn, 0.0)
                                 for name, fn in SELF_TIME_METRICS.items()}
    metrics.update(times)
    counts = tracer.counts
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics["formula.unique_frac"] = (counts["unique"] / counts["unique_of"]
                                      if counts.get("unique_of") else 0.0)
    metrics["graph.empty_edge_frac"] = (counts["empty_edges"] / counts["graph.edges"]
                                        if counts.get("graph.edges") else 0.0)
    return metrics


def import_seconds(env: dict[str, str]) -> float:
    """Median time a fresh interpreter takes to import gridaudit.cli."""
    code = ("import time; t = time.perf_counter(); import gridaudit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)
