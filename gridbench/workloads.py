"""The four benchmark workloads: their inputs, CLI operations and known answers.

Inputs are made from the workload seed alone, so one seed always gives
byte-identical files. Every known answer is computed here from the cells
the generator wrote, by reading the JSON documents back with a small
evaluator for the few formula shapes the generators emit; none of it goes
through ``gridaudit.engine`` or ``gridaudit.rules``.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gridaudit.model import (
    CellAddress,
    CellContent,
    Sheet,
    Workbook,
    WorkbookMeta,
    serialize_workbook,
)
from gridaudit.rules import RULE_IDS
from gridaudit.simlab import SeedSpec, generate_clean

GRID_FORMULAS, GRID_INPUTS = 20_000, 120
CHAIN_FORMULAS, CHAIN_INPUTS = 20_000, 120
NUMTEXT_GRID_FORMULAS, NUMTEXT_INPUTS = 2_000, 120
TREE_FORMULAS, TREE_INPUTS, SEED_RATE = 6_000, 600, 0.25
# Every cell defect class; VERSION_NAME renames the workbook and has no cell.
SEED_MIX = tuple((cls, 0.1) for cls in RULE_IDS if cls != "VERSION_NAME")
CHAIN_BUMP = 1_000_000

# Ledger layout: columns of integer amounts, an empty tail inside each
# column's SUM range, the SUM row right below. The SUM reaches back 24 rows,
# inside the LONG_ARC limit of 25, so the ledger arms no rule but NUM_AS_TEXT.
LEDGER = "Ledger"
LEDGER_COLS, LEDGER_DATA_ROWS, LEDGER_TAIL_ROWS = 12, 16, 8
LEDGER_TEXT_CELLS = 60
LEDGER_SUM_ROW = LEDGER_DATA_ROWS + LEDGER_TAIL_ROWS + 1


class CheckFailed(Exception):
    """An operation's output disagrees with the known answer."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Inputs:
    """Where one workload's files live, and the answers its checks compare to."""

    dir: Path
    answers: dict[str, object] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return str(self.dir / name)


@dataclass(frozen=True)
class Op:
    """One CLI operation: argv after ``gridaudit``, its exit code, its check.

    The check reads the JSON the operation wrote to ``output`` in the
    workload directory, or to standard output when ``output`` is None.
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[Inputs, dict], None]
    output: str | None = None


@dataclass(frozen=True)
class Workload:
    """Inputs, answers and operations of one workload.

    ``books`` builds the input workbooks, written as ``<name>.json``.
    ``answers`` derives the known answers from the written documents.
    """

    name: str
    books: Callable[[int], dict[str, Workbook]]
    answers: Callable[[int, dict[str, dict]], dict[str, object]]
    ops: Callable[[Inputs], list[Op]]


def write_inputs(w: Workload, seed: int, workdir: Path) -> tuple[Inputs, float]:
    """Write the workload's input books; returns them and the seconds it took."""
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    texts = {}
    for name, wb in w.books(seed).items():
        texts[name] = serialize_workbook(wb)
        (workdir / f"{name}.json").write_text(texts[name], encoding="utf-8")
    seconds = time.perf_counter() - start
    docs = {name: json.loads(text) for name, text in texts.items()}
    return Inputs(workdir, w.answers(seed, docs)), seconds


def verify(op: Op, inputs: Inputs, code: int, stdout: Path, stderr: Path) -> None:
    """Raise CheckFailed unless the operation exited as expected with a right answer."""
    expect(code == op.exit_code,
           f"exit {code}, expected {op.exit_code}: {stderr.read_text()[-500:]}")
    source = inputs.dir / op.output if op.output else stdout
    op.check(inputs, json.loads(source.read_text(encoding="utf-8")))


# --- Reading the generated documents ------------------------------------------


_CELL_KEY = re.compile(r"^([A-Z]+)([0-9]+)$")
_CHAIN_STEP = re.compile(r"^=([A-Z]+)([0-9]+)\+([0-9]+)(?:\+([0-9]+))?$")
_GRID_COPY = re.compile(r"^=([A-Z]+)([0-9]+)\*1$")


def _sheet_cells(doc: dict, sheet: str) -> dict[str, dict]:
    return next(s["cells"] for s in doc["sheets"] if s["name"] == sheet)


def _read(inputs: Inputs, name: str) -> dict:
    return json.loads((inputs.dir / name).read_text(encoding="utf-8"))


def _grid_answers(doc: dict) -> dict[str, int]:
    """formulaCells, longestChain and uniqueFormulas of a simlab grid book.

    Each grid formula copies the cell above it, so a column of formulas is
    one chain and every formula shares one relative form.
    """
    per_col: dict[str, int] = {}
    for key, cell in _sheet_cells(doc, "Model").items():
        if "f" not in cell:
            continue
        col, row = _CELL_KEY.match(key).groups()
        m = _GRID_COPY.match(cell["f"])
        expect(m is not None and m.group(1) == col and int(m.group(2)) == int(row) - 1,
               f"grid formula {key} {cell['f']!r} is not a copy of the cell above")
        per_col[col] = per_col.get(col, 0) + 1
    return {"formulaCells": sum(per_col.values()),
            "longestChain": max(per_col.values()),
            "uniqueFormulas": 1}


def _chain_output(doc: dict) -> float:
    """Value of the declared chain output, evaluated from the written cells."""
    cells = _sheet_cells(doc, "Model")
    (output,) = doc["meta"]["outputs"]
    key = output.split("!", 1)[1]
    increments = 0
    while "f" in cells[key]:
        m = _CHAIN_STEP.match(cells[key]["f"])
        expect(m is not None, f"unexpected chain formula {cells[key]['f']!r}")
        increments += int(m.group(3)) + int(m.group(4) or 0)
        key = f"{m.group(1)}{m.group(2)}"
    return cells[key]["v"] + increments


# --- audit-grid ---------------------------------------------------------------


def _grid_books(seed: int) -> dict[str, Workbook]:
    return {"grid": generate_clean(SeedSpec("grid", GRID_FORMULAS, GRID_INPUTS,
                                            rng_seed=seed))}


def _grid_known(seed: int, docs: dict[str, dict]) -> dict[str, object]:
    answers = _grid_answers(docs["grid"])
    # the generator packs formulas 12 to a row, so each column is F/12 deep
    expect(answers["longestChain"] == math.ceil(GRID_FORMULAS / 12),
           f"grid depth {answers['longestChain']}")
    return {"grid": answers}


def _check_clean_grid(inputs: Inputs, rep: dict) -> None:
    expect(rep["findings"] == [], f"{len(rep['findings'])} findings on a clean grid")
    want = inputs.answers["grid"]
    got = {k: rep["chainSummary"][k] for k in ("formulaCells", "longestChain")}
    got["uniqueFormulas"] = rep["risk"]["U"]
    expect(got == want, f"grid summary {got} != {want}")


def _check_plan(inputs: Inputs, doc: dict) -> None:
    counts = [m["formulaCount"] for m in doc["modules"]]
    want = inputs.answers["grid"]["formulaCells"]
    expect(sum(counts) == want and min(counts) > 0,
           f"plan covers {sum(counts)} formulas in {len(counts)} modules, want {want}")


def _grid_ops(inputs: Inputs) -> list[Op]:
    book = inputs.path("grid.json")
    return [
        Op("audit", ("audit", book, "--format", "machine", "--fixed-timestamp",
                     "--out", inputs.path("grid.report.json")), 0, _check_clean_grid,
           "grid.report.json"),
        Op("plan", ("plan", book, "--format", "machine"), 0, _check_plan),
    ]


# --- regress-chain ------------------------------------------------------------


def _chain_books(seed: int) -> dict[str, Workbook]:
    wb = generate_clean(SeedSpec("chain", CHAIN_FORMULAS, CHAIN_INPUTS, rng_seed=seed))
    bumped = random.Random(seed).choice([addr for addr, _ in wb.formula_cells()])
    mutated = wb.replace_cell(bumped, CellContent(
        formula=f"{wb.cell(bumped).formula}+{CHAIN_BUMP}", locked=True))
    return {"chain": wb, "chain.mutated": mutated}


def _chain_known(seed: int, docs: dict[str, dict]) -> dict[str, object]:
    clean = _chain_output(docs["chain"])
    bumped = _chain_output(docs["chain.mutated"])
    expect(bumped == clean + CHAIN_BUMP, "the mutation does not reach the output")
    return {"output": docs["chain"]["meta"]["outputs"][0], "clean": clean,
            "bumped": bumped}


def _check_snapshot(inputs: Inputs, snap: dict) -> None:
    want = {inputs.answers["output"]: inputs.answers["clean"]}
    expect(snap["outputs"] == want, f"snapshot outputs {snap['outputs']} != {want}")


def _check_recheck_clean(inputs: Inputs, doc: dict) -> None:
    expect(doc["ok"] and doc["matches"] == [inputs.answers["output"]],
           f"clean recheck: {doc['mismatches']}")


def _check_recheck_bumped(inputs: Inputs, doc: dict) -> None:
    want = [{"address": inputs.answers["output"], "expected": inputs.answers["clean"],
             "actual": inputs.answers["bumped"]}]
    expect(doc["mismatches"] == want, f"mutated recheck {doc['mismatches']} != {want}")


def _chain_ops(inputs: Inputs) -> list[Op]:
    book, mutated, snap = (inputs.path(n) for n in
                           ("chain.json", "chain.mutated.json", "snapshot.json"))
    return [
        Op("snapshot", ("snapshot", book, "--fixed-timestamp", "--out", snap),
           0, _check_snapshot, "snapshot.json"),
        Op("recheck", ("recheck", book, "--snapshot", snap, "--format", "machine"),
           0, _check_recheck_clean),
        Op("recheck", ("recheck", mutated, "--snapshot", snap, "--format", "machine"),
           1, _check_recheck_bumped),
    ]


# --- numtext-sum --------------------------------------------------------------


def _ledger_books(seed: int) -> dict[str, Workbook]:
    """A clean grid plus a ledger whose SUMs skip planted text-numbers."""
    base = generate_clean(SeedSpec("grid", NUMTEXT_GRID_FORMULAS, NUMTEXT_INPUTS,
                                   rng_seed=seed))
    rng = random.Random(seed)
    slots = [(r, c) for c in range(1, LEDGER_COLS + 1)
             for r in range(1, LEDGER_DATA_ROWS + 1)]
    amounts = rng.sample(range(10_000, 100_000), len(slots))  # distinct: no DUP_LITERAL
    texts = set(rng.sample(slots, LEDGER_TEXT_CELLS))
    cells: dict[str, CellContent] = {}
    for (r, c), amount in zip(slots, amounts):
        value = str(amount) if (r, c) in texts else float(amount)
        cells[CellAddress(LEDGER, r, c).a1] = CellContent(value=value, locked=True)
    sums = []
    for c in range(1, LEDGER_COLS + 1):
        top, bottom, total = (CellAddress(LEDGER, r, c)
                              for r in (1, LEDGER_SUM_ROW - 1, LEDGER_SUM_ROW))
        cells[total.a1] = CellContent(formula=f"=SUM({top.a1}:{bottom.a1})", locked=True)
        sums.append(total.qualified)
    meta = WorkbookMeta(modified=base.meta.modified,
                        outputs=base.meta.outputs + tuple(sums),
                        protection_enabled=base.meta.protection_enabled)
    return {"ledger": Workbook(base.name, base.sheets + (Sheet(LEDGER, cells),), meta)}


def _ledger_known(seed: int, docs: dict[str, dict]) -> dict[str, object]:
    planted = {f"{LEDGER}!{key}": float(cell["v"])
               for key, cell in _sheet_cells(docs["ledger"], LEDGER).items()
               if isinstance(cell.get("v"), str)}
    expect(len(planted) == LEDGER_TEXT_CELLS, f"{len(planted)} text-numbers written")
    return {"planted": planted}


def _check_numtext(inputs: Inputs, rep: dict) -> None:
    """Only NUM_AS_TEXT fires, on exactly the planted cells, each SUM short by its amount."""
    rules = {f["ruleId"] for f in rep["findings"]}
    expect(rules == {"NUM_AS_TEXT"}, f"ledger findings from {sorted(rules)}")
    got = {f["location"]: f["evidence"]["understatement"] for f in rep["findings"]}
    planted = inputs.answers["planted"]
    expect(got == planted, f"{len(got)} NUM_AS_TEXT findings for {len(planted)} planted "
                           "cells, or an understatement off its planted amount")


def _numtext_ops(inputs: Inputs) -> list[Op]:
    return [Op("audit", ("audit", inputs.path("ledger.json"), "--format", "machine",
                         "--fixed-timestamp", "--out", inputs.path("ledger.report.json")),
               1, _check_numtext, "ledger.report.json")]


# --- seed-lab -----------------------------------------------------------------


def _seed_spec(seed: int) -> SeedSpec:
    return SeedSpec("tree", TREE_FORMULAS, TREE_INPUTS, error_rate=SEED_RATE,
                    defect_mix=SEED_MIX, rng_seed=seed)


def _tree_books(seed: int) -> dict[str, Workbook]:
    return {"tree": generate_clean(_seed_spec(seed))}


def _tree_known(seed: int, docs: dict[str, dict]) -> dict[str, object]:
    return {"spec": _seed_spec(seed), "tree": _sheet_cells(docs["tree"], "Model")}


def _changed_cells(before: dict[str, dict], after: dict[str, dict], sheet: str) -> set[str]:
    return {f"{sheet}!{k}" for k in before.keys() | after.keys()
            if before.get(k) != after.get(k)}


def _check_seed(inputs: Inputs, truth: dict) -> None:
    entries = truth["entries"]
    cells = {t["cell"] for t in entries}
    seeded = _sheet_cells(_read(inputs, "seeded.json"), "Model")
    changed = _changed_cells(inputs.answers["tree"], seeded, "Model")
    expect(entries and cells == changed and len(cells) == len(entries),
           f"{len(entries)} truth entries on {len(cells)} cells, {len(changed)} cells changed")
    inputs.answers["truth"] = {(t["cell"], t["class"]) for t in entries}


def _check_diff(inputs: Inputs, doc: dict) -> None:
    cells = [e["location"] for e in doc["entries"]]
    want = {cell for cell, _ in inputs.answers["truth"]}
    expect(len(cells) == len(set(cells)) and set(cells) == want,
           f"{len(cells)} diff entries for {len(want)} mutated cells")


def _check_recall(inputs: Inputs, rep: dict) -> None:
    """Every seeded (cell, class) has a finding of that rule at that cell."""
    found = {(f["location"] or "*", f["ruleId"]) for f in rep["findings"]}
    missed = inputs.answers["truth"] - found
    expect(not missed, f"{len(missed)} of {len(inputs.answers['truth'])} seeded defects missed")


def _seed_ops(inputs: Inputs) -> list[Op]:
    spec = inputs.answers["spec"]
    seeded = inputs.path("seeded.json")
    return [
        Op("seed", ("seed", "--topology", spec.topology, "--formulas", str(spec.formula_count),
                    "--inputs", str(spec.input_count), "--rate", str(spec.error_rate),
                    "--mix", json.dumps(dict(spec.defect_mix)),
                    "--rng-seed", str(spec.rng_seed), "--workbook-out", seeded,
                    "--truth-out", inputs.path("truth.json")),
           0, _check_seed, "truth.json"),
        Op("diff", ("diff", inputs.path("tree.json"), seeded, "--format", "machine"),
           1, _check_diff),
        Op("audit", ("audit", seeded, "--format", "machine", "--fixed-timestamp",
                     "--out", inputs.path("seeded.report.json")), 1, _check_recall,
           "seeded.report.json"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("audit-grid", _grid_books, _grid_known, _grid_ops),
    Workload("regress-chain", _chain_books, _chain_known, _chain_ops),
    Workload("numtext-sum", _ledger_books, _ledger_known, _numtext_ops),
    Workload("seed-lab", _tree_books, _tree_known, _seed_ops),
)}
