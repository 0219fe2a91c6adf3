"""End-to-end tests for the command-line surface.

Every test drives main(argv) in process and checks the exit-code contract:
0 clean, 1 the check found something, 2 bad input.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridaudit import cli, formula, model
from gridaudit.cli import FIXED_TIMESTAMP, build_audit_report, main
from gridaudit.engine import parse_snapshot
from gridaudit.graph import build_graph
from gridaudit.inspection import plan
from gridaudit.model import Workbook, parse_workbook, serialize_workbook
from gridaudit.rules import RULE_IDS, RuleConfig, run_rules
from gridaudit.simlab import SeedSpec, generate_clean, seed_defects, truth_to_json

from helpers import MALFORMED_CELLS, one_cell_document, wb_from


def write_workbook(tmp_path: Path, wb, name: str = "wb.json") -> Path:
    path = tmp_path / name
    path.write_text(serialize_workbook(wb), encoding="utf-8")
    return path


def clean_chain(tmp_path: Path, formulas: int = 30, inputs: int = 3) -> Path:
    wb = generate_clean(SeedSpec("chain", formulas, inputs))
    return write_workbook(tmp_path, wb)


def flawed_chain(tmp_path: Path) -> Path:
    # NUM_AS_TEXT needs constants to convert, hence the input-heavy shape.
    spec = SeedSpec("chain", 3, 9, error_rate=1.0,
                    defect_mix=(("NUM_AS_TEXT", 1.0),), rng_seed=3)
    seeded = seed_defects(generate_clean(spec), spec)
    return write_workbook(tmp_path, seeded.workbook, "flawed.json")


# --- exit codes ---------------------------------------------------------------


def test_audit_clean_workbook_exits_zero(tmp_path, capsys):
    assert main(["audit", str(clean_chain(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "findings: 0" in out
    assert "coverage: complete" in out


def test_audit_error_finding_exits_one(tmp_path, capsys):
    assert main(["audit", str(flawed_chain(tmp_path))]) == 1
    assert "NUM_AS_TEXT" in capsys.readouterr().out


def test_fail_on_threshold_decides_exit(tmp_path):
    # JAMMED is warning severity: caught by --fail-on warning, not error.
    spec = SeedSpec("chain", 10, 2, error_rate=0.4,
                    defect_mix=(("JAMMED", 1.0),), rng_seed=1)
    seeded = seed_defects(generate_clean(spec), spec)
    path = write_workbook(tmp_path, seeded.workbook)
    assert main(["audit", str(path)]) == 0
    assert main(["audit", str(path), "--fail-on", "warning"]) == 1


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_workbook_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}', encoding="utf-8")
    assert main(["audit", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_range_number_literal_exits_two(tmp_path, capsys):
    wb = wb_from({"A1": "=1e400"})
    assert main(["audit", str(write_workbook(tmp_path, wb))]) == 2
    assert "S1!A1" in capsys.readouterr().err


@pytest.mark.parametrize("cell", MALFORMED_CELLS, ids=repr)
def test_malformed_cell_exits_two_naming_it(tmp_path, capsys, cell):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(one_cell_document(cell)), encoding="utf-8")
    assert main(["audit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "S1!A1" in err


@pytest.mark.parametrize("command", ["audit", "risk", "plan", "graph-dump", "snapshot"])
def test_integer_too_large_for_a_float_exits_two(tmp_path, capsys, command):
    path = write_workbook(tmp_path, wb_from({"A1": 1.0}, outputs=("S1!A1",)))
    doc = path.read_text(encoding="utf-8").replace('"v": 1', '"v": 1' + "0" * 400)
    path.write_text(doc, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "cell S1!A1: number too large for a float" in capsys.readouterr().err
    # past the int parser's digit limit, the document itself is unreadable
    path.write_text(doc.replace("0" * 400, "0" * 5000), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


_DEEP = "[" * 100_000 + "]" * 100_000  # far past the JSON decoder's recursion limit


def _deep_reader_argv(tmp_path: Path, reader: str) -> tuple[list[str], str]:
    """A command whose reader gets a document nested _DEEP, and the name
    its error must give: the file, or the flag, and the kind of document."""
    book = clean_chain(tmp_path)
    deep = tmp_path / "deep.json"
    session = write_session(tmp_path, "ana", "M1", [], 40.0)
    if reader == "workbook":
        deep.write_text('{"version": 1, "name": "d", "meta": {"modified": "2026-01-15", '
                        f'"deep": {_DEEP}}}, "sheets": []}}', encoding="utf-8")
        return ["audit", str(deep)], f"{deep}: workbook"
    if reader == "--mix":
        return ["seed", "--topology", "chain", "--formulas", "10", "--inputs", "2",
                "--mix", f'{{"JAMMED": {_DEEP}}}', "--workbook-out",
                str(tmp_path / "out.json")], "--mix"
    deep.write_text(f'{{"version": 1, "{reader}": {_DEEP}}}', encoding="utf-8")
    return {"config": (["plan", str(book), "--config", str(deep)], f"config {deep}"),
            "session": (["reconcile", str(book), "M1", str(deep)], f"session {deep}"),
            "truth": (["reconcile", str(book), "M1", str(session), "--truth", str(deep)],
                      f"truth {deep}"),
            "snapshot": (["recheck", str(book), "--snapshot", str(deep)],
                         f"{deep}: snapshot")}[reader]


@pytest.mark.parametrize("reader", ["workbook", "config", "session", "truth", "--mix",
                                    "snapshot"])
def test_a_document_nested_too_deeply_exits_two_naming_it(tmp_path, capsys, reader):
    argv, name = _deep_reader_argv(tmp_path, reader)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {name} is nested too deeply\n"


def test_unknown_config_section_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rules": {}, "paln": {}}', encoding="utf-8")
    rc = main(["audit", str(clean_chain(tmp_path)), "--config", str(cfg)])
    assert rc == 2
    assert "paln" in capsys.readouterr().err
    cfg.write_bytes(b'{"rules": {"enabled": ["JAMMED\xe9"]}}')  # Latin-1, not UTF-8
    rc = main(["audit", str(clean_chain(tmp_path)), "--config", str(cfg)])
    assert rc == 2
    assert "UTF-8" in capsys.readouterr().err
    cfg.write_text('{"rules": 5}', encoding="utf-8")
    rc = main(["audit", str(clean_chain(tmp_path)), "--config", str(cfg)])
    assert rc == 2
    assert "'rules' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    # a value of the wrong type is refused, not coerced
    ("plan", {"plan": {"teamSize": True}}, "plan config 'teamSize' has a bad value True"),
    ("plan", {"plan": {"targetModuleSize": 2.9}}, "'targetModuleSize' has a bad value 2.9"),
    ("plan", {"plan": {"rateCap": "300"}}, "plan config 'rateCap' has a bad value '300'"),
    ("plan", {"plan": {"sessionCapMinutes": False}}, "'sessionCapMinutes' has a bad value"),
    ("audit", {"rules": {"thresholds": {"longFormulaTokens": 12.0}}},
     "threshold 'longFormulaTokens' has a bad value 12.0"),
    ("audit", {"rules": {"thresholds": {"dupLiteralMinMagnitude": "2"}}},
     "threshold 'dupLiteralMinMagnitude' has a bad value '2'"),
    ("risk", {"rules": {"thresholds": {"dupLiteralExclusions": [0, True]}}},
     "threshold 'dupLiteralExclusions' has a bad value [0, True]"),
    ("audit", {"rules": {"enabled": ["JAMMED", 5]}}, "'enabled' has a bad value ['JAMMED', 5]"),
])
def test_wrong_typed_config_exits_two(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, str(clean_chain(tmp_path)), "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_internal_error_exits_three(tmp_path, monkeypatch, capsys):
    # Any exception that is not bad input is a fault in the tool: one line
    # on stderr and exit 3, never 1, which a script reads as findings.
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_audit", broken)
    assert main(["audit", str(clean_chain(tmp_path))]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_cyclic_collector_and_restores_it(tmp_path, monkeypatch, collecting):
    # Paused while a command runs, then left as main found it, whether the
    # command exits 0, 2 (bad input) or 3 (internal error).
    book = str(clean_chain(tmp_path))
    seen: list[bool] = []
    audit = cli._cmd_audit

    def watched(args):
        seen.append(gc.isenabled())
        return audit(args)

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        monkeypatch.setattr(cli, "_cmd_audit", watched)
        assert main(["audit", book]) == 0
        assert gc.isenabled() == collecting
        assert main(["audit", str(tmp_path / "absent.json")]) == 2
        assert gc.isenabled() == collecting
        monkeypatch.setattr(cli, "_cmd_audit", broken)
        assert main(["audit", book]) == 3
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]


def test_a_command_leaves_no_cyclic_garbage_per_formula(tmp_path):
    # What the collector would find after an audit does not grow with the
    # book, so pausing it for a command holds no per-cell garbage.
    def unreachable_after_audit(formulas: int) -> int:
        spec = SeedSpec("grid", formulas, 50, error_rate=0.2, rng_seed=1)
        path = write_workbook(tmp_path, seed_defects(generate_clean(spec), spec).workbook,
                              f"grid{formulas}.json")
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert main(["audit", str(path), "--format", "machine"]) == 1
            return gc.collect()
        finally:
            if was:
                gc.enable()

    unreachable_after_audit(1000)  # the first run also imports each layer
    small = unreachable_after_audit(1000)
    assert unreachable_after_audit(4000) <= small


def test_cli_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c",
                    "import gridaudit.cli, sys; assert 'numpy' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


_ALL_LAYERS = frozenset({"diffcheck", "engine", "formula", "graph", "inspection", "risk",
                         "rules", "simlab"})

# command -> the gridaudit modules it must not load; each command imports
# only the layers it calls, and only mc loads numpy
_NOT_LOADED = {
    "--version": _ALL_LAYERS,
    "diff": _ALL_LAYERS - {"diffcheck"},
    "threeway": _ALL_LAYERS - {"diffcheck"},
    "plan": {"engine", "graph", "rules", "risk", "simlab"},
    "reconcile": {"engine", "graph", "rules", "risk", "simlab"},
    "graph-dump": {"engine"},
    "snapshot": {"rules", "risk", "inspection", "simlab", "diffcheck"},
    "recheck": {"rules", "risk", "inspection", "simlab", "diffcheck"},
    "audit": {"inspection", "simlab", "diffcheck"},
    # a book with no text constant needs no evaluator for NUM_AS_TEXT
    "audit text-free": {"engine", "inspection", "simlab", "diffcheck"},
    "risk": {"inspection", "simlab", "diffcheck"},
    "seed": {"engine", "risk", "inspection", "diffcheck"},
    "mc": set(),
}

# standard modules no command but mc loads: records are built without code
# generation (dataclasses brings inspect), and decimal waits for a ROUND
_HEAVY_STDLIB = ("dataclasses", "inspect", "decimal")

# runs main(argv) and prints its exit code, the gridaudit modules loaded,
# whether numpy was and which of _HEAVY_STDLIB were, as the last line
_IMPORT_PROBE = f"""
import json, sys
from gridaudit.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("gridaudit.")), "numpy" in sys.modules,
                  [m for m in {_HEAVY_STDLIB!r} if m in sys.modules]]))
"""


def _run_in_fresh_interpreter(code: str, *argv: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                          capture_output=True, text=True).stdout


@pytest.fixture(scope="module")
def command_argv(tmp_path_factory) -> dict[str, list[str]]:
    tmp = tmp_path_factory.mktemp("commands")
    spec = SeedSpec("grid", 40, 8, error_rate=0.3, rng_seed=3)
    clean = generate_clean(spec)
    seeded_book = seed_defects(clean, spec)
    book = str(write_workbook(tmp, clean, "clean.json"))
    seeded = str(write_workbook(tmp, seeded_book.workbook, "seeded.json"))
    truth = tmp / "truth.json"
    truth.write_text(truth_to_json(seeded_book), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["snapshot", book]) == 0
    session = str(write_session(tmp, "ana", "M1", [{"cell": "Model!A2"}], 40.0))
    return {
        "--version": ["--version"],
        "diff": ["diff", book, seeded],
        "threeway": ["threeway", book, seeded, book],
        "plan": ["plan", book],
        "reconcile": ["reconcile", book, "M1", session],
        "reconcile --truth": ["reconcile", book, "M1", session, "--truth", str(truth)],
        "graph-dump": ["graph-dump", seeded],
        "snapshot": ["snapshot", book],
        "recheck": ["recheck", book],
        "audit": ["audit", seeded],
        "audit text-free": ["audit", book],
        "risk": ["risk", seeded],
        "seed": ["seed", "--topology", "chain", "--formulas", "10", "--inputs", "2",
                 "--rate", "0.4", "--workbook-out", str(tmp / "out.json")],
        "mc": ["mc", "--U", "10", "--trials", "1000"],
    }


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_each_command_loads_only_its_layers(command_argv, command):
    out = _run_in_fresh_interpreter(_IMPORT_PROBE, *command_argv[command])
    code, loaded, numpy_loaded, heavy = json.loads(out.splitlines()[-1])
    assert code in (0, 1)
    assert set(loaded) & set(_NOT_LOADED[command]) == set()
    assert command != "--version" or set(loaded) == {"cli", "errors", "model"}
    assert numpy_loaded == (command == "mc")
    assert command == "mc" or heavy == []


def test_package_import_loads_no_layer_and_exports_all():
    _run_in_fresh_interpreter("""
import sys, gridaudit
assert [m for m in sys.modules if m.startswith("gridaudit.")] == []
names = {}
exec("from gridaudit import *", names)
assert set(gridaudit.__all__) <= set(names) and set(gridaudit.__all__) <= set(dir(gridaudit))
import gridaudit.graph
assert names["build_graph"] is gridaudit.graph.build_graph
""")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["audit"])  # missing workbook argument
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gridaudit" in capsys.readouterr().out


# --- machine output -----------------------------------------------------------


def test_machine_audit_report_on_stdout(tmp_path, capsys):
    path = flawed_chain(tmp_path)
    main(["audit", str(path), "--format", "machine", "--fixed-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["generatedAt"] == FIXED_TIMESTAMP
    assert any(f["ruleId"] == "NUM_AS_TEXT" for f in doc["findings"])


def _no_constant(name: str) -> None:
    raise AssertionError(f"machine output holds {name}, which is not JSON")


# Each command's top-level machine keys.
_MACHINE_KEYS = {
    "audit": {"toolVersion", "workbookName", "generatedAt", "findings", "risk",
              "chainSummary", "coverage", "suppressedCount"},
    "risk": {"U", "E", "pAnyError", "multiplier", "perOutput", "residualAfterRounds",
             "riskScore", "params", "notes"},
    "plan": {"modules", "teamSize", "rateCap", "sessionCapMinutes", "roundsRecommended"},
    "reconcile --truth": {"unionItems", "perInspectorCounts", "overlapMatrix",
                          "hastyInspectors", "yield"},
    "diff": {"workbookA", "workbookB", "entries"},
    "threeway": {"agreeing", "conflicting"},
    "snapshot": {"version", "workbook", "createdAt", "inputs", "outputs"},
    "recheck": {"workbook", "snapshotCreatedAt", "matches", "mismatches",
                "missingOutputs", "ok"},
    "graph-dump": {"workbook", "edgeCount", "edges"},
    "seed": {"spec", "workbookName", "workbookPath", "defectCount", "byClass", "entries"},
    "mc": {"trials", "uniqueFormulas", "chainLength", "pEff", "pAnyError",
           "pChainCorrect"},
}


@pytest.mark.parametrize("command", list(_MACHINE_KEYS))
def test_machine_output_is_strict_json(command_argv, capsys, command):
    argv = command_argv[command]
    assert main([*argv, "--format", "machine"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert set(doc) == _MACHINE_KEYS[command]


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, 2.0**53, math.inf, -math.inf, math.nan])
    | st.text() | st.sampled_from(["\x00\x1f\"\\\x7f", "\u2028\u2029", "é€😀", ""]))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_TREES)
def test_the_report_writer_writes_what_json_dumps_writes(obj):
    pieces: list[str] = []
    cli._write_json(obj, pieces.append)
    assert "".join(pieces) == json.dumps(obj, ensure_ascii=False, indent=2)


def counted_normalize(monkeypatch) -> list:
    """The hosts formula.normalize is called for from now on. It is wrapped
    in every gridaudit module that holds the name, so a second route to it
    would be counted too."""
    original = formula.normalize
    calls: list = []

    def counted(ast):
        calls.append(ast.host)
        return original(ast)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridaudit") and getattr(module, "normalize", None) is original:
            monkeypatch.setattr(module, "normalize", counted)
    return calls


def test_audit_normalizes_each_formula_class_once(monkeypatch):
    # Copies that differ only in a number are one class but two normal
    # forms. Forms are compared by key, so the audit renders a normal text at
    # most once per class, plus once per firing HARDWIRED run's normalForm.
    spec = SeedSpec("grid", 90, 6, error_rate=0.3, rng_seed=4)
    wb = seed_defects(generate_clean(spec), spec).workbook
    calls = counted_normalize(monkeypatch)
    rep = build_audit_report(wb, fixed_timestamp=True)
    asts = formula.parse_workbook_formulas(wb)
    classes = {ast.cls for ast in asts.values()}
    forms = {f.evidence["normalForm"] for f in rep.findings if f.rule_id == "HARDWIRED"}
    assert forms
    assert len(set(calls)) == len(calls) <= len(classes) + len(forms)
    assert len(classes) < len({(ast.cls, ast.literals) for ast in asts.values()}) < len(asts)


def test_class_rules_and_plan_render_no_normal_form(monkeypatch):
    # JAMMED, LONG_FORMULA and XSHEET_REF read the literal vector and the
    # class's facts, and the planner prices a formula by its class's token
    # count, so none of them renders a normal form, though each copy here
    # holds literals of its own: 13 tokens, one cross-sheet reference.
    cells = {f"B{r}": f"=Data!A1+A{r}+A{r}+A{r}+A{r}+{r}*{r + 1}" for r in range(1, 41)}
    wb = wb_from(cells, extra_sheets={"Data": {"A1": 1.0}})
    asts = formula.parse_workbook_formulas(wb)
    g = build_graph(wb, asts=asts)
    calls = counted_normalize(monkeypatch)
    cfg = RuleConfig(enabled=frozenset({"JAMMED", "LONG_FORMULA", "XSHEET_REF"}))
    report = run_rules(wb, g, cfg, asts=asts)
    p = plan(wb, asts=asts)
    assert calls == []
    assert len({ast.literals for ast in asts.values()}) == 40
    assert sorted(Counter(f.rule_id for f in report.findings).values()) == [40, 40, 40]
    assert sum(m.effective_cells for m in p.modules) == 40 * 2.5


def test_readme_library_example_parses_formulas_once(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    spec = SeedSpec("grid", 90, 6, error_rate=0.3, rng_seed=4)
    write_workbook(tmp_path, seed_defects(generate_clean(spec), spec).workbook, "model.json")
    original = formula.parse_workbook_formulas
    calls: list = []

    def counted(wb):
        calls.append(wb.name)
        return original(wb)

    for name, module in list(sys.modules.items()):
        if (name.startswith("gridaudit")
                and getattr(module, "parse_workbook_formulas", None) is original):
            monkeypatch.setattr(module, "parse_workbook_formulas", counted)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert len(calls) == 1
    risk_score, p_any_error = map(float, capsys.readouterr().out.split())
    assert risk_score > 0 and 0 < p_any_error < 1


def test_audit_parses_each_cell_key_once(tmp_path, monkeypatch, capsys):
    # Loading parses each key once and hands the sheet its reading order;
    # each declared output is parsed on load, by the workbook's check and
    # for the graph. No later pass may parse an address again.
    spec = SeedSpec("grid", 90, 6, error_rate=0.3, rng_seed=4)
    wb = seed_defects(generate_clean(spec), spec).workbook
    path = write_workbook(tmp_path, wb)
    original = model.parse_cell_key
    calls: list = []

    def counted(key):
        calls.append(key)
        return original(key)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridaudit") and getattr(module, "parse_cell_key", None) is original:
            monkeypatch.setattr(module, "parse_cell_key", counted)
    assert main(["audit", str(path), "--format", "machine", "--fixed-timestamp"]) in (0, 1)
    assert len(calls) <= wb.total_cell_count + 3 * len(wb.meta.outputs)


def _deep_book(tmp_path: Path, terms: int, nested: bool) -> Path:
    """A1 = 1 and output B1 = a chain of terms references to A1: a flat sum,
    or a comparison chain inside SUM( and IF(TRUE, calls, alternating,
    nested to the limit (a kernel recurses only where the formula nests)."""
    if nested:
        calls = formula.MAX_NESTING - 1
        openers = "".join("SUM(" if i % 2 else "IF(TRUE," for i in range(calls))
        src = "=" + openers + "=".join(["A1"] * terms) + ")" * calls
    else:
        src = "=" + "+".join(["A1"] * terms)
    return write_workbook(tmp_path, wb_from({"A1": 1.0, "B1": src}, outputs=("S1!B1",)),
                          f"deep{terms}.json")


@pytest.mark.parametrize("nested", [False, True])
def test_deepest_formula_runs_through_every_command(tmp_path, capsys, nested):
    # Only nesting is bounded; a 2000-term chain is a tree 1999 levels high.
    path = _deep_book(tmp_path, 2000, nested)
    snap = tmp_path / "deep.snapshot.json"
    assert main(["snapshot", str(path), "--out", str(snap)]) == 0
    assert parse_snapshot(snap.read_text()).outputs == {"S1!B1": 0.0 if nested else 2000.0}
    assert main(["recheck", str(path), "--snapshot", str(snap)]) == 0
    assert main(["audit", str(path)]) in (0, 1)
    for command in ("graph-dump", "plan", "risk"):
        assert main([command, str(path)]) == 0


def test_fixed_timestamp_makes_runs_identical(tmp_path):
    path = clean_chain(tmp_path)
    а = tmp_path / "a.report"
    b = tmp_path / "b.report"
    main(["audit", str(path), "--fixed-timestamp", "--format", "machine",
          "--out", str(а)])
    main(["audit", str(path), "--fixed-timestamp", "--format", "machine",
          "--out", str(b)])
    assert а.read_bytes() == b.read_bytes()


TEN_CLASSES = tuple((cls, 0.1) for cls in RULE_IDS if cls != "VERSION_NAME")


# sha256 of the machine report of seeded simlab books, pinned so that any
# change to a report shows at once. A change that means to alter reports
# updates these digests and says so in CHANGES.md.
@pytest.mark.parametrize("topology, formulas, inputs, seed, protection, digest", [
    ("chain", 60, 6, 4, False,
     "59617c8919c4a0c019a59f6ea268d85bc7b73dbf2fcd282331e2cf84955fad51"),
    ("tree", 120, 20, 5, False,
     "ed4fc1c984b42d38f815d3d234489a3da08062ff8aceb067d12849b9d0115113"),
    ("grid", 150, 10, 6, True,
     "f8ea842d2993d9bce9cd18bf74dece1f0a226bb8b64d89feb665746a6a50ee82"),
])
def test_machine_report_digest_is_pinned(tmp_path, capsys, topology, formulas, inputs,
                                         seed, protection, digest):
    spec = SeedSpec(topology, formulas, inputs, error_rate=0.3,
                    defect_mix=TEN_CLASSES, rng_seed=seed)
    wb = seed_defects(generate_clean(spec), spec).workbook
    wb = Workbook(wb.name, wb.sheets, wb.meta._replace(protection_enabled=protection))
    path = write_workbook(tmp_path, wb)
    capsys.readouterr()
    assert main(["audit", str(path), "--format", "machine", "--fixed-timestamp"]) == 1
    out = capsys.readouterr().out
    assert len(json.loads(out)["findings"]) > 10
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_file_with_human_format_still_prints_text(tmp_path, capsys):
    path = clean_chain(tmp_path)
    report = tmp_path / "audit.report"
    main(["audit", str(path), "--out", str(report)])
    assert "workbook:" in capsys.readouterr().out
    assert json.loads(report.read_text(encoding="utf-8"))["workbookName"]


def test_config_env_variable_is_honored(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"targetModuleSize": 10}}),
                   encoding="utf-8")
    monkeypatch.setenv("GRIDAUDIT_CONFIG", str(cfg))
    main(["plan", str(clean_chain(tmp_path)), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["modules"]) == 3
    assert all(len(m["cells"]) <= 10 for m in doc["modules"])


# --- snapshot / recheck -------------------------------------------------------


def test_snapshot_writes_default_sidecar_path(tmp_path, capsys):
    path = clean_chain(tmp_path)
    assert main(["snapshot", str(path), "--fixed-timestamp"]) == 0
    sidecar = Path(str(path) + ".snapshot")
    snap = parse_snapshot(sidecar.read_bytes())
    assert snap.created_at == FIXED_TIMESTAMP
    assert "snapshot of" in capsys.readouterr().out


def test_snapshot_prints_its_machine_output_unless_out_is_given(tmp_path, capsys):
    path = clean_chain(tmp_path)
    assert main(["snapshot", str(path), "--fixed-timestamp", "--format", "machine"]) == 0
    sidecar = Path(str(path) + ".snapshot").read_text(encoding="utf-8")
    assert capsys.readouterr().out == sidecar
    out = tmp_path / "snap.json"
    assert main(["snapshot", str(path), "--fixed-timestamp", "--format", "machine",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == sidecar


def test_recheck_unmodified_workbook_passes(tmp_path):
    path = clean_chain(tmp_path)
    assert main(["snapshot", str(path)]) == 0
    assert main(["recheck", str(path)]) == 0


def test_recheck_flags_changed_formula(tmp_path, capsys):
    # inputs are pinned by the snapshot, so only logic edits can diverge
    path = clean_chain(tmp_path)
    main(["snapshot", str(path)])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["sheets"][0]["cells"]["A5"]["f"] = "=A4+200"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["recheck", str(path)]) == 1
    out = capsys.readouterr().out
    assert "expected" in out and "actual" in out


def test_recheck_honors_explicit_snapshot_path(tmp_path):
    path = clean_chain(tmp_path)
    moved = tmp_path / "frozen.snap"
    main(["snapshot", str(path), "--out", str(moved)])
    assert main(["recheck", str(path), "--snapshot", str(moved)]) == 0


def test_recheck_snapshot_not_utf8_exits_two(tmp_path, capsys):
    path = clean_chain(tmp_path)
    bad = tmp_path / "latin1.snap"
    bad.write_bytes(b"\xe9")
    assert main(["recheck", str(path), "--snapshot", str(bad)]) == 2
    assert "snapshot is not UTF-8" in capsys.readouterr().err


def test_recheck_snapshot_number_not_a_finite_float_exits_two(tmp_path, capsys):
    path = clean_chain(tmp_path)
    snap = tmp_path / "big.snap"
    assert main(["snapshot", str(path), "--out", str(snap)]) == 0
    doc = json.loads(snap.read_text(encoding="utf-8"))
    doc["inputs"]["Model!A1"] = 10 ** 400
    snap.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["recheck", str(path), "--snapshot", str(snap)]) == 2
    assert "number too large for a float" in capsys.readouterr().err
    # an Infinity output is within any tolerance of every number, so it
    # would match whatever the book computes
    del doc["inputs"]["Model!A1"]
    doc["outputs"] = {key: float("inf") for key in doc["outputs"]}
    snap.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["recheck", str(path), "--snapshot", str(snap)]) == 2
    assert "non-finite number" in capsys.readouterr().err


# --- diff / threeway ----------------------------------------------------------


def test_diff_identical_exits_zero(tmp_path, capsys):
    a = clean_chain(tmp_path)
    assert main(["diff", str(a), str(a)]) == 0
    assert "differences: 0" in capsys.readouterr().out


def test_diff_reports_changes_and_exits_one(tmp_path, capsys):
    clean = generate_clean(SeedSpec("chain", 20, 2))
    spec = SeedSpec("chain", 20, 2, error_rate=0.3, rng_seed=9)
    seeded = seed_defects(generate_clean(spec), spec)
    a = write_workbook(tmp_path, clean, "a.json")
    b = write_workbook(tmp_path, seeded.workbook, "b.json")
    assert main(["diff", str(a), str(b), "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"]
    assert all(e["location"] for e in doc["entries"])


def test_threeway_conflict_exits_one(tmp_path):
    base = generate_clean(SeedSpec("chain", 20, 2))
    spec = SeedSpec("chain", 20, 2, error_rate=0.3, rng_seed=9)
    touched = seed_defects(generate_clean(spec), spec)
    b = write_workbook(tmp_path, base, "base.json")
    c1 = write_workbook(tmp_path, touched.workbook, "c1.json")
    c2 = write_workbook(tmp_path, base, "c2.json")
    # every copy1 edit is unilateral, hence a conflict
    assert main(["threeway", str(b), str(c1), str(c2)]) == 1
    assert main(["threeway", str(b), str(c2), str(c2)]) == 0


# --- plan / reconcile ---------------------------------------------------------


def test_plan_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"targetModuleSize": 10}}),
                   encoding="utf-8")
    main(["plan", str(clean_chain(tmp_path)), "--config", str(cfg),
          "--target-module-size", "15", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert [len(m["cells"]) for m in doc["modules"]] == [15, 15]


@pytest.mark.parametrize("flag, message", [("--rate-cap", "rate_cap must be finite"),
                                           ("--team-size", "team_size must be >= 1")])
def test_plan_flag_override_is_checked(tmp_path, capsys, flag, message):
    assert main(["plan", str(clean_chain(tmp_path)), flag, "0"]) == 2
    assert message in capsys.readouterr().err


def write_session(tmp_path: Path, inspector: str, module: str,
                  items: list[dict], minutes: float) -> Path:
    path = tmp_path / f"{inspector}.session"
    path.write_text(json.dumps({
        "inspectorId": inspector,
        "moduleId": module,
        "durationMinutes": minutes,
        "items": items,
    }), encoding="utf-8")
    return path


def test_reconcile_merges_sessions(tmp_path, capsys):
    path = clean_chain(tmp_path)
    s1 = write_session(tmp_path, "ana", "M1",
                       [{"cell": "Model!A5", "note": "", "suspectedClass": "JAMMED"}],
                       40.0)
    s2 = write_session(tmp_path, "ben", "M1",
                       [{"cell": "Model!A5", "note": "", "suspectedClass": "JAMMED"},
                        {"cell": "Model!A7", "note": "", "suspectedClass": None}],
                       45.0)
    rc = main(["reconcile", str(path), "M1", str(s1), str(s2),
               "--format", "machine"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["unionItems"]) == 2
    assert doc["perInspectorCounts"] == {"ana": 1, "ben": 2}
    assert doc["overlapMatrix"] == [{"a": "ana", "b": "ben", "shared": 1}]
    assert doc["hastyInspectors"] == []


def test_reconcile_hasty_inspector_exits_one(tmp_path, capsys):
    path = clean_chain(tmp_path)
    # 30.5 effective cells in 5 minutes is far past any plausible rate
    s = write_session(tmp_path, "rushed", "M1",
                      [{"cell": "Model!A5", "note": "", "suspectedClass": None}],
                      5.0)
    assert main(["reconcile", str(path), "M1", str(s)]) == 1
    assert "hasty: rushed" in capsys.readouterr().out


@pytest.mark.parametrize("minutes", [float("nan"), float("inf")])
def test_reconcile_non_finite_duration_exits_two(tmp_path, capsys, minutes):
    # a session of unbounded length could never be flagged as hasty
    path = clean_chain(tmp_path)
    s = write_session(tmp_path, "rushed", "M1",
                      [{"cell": "Model!A5", "note": "", "suspectedClass": None}], minutes)
    assert main(["reconcile", str(path), "M1", str(s)]) == 2
    assert "duration_minutes must be finite" in capsys.readouterr().err


def test_reconcile_unknown_module_exits_two(tmp_path, capsys):
    path = clean_chain(tmp_path)
    s = write_session(tmp_path, "ana", "M9", [], 40.0)
    assert main(["reconcile", str(path), "M9", str(s)]) == 2
    assert "M9" in capsys.readouterr().err


def test_reconcile_with_truth_reports_yield(tmp_path, capsys):
    spec = SeedSpec("chain", 10, 2, error_rate=0.4,
                    defect_mix=(("JAMMED", 1.0),), rng_seed=1)
    seeded = seed_defects(generate_clean(spec), spec)
    path = write_workbook(tmp_path, seeded.workbook)
    truth = tmp_path / "truth.json"
    truth.write_text(truth_to_json(seeded), encoding="utf-8")
    hits = [{"cell": t.cell, "note": "", "suspectedClass": t.defect_class}
            for t in seeded.truth[:2]]
    s = write_session(tmp_path, "ana", "M1", hits, 40.0)
    main(["reconcile", str(path), "M1", str(s), "--truth", str(truth),
          "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    expected = 2 / len(seeded.truth)
    assert doc["yield"]["yieldFraction"] == pytest.approx(expected)


@pytest.mark.parametrize("truth_doc, message", [
    ({"entries": 5}, "truth 'entries' has a bad value 5"),
    ({"entries": [5]}, "truth entry must be an object"),
    ({"entries": [{"class": "JAMMED", "original": ""}]}, "truth entry lacks 'cell'"),
    ({"entries": [{"cell": ["Model!A5"], "class": "JAMMED", "original": ""}]},
     "truth entry 'cell' has a bad value"),
    ({"entries": [{"cell": 5, "class": "JAMMED", "original": ""}]},
     "truth entry 'cell' has a bad value 5"),
    ({"entries": [{"cell": "nonsense", "class": "JAMMED", "original": ""}]},
     "truth entry 'cell' has a bad value 'nonsense'"),
    ({"entries": [{"cell": "Model!A5", "class": "TYPO", "original": ""}]},
     "truth entry 'class' has a bad value 'TYPO'"),
    ({"workbook": "w"}, "truth lacks 'entries'"),
])
def test_reconcile_malformed_truth_exits_two(tmp_path, capsys, truth_doc, message):
    path = clean_chain(tmp_path)
    s = write_session(tmp_path, "ana", "M1", [], 40.0)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(truth_doc), encoding="utf-8")
    assert main(["reconcile", str(path), "M1", str(s), "--truth", str(truth)]) == 2
    assert f"error: truth {truth}: {message}" in capsys.readouterr().err


# --- seed / mc ----------------------------------------------------------------


def test_seed_writes_loadable_workbook_and_truth(tmp_path, capsys):
    wb_out = tmp_path / "seeded.json"
    truth_out = tmp_path / "truth.json"
    rc = main(["seed", "--topology", "grid", "--formulas", "40",
               "--inputs", "8", "--rate", "0.3", "--rng-seed", "11",
               "--workbook-out", str(wb_out), "--truth-out", str(truth_out),
               "--format", "machine"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    wb = parse_workbook(wb_out.read_bytes())
    truth = json.loads(truth_out.read_text(encoding="utf-8"))
    assert wb.name == doc["workbookName"]
    assert len(truth["entries"]) == doc["defectCount"] > 0
    assert sum(doc["byClass"].values()) == doc["defectCount"]
    # seeded output still audits end to end
    assert main(["audit", str(wb_out), "--fail-on", "warning"]) == 1


def test_seed_honors_mix(tmp_path, capsys):
    wb_out = tmp_path / "seeded.json"
    rc = main(["seed", "--topology", "chain", "--formulas", "10",
               "--inputs", "2", "--rate", "0.4",
               "--mix", '{"JAMMED": 1.0}',
               "--workbook-out", str(wb_out), "--format", "machine"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["byClass"]) == {"JAMMED"}


def test_seed_bad_mix_exits_two(tmp_path, capsys):
    rc = main(["seed", "--topology", "chain", "--formulas", "10",
               "--inputs", "2", "--mix", "not json",
               "--workbook-out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "mix" in capsys.readouterr().err


@pytest.mark.parametrize("mix", ['{"JAMMED": "x"}', '{"JAMMED": 1' + "0" * 400 + "}",
                                 '{"JAMMED": NaN}', '{"JAMMED": true}', '{"JAMMED": "0.5"}'])
def test_seed_mix_weights_must_be_numbers(tmp_path, capsys, mix):
    rc = main(["seed", "--topology", "chain", "--formulas", "10",
               "--inputs", "2", "--mix", mix,
               "--workbook-out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "weights must be" in capsys.readouterr().err


def test_mc_matches_closed_form(capsys):
    rc = main(["mc", "--p", "0.02", "--U", "100", "--trials", "100000",
               "--format", "machine"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pAnyError"]["closedForm"] == pytest.approx(0.8674, abs=5e-5)
    assert doc["pAnyError"]["estimate"] == pytest.approx(0.8674, abs=0.004)


# --- graph dump ---------------------------------------------------------------


def test_graph_dump_lists_edges(tmp_path, capsys):
    wb = wb_from({"A1": 1.0, "A2": "=A1+1", "A3": "=A2+1"},
                 outputs=("S1!A3",))
    path = write_workbook(tmp_path, wb)
    assert main(["graph-dump", str(path)]) == 0
    out = capsys.readouterr().out
    assert "S1!A1\tS1!A2" in out
    assert "S1!A2\tS1!A3" in out


def test_range_down_the_whole_column_audits(tmp_path, capsys):
    # a range's empty cells are not edges, so a million-row SUM stays under EDGE_CAP
    wb = wb_from({"A1": 1.0, "A2": 2.0, "B1": "=SUM(A1:A1048576)"}, outputs=("S1!B1",))
    path = write_workbook(tmp_path, wb)
    rc = main(["audit", str(path), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == int(any(f["severity"] == "error" for f in doc["findings"]))
    assert doc["chainSummary"]["edgeCount"] == 2


# --- no-network guarantee -----------------------------------------------------


def test_sources_never_import_network_modules():
    src = Path(__file__).resolve().parent.parent / "src" / "gridaudit"
    banned = ("socket", "urllib", "http", "requests", "ssl")
    for path in sorted(src.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped.startswith(("import ", "from ")):
                head = stripped.split()[1].split(".")[0]
                assert head not in banned, f"{path.name}: {stripped}"
