"""End-to-end tests for the command-line surface.

Every test drives main(argv) in process and checks the exit-code contract:
0 clean, 1 the check found something, 2 bad input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridaudit import cli, formula, model
from gridaudit.cli import FIXED_TIMESTAMP, audit_report_from_dict, build_audit_report, main
from gridaudit.engine import parse_snapshot
from gridaudit.errors import InvalidConfig
from gridaudit.model import parse_workbook, serialize_workbook
from gridaudit.rules import RULE_IDS
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


def test_cli_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c",
                    "import gridaudit.cli, sys; assert 'numpy' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


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


def test_machine_report_round_trips(tmp_path, capsys):
    path = flawed_chain(tmp_path)
    main(["audit", str(path), "--format", "machine", "--fixed-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    rep = audit_report_from_dict(doc)
    assert rep.to_dict() == doc
    assert rep.generated_at == FIXED_TIMESTAMP
    assert any(f.rule_id == "NUM_AS_TEXT" for f in rep.findings)
    for bad, where in (({}, "coverage"), ({**doc, "suppressedCount": "x"}, "suppressedCount"),
                       ({**doc, "findings": [{}]}, "ruleId"), ({**doc, "risk": {}}, "'U'"),
                       ({**doc, "coverage": {**doc["coverage"], "examined": 5}}, "examined"),
                       ([], "object")):
        with pytest.raises(InvalidConfig, match=where):
            audit_report_from_dict(bad)


def test_audit_normalizes_each_formula_class_once(monkeypatch):
    # Wrap normalize in every gridaudit module that holds the name, so a
    # second route to it would be counted too.
    spec = SeedSpec("grid", 90, 6, error_rate=0.3, rng_seed=4)
    wb = seed_defects(generate_clean(spec), spec).workbook
    original = formula.normalize
    calls: list = []

    def counted(ast):
        calls.append(ast.host)
        return original(ast)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridaudit") and getattr(module, "normalize", None) is original:
            monkeypatch.setattr(module, "normalize", counted)
    build_audit_report(wb, fixed_timestamp=True)
    classes = {ast.cls.host for ast in formula.parse_workbook_formulas(wb).values()}
    assert sorted(calls) == sorted(classes)  # each class once, at its first copy
    assert len(classes) < sum(1 for _ in wb.formula_cells())


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
    nested to the limit (the evaluator walks into each taken IF branch)."""
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
    wb = dataclasses.replace(
        wb, meta=dataclasses.replace(wb.meta, protection_enabled=protection))
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
                                 '{"JAMMED": NaN}'])
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
