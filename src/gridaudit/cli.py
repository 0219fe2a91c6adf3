"""Command-line surface tying the audit pipeline together.

One binary with subcommands, built for scripted pipelines. Exit codes are
the contract: 0 clean, 1 the check found something (findings at or above
--fail-on, differences, conflicts, mismatches, hasty sessions, incomplete
rule coverage), 2 bad input or usage, 3 an internal error (a fault in the
tool, reported in one line on stderr). Machine output is JSON and
round-trips losslessly; human output is stable-ordered, line-oriented
text. The tool never touches the network.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .diffcheck import DiffEntry, diff, three_way_check
from .engine import parse_snapshot, recheck, snapshot, snapshot_to_json, value_to_json
from .errors import GridAuditError, InvalidConfig, ModuleMismatch, config_value
from .formula import parse_workbook_formulas
from .graph import build_graph, chain_stats, dump_edges
from .inspection import (
    InspectionPlan,
    PlanConfig,
    plan,
    plan_config_from_dict,
    reconcile,
    session_from_dict,
    yield_report,
)
from .model import Workbook, parse_workbook, serialize_workbook
from .risk import (
    RiskParams,
    RiskReport,
    assess,
    effective_rate,
    p_any_error,
    p_chain_correct,
    report_from_dict,
)
from .rules import (
    Finding,
    RuleConfig,
    finding_from_dict,
    rule_config_from_dict,
    run_rules,
)
from .simlab import (SeedSpec, generate_clean, monte_carlo, seed_defects, truth_from_dict,
                     truth_to_json)

FIXED_TIMESTAMP = "1970-01-01T00:00:00"

_SEVERITY_RANK = {"info": 0, "warning": 1, "error": 2}


# --- Audit report -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Everything one audit run produced, in one serializable document."""

    tool_version: str
    workbook_name: str
    generated_at: str
    findings: tuple[Finding, ...]
    risk: RiskReport
    chain_summary: dict[str, int]
    coverage: dict[str, object]
    suppressed_count: int

    def to_dict(self) -> dict[str, object]:
        return {
            "toolVersion": self.tool_version,
            "workbookName": self.workbook_name,
            "generatedAt": self.generated_at,
            "findings": [f.to_dict() for f in self.findings],
            "risk": self.risk.to_dict(),
            "chainSummary": {k: self.chain_summary[k] for k in sorted(self.chain_summary)},
            "coverage": {
                "examined": {k: v for k, v in sorted(self.coverage["examined"].items())},  # type: ignore[union-attr]
                "applicable": self.coverage["applicable"],
                "enabled": list(self.coverage["enabled"]),  # type: ignore[arg-type]
                "ok": self.coverage["ok"],
            },
            "suppressedCount": self.suppressed_count,
        }


def audit_report_from_dict(d: dict[str, object]) -> AuditReport:
    where = "audit report"
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be an object, got {d!r}")
    known = {"toolVersion", "workbookName", "generatedAt", "findings", "risk",
             "chainSummary", "coverage", "suppressedCount"}
    extra = set(d) - known
    if extra:
        raise InvalidConfig(f"unknown audit report keys: {sorted(extra)}")
    cov = config_value(d, "coverage", dict, where)
    return AuditReport(
        tool_version=config_value(d, "toolVersion", str, where),
        workbook_name=config_value(d, "workbookName", str, where),
        generated_at=config_value(d, "generatedAt", str, where),
        findings=config_value(d, "findings", lambda v: tuple(map(finding_from_dict, v)), where),
        risk=report_from_dict(config_value(d, "risk", dict, where)),
        chain_summary=config_value(d, "chainSummary", _int_values, where),
        coverage={
            "examined": config_value(cov, "examined", _int_values, "audit coverage"),
            "applicable": config_value(cov, "applicable", int, "audit coverage"),
            "enabled": config_value(cov, "enabled", tuple, "audit coverage"),
            "ok": config_value(cov, "ok", bool, "audit coverage"),
        },
        suppressed_count=config_value(d, "suppressedCount", int, where),
    )


def _int_values(d: object) -> dict[str, int]:
    return {k: int(v) for k, v in dict(d).items()}  # type: ignore[call-overload]


def build_audit_report(wb: Workbook, rule_cfg: RuleConfig | None = None,
                       params: RiskParams | None = None,
                       fixed_timestamp: bool = False) -> AuditReport:
    asts = parse_workbook_formulas(wb)
    g = build_graph(wb, asts=asts)
    rules_rep = run_rules(wb, g, rule_cfg, asts=asts)
    cs = chain_stats(g)
    risk_rep = assess(wb, cs, params,
                      fraud_indicator_count=rules_rep.fraud_indicator_count,
                      asts=asts)
    generated = FIXED_TIMESTAMP if fixed_timestamp else (
        datetime.datetime.now().isoformat(timespec="seconds"))
    return AuditReport(
        tool_version=__version__,
        workbook_name=wb.name,
        generated_at=generated,
        findings=rules_rep.findings,
        risk=risk_rep,
        chain_summary={
            "formulaCells": len(g.formula_cells),
            "edgeCount": g.edge_count,
            "longestChain": cs.longest_chain_length,
            "cycleCount": len(cs.cycles),
            "crossSheetRefs": rules_rep.cross_sheet_total,
        },
        coverage={
            "examined": dict(rules_rep.examined),
            "applicable": rules_rep.applicable,
            "enabled": tuple(rules_rep.enabled),
            "ok": rules_rep.coverage_ok,
        },
        suppressed_count=rules_rep.suppressed_count,
    )


# --- Shared plumbing ----------------------------------------------------------


def _load_workbook(path: Path) -> Workbook:
    return parse_workbook(path.read_bytes())


def _load_json(path: Path, what: str) -> dict[str, object]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{what} {path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise InvalidConfig(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{what} {path} must hold a JSON object")
    return doc


def _load_doc(path: Path, what: str, from_dict: Callable[[dict[str, object]], Any]) -> Any:
    """A side file read back through its from_dict; errors name the file."""
    doc = _load_json(path, what)
    try:
        return from_dict(doc)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{what} {path}: {exc}") from None


def _load_config(args: argparse.Namespace) -> dict[str, object]:
    path = getattr(args, "config", None) or os.environ.get("GRIDAUDIT_CONFIG")
    if not path:
        return {}
    doc = _load_json(Path(path), "config")
    extra = set(doc) - {"rules", "plan"}
    if extra:
        raise InvalidConfig(f"unknown config sections: {sorted(extra)}")
    for section in ("rules", "plan"):
        if not isinstance(doc.get(section, {}), dict):
            raise InvalidConfig(f"config section {section!r} must be an object")
    return doc


def _rule_config(args: argparse.Namespace) -> RuleConfig | None:
    doc = _load_config(args)
    if "rules" not in doc:
        return None
    return rule_config_from_dict(doc["rules"])  # type: ignore[arg-type]


def _plan_config(args: argparse.Namespace) -> PlanConfig:
    doc = _load_config(args)
    cfg = plan_config_from_dict(doc.get("plan", {}))  # type: ignore[arg-type]
    overrides = {
        "target_module_size": getattr(args, "target_module_size", None),
        "rate_cap": getattr(args, "rate_cap", None),
        "team_size": getattr(args, "team_size", None),
        "rounds": getattr(args, "rounds", None),
    }
    set_overrides = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(cfg, **set_overrides) if set_overrides else cfg


def _emit(args: argparse.Namespace, human: str, machine: dict[str, object]) -> None:
    """Write the JSON report to --out, or to stdout in machine format, and the
    human text to stdout in human format. The JSON is encoded only if written."""
    out: Path | None = getattr(args, "out", None)
    if out is not None or args.format == "machine":
        payload = json.dumps(machine, ensure_ascii=False, indent=2) + "\n"
        if out is not None:
            out.write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
    if args.format != "machine":
        sys.stdout.write(human)


def _qualified_or_star(f: Finding) -> str:
    return f.location.qualified if f.location is not None else "workbook"


# --- Rendering ----------------------------------------------------------------


def _render_audit(rep: AuditReport) -> str:
    sev = Counter(f.severity for f in rep.findings)
    lines = [
        f"workbook: {rep.workbook_name}",
        f"generated: {rep.generated_at} (gridaudit {rep.tool_version})",
        (f"findings: {len(rep.findings)} "
         f"(error {sev.get('error', 0)}, warning {sev.get('warning', 0)}, "
         f"info {sev.get('info', 0)}; suppressed {rep.suppressed_count})"),
    ]
    for f in rep.findings:
        lines.append(f"  {_qualified_or_star(f):<16} {f.severity:<8} "
                     f"{f.rule_id:<20} {f.message}")
    cov = rep.coverage
    state = "complete" if cov["ok"] else "INCOMPLETE"
    lines.append(f"coverage: {state} ({cov['applicable']} cells x "
                 f"{len(cov['enabled'])} rules)")  # type: ignore[arg-type]
    cs = rep.chain_summary
    lines.append(f"graph: {cs['formulaCells']} formula cells, "
                 f"{cs['edgeCount']} edges, longest chain {cs['longestChain']}, "
                 f"cycles {cs['cycleCount']}, cross-sheet refs {cs['crossSheetRefs']}")
    lines.extend(_risk_lines(rep.risk))
    return "\n".join(lines) + "\n"


def _risk_lines(rep: RiskReport) -> list[str]:
    lines = [
        (f"risk: U={rep.unique_formulas} multiplier={rep.multiplier:g} "
         f"E={rep.expected_errors:g} pAnyError={rep.p_any_error:.4f} "
         f"score={rep.risk_score:.1f}")
    ]
    for out, r in rep.per_output.items():
        lines.append(f"  output {out}: chain {r.chain_length}, "
                     f"pChainCorrect {r.p_chain_correct:.4f}, "
                     f"pMaterial {r.p_material:.4f}")
    for i, residual in enumerate(rep.residual_after_rounds, start=1):
        lines.append(f"  residual after round {i}: {residual:.4g}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    return lines


def _render_plan(p: InspectionPlan) -> str:
    lines = [
        (f"plan: {len(p.modules)} modules, team {p.team_size}, "
         f"{p.rounds_recommended} rounds, cap {p.session_cap_minutes:g} min, "
         f"rate {p.rate_cap:g} cells/h")
    ]
    for m in p.modules:
        span = f"{m.cells[0]}..{m.cells[-1]}" if m.cells else "(empty)"
        lines.append(f"  {m.id}: {m.formula_count} cells "
                     f"({m.effective_cells:g} effective), "
                     f"{m.estimated_minutes:g} min, {span}")
    return "\n".join(lines) + "\n"


def _render_diff(entries: tuple[DiffEntry, ...]) -> str:
    lines = [f"differences: {len(entries)}"]
    for e in entries:
        tag = "  [fraud-indicator]" if e.fraud_indicator else ""
        lines.append(f"  {e.location.qualified:<16} {e.kind}{tag}")
    return "\n".join(lines) + "\n"


# --- Commands -----------------------------------------------------------------


def _cmd_audit(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    rep = build_audit_report(wb, _rule_config(args),
                             fixed_timestamp=args.fixed_timestamp)
    _emit(args, _render_audit(rep), rep.to_dict())
    threshold = _SEVERITY_RANK[args.fail_on]
    failing = any(_SEVERITY_RANK[f.severity] >= threshold for f in rep.findings)
    return 1 if failing or not rep.coverage["ok"] else 0


def _cmd_risk(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    asts = parse_workbook_formulas(wb)
    g = build_graph(wb, asts=asts)
    rules_rep = run_rules(wb, g, _rule_config(args), asts=asts)
    overrides = {}
    if args.p is not None:
        overrides["p"] = args.p
    if args.serious_fraction is not None:
        overrides["s"] = args.serious_fraction
    params = dataclasses.replace(RiskParams(), **overrides)
    rep = assess(wb, chain_stats(g), params,
                 fraud_indicator_count=rules_rep.fraud_indicator_count,
                 team_size=args.team_size, rounds=args.rounds, asts=asts)
    _emit(args, "\n".join(_risk_lines(rep)) + "\n", rep.to_dict())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    p = plan(wb, _plan_config(args))
    _emit(args, _render_plan(p), p.to_dict())
    return 0


def _cmd_reconcile(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    cfg = _plan_config(args)
    p = plan(wb, cfg)
    module = next((m for m in p.modules if m.id == args.module), None)
    if module is None:
        raise ModuleMismatch(f"plan for {wb.name!r} has no module {args.module!r}")
    sessions = [_load_doc(path, "session", session_from_dict) for path in args.sessions]
    res = reconcile(sessions, module, rate_cap=cfg.rate_cap)

    lines = [
        (f"reconcile {module.id}: {len(res.union_items)} distinct items "
         f"from {len(sessions)} sessions"),
    ]
    for insp, n in res.per_inspector_counts:
        lines.append(f"  {insp}: {n} items")
    for a, b, shared in res.overlap_matrix:
        lines.append(f"  overlap {a}/{b}: {shared}")
    for insp in res.hasty_inspectors:
        lines.append(f"  hasty: {insp} reviewed faster than "
                     f"{cfg.rate_cap * 1.5:g} cells/h")
    machine = res.to_dict()

    if args.truth is not None:
        cells = [t.cell for t in _load_doc(args.truth, "truth", truth_from_dict)
                 if t.cell != "*"]  # workbook-level entries have no cell
        rep = yield_report(res.union_items, cells)
        lines.append(f"  yield: {rep.yield_fraction:.2f} "
                     f"({len(rep.detected)} of {len(set(cells))} seeded)")
        machine["yield"] = rep.to_dict()

    _emit(args, "\n".join(lines) + "\n", machine)
    return 1 if res.hasty_inspectors else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = _load_workbook(args.workbook_a)
    b = _load_workbook(args.workbook_b)
    entries = diff(a, b)
    machine = {
        "workbookA": a.name,
        "workbookB": b.name,
        "entries": [e.to_dict() for e in entries],
    }
    _emit(args, _render_diff(entries), machine)
    return 1 if entries else 0


def _cmd_threeway(args: argparse.Namespace) -> int:
    base = _load_workbook(args.base)
    res = three_way_check(base, _load_workbook(args.copy1),
                          _load_workbook(args.copy2))
    lines = [f"agreeing: {len(res.agreeing)}, conflicting: {len(res.conflicting)}"]
    for e in res.agreeing:
        lines.append(f"  agree    {e.location.qualified:<16} {e.kind}")
    for c in res.conflicting:
        first = c.first.kind if c.first else "untouched"
        second = c.second.kind if c.second else "untouched"
        lines.append(f"  conflict {c.location.qualified:<16} {first} vs {second}")
    _emit(args, "\n".join(lines) + "\n", res.to_dict())
    return 1 if res.conflicting else 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    snap = snapshot(wb, created_at=FIXED_TIMESTAMP if args.fixed_timestamp else None)
    if args.out is None:
        args.out = Path(str(args.workbook) + ".snapshot")
    human = (f"snapshot of {wb.name}: {len(snap.inputs)} inputs, "
             f"{len(snap.outputs)} outputs -> {args.out}\n")
    _emit(args, human, json.loads(snapshot_to_json(snap)))
    return 0


def _cmd_recheck(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    snap_path = args.snapshot or Path(str(args.workbook) + ".snapshot")
    snap = parse_snapshot(snap_path.read_bytes())
    rep = recheck(wb, snap)
    lines = [
        (f"recheck {wb.name} against {snap.created_at}: "
         f"{len(rep.matches)} matched, {len(rep.mismatches)} mismatched, "
         f"{len(rep.missing_outputs)} missing")
    ]
    for m in rep.mismatches:
        lines.append(f"  {m.address}: expected {m.expected!r}, actual {m.actual!r}")
    for addr in rep.missing_outputs:
        lines.append(f"  {addr}: output cell no longer exists")
    machine = {
        "workbook": wb.name,
        "snapshotCreatedAt": snap.created_at,
        "matches": list(rep.matches),
        "mismatches": [
            {"address": m.address, "expected": value_to_json(m.expected),
             "actual": None if m.actual is None else value_to_json(m.actual)}
            for m in rep.mismatches
        ],
        "missingOutputs": list(rep.missing_outputs),
        "ok": rep.ok,
    }
    _emit(args, "\n".join(lines) + "\n", machine)
    return 0 if rep.ok else 1


def _cmd_seed(args: argparse.Namespace) -> int:
    mix = None
    if args.mix is not None:
        try:
            raw = json.loads(args.mix)
        except ValueError as exc:
            raise InvalidConfig(f"--mix is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidConfig("--mix must be a JSON object of class -> weight")
        try:
            mix = tuple((str(k), float(v)) for k, v in raw.items())
        except (TypeError, ValueError, OverflowError):
            raise InvalidConfig(f"--mix weights must be numbers: {args.mix}") from None
    kwargs = {"defect_mix": mix} if mix is not None else {}
    spec = SeedSpec(args.topology, args.formulas, args.inputs,
                    error_rate=args.rate, rng_seed=args.rng_seed, **kwargs)
    seeded = seed_defects(generate_clean(spec), spec)
    args.workbook_out.write_text(serialize_workbook(seeded.workbook),
                                 encoding="utf-8")
    if args.truth_out is not None:
        args.truth_out.write_text(truth_to_json(seeded), encoding="utf-8")
    by_class = Counter(t.defect_class for t in seeded.truth)
    lines = [
        (f"seeded {len(seeded.truth)} defects into {seeded.workbook.name} "
         f"-> {args.workbook_out}")
    ]
    for cls in sorted(by_class):
        lines.append(f"  {cls}: {by_class[cls]}")
    machine = {
        "spec": spec.to_dict(),
        "workbookName": seeded.workbook.name,
        "workbookPath": str(args.workbook_out),
        "defectCount": len(seeded.truth),
        "byClass": {k: by_class[k] for k in sorted(by_class)},
        "entries": [
            {"cell": t.cell, "class": t.defect_class, "original": t.original}
            for t in seeded.truth
        ],
    }
    _emit(args, "\n".join(lines) + "\n", machine)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    params = RiskParams(p=args.p)
    res = monte_carlo(params, args.unique_formulas, args.chain_length,
                      trials=args.trials, rng_seed=args.rng_seed,
                      multiplier=args.multiplier)
    p_eff = effective_rate(params, args.multiplier)
    closed_any = p_any_error(p_eff, args.unique_formulas)
    closed_chain = p_chain_correct(p_eff, args.chain_length)
    human = (
        f"monte carlo: trials={res.trials} U={args.unique_formulas} "
        f"L={args.chain_length} pEff={p_eff:g}\n"
        f"  pAnyError     estimate {res.p_any_error_hat:.4f} "
        f"se {res.se_any_error:.4f} closed form {closed_any:.4f}\n"
        f"  pChainCorrect estimate {res.p_chain_correct_hat:.4f} "
        f"se {res.se_chain_correct:.4f} closed form {closed_chain:.4f}\n"
    )
    machine = {
        "trials": res.trials,
        "uniqueFormulas": args.unique_formulas,
        "chainLength": args.chain_length,
        "pEff": p_eff,
        "pAnyError": {"estimate": res.p_any_error_hat, "se": res.se_any_error,
                      "closedForm": closed_any},
        "pChainCorrect": {"estimate": res.p_chain_correct_hat,
                          "se": res.se_chain_correct,
                          "closedForm": closed_chain},
    }
    _emit(args, human, machine)
    return 0


def _cmd_graph_dump(args: argparse.Namespace) -> int:
    wb = _load_workbook(args.workbook)
    g = build_graph(wb)
    text = dump_edges(g)
    machine = {
        "workbook": wb.name,
        "edgeCount": g.edge_count,
        "edges": [line.split("\t") for line in text.splitlines()],
    }
    _emit(args, text, machine)
    return 0


# --- Parser -------------------------------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("human", "machine"), default="human",
                    help="human text or the structured JSON report")
    sp.add_argument("--out", type=Path, default=None,
                    help="also write the JSON report to this file")


def _add_config_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, default=None,
                    help="config file (also honored via GRIDAUDIT_CONFIG)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, and no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="gridaudit",
        description="Audit spreadsheet workbooks for errors, fraud patterns, "
                    "and missing controls.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run the rule suite and risk model")
    audit.add_argument("workbook", type=Path)
    audit.add_argument("--fail-on", choices=("info", "warning", "error"),
                       default="error", dest="fail_on",
                       help="lowest severity that fails the run")
    audit.add_argument("--fixed-timestamp", action="store_true",
                       help="stamp reports with a constant time")
    _add_config_flag(audit)
    _add_output_flags(audit)

    risk = sub.add_parser("risk", help="error-rate arithmetic for one workbook")
    risk.add_argument("workbook", type=Path)
    risk.add_argument("--p", type=float, default=None,
                      help="base cell error rate override")
    risk.add_argument("--serious-fraction", type=float, default=None,
                      dest="serious_fraction",
                      help="fraction of errors that are material")
    risk.add_argument("--team-size", type=int, default=None, dest="team_size")
    risk.add_argument("--rounds", type=int, default=3)
    _add_config_flag(risk)
    _add_output_flags(risk)

    plan_cmd = sub.add_parser("plan", help="partition formulas into inspection modules")
    plan_cmd.add_argument("workbook", type=Path)
    plan_cmd.add_argument("--target-module-size", type=int, default=None,
                          dest="target_module_size")
    plan_cmd.add_argument("--rate-cap", type=float, default=None, dest="rate_cap")
    plan_cmd.add_argument("--team-size", type=int, default=None, dest="team_size")
    plan_cmd.add_argument("--rounds", type=int, default=None)
    _add_config_flag(plan_cmd)
    _add_output_flags(plan_cmd)

    rec = sub.add_parser("reconcile", help="merge inspector sessions for a module")
    rec.add_argument("workbook", type=Path)
    rec.add_argument("module", help="module id from the plan, e.g. M2")
    rec.add_argument("sessions", type=Path, nargs="+",
                     help="session files to merge")
    rec.add_argument("--truth", type=Path, default=None,
                     help="seeded truth file; prints detection yield")
    rec.add_argument("--target-module-size", type=int, default=None,
                     dest="target_module_size")
    rec.add_argument("--rate-cap", type=float, default=None, dest="rate_cap")
    _add_config_flag(rec)
    _add_output_flags(rec)

    diff_cmd = sub.add_parser("diff", help="cell-level comparison of two workbooks")
    diff_cmd.add_argument("workbook_a", type=Path)
    diff_cmd.add_argument("workbook_b", type=Path)
    _add_output_flags(diff_cmd)

    three = sub.add_parser("threeway",
                           help="compare two independent edits against a base")
    three.add_argument("base", type=Path)
    three.add_argument("copy1", type=Path)
    three.add_argument("copy2", type=Path)
    _add_output_flags(three)

    snap = sub.add_parser("snapshot", help="freeze inputs and output values")
    snap.add_argument("workbook", type=Path)
    snap.add_argument("--fixed-timestamp", action="store_true")
    _add_output_flags(snap)

    rech = sub.add_parser("recheck", help="re-evaluate against a snapshot")
    rech.add_argument("workbook", type=Path)
    rech.add_argument("--snapshot", type=Path, default=None,
                      help="snapshot file (default: <workbook>.snapshot)")
    _add_output_flags(rech)

    seed = sub.add_parser("seed", help="generate a workbook with seeded defects")
    seed.add_argument("--topology", choices=("chain", "tree", "grid"),
                      required=True)
    seed.add_argument("--formulas", type=int, required=True)
    seed.add_argument("--inputs", type=int, required=True)
    seed.add_argument("--rate", type=float, default=0.05)
    seed.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    seed.add_argument("--mix", default=None,
                      help='JSON object of defect class -> weight')
    seed.add_argument("--workbook-out", type=Path, required=True,
                      dest="workbook_out")
    seed.add_argument("--truth-out", type=Path, default=None, dest="truth_out")
    _add_output_flags(seed)

    mc = sub.add_parser("mc", help="Monte Carlo check of the risk closed forms")
    mc.add_argument("--p", type=float, default=0.02)
    mc.add_argument("--multiplier", type=float, default=1.0)
    mc.add_argument("--U", type=int, required=True, dest="unique_formulas")
    mc.add_argument("--L", type=int, default=0, dest="chain_length")
    mc.add_argument("--trials", type=int, default=100_000)
    mc.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    _add_output_flags(mc)

    dump = sub.add_parser("graph-dump", help="print the dependency edge list")
    dump.add_argument("workbook", type=Path)
    _add_output_flags(dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Each command runs _cmd_<command>, looked up at the call, not when the
    # parser was built.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except GridAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in gridaudit itself, not findings
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
