"""Synthetic corpus generator, defect seeder, and Monte Carlo engine.

The generator builds workbooks that the rule suite finds spotless, so any
finding on a seeded copy is attributable to a seeded defect. The Monte
Carlo estimators are the independent oracle for the risk module's closed
forms: they simulate explicit Bernoulli error matrices and never reuse the
formulas being checked.

Literal value spaces are kept disjoint by construction so a seeded defect
never accidentally arms DUP_LITERAL: inputs end in .5, jammed literals in
.25, hardwired constants in .75, chain increments are small integers.
"""

from __future__ import annotations

import json
import math
import random
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import EmptyTruth, InvalidAddress, InvalidConfig, config_value
from .formula import canonical_number, parse_workbook_formulas
from .model import (
    CellAddress,
    CellContent,
    Checked,
    Sheet,
    Workbook,
    WorkbookMeta,
    col_to_letters,
    parse_qualified,
)
from .rules import RULE_IDS

if TYPE_CHECKING:  # numpy and risk load only in the Monte Carlo functions that use them
    import numpy as np

    from .risk import RiskParams

TOPOLOGIES = ("chain", "tree", "grid")

DEFAULT_MIX = (
    ("NUM_AS_TEXT", 0.2),
    ("HARDWIRED", 0.2),
    ("JAMMED", 0.2),
    ("DUP_LITERAL", 0.2),
    ("LONG_FORMULA", 0.2),
)

MAIN_SHEET = "Model"
AUX_SHEET = "Aux"
_MODIFIED = "2026-01-15T09:30:00"
_GRID_WIDTH_CAP = 12


class _SeedSpecFields(NamedTuple):
    topology: str
    formula_count: int
    input_count: int
    error_rate: float = 0.05
    defect_mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    rng_seed: int = 0


class SeedSpec(Checked, _SeedSpecFields):
    """Recipe for one synthetic workbook and its defect process."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> SeedSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.topology not in TOPOLOGIES:
            raise InvalidConfig(f"unknown topology {self.topology!r}")
        if self.formula_count < 0 or self.input_count < 0:
            raise InvalidConfig("counts must be >= 0")
        if not 0.0 <= self.error_rate <= 1.0:
            raise InvalidConfig(f"error_rate must be in [0, 1], got {self.error_rate}")
        if not self.defect_mix:
            raise InvalidConfig("defect_mix must not be empty")
        total = 0.0
        for cls, weight in self.defect_mix:
            if cls not in RULE_IDS:
                raise InvalidConfig(f"unknown defect class {cls!r}")
            if not weight >= 0:  # NaN fails this too
                raise InvalidConfig("defect weights must be >= 0")
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise InvalidConfig(f"defect weights must sum to 1, got {total}")
        if not 0 <= self.rng_seed < 2**64:
            raise InvalidConfig("rng_seed must fit in 64 bits")
        return self

    def to_dict(self) -> dict[str, object]:
        return {
            "topology": self.topology,
            "formulaCount": self.formula_count,
            "inputCount": self.input_count,
            "errorRate": self.error_rate,
            "defectMix": {cls: w for cls, w in self.defect_mix},
            "rngSeed": self.rng_seed,
        }


class TruthEntry(NamedTuple):
    """One seeded defect; cell "*" marks a workbook-level mutation."""

    cell: str
    defect_class: str
    original: str


class SeededWorkbook(NamedTuple):
    workbook: Workbook
    truth: tuple[TruthEntry, ...]


def truth_to_json(seeded: SeededWorkbook) -> str:
    doc = {
        "workbook": seeded.workbook.name,
        "entries": [
            {"cell": t.cell, "class": t.defect_class, "original": t.original}
            for t in seeded.truth
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _truth_cell(v: object) -> str:
    """A seeded cell as written: "*" or a qualified address."""
    if not isinstance(v, str):
        raise TypeError(v)
    if v != "*":
        try:
            parse_qualified(v)
        except InvalidAddress:
            raise ValueError(v) from None
    return v


def _defect_class(v: object) -> str:
    if v not in RULE_IDS:
        raise ValueError(v)
    return v  # type: ignore[return-value]


def _truth_entry(raw: object) -> TruthEntry:
    where = "truth entry"
    return TruthEntry(cell=config_value(raw, "cell", _truth_cell, where),
                      defect_class=config_value(raw, "class", _defect_class, where),
                      original=config_value(raw, "original", str, where))


def truth_from_dict(d: dict[str, object]) -> tuple[TruthEntry, ...]:
    """The entries of a truth document as truth_to_json writes it."""
    return config_value(d, "entries", lambda v: tuple(map(_truth_entry, v)), "truth")


# --- Clean generation -------------------------------------------------------


def _locked(value: object = None, formula: str | None = None) -> CellContent:
    return CellContent(value=value, formula=formula, locked=True)


def _key(row: int, col: int) -> str:
    return f"{col_to_letters(col)}{row}"


def generate_clean(spec: SeedSpec) -> Workbook:
    """A workbook the rule suite scores clean; deterministic per seed."""
    salt = spec.rng_seed % 89  # vary values across seeds, keep them distinct
    cells: dict[str, CellContent] = {}
    outputs: list[str] = []

    def input_value(i: int) -> float:
        return 1000.5 + 13.0 * i + salt

    ic, fc = spec.input_count, spec.formula_count
    if spec.topology == "chain":
        for i in range(ic):
            cells[_key(i + 1, 1)] = _locked(value=input_value(i))
        start = ic + 1 if ic >= 1 else 2
        for j in range(fc):
            r = start + j
            cells[_key(r, 1)] = _locked(formula=f"=A{r - 1}+{j + 2}")
        if fc:
            outputs.append(f"{MAIN_SHEET}!{_key(start + fc - 1, 1)}")
        elif ic:
            outputs.append(f"{MAIN_SHEET}!{_key(ic, 1)}")
    elif spec.topology == "tree":
        # left-deep accumulation; a balanced reduction would need reference
        # arcs wider than the LONG_ARC limit once levels repack
        for i in range(ic):
            cells[_key(i + 1, 1)] = _locked(value=input_value(i))
        for j in range(fc):
            r = j + 1
            src = "=A1*1" if j == 0 else f"=B{r - 1}+A{r}"
            cells[_key(r, 2)] = _locked(formula=src)
        if fc:
            outputs.append(f"{MAIN_SHEET}!{_key(fc, 2)}")
        elif ic:
            outputs.append(f"{MAIN_SHEET}!{_key(ic, 1)}")
    else:  # grid
        width = _GRID_WIDTH_CAP if ic == 0 else min(_GRID_WIDTH_CAP, max(3, ic))
        for i in range(ic):
            cells[_key(1, i + 1)] = _locked(value=input_value(i))
        positions = [(2 + k // width, 1 + k % width) for k in range(fc)]
        taken = set(positions)
        for r, c in positions:
            col = col_to_letters(c)
            cells[_key(r, c)] = _locked(formula=f"={col}{r - 1}*1")
        for r, c in positions:
            if (r + 1, c) not in taken:  # bottom frontier cells are the outputs
                outputs.append(f"{MAIN_SHEET}!{_key(r, c)}")
        if not fc and ic:
            outputs.append(f"{MAIN_SHEET}!{_key(1, ic)}")

    name = f"sim_{spec.topology}_{spec.rng_seed}_v1_2026-01-15"
    sheets = (
        Sheet(MAIN_SHEET, cells),
        Sheet(AUX_SHEET, {"A1": _locked(value=500000.5)}),
    )
    meta = WorkbookMeta(modified=_MODIFIED, outputs=tuple(outputs),
                        protection_enabled=True)
    return Workbook(name=name, sheets=sheets, meta=meta)


# --- Defect seeding ---------------------------------------------------------


class _Seeder:
    """Applies one defect class at a host cell, or declines.

    Declines fall back to JAMMED, which any formula can carry; the truth
    list records what actually happened.
    """

    def __init__(self, wb: Workbook) -> None:
        self.wb = wb
        self.mutations: dict[CellAddress, CellContent] = {}
        self.truth: list[TruthEntry] = []
        self.new_name: str | None = None
        self.reserved: set[CellAddress] = set()  # DUP donors must stay numeric
        self.form_guard: set[CellAddress] = set()  # hardwire runs must survive
        self.quarter = 0  # fresh .25/.75 literal counter
        asts = parse_workbook_formulas(wb)
        self.forms: dict[CellAddress, tuple | str | None] = {  # FormulaAst.key
            addr: ast.key for addr, ast in asts.items()}
        self.sentinel = 0
        self.text_targets: list[CellAddress] = []
        # DUP_LITERAL donors per sheet in reading order: plain numbers of
        # magnitude >= 2. A sheet's cursor passes donors that were mutated;
        # mutations only grow, so the first live donor never changes.
        self.donors: dict[str, list[tuple[CellAddress, float]]] = {}
        self.donor_cursor: dict[str, int] = {}
        for addr, cell in wb.iter_cells():
            if not cell.is_number:
                continue
            if self._adjacency_safe(addr):
                self.text_targets.append(addr)
            if abs(cell.value) >= 2.0:  # type: ignore[arg-type]
                self.donors.setdefault(addr.sheet, []).append((addr, cell.value))  # type: ignore[arg-type]
        self.text_cursor = 0

    def _adjacency_safe(self, addr: CellAddress) -> bool:
        # interior of a constant run, on an even coordinate so two targets
        # are never neighbors (a converted neighbor would kill the pattern)
        def numeric(r: int, c: int) -> bool:
            if r < 1 or c < 1:
                return False
            cell = self.wb.cell(CellAddress(addr.sheet, r, c))
            return cell is not None and cell.is_number

        r, c = addr.row, addr.col
        vertical = numeric(r - 1, c) and numeric(r + 1, c) and r % 2 == 0
        horizontal = numeric(r, c - 1) and numeric(r, c + 1) and c % 2 == 0
        return vertical or horizontal

    def _form(self, sheet: str, row: int, col: int) -> tuple | str | None:
        if row < 1 or col < 1:
            return None
        return self.forms.get(CellAddress(sheet, row, col))

    def _mark_mutated(self, addr: CellAddress, content: CellContent,
                      defect_class: str, original: str) -> None:
        self.mutations[addr] = content
        if content.is_formula:
            self.sentinel += 1
            self.forms[addr] = f"!seeded{self.sentinel}"
        else:
            self.forms[addr] = None
        self.truth.append(TruthEntry(addr.qualified, defect_class, original))

    @staticmethod
    def _original(cell: CellContent | None) -> str:
        if cell is None:
            return ""
        if cell.formula is not None:
            return cell.formula
        if isinstance(cell.value, float):
            return canonical_number(cell.value)
        return str(cell.value)

    def _next_quarter(self, offset: float) -> float:
        self.quarter += 1
        return 300000.0 + self.quarter + offset

    def apply(self, cls: str, addr: CellAddress, cell: CellContent) -> bool:
        return getattr(self, "_seed_" + cls.lower())(addr, cell)

    def _seed_jammed(self, addr: CellAddress, cell: CellContent) -> bool:
        a = canonical_number(self._next_quarter(0.25))
        b = canonical_number(self._next_quarter(0.25))
        src = f"{cell.formula}+{a}-{b}"
        self._mark_mutated(addr, _locked(formula=src), "JAMMED", cell.formula)
        return True

    def _seed_num_as_text(self, addr: CellAddress, cell: CellContent) -> bool:
        while self.text_cursor < len(self.text_targets):
            target = self.text_targets[self.text_cursor]
            self.text_cursor += 1
            if target in self.mutations or target in self.reserved:
                continue
            victim = self.wb.cell(target)
            text = canonical_number(victim.value)  # type: ignore[arg-type]
            self._mark_mutated(target, _locked(value=text), "NUM_AS_TEXT",
                               self._original(victim))
            return True
        return False

    def _seed_hardwired(self, addr: CellAddress, cell: CellContent) -> bool:
        form = self.forms.get(addr)
        s, r, c = addr.sheet, addr.row, addr.col

        def run_ok(deltas) -> bool:
            near = [self._form(s, r + dr, c + dc) == form for dr, dc in deltas]
            return near[0] and near[1] and (near[2] or near[3])

        v_deltas = [(-1, 0), (1, 0), (-2, 0), (2, 0)]
        h_deltas = [(0, -1), (0, 1), (0, -2), (0, 2)]
        vertical = run_ok(v_deltas)
        horizontal = run_ok(h_deltas)
        if form is None or not (vertical or horizontal):
            return False
        # freeze the run that justifies this hardwire; a later mutation on
        # one of these neighbors would leave the constant outside any run
        for dr, dc in (v_deltas if vertical else h_deltas):
            rr, cc = r + dr, c + dc
            if rr >= 1 and cc >= 1:
                self.form_guard.add(CellAddress(s, rr, cc))
        value = self._next_quarter(0.75)
        self._mark_mutated(addr, _locked(value=value), "HARDWIRED", cell.formula)
        return True

    def _seed_dup_literal(self, addr: CellAddress, cell: CellContent) -> bool:
        donors = self.donors.get(addr.sheet, [])
        i = self.donor_cursor.get(addr.sheet, 0)
        while i < len(donors) and donors[i][0] in self.mutations:
            i += 1
        self.donor_cursor[addr.sheet] = i
        if i == len(donors):
            return False
        other, donor = donors[i]
        self.reserved.add(other)
        src = f"{cell.formula}+{canonical_number(donor)}"
        self._mark_mutated(addr, _locked(formula=src), "DUP_LITERAL", cell.formula)
        return True

    def _seed_long_formula(self, addr: CellAddress, cell: CellContent) -> bool:
        if addr.row < 2:
            return False  # needs a cell above to pad with
        above = f"{col_to_letters(addr.col)}{addr.row - 1}"
        src = cell.formula + f"+{above}" * 4
        self._mark_mutated(addr, _locked(formula=src), "LONG_FORMULA", cell.formula)
        return True

    def _seed_long_arc(self, addr: CellAddress, cell: CellContent) -> bool:
        if addr.row < 27:
            return False
        far = f"{col_to_letters(addr.col)}{addr.row - 26}"
        src = f"{cell.formula}+{far}"
        self._mark_mutated(addr, _locked(formula=src), "LONG_ARC", cell.formula)
        return True

    def _seed_xsheet_ref(self, addr: CellAddress, cell: CellContent) -> bool:
        if addr.sheet == AUX_SHEET:
            return False
        src = f"{cell.formula}+{AUX_SHEET}!A1"
        self._mark_mutated(addr, _locked(formula=src), "XSHEET_REF", cell.formula)
        return True

    def _seed_orphan_output(self, addr: CellAddress, cell: CellContent) -> bool:
        for col in range(15, 21):
            stray = CellAddress(addr.sheet, addr.row, col)
            if self.wb.cell(stray) is None and stray not in self.mutations:
                src = f"={col_to_letters(addr.col)}{addr.row}*1"
                self._mark_mutated(stray, _locked(formula=src), "ORPHAN_OUTPUT", "")
                return True
        return False

    def _seed_unprotected_formula(self, addr: CellAddress, cell: CellContent) -> bool:
        if not cell.locked:
            return False
        unlocked = CellContent(formula=cell.formula, locked=False)
        self.mutations[addr] = unlocked
        # still a formula with the same shape; keep its form for run checks
        self.truth.append(TruthEntry(addr.qualified, "UNPROTECTED_FORMULA",
                                     cell.formula))
        return True

    def _seed_flow_violation(self, addr: CellAddress, cell: CellContent) -> bool:
        below = f"{col_to_letters(addr.col)}{addr.row + 1}"
        target = CellAddress(addr.sheet, addr.row + 1, addr.col)
        if self._form(addr.sheet, addr.row + 1, addr.col) is not None:
            return False  # referencing a live formula below would build a cycle
        if self.wb.cell(target) is not None and not self.wb.cell(target).is_number:
            return False
        src = f"{cell.formula}+{below}"
        self._mark_mutated(addr, _locked(formula=src), "FLOW_VIOLATION", cell.formula)
        return True

    def _seed_version_name(self, addr: CellAddress, cell: CellContent) -> bool:
        if self.new_name is not None:
            return False
        self.new_name = "sim_model_draft"
        self.truth.append(TruthEntry("*", "VERSION_NAME", self.wb.name))
        return True


def seed_defects(wb: Workbook, spec: SeedSpec) -> SeededWorkbook:
    """Defect each formula cell with probability error_rate.

    The drawn class mutates the drawn cell when it can; classes needing a
    different site (NUM_AS_TEXT, ORPHAN_OUTPUT, VERSION_NAME) place their
    mutation elsewhere and record the actual cell in truth. An inapplicable
    class falls back to JAMMED so the seeding rate stays faithful.
    """
    rng = random.Random(spec.rng_seed)
    seeder = _Seeder(wb)
    classes = [cls for cls, _ in spec.defect_mix]
    weights = [w for _, w in spec.defect_mix]
    for addr, cell in list(wb.formula_cells()):
        if rng.random() >= spec.error_rate:
            continue
        cls = rng.choices(classes, weights)[0]
        if addr in seeder.form_guard:
            continue  # an earlier hardwire needs this formula intact
        if not seeder.apply(cls, addr, cell):
            seeder.apply("JAMMED", addr, cell)
    if not seeder.mutations and seeder.new_name is None:
        return SeededWorkbook(workbook=wb, truth=tuple(seeder.truth))

    new_sheets = []
    for sheet in wb.sheets:
        cells = dict(sheet.cells)
        for target, content in seeder.mutations.items():
            if target.sheet == sheet.name:
                cells[_key(target.row, target.col)] = content
        new_sheets.append(Sheet(sheet.name, cells))
    seeded = Workbook(name=seeder.new_name or wb.name, sheets=tuple(new_sheets),
                      meta=wb.meta)
    return SeededWorkbook(workbook=seeded, truth=tuple(seeder.truth))


# --- Monte Carlo ------------------------------------------------------------


class MonteCarloResult(NamedTuple):
    p_any_error_hat: float
    p_chain_correct_hat: float
    se_any_error: float
    se_chain_correct: float
    trials: int


def monte_carlo(params: RiskParams, unique_formulas: int, chain_length: int,
                trials: int, rng_seed: int = 0,
                multiplier: float = 1.0) -> MonteCarloResult:
    """Explicit Bernoulli simulation of the two headline probabilities.

    Kept deliberately independent of the closed forms in the risk module;
    the acceptance suite compares the two routes within 3 standard errors.
    """
    if trials < 1000:
        raise InvalidConfig(f"need at least 1000 trials, got {trials}")
    if unique_formulas < 0 or chain_length < 0:
        raise InvalidConfig("counts must be >= 0")
    if not 1.0 <= multiplier < math.inf:
        raise InvalidConfig(f"multiplier must be finite and >= 1, got {multiplier}")
    import numpy as np

    p_eff = min(1.0, params.p * multiplier)
    rng = np.random.default_rng(rng_seed)
    widest = max(unique_formulas, chain_length, 1)
    chunk = max(1, 16_000_000 // widest)
    any_hits = 0
    chain_clean = 0
    left = trials
    while left:
        n = min(chunk, left)
        if unique_formulas:
            errs = rng.random((n, unique_formulas)) < p_eff
            any_hits += int(errs.any(axis=1).sum())
        if chain_length:
            chain = rng.random((n, chain_length)) < p_eff
            chain_clean += int((~chain).all(axis=1).sum())
        else:
            chain_clean += n
        left -= n
    p_any = any_hits / trials
    p_chain = chain_clean / trials
    return MonteCarloResult(
        p_any_error_hat=p_any,
        p_chain_correct_hat=p_chain,
        se_any_error=math.sqrt(p_any * (1.0 - p_any) / trials),
        se_chain_correct=math.sqrt(p_chain * (1.0 - p_chain) / trials),
        trials=trials,
    )


class DetectionResult(NamedTuple):
    initial_count: int
    counts: np.ndarray  # (trials, rounds) survivors after each round

    @property
    def mean_by_round(self) -> tuple[float, ...]:
        if self.counts.shape[1] == 0:
            return ()
        return tuple(float(x) for x in self.counts.mean(axis=0))


def detection_experiment(seeded: SeededWorkbook, team_size: int | None,
                         rounds: int, params: RiskParams | None = None,
                         rng_seed: int = 0, trials: int = 1,
                         round_yield: float | None = None) -> DetectionResult:
    """Binomial thinning of the seeded defects, round by round."""
    if not seeded.truth:
        raise EmptyTruth("seeded workbook has no defects to detect")
    if rounds < 0:
        raise InvalidConfig(f"rounds must be >= 0, got {rounds}")
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    import numpy as np

    from .risk import RiskParams, detection_yield

    d = detection_yield(params or RiskParams(), team_size, round_yield)
    rng = np.random.default_rng(rng_seed)
    survivors = np.full(trials, len(seeded.truth), dtype=np.int64)
    columns = []
    for _ in range(rounds):
        survivors = rng.binomial(survivors, 1.0 - d)
        columns.append(survivors.copy())
    counts = (np.stack(columns, axis=1) if columns
              else np.zeros((trials, 0), dtype=np.int64))
    return DetectionResult(initial_count=len(seeded.truth), counts=counts)
