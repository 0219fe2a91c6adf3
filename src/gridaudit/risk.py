"""Quantitative error-risk model.

Every probability here treats formulas as independent Bernoulli trials at
an effective per-formula error rate; that assumption is stated in every
report because real defects cluster. Closed forms are cross-checked against
the simulation lab's Monte Carlo estimates in the acceptance suite; the two
routes must never be merged.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import InvalidConfig, InvalidTeamSize
from .formula import FormulaAst, parse_workbook_formulas, unique_formula_count
from .model import CellAddress, Checked, Workbook

if TYPE_CHECKING:
    from .graph import ChainStats

# Observed share of audited workbooks carrying a grave ("show stopper")
# defect. A corpus property, quoted in reports for context; it cannot be
# derived from the rate parameters and is never computed.
SHOW_STOPPER_RATE = 0.05

INDEPENDENCE_NOTE = (
    "probabilities assume independent errors per unique formula; "
    "clustered defects will be underestimated"
)


class _RiskParamsFields(NamedTuple):
    p: float = 0.02
    p_audit: float = 0.052
    s: float = 0.15
    m: float = 0.05
    generic_round_yield: float = 0.60
    team_yields: tuple[tuple[int, float], ...] = ((1, 0.63), (3, 0.83))
    residual_band: tuple[float, float] = (0.001, 0.003)
    tokens_per_multiplier: float = 6.0
    multiplier_cap: float = 4.0


class RiskParams(Checked, _RiskParamsFields):
    """Model constants; defaults follow the published field-audit rates.

    p is the per-unique-formula error rate for unaudited work, p_audit the
    rate found when auditors recount. s is the fraction of errors serious
    enough to matter at materiality m. team_yields pins the per-round
    detection rate for known team sizes; generic_round_yield covers the
    unknown-team case.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RiskParams:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("p", "p_audit", "s", "m", "generic_round_yield"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0, 1], got {v}")
        if not self.team_yields:
            raise InvalidConfig("team_yields must not be empty")
        last_k, last_d = 0, -1.0
        for k, d in self.team_yields:
            if k <= last_k:
                raise InvalidConfig("team_yields keys must be increasing positive sizes")
            if not 0.0 <= d <= 1.0 or d < last_d:
                raise InvalidConfig("team_yields must be non-decreasing probabilities")
            last_k, last_d = k, d
        lo, hi = self.residual_band
        if not 0.0 < lo <= hi:
            raise InvalidConfig(f"residual_band must satisfy 0 < lo <= hi, got {self.residual_band}")
        if self.tokens_per_multiplier <= 0:
            raise InvalidConfig("tokens_per_multiplier must be positive")
        if self.multiplier_cap < 1.0:
            raise InvalidConfig("multiplier_cap must be at least 1")
        return self


def complexity_multiplier(mean_token_count: float, params: RiskParams | None = None) -> float:
    """Scale the base rate by formula size, between 1 and the cap."""
    params = params or RiskParams()
    raw = mean_token_count / params.tokens_per_multiplier
    return min(params.multiplier_cap, max(1.0, raw))


def detection_yield(params: RiskParams, team_size: int | None = None,
                    round_yield: float | None = None) -> float:
    """Per-round detection probability.

    An explicit round_yield wins; a team size interpolates the pinned
    table, clamped at its ends; neither given falls back to the generic
    single-round figure.
    """
    if round_yield is not None:
        if not 0.0 <= round_yield <= 1.0:
            raise InvalidConfig(f"round yield must be in [0, 1], got {round_yield}")
        return round_yield
    if team_size is None:
        return params.generic_round_yield
    if team_size < 1:
        raise InvalidTeamSize(f"team size must be at least 1, got {team_size}")
    table = params.team_yields
    if team_size <= table[0][0]:
        return table[0][1]
    if team_size >= table[-1][0]:
        return table[-1][1]
    for (k0, d0), (k1, d1) in zip(table, table[1:]):
        if k0 <= team_size <= k1:
            return d0 + (d1 - d0) * (team_size - k0) / (k1 - k0)
    raise AssertionError("unreachable: table covers the span")


def effective_rate(params: RiskParams, multiplier: float) -> float:
    # the multiplier can push p past 1 for extreme inputs; a rate is capped
    return min(1.0, params.p * multiplier)


def expected_errors(p_eff: float, unique_formulas: int) -> float:
    return p_eff * unique_formulas


def p_any_error(p_eff: float, unique_formulas: int) -> float:
    return 1.0 - (1.0 - p_eff) ** unique_formulas


def p_chain_correct(p_eff: float, chain_length: int) -> float:
    return (1.0 - p_eff) ** chain_length


def p_material(p_eff: float, s: float, chain_length: int) -> float:
    """Probability of at least one serious error on the output's chain."""
    return 1.0 - (1.0 - p_eff * s) ** chain_length


def residual_after_inspection(e: float, team_size: int | None, rounds: int,
                              params: RiskParams | None = None,
                              round_yield: float | None = None) -> list[float]:
    """Expected errors remaining after each of `rounds` inspection rounds."""
    if rounds < 0:
        raise InvalidConfig(f"rounds must be >= 0, got {rounds}")
    params = params or RiskParams()
    d = detection_yield(params, team_size, round_yield)
    return [e * (1.0 - d) ** r for r in range(1, rounds + 1)]


def risk_score(unique_formulas: int, multiplier: float, max_chain: int,
               cross_sheet_count: int, any_fraud_indicator: bool) -> float:
    """Composite ordering score; the size term dominates by design."""
    return (10.0 * math.log10(1 + unique_formulas)
            + 3.0 * min(4.0, multiplier)
            + 2.0 * math.log10(1 + max_chain)
            + 1.0 * math.log10(1 + cross_sheet_count)
            + (5.0 if any_fraud_indicator else 0.0))


class OutputRisk(NamedTuple):
    chain_length: int
    p_chain_correct: float
    p_material: float


class RiskReport(NamedTuple):
    unique_formulas: int
    expected_errors: float
    p_any_error: float
    multiplier: float
    per_output: dict[str, OutputRisk]
    residual_after_rounds: tuple[float, ...]
    risk_score: float
    params: RiskParams
    notes: tuple[str, ...]
    cross_sheet_refs: int  # the book's total, shown by audit's chainSummary; not in to_dict

    def to_dict(self) -> dict[str, object]:
        return {
            "U": self.unique_formulas,
            "E": self.expected_errors,
            "pAnyError": self.p_any_error,
            "multiplier": self.multiplier,
            "perOutput": {
                key: {"L": o.chain_length,
                      "pChainCorrect": o.p_chain_correct,
                      "pMaterial": o.p_material}
                for key, o in self.per_output.items()
            },
            "residualAfterRounds": list(self.residual_after_rounds),
            "riskScore": self.risk_score,
            "params": _params_to_dict(self.params),
            "notes": list(self.notes),
        }


def _params_to_dict(params: RiskParams) -> dict[str, object]:
    return {
        "p": params.p,
        "pAudit": params.p_audit,
        "s": params.s,
        "m": params.m,
        "genericRoundYield": params.generic_round_yield,
        "teamYields": [[k, d] for k, d in params.team_yields],
        "residualBand": list(params.residual_band),
        "tokensPerMultiplier": params.tokens_per_multiplier,
        "multiplierCap": params.multiplier_cap,
    }


def assess(wb: Workbook, stats: ChainStats, params: RiskParams | None = None, *,
           fraud_indicator_count: int = 0, team_size: int | None = None,
           rounds: int = 3,
           asts: dict[CellAddress, FormulaAst] | None = None) -> RiskReport:
    """Full risk readout for one workbook.

    stats is chain_stats() of the workbook's dependency graph. Fraud
    findings come from the rules pass and enter only the score term; pass
    fraud_indicator_count=0 for a structure-only assessment.
    """
    params = params or RiskParams()
    if asts is None:
        asts = parse_workbook_formulas(wb)
    u = unique_formula_count(wb, asts)
    mean_tokens = (sum(ast.facts.token_count for ast in asts.values()) / len(asts)
                   if asts else 0.0)
    multiplier = complexity_multiplier(mean_tokens, params)
    p_eff = effective_rate(params, multiplier)
    e = expected_errors(p_eff, u)

    per_output: dict[str, OutputRisk] = {}
    for key, chain_len in stats.closure_sizes.items():
        per_output[key] = OutputRisk(
            chain_length=chain_len,
            p_chain_correct=p_chain_correct(p_eff, chain_len),
            p_material=p_material(p_eff, params.s, chain_len),
        )
    if per_output:
        max_chain = max(o.chain_length for o in per_output.values())
    else:
        max_chain = stats.longest_chain_length

    cross_sheet_count = sum(ast.facts.cross_sheet_count for ast in asts.values())
    notes = [INDEPENDENCE_NOTE]
    if not per_output:
        notes.append("no declared outputs; per-output chain risk omitted")

    return RiskReport(
        unique_formulas=u,
        expected_errors=e,
        p_any_error=p_any_error(p_eff, u),
        multiplier=multiplier,
        per_output=per_output,
        residual_after_rounds=tuple(
            residual_after_inspection(e, team_size, rounds, params)),
        risk_score=risk_score(u, multiplier, max_chain, cross_sheet_count,
                              fraud_indicator_count > 0),
        params=params,
        notes=tuple(notes),
        cross_sheet_refs=cross_sheet_count,
    )
