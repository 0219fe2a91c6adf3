"""Parser, renderer, normalization, and metrics tests."""

from __future__ import annotations

import ast as pyast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridaudit.formula as formula_mod
from gridaudit.errors import FormulaSyntaxError, UnknownFunction, UnknownName
from gridaudit.formula import (
    MAX_NESTING,
    BinaryOp,
    BooleanLiteral,
    CellRef,
    FormulaAst,
    FunctionCall,
    NumberLiteral,
    RangeRef,
    TextLiteral,
    UnaryOp,
    aggregate_boxes,
    canonical_number,
    normalize,
    parse_formula,
    parse_workbook_formulas,
    postorder,
    references,
    render,
    unique_formula_count,
)
from gridaudit.model import CellAddress, col_to_letters
from gridaudit.simlab import SeedSpec, generate_clean
from helpers import (aggregate_ranges, literal_copies_book, random_expr, translate_expr,
                     wb_from)

B1 = CellAddress("S1", 1, 2)
C2 = CellAddress("S1", 2, 3)


def norm_text(src: str, host: CellAddress) -> str:
    return normalize(parse_formula(src, host)).text


# --- parse shapes ------------------------------------------------------------

def test_precedence_and_associativity():
    ast = parse_formula("=1+2*3", B1).root
    assert ast == BinaryOp("+", NumberLiteral(1.0),
                           BinaryOp("*", NumberLiteral(2.0), NumberLiteral(3.0)))
    # ^ chains associate left: (2^3)^2
    ast = parse_formula("=2^3^2", B1).root
    assert ast == BinaryOp("^", BinaryOp("^", NumberLiteral(2.0), NumberLiteral(3.0)),
                           NumberLiteral(2.0))


def test_tree_nodes_cannot_change_and_equal_only_their_own_class():
    ref = CellRef(None, 1, 1)
    node = BinaryOp("+", ref, NumberLiteral(2.0, 0))
    for record, field in ((ref, "row"), (node, "left"), (node.right, "value")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # a number's slot says where a copy reads its value, so it is no part of it
    assert NumberLiteral(2.0, 0) == NumberLiteral(2.0, 5)
    assert hash(NumberLiteral(2.0, 0)) == hash(NumberLiteral(2.0, 5))
    assert NumberLiteral(2.0, 0) != NumberLiteral(3.0, 0)
    assert node == BinaryOp("+", CellRef(None, 1, 1), NumberLiteral(2.0, 7))
    # nodes of other classes holding the same fields
    same_fields = [NumberLiteral(1.0), TextLiteral(1.0), BooleanLiteral(1.0),
                   UnaryOp("-", ref), FunctionCall("-", ref), CellRef(None, 1, 1),
                   RangeRef(None, 1, 1, 1, 1), BinaryOp("+", ref, ref)]
    for a in same_fields:
        for b in same_fields:
            assert (a == b) == (a is b) and (a != b) == (a is not b)
    # nor a plain tuple of its fields
    assert CellRef(None, 1, 1) != (None, 1, 1, False, False)
    assert (None, 1, 1, False, False) != CellRef(None, 1, 1)


def test_unary_minus_binds_tighter_than_power():
    ast = parse_formula("=-2^2", B1).root
    assert ast == BinaryOp("^", UnaryOp("-", NumberLiteral(2.0)), NumberLiteral(2.0))


def test_comparison_concat_levels():
    ast = parse_formula('=A1&"x"=B1', B1).root
    assert isinstance(ast, BinaryOp) and ast.op == "="
    assert isinstance(ast.left, BinaryOp) and ast.left.op == "&"


def test_booleans_and_strings():
    assert parse_formula("=TRUE", B1).root == BooleanLiteral(True)
    assert parse_formula("=false", B1).root == BooleanLiteral(False)
    assert parse_formula('="say ""hi"""', B1).root == TextLiteral('say "hi"')


def test_refs_and_markers():
    assert parse_formula("=$A$1", B1).root == CellRef(None, 1, 1, abs_row=True, abs_col=True)
    assert parse_formula("=A$1", B1).root == CellRef(None, 1, 1, abs_row=True, abs_col=False)
    assert parse_formula("=Data!B2", B1).root == CellRef("Data", 2, 2)
    assert parse_formula("='My Data'!B2", B1).root == CellRef("My Data", 2, 2)


def test_same_sheet_qualifier_canonicalizes_away():
    assert parse_formula("=S1!A1", B1).root == CellRef(None, 1, 1)
    assert norm_text("=S1!A1*2", B1) == norm_text("=A1*2", B1)


def test_range_corner_normalization():
    assert parse_formula("=SUM(B2:A1)", B1).root == FunctionCall(
        "SUM", (RangeRef(None, 1, 1, 2, 2),)
    )
    # markers travel with their coordinates through the swap
    node = parse_formula("=SUM($B$2:A1)", B1).root.args[0]
    assert node == RangeRef(None, 1, 1, 2, 2, abs_r2=True, abs_c2=True)


def test_range_sheet_rules():
    assert parse_formula("=SUM(Data!A1:A9)", B1).root == FunctionCall(
        "SUM", (RangeRef("Data", 1, 1, 9, 1),)
    )
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=SUM(Data!A1:Other!A9)", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=SUM(A1:Other!A9)", B1)


def test_function_arity_checked_at_parse():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=NOT(1,2)", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=ROUND(1)", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=IF(1)", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=SUM()", B1)
    assert parse_formula("=IF(1,2)", B1).root == FunctionCall(
        "IF", (NumberLiteral(1.0), NumberLiteral(2.0))
    )


def test_unknown_function_and_name_diagnostics():
    with pytest.raises(UnknownFunction):
        parse_formula("=VLOOKUP(A1,B1:C9,2)", B1)
    with pytest.raises(UnknownName):
        parse_formula("=TaxRate+1", B1)
    err = None
    try:
        parse_formula("=1+ +", B1)
    except FormulaSyntaxError as exc:
        err = exc
    assert err is not None and err.offset is not None


def test_syntax_error_offsets_point_at_the_spot():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula('="unterminated', B1)
    assert info.value.offset == 1
    with pytest.raises(UnknownName) as info:
        parse_formula("=A1+bogus", B1)
    assert info.value.offset == 4
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula('="a""b""+A1', B1)  # "" is an escape, never a closing quote
    assert info.value.offset == 1


def test_non_finite_number_literal_rejected_with_offset():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("=2*1e400", B1)
    assert info.value.offset == 3
    assert parse_formula("=1e-400", B1).root == NumberLiteral(0.0)  # underflow is finite


@pytest.mark.parametrize("opener", ["(", "-", "SUM("])
def test_nesting_depth_is_bounded(opener):
    closer = ")" if opener.endswith("(") else ""

    def nested(depth: int) -> str:
        return "=" + opener * depth + "1" + closer * depth

    parse_formula(nested(MAX_NESTING), B1)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(nested(depth), B1)
        assert info.value.offset == 1 + len(opener) * MAX_NESTING


@pytest.mark.parametrize("op", ["+", "&", "<=", "^"])
def test_operator_chains_are_bounded(op):
    # Only nesting is bounded: a 2000-term chain, a tree 1999 levels high,
    # parses, renders and normalizes at the default recursion limit.
    src = "=" + op.join(["A1"] * 2000)
    ast = parse_formula(src, B1)
    assert isinstance(ast.root, BinaryOp) and ast.root.op == op
    assert render(ast) == src
    assert ast.normal.text == "=" + op.join(["RC[-1]"] * 2000)
    assert ast.facts.token_count == 3999
    assert len(list(references(ast))) == 2000


def test_postorder_lists_operands_before_their_node_in_reading_order():
    root = parse_formula('=IF(A1>1,-B1,"x")*SUM(C1:C2,2)', B1).root
    a1, one, b1, x, c, two = (CellRef(None, 1, 1), NumberLiteral(1.0), CellRef(None, 1, 2),
                              TextLiteral("x"), RangeRef(None, 1, 3, 2, 3), NumberLiteral(2.0))
    cond, neg = BinaryOp(">", a1, one), UnaryOp("-", b1)
    if_, sum_ = FunctionCall("IF", (cond, neg, x)), FunctionCall("SUM", (c, two))
    assert postorder(root) == [a1, one, cond, b1, neg, x, if_, c, two, sum_, root]


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=A1 B1", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=1)", B1)


# --- rendering ---------------------------------------------------------------

def test_render_minimal_parens():
    cases = [
        "=1+2*3",
        "=(1+2)*3",
        "=-2^2",
        "=2^-3",
        "=A1-(B1-C1)",
        "=A1-B1-C1",
        '=A1&"x"=B1',
        "=SUM(A1:B2,3,TRUE)",
        "=-(1+2)",
    ]
    for src in cases:
        ast = parse_formula(src, B1)
        assert render(ast) == src, src


def test_render_of_refs():
    assert render(parse_formula("=$A$1+Data!B2", B1)) == "=$A$1+Data!B2"
    assert render(parse_formula("='My Data'!B2:C4", B1)) == "='My Data'!B2:C4"


def test_canonical_number():
    assert canonical_number(2.0) == "2"
    assert canonical_number(2.5) == "2.5"
    assert canonical_number(0.0) == "0"
    assert canonical_number(1e300) == "1e+300"


# --- normalization -----------------------------------------------------------

def test_normalize_pinned_example():
    assert norm_text("=A1*2", B1) == "=RC[-1]*2"


def test_normalize_copy_invariance_simple():
    assert norm_text("=A1*2", CellAddress("S1", 1, 2)) == norm_text(
        "=A2*2", CellAddress("S1", 2, 2)
    )
    assert norm_text("=A1*2", B1) != norm_text("=A1*3", B1)


def test_normalize_absolute_and_cross_sheet():
    assert norm_text("=$A$1", B1) == "=R1C1"
    assert norm_text("=$A1", B1) == "=RC1"
    assert norm_text("=A$1", B1) == "=R1C[-1]"
    assert norm_text("=Data!A1", B1) == "=Data!RC[-1]"
    assert norm_text("='My Data'!A1", B1) == "='My Data'!RC[-1]"


def test_normalize_zero_offset_is_bare():
    # host B1 referencing B9: same column -> bare C
    assert norm_text("=B9", B1) == "=R[8]C"
    assert norm_text("=SUM(B2:B8)", CellAddress("S1", 9, 2)) == "=SUM(R[-7]C:R[-1]C)"


def test_normalize_collects_refs_and_literals():
    ast = parse_formula("=A1*2+Data!B2-3.5", C2)
    nf = normalize(ast)
    assert ast.literals == (2.0, 3.5)
    assert nf.text == "=R[-1]C[-2]*2+Data!RC[-1]-3.5"
    # ref * 2 + ref - 3.5 -> seven counted tokens, a fact of the class
    assert ast.facts.token_count == 7


def test_unique_formula_count_counts_copies_once():
    wb = wb_from(
        {
            "A1": 1,
            "B1": "=A1*2",
            "B2": "=A2*2",   # copy of B1 shape
            "B3": "=A3*3",   # different literal
            "C1": "=SUM(A1:A3)",
        }
    )
    assert unique_formula_count(wb) == 3


def test_unique_formula_count_is_per_sheet():
    wb = wb_from(
        {"B1": "=A1*2"},
        extra_sheets={"S2": {"B1": "=A1*2"}},
    )
    assert unique_formula_count(wb) == 2


# --- metrics -----------------------------------------------------------------

def test_metrics_pinned_example():
    ast = parse_formula("=Data!B2+C40", C2)
    assert ast.facts.token_count == 3
    assert (ast.facts.cross_sheet_count, ast.facts.cross_sheets) == (1, ("Data",))
    m = normalize(ast)
    assert m.max_ref_distance == 38
    assert m.off_axis_ref_count == 0


def test_metrics_token_and_literal_counts():
    ast = parse_formula("=SUM(B2:B8)", C2)
    assert ast.facts.token_count == 2
    assert len(ast.literals) == 0
    ast = parse_formula("=IF(A1>0,A1,0)", C2)
    assert ast.facts.token_count == 6
    assert len(ast.literals) == 2
    ast = parse_formula('=-A1+2*3&"x"', C2)
    # unary, ref, 2, 3, *, +, &, "x"
    assert ast.facts.token_count == 8
    assert len(ast.literals) == 2


def test_metrics_off_axis():
    m = normalize(parse_formula("=B2", CellAddress("S1", 1, 1)))
    assert m.off_axis_ref_count == 1 and m.max_ref_distance == 1
    m = normalize(parse_formula("=B1+A2", CellAddress("S1", 1, 1)))
    assert m.off_axis_ref_count == 0
    # range neither spanning host row nor host column is off-axis
    m = normalize(parse_formula("=SUM(A5:B9)", C2))
    assert m.off_axis_ref_count == 1
    assert m.max_ref_distance == 7
    # range spanning the host column is on-axis
    m = normalize(parse_formula("=SUM(C5:D9)", C2))
    assert m.off_axis_ref_count == 0


def test_metrics_range_distance_uses_far_corner():
    m = normalize(parse_formula("=SUM(A1:A30)", CellAddress("S1", 31, 1)))
    assert m.max_ref_distance == 30


# --- properties --------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_render_parse_roundtrip_property(seed):
    rng = random.Random(seed)
    expr = random_expr(rng, depth=4)
    ast = FormulaAst(source="=", host=C2, root=expr)
    src = render(ast)
    assert parse_formula(src, C2).root == expr


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)
def test_normalize_copy_invariance_property(seed, dr, dc):
    rng = random.Random(seed)
    expr = random_expr(rng, depth=4, uniform_range_flags=True)
    host = CellAddress("S1", 50, 50)
    moved_host = CellAddress("S1", 50 + dr, 50 + dc)
    src_a = render(FormulaAst("=", host, expr))
    src_b = render(FormulaAst("=", moved_host, translate_expr(expr, dr, dc)))
    assert norm_text(src_a, host) == norm_text(src_b, moved_host)


# Pieces of the formula alphabet: strings and "" escapes, sheet qualifiers,
# $-markers, every operator, numbers with exponents, names and blanks.
_FORMULA_TEXTS = [
    '"', '""', '"a b"', '"x""y"', "'", "''", "'My Sheet'!", "Data!", "S1!", "'It''s'!",
    "$", "A1", "$B$2", "c3", "XFD1048576", "A0", "ABCD1", "Z99999999",
    "0", "7", "2.5", ".5", "3.", "1e3", "2E+2", "4e-2", "1e400", "1e-400", "e5",
    "SUM", "sum", "IF", "ROUND", "NOT", "AVERAGE", "TRUE", "false", "foo", "_x", "a.b",
    "(", ")", ",", ":", "+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">=",
    " ", "\t", "!", "#", "%", "@", "[",
    "SUM(A1:B2)", "IF(A1,1,2)", "(A1)", "+1", "-A1", "*2",
]
_FORMULA_PIECES = st.sampled_from(_FORMULA_TEXTS)


@settings(max_examples=400, deadline=None)
@given(st.lists(_FORMULA_PIECES, min_size=1, max_size=24).map("".join))
def test_formula_strings_parse_or_fail_located(body):
    src = "=" + body
    try:
        ast = parse_formula(src, B1)
    except (FormulaSyntaxError, UnknownName, UnknownFunction) as exc:
        assert 0 <= exc.offset <= len(src)
        return
    assert parse_formula(render(ast), B1).root == ast.root


def key_from_tokens(tokens: list, host: CellAddress) -> tuple:
    """A class key read back from a token list: a reference is a range's
    second corner where "REF :" or "REF : SHEET" precedes it."""
    key: list[object] = [host.sheet]
    for n, (kind, text, _offset, value) in enumerate(tokens[:-1]):  # not EOF
        if kind == "REF":
            row, col, abs_row, abs_col = value
            fixed_row = abs_row or not row
            key += (row if fixed_row else row - host.row, col if abs_col else col - host.col,
                    fixed_row, abs_col)
            k = n - (2 if n and tokens[n - 1][0] == "SHEET" else 1)
            if k >= 1 and tokens[k][1] == ":" and tokens[k - 1][0] == "REF":
                first_row, first_col = tokens[k - 1][3][:2]
                key += (first_row > row, first_col > col)
        else:
            key.append(None if kind == "NUMBER" else text)
    return tuple(key)


_RANGE_TEXTS = ["A1:B2", "$A1:A$2", "B9:A1", "A1:S1!B2", "S1!B3:A$1", "Data!C1:'My Sheet'!A2",
                "A1 : B2", "A1::B2", "A1:S1!T!B2", "A1:B2:C3", "A0:B2"]
_RANGE_PIECES = st.sampled_from(_RANGE_TEXTS)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_FORMULA_PIECES, _RANGE_PIECES), min_size=1, max_size=16)
       .map("".join), st.sampled_from(["S1", "Data", "My Sheet"]),
       st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=30))
def test_key_only_lex_agrees_with_the_token_lex(body, sheet, row, col):
    # Lexing for the key alone gives the key and literals of the lex that
    # builds tokens, or fails with the same error at the same offset; and
    # the key is the one the tokens give.
    src, host = "=" + body, CellAddress(sheet, row, col)

    def outcome(tokens):
        try:
            return formula_mod._lex(src, host, tokens)
        except FormulaSyntaxError as exc:
            return type(exc), exc.offset, str(exc)

    tokens: list = []
    full = outcome(tokens)
    assert outcome(None) == full
    if len(full) == 2:
        key, literals = full
        assert key == key_from_tokens(tokens, host)
        assert literals == tuple(tok[3] for tok in tokens if tok[0] == "NUMBER")


def _parses(src: str) -> bool:
    try:
        parse_formula(src, C2)
    except (FormulaSyntaxError, UnknownName, UnknownFunction):
        return False
    return True


# The pieces above that are whole operands, and a swapped range, a signed
# exponent and quoted sheets and strings with escapes: joined by operators,
# they make class texts that parse.
_OPERANDS = [piece for piece in (*_FORMULA_TEXTS, *_RANGE_TEXTS, "A$5:A3", "1e+5",
                                 "'It''s'!A1", "'My Sheet'!$B7", '"q""r"')
             if _parses("=" + piece)]
_CLASS_TEXTS = st.lists(st.tuples(st.sampled_from(["+", "*", "&", "<>", " - ", "^", "<="]),
                                  st.sampled_from(_OPERANDS)), min_size=1, max_size=6).map(
    lambda parts: "=" + "".join(op + operand for op, operand in parts)[len(parts[0][0]):])
_HOSTS = st.builds(CellAddress, st.just("S1"), st.integers(1, 60), st.integers(1, 30))
_NUMBER_TEXTS = ["0", "7", "2.5", ".5", "3.", "1e3", "2E+2", "4e-2", "1e+5", "1e-400"]


def _class_and_pattern(src: str, host: CellAddress):
    cls = parse_formula(src, host)
    pattern = formula_mod._CopyPattern(cls)
    pattern.compile()
    return cls, pattern


def _copy_text(draw, src: str, host: CellAddress, to: CellAddress, numbers: list[str],
               pieces: list[str] = ()) -> str:
    """src at host retyped as a copy at to: each relative axis moved, each
    number drawn from numbers, column letters in either case and blanks
    between tokens; with pieces, some tokens are replaced by one of them
    and others may change case."""
    tokens: list = []
    formula_mod._lex(src, host, tokens)
    out = ["="]
    for kind, text, _offset, value in tokens[:-1]:
        out.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        if pieces and draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(pieces)))
        elif kind == "REF":
            row, col, abs_row, abs_col = value
            row = max(0, row if abs_row else row + to.row - host.row)
            col = max(1, col if abs_col else col + to.col - host.col)
            letters = col_to_letters(col)
            out.append("$" * abs_col + draw(st.sampled_from([letters, letters.lower()]))
                       + "$" * abs_row + str(row))
        elif kind == "NUMBER":
            out.append(draw(st.sampled_from(numbers)))
        elif pieces:
            out.append(draw(st.sampled_from([text, text.swapcase()])))
        else:
            out.append(text)
    out.append(draw(st.sampled_from(["", " ", "\t"])))
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(_CLASS_TEXTS, _HOSTS, _HOSTS, st.data())
def test_copy_pattern_takes_only_what_the_lexer_keys_as_its_class(src, host, to, data):
    # A class's copy pattern declines a text, or gives exactly the literals
    # _lex gives it while _lex keys it as the class: on near copies with
    # references moved anywhere (row 0 and swapped corners too), numbers
    # out of range, and tokens replaced by other pieces of the alphabet.
    if not _parses(src):
        return
    cls, pattern = _class_and_pattern(src, host)
    text = _copy_text(data.draw, src, host, to, _NUMBER_TEXTS + ["1e999", "1e400", "e5"],
                      _FORMULA_TEXTS + _RANGE_TEXTS)
    ast = pattern.copy(text, to)
    if ast is None:
        return
    key, literals = formula_mod._lex(text, to)
    assert key == formula_mod._lex(src, host)[0]
    assert ast.literals == literals
    assert ast.cls is cls and ast.source == text and ast.host == to


@settings(max_examples=400, deadline=None)
@given(_CLASS_TEXTS, _HOSTS, st.integers(0, 40), st.integers(0, 12), st.data())
def test_copy_pattern_takes_every_true_copy(src, host, dr, dc, data):
    # The class retyped at another host, with other finite literals, blanks
    # or tabs between tokens and lower-case column letters: every such text
    # that _lex keys as the class (corners may swap by host) is taken.
    if not _parses(src):
        return
    to = CellAddress("S1", host.row + dr, host.col + dc)
    cls, pattern = _class_and_pattern(src, host)
    text = _copy_text(data.draw, src, host, to, _NUMBER_TEXTS)
    key, literals = formula_mod._lex(text, to)
    if key != formula_mod._lex(src, host)[0]:
        return
    ast = pattern.copy(text, to)
    assert ast is not None, text
    assert ast.literals == literals


def test_copy_pattern_declines_an_out_of_range_number_a_swap_and_row_zero():
    def at(row: int) -> CellAddress:
        return CellAddress("S1", row, 3)

    _cls, pattern = _class_and_pattern("=A$5:A3+1e3*SUM('It''s'!B2)&\"x\"\"y\"", at(2))
    assert pattern.copy("=a$5:a4 + 1e+5*SUM('It''s'!B3)&\"x\"\"y\"", at(3)) is not None
    assert pattern.copy("=A$5:A3+1e999*SUM('It''s'!B2)&\"x\"\"y\"", at(2)) is None
    assert pattern.copy("=A$5:A9+1e3*SUM('It''s'!B8)&\"x\"\"y\"", at(8)) is None
    _cls, pattern = _class_and_pattern("=B1+1", at(2))
    assert pattern.copy("=B0+1", at(1)) is None
    assert pattern.copy("=b1\t+ 2", at(2)).literals == (2.0,)


def test_row_zero_reference_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=B0", B1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=SUM(A0:A3)", B1)


# --- formula classes ---------------------------------------------------------

def column_of_copies(rows: int) -> dict[str, object]:
    cells: dict[str, object] = {f"A{r}": float(r) for r in range(1, rows + 1)}
    cells.update({f"B{r}": f"=A{r}*2+SUM(A$1:A{r})" for r in range(1, rows + 1)})
    return cells


def test_copies_are_parsed_and_normalized_once_per_class(monkeypatch):
    wb = wb_from(column_of_copies(1000))
    parses: list = []
    normals: list = []
    parse, norm = formula_mod._Parser.parse, formula_mod.normalize

    def counted_parse(self):
        parses.append(self.host)
        return parse(self)

    def counted_normalize(ast):
        normals.append(ast.host)
        return norm(ast)

    monkeypatch.setattr(formula_mod._Parser, "parse", counted_parse)
    monkeypatch.setattr(formula_mod, "normalize", counted_normalize)
    asts = parse_workbook_formulas(wb)
    assert {ast.normal.text for ast in asts.values()} == {"=RC[-1]*2+SUM(R1C[-1]:RC[-1])"}
    # A$1:A1 in B1 is a range whose corners do not swap, as in every later copy
    assert parses == [CellAddress("S1", 1, 2)]
    assert normals == [CellAddress("S1", 1, 2)]
    assert unique_formula_count(wb, asts) == 1


def _counting(monkeypatch) -> dict[str, list]:
    """Count _lex calls by host, _Parser.parse calls and pattern compiles."""
    calls: dict[str, list] = {"lex": [], "parse": [], "compile": []}
    lex, parse, compile_ = (formula_mod._lex, formula_mod._Parser.parse,
                            formula_mod._CopyPattern.compile)

    def counted_lex(src, host, tokens=None):
        calls["lex"].append(host)
        return lex(src, host, tokens)

    def counted_parse(self):
        calls["parse"].append(self.host)
        return parse(self)

    def counted_compile(self):
        calls["compile"].append(self.cls.host)
        return compile_(self)

    monkeypatch.setattr(formula_mod, "_lex", counted_lex)
    monkeypatch.setattr(formula_mod._Parser, "parse", counted_parse)
    monkeypatch.setattr(formula_mod._CopyPattern, "compile", counted_compile)
    return calls


def chain_of_copies(rows: int) -> dict[str, object]:
    cells: dict[str, object] = {"A1": 1.0}
    cells.update({f"A{r}": f"=A{r - 1}+{r}" for r in range(2, rows + 1)})
    return cells


@pytest.mark.parametrize("book", [column_of_copies, chain_of_copies])
def test_copies_after_the_second_are_read_by_the_class_pattern(monkeypatch, book):
    # The first copy is lexed for its key and into tokens, the second for
    # its key, and the class's pattern compiles by lexing the first again;
    # no other copy is lexed.
    wb = wb_from(book(1000))
    calls = _counting(monkeypatch)
    asts = parse_workbook_formulas(wb)
    assert len(asts) >= 999
    assert len({ast.cls for ast in asts.values()}) == len(calls["parse"]) == 1
    assert len(calls["lex"]) <= 4
    assert len(calls["compile"]) == 1


def test_one_copy_classes_compile_no_pattern(monkeypatch):
    wb = wb_from({f"B{r}": f"=$A${r}+{r}" for r in range(1, 201)})
    calls = _counting(monkeypatch)
    asts = parse_workbook_formulas(wb)
    assert len({ast.cls for ast in asts.values()}) == len(calls["parse"]) == 200
    assert calls["compile"] == []


def test_a_row_alternating_two_classes_is_read_by_their_patterns(monkeypatch):
    # =A1*2, =B1+1, =C1*2, ... along row 2: after the second copy of each
    # class, every copy is taken by the pattern of the class two to its left.
    cells = {f"{col_to_letters(c)}2": f"={col_to_letters(c - 1)}1" + ("*2" if c % 2 else "+1")
             for c in range(2, 42)}
    wb = wb_from(cells)
    calls = _counting(monkeypatch)
    asts = parse_workbook_formulas(wb)
    assert len({ast.cls for ast in asts.values()}) == len(calls["parse"]) == 2
    assert len(calls["compile"]) == 2
    # two lexes for each class's first copy, one for its second, one to compile
    assert [host.col for host in calls["lex"]] == [2, 2, 3, 3, 4, 2, 5, 3]
    for addr, ast in asts.items():
        assert ast.literals == parse_formula(ast.source, addr).literals


def test_copies_match_a_parse_of_each_cell():
    # Every copy's tree, references and normal form equal those of a parse
    # of its own text, also where absolute parts make them depend on the host
    # and where copies differ in their number literals.
    sources = ["=A{r}*$A$1+A$1", "=SUM(A$5:A{r})", "=SUM($A{r}:C{r})+Data!$B{r}",
               "=IF(A{r}>$A$20,A{s},$K$39)", "=MAX(K$1:K{r},$A$1:A$2)*1", "=B{s}+S1!A{r}",
               "=A{r}+{r}", "=IF(A{r}>{s},2.5,$A$1*{r})"]
    cells: dict[str, object] = {}
    for col, src in zip("BCDEFGHI", sources):
        for r in range(1, 40):
            cells[f"{col}{r}"] = src.format(r=r, s=r + 1)
    wb = wb_from(cells)
    asts = parse_workbook_formulas(wb)
    assert len({ast.cls for ast in asts.values()}) < len(asts)
    for addr, ast in asts.items():
        alone = parse_formula(ast.source, addr)
        assert (ast.root is None) == (ast.cls is not ast), addr  # a copy has no tree
        assert ast.literals == alone.literals, addr
        assert translate_expr(ast.cls.root, *ast.offset, ast.literals) == alone.root, addr
        assert render(ast) == render(alone), addr
        assert ast.normal == normalize(alone), addr
        assert list(references(ast)) == list(references(alone)), addr


def test_mixed_corner_ranges_sort_per_host_and_count_twice():
    # One absolute and one relative corner: the range sorts by host, so the
    # two copies key alike by their tokens but are classes of their own.
    wb = wb_from({"B4": "=SUM(A$5:A3)", "B10": "=SUM(A$5:A9)"})
    asts = parse_workbook_formulas(wb)
    assert asts[CellAddress("S1", 4, 2)].normal.text == "=SUM(R[-1]C[-1]:R5C[-1])"
    assert asts[CellAddress("S1", 10, 2)].normal.text == "=SUM(R5C[-1]:R[-1]C[-1])"
    assert unique_formula_count(wb, asts) == 2


def test_same_sheet_qualifier_shares_the_normal_form():
    wb = wb_from({"B1": "=S1!A1", "B2": "=A2"})
    asts = parse_workbook_formulas(wb)
    assert {ast.normal.text for ast in asts.values()} == {"=RC[-1]"}
    assert unique_formula_count(wb, asts) == 1


def test_anchored_copies_keep_their_own_distances():
    wb = wb_from({"A1": 1.0, "B2": "=$A$1+B1", "B40": "=$A$1+B39"})
    asts = parse_workbook_formulas(wb)
    near, far = asts[CellAddress("S1", 2, 2)], asts[CellAddress("S1", 40, 2)]
    assert far.cls is near
    assert (near.normal.max_ref_distance, near.normal.off_axis_ref_count) == (1, 1)
    assert (far.normal.max_ref_distance, far.normal.off_axis_ref_count) == (39, 1)


def test_later_copy_on_row_zero_names_its_own_cell():
    # =B1+1 in B2 and =B0+1 in B1 share offsets, but row 0 never resolves.
    wb = wb_from({"B1": "=B0+1", "B3": "=B2+1", "B2": 1.0})
    with pytest.raises(FormulaSyntaxError, match=r"^S1!B1: reference 'B0' names row 0"):
        parse_workbook_formulas(wb)
    wb = wb_from({"B2": "=B1+1", "C1": "=C0+1", "B1": 1.0})
    with pytest.raises(FormulaSyntaxError, match=r"^S1!C1: ") as info:
        parse_workbook_formulas(wb)
    assert info.value.offset == 1


def test_syntax_error_in_a_later_copy_names_its_own_cell_and_offset():
    wb = wb_from({"A1": 1.0, "B1": "=A1*2", "B2": "=A2*2", "B3": "=A3 * 2 +"})
    with pytest.raises(FormulaSyntaxError, match=r"^S1!B3: ") as info:
        parse_workbook_formulas(wb)
    assert info.value.offset == len("=A3 * 2 +")


def test_copies_differing_in_blanks_case_and_literals_share_the_class():
    wb = wb_from({"A1": 1.0, "A2": "=A1+1", "A3": "=a2 + 2", "A4": "=A3+\t3"})
    asts = parse_workbook_formulas(wb)
    assert len({ast.cls for ast in asts.values()}) == 1
    assert [ast.literals for ast in asts.values()] == [(1.0,), (2.0,), (3.0,)]


def test_out_of_range_number_in_a_later_copy_names_its_own_cell_and_offset():
    wb = wb_from({"A1": 1.0, "A2": "=A1+1", "A3": "=A2+2", "A4": "=A3+1e999"})
    with pytest.raises(FormulaSyntaxError,
                       match=r"^S1!A4: number 1e999 is out of range \(at offset 4\)$") as info:
        parse_workbook_formulas(wb)
    assert info.value.offset == 4


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_copies_match_a_parse_of_each_cell_property(seed):
    # Random formulas pasted to a few hosts, with any mix of $-markers, so
    # that ranges with one absolute corner sort differently by host.
    rng = random.Random(seed)
    cells: dict[str, object] = {}
    for col in range(1, 4):
        expr = random_expr(rng, depth=3)
        for _ in range(4):
            dr, dc = rng.randint(0, 30), rng.randint(0, 3)
            host = CellAddress("S1", 50 + dr, 50 + 4 * col + dc)
            cells[host.a1] = render(FormulaAst("=", host, translate_expr(expr, dr, dc)))
    wb = wb_from(cells)
    for addr, ast in parse_workbook_formulas(wb).items():
        alone = parse_formula(ast.source, addr)
        assert ast.literals == alone.literals
        assert translate_expr(ast.cls.root, *ast.offset, ast.literals) == alone.root
        assert render(ast) == render(alone)
        assert ast.normal == normalize(alone)
        assert list(references(ast)) == list(references(alone))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unique_formula_count_matches_a_parse_of_each_cell_property(seed):
    # Copies that differ only in a literal share a class but not a normal form.
    wb = literal_copies_book(seed)
    brute = {(addr.sheet, normalize(parse_formula(cell.formula, addr)).text)
             for addr, cell in wb.formula_cells()}
    assert unique_formula_count(wb) == len(brute)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_class_facts_match_a_parse_of_each_cell_property(seed):
    # Copied classes with literal slots, absolute axes, IF branches and
    # nested aggregates: each copy reads its class's facts at its offset.
    wb = literal_copies_book(seed)
    for addr, ast in parse_workbook_formulas(wb).items():
        alone = parse_formula(ast.source, addr)
        assert list(references(ast)) == list(references(alone)), addr
        boxes = list(aggregate_boxes(ast))
        assert boxes == list(aggregate_boxes(alone)), addr
        assert boxes == [(rng.sheet or addr.sheet, rng.r1, rng.c1, rng.r2, rng.c2)
                         for rng in aggregate_ranges(alone.root)], addr
        # what no copy changes: its token count and its cross-sheet references
        assert ast.facts.token_count == alone.facts.token_count, addr
        assert ((ast.facts.cross_sheet_count, ast.facts.cross_sheets)
                == (alone.facts.cross_sheet_count, alone.facts.cross_sheets)), addr


def test_no_module_imports_a_private_name_of_formula():
    # The class record is built and read behind formula's public names.
    package = Path(formula_mod.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "formula.py":
            continue
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, pyast.ImportFrom) and (
                    (node.level == 1 and node.module == "formula")
                    or node.module == "gridaudit.formula"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, private)


def test_copies_differing_only_in_literals_parse_as_one_class(monkeypatch):
    # The chain topology's =A4+2, =A5+3, ...: one parse, one literal vector each.
    wb = generate_clean(SeedSpec("chain", 2000, 20, rng_seed=1))
    parses: list = []
    parse = formula_mod._Parser.parse

    def counted_parse(self):
        parses.append(self.host)
        return parse(self)

    monkeypatch.setattr(formula_mod._Parser, "parse", counted_parse)
    asts = parse_workbook_formulas(wb)
    assert len({ast.cls for ast in asts.values()}) == len(parses) <= 2
    assert len({ast.literals for ast in asts.values()}) > 1000
    assert unique_formula_count(wb, asts) == len({ast.normal.text for ast in asts.values()})


def _keys_match_texts(wb) -> None:
    """Two formulas have equal keys exactly where a parse of each cell
    alone gives equal normal texts."""
    asts = parse_workbook_formulas(wb)
    pairs = {(ast.key, normalize(parse_formula(ast.source, addr)).text)
             for addr, ast in asts.items()}
    assert len(pairs) == len({key for key, _ in pairs}) == len({text for _, text in pairs})


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_keys_are_equal_exactly_where_normal_texts_are_property(seed):
    _keys_match_texts(literal_copies_book(seed))


@pytest.mark.parametrize("first, second, third", [
    ("=sum(A1:A2)+2", "=SUM(A2:A3)+2", "=SUM(A3:A4)+5"),  # function-name case
    ("=S1!A1+1", "=A2+1", "=A3+4"),  # a same-sheet qualifier
    ("=SUM(A2:A1)*2", "=SUM(A2:A3)*2", "=SUM(A3:A4)*3"),  # corners in either order
])
def test_two_classes_with_one_normal_text_have_one_key(first, second, third):
    # The key is the rendered shape, not the class: B1 and B2 are two
    # classes with one key, and B3, a copy of B2 with a literal of its own,
    # has another.
    wb = wb_from({"B1": first, "B2": second, "B3": third})
    asts = parse_workbook_formulas(wb)
    b1, b2, b3 = (asts[CellAddress("S1", r, 2)] for r in (1, 2, 3))
    assert b1.cls is not b2.cls and b3.cls is b2.cls
    assert b1.key == b2.key != b3.key
    assert unique_formula_count(wb, asts) == 2
    _keys_match_texts(wb)
