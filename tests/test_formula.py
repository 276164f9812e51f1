import math
import random
import string

import pytest

import hyperq as hq
from hyperq.formula import (
    Always,
    And,
    BoolProp,
    DuplicateQuantifierError,
    Eventually,
    Formula,
    FormulaError,
    MAX_DEPTH,
    Implies,
    Not,
    ParseError,
    Predicate,
    Quantifier,
    TraceVar,
    Until,
    children_of,
    parse_formula,
    unparse,
    validate,
)


def test_parse_simple_prefix_and_eventually():
    f = parse_formula("forall t1. exists t2. F g1@t1")
    assert [q.kind for q in f.prefix] == ["forall", "exists"]
    assert f.prefix[0].var == TraceVar("t1", 1)
    assert f.prefix[1].var == TraceVar("t2", 2)
    assert f.body == Eventually(BoolProp("g1", TraceVar("t1", 1)))


def test_parse_absolute_difference_predicate():
    f = parse_formula("forall t1. exists t2. G [ |loc@t1 - loc@t2| < 3 ]")
    body = f.body
    assert isinstance(body, Always)
    pred = body.child
    assert pred == Predicate("loc", (TraceVar("t1", 1), TraceVar("t2", 2)), "<", 3.0, abs_diff=True)


def test_parse_unbound_variable_raises():
    with pytest.raises(hq.formula.UnboundTraceVarError):
        parse_formula("forall t1. F p@t2")


def test_parse_duplicate_quantifier_raises():
    with pytest.raises(DuplicateQuantifierError):
        parse_formula("forall t1. exists t1. p@t1")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("forall t1. F p@@t1")
    assert err.value.line == 1
    assert err.value.column is not None
    for text, message in [
            # a comment line still counts as a line
            ("forall t1.\n# note\n  F p@@t1", "expected trace variable, found '@' (line 3, column 7)"),
            ("forall t1. F p@t1 $", "unexpected character '$' (line 1, column 19)"),
            # every line break `str.splitlines` knows starts a line
            ("forall t1.\x0cF p@t1 )", "unexpected trailing input ')' (line 2, column 8)"),
            # the end of input sits at the last token
            ("forall t1.\x85G (p@t1", "expected ')', found '' (line 2, column 6)")]:
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert str(err.value) == message


def test_precedence_until_binds_tighter_than_and():
    f = parse_formula("forall t1. a@t1 & b@t1 U c@t1")
    assert isinstance(f.body, And)
    assert isinstance(f.body.right, Until)


def test_until_right_associative():
    f = parse_formula("forall t1. a@t1 U b@t1 U c@t1")
    assert isinstance(f.body, Until)
    assert isinstance(f.body.right, Until)
    assert isinstance(f.body.left, BoolProp)


def test_implies_lowest_precedence_right_associative():
    f = parse_formula("forall t1. a@t1 -> b@t1 -> c@t1 | d@t1")
    assert isinstance(f.body, Implies)
    assert isinstance(f.body.right, Implies)


def test_unary_applies_to_until_operand_only():
    f = parse_formula("forall t1. !a@t1 U b@t1")
    assert isinstance(f.body, Until)
    assert isinstance(f.body.left, Not)


def test_unparse_simple():
    f = Formula(
        (Quantifier("forall", TraceVar("t1", 1)),),
        Eventually(BoolProp("p", TraceVar("t1", 1))))
    assert unparse(f) == "forall t1. F p@t1"


def test_validate_clean_formula():
    f = parse_formula("forall t1. exists t2. F p@t1 & G q@t2")
    assert validate(f) == []


def test_validate_reports_unbound_var():
    f = parse_formula("forall t1. F p@t1")
    broken = Formula(f.prefix, Eventually(BoolProp("p", TraceVar("t3", 3))))
    codes = [d.code for d in validate(broken)]
    assert "unbound-trace-var" in codes


def test_validate_reports_duplicate_prefix():
    q1 = Quantifier("forall", TraceVar("t1", 1))
    q2 = Quantifier("exists", TraceVar("t1", 2))
    f = Formula((q1, q2), BoolProp("p", TraceVar("t1", 1)))
    codes = [d.code for d in validate(f)]
    assert "duplicate-quantifier" in codes


def test_validate_reports_bad_arity():
    v = TraceVar("t1", 1)
    f = Formula((Quantifier("forall", v),),
                Predicate("loc", (v, v), "<", 3.0, abs_diff=False))
    codes = [d.code for d in validate(f)]
    assert "bad-arity" in codes


def _levels(node) -> int:
    """The levels of a body's syntax tree, found without recursion."""
    deepest, todo = 0, [(node, 1)]
    while todo:
        node, level = todo.pop()
        deepest = max(deepest, level)
        todo += [(child, level + 1) for child in children_of(node)]
    return deepest


_TOO_DEEP = {
    "!": "forall t1. " + "!" * 1200 + "p@t1",
    "&": "forall t1. forall t2. " + " & ".join(["F i@t1"] * 3000),
    "|": "forall t1. " + " | ".join(["p@t1"] * 3000),
    "->": "forall t1. " + " -> ".join(["p@t1"] * 3000),
    "U": "forall t1. " + " U ".join(["p@t1"] * 3000),
    "(": "forall t1. " + "(" * 2000 + "p@t1" + ")" * 2000,
}


@pytest.mark.parametrize("operator", sorted(_TOO_DEEP))
def test_a_body_nested_past_the_bound_is_a_parse_error_at_its_operator(operator):
    # a chain of unary operators, the left-deep tree of an & or | chain, a
    # right-deep -> or U chain and nested parentheses: the parse stops at
    # the operator that takes the body past MAX_DEPTH levels, before any
    # walk over the body could exhaust the stack
    text = _TOO_DEEP[operator]
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value).startswith(f"formula nested more than {MAX_DEPTH} levels deep")
    assert err.value.line == 1 and text[err.value.column - 1] == operator[0]


def test_a_body_of_max_depth_levels_parses():
    for text, levels in (("!" * (MAX_DEPTH - 1) + "p@t1", MAX_DEPTH),
                         (" & ".join(["p@t1"] * MAX_DEPTH), MAX_DEPTH),
                         (" & ".join(["F p@t1"] * (MAX_DEPTH - 1)), MAX_DEPTH),
                         ("(" * (MAX_DEPTH - 2) + "!p@t1" + ")" * (MAX_DEPTH - 2), 2)):
        f = parse_formula("forall t1. " + text)
        assert _levels(f.body) == levels and parse_formula(unparse(f)) == f
        with pytest.raises(ParseError):
            parse_formula("forall t1. !(" + text + ")")
    for name in ("rescue", "safe_rl", "fairness", "pcp_ab"):
        assert _levels(hq.load_formula(hq.bundled(f"formulas/{name}.hltl")).body) <= 9


def test_corpus_round_trip():
    for name in ("rescue", "safe_rl", "fairness", "pcp_ab"):
        f = hq.load_formula(hq.bundled(f"formulas/{name}.hltl"))
        assert validate(f) == []
        again = parse_formula(unparse(f))
        assert again == f, name


def test_random_ast_round_trip():
    from oracles import random_formula

    rng = random.Random(20240811)
    for _ in range(300):
        f = random_formula(rng, max_depth=6, max_vars=4)
        assert parse_formula(unparse(f)) == f


@pytest.mark.parametrize("constant", ["0.00001", "0.0000001", "123456789012345678901234.5"])
def test_constant_round_trip(constant):
    # the small ones print with an exponent, which the parser reads back
    f = parse_formula(f"forall t1. G [ v@t1 < {constant} ]")
    assert f.body.child.constant == float(constant)
    assert parse_formula(unparse(f)) == f


@pytest.mark.parametrize("constant", ["-0", "0", "-0.0", "0.0", "-1.5", "2"])
def test_constant_round_trip_keeps_the_sign_of_a_zero(constant):
    # `==` takes a -0.0 for a 0.0, whose margins differ in the sign of a
    # zero, so the round trip compares by `repr` and `math.copysign`
    f = parse_formula(f"forall t1. G [ v@t1 < {constant} ] & [ |v@t1 - v@t1| > {constant} ]")
    again = parse_formula(unparse(f))
    assert repr(again) == repr(f)
    for before, after in ((f.body.left.child, again.body.left.child), (f.body.right, again.body.right)):
        assert math.copysign(1, after.constant) == math.copysign(1, before.constant) \
            == math.copysign(1, float(constant))


def test_unparse_prints_a_negative_zero_constant_as_minus_0():
    text = "forall t1. G [ loc@t1 < -0 ]"
    assert unparse(parse_formula(text)) == text


def test_constant_with_exponent():
    f = parse_formula("forall t1. [ v@t1 < 1.5E+3 ] & [ v@t1 > -2e-2 ]")
    assert (f.body.left.constant, f.body.right.constant) == (1500.0, -0.02)


def test_constant_out_of_range_rejected_at_its_column():
    for sign in ("", "-"):
        with pytest.raises(ParseError) as err:
            parse_formula(f"forall t1. G [ v@t1 < {sign}{'9' * 400} ]")
        assert str(err.value) == f"numeric constant out of range (line 1, column {23 + len(sign)})"


def test_parser_total_on_junk_input():
    rng = random.Random(99)
    alphabet = string.printable + "é∀τ"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse_formula(text)
        except FormulaError:
            pass


def test_comment_lines_in_formula_files(tmp_path):
    path = tmp_path / "f.hltl"
    path.write_text("# a comment\nforall t1.\n# another\nF p@t1\n")
    f = hq.load_formula(path)
    assert unparse(f) == "forall t1. F p@t1"
