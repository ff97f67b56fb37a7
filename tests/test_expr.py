"""Right-hand-side expression language: parsing, printing, evaluation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobipc.expr import (BinOp, Call, ExprArityError, ExprError,
                           ExprEvalError, ExprNameError, ExprSyntaxError, Neg,
                           Num, Var, compile_rhs, evaluate, parse, pretty)

T, X, ALPHA = 0.3, 2.0, 0.5

EVAL_CASES = [
    ("1+2", 3.0),
    ("2-3-4", -5.0),
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("8/4/2", 1.0),
    ("6/4", 1.5),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2^-1", 0.5),
    ("-(-2)", 2.0),
    ("2*-3", -6.0),
    ("1e3", 1000.0),
    (".5", 0.5),
    ("2.", 2.0),
    ("1.5e-2", 0.015),
    (" 1 + 2 ", 3.0),
    ("t", T),
    ("x", X),
    ("alpha", ALPHA),
    ("x^2", 4.0),
    ("alpha*t", ALPHA * T),
    ("sin(t)", math.sin(T)),
    ("cos(t)^2+sin(t)^2", 1.0),
    ("exp(ln(x))", X),
    ("sqrt(x^2)", X),
    ("abs(-t)", T),
    ("gamma(3)", 2.0),
    ("pow(t,2)", T * T),
    ("sin(cos(t))", math.sin(math.cos(T))),
    ("(1+2)*(3+4)", 21.0),
    ("t*x-alpha/2", T * X - ALPHA / 2),
    ("2^(1/2)", math.sqrt(2.0)),
    ("pow(x,-1)", 0.5),
    ("1/2+1/2", 1.0),
    ("1\t+\n2", 3.0),  # any str.isspace character separates tokens
    ("x\u00a0+1", X + 1),  # no-break space
    ("1.e3", 1000.0),
    ("\u0663", 3.0),  # Arabic-Indic three: a digit to \d and to float()
]


@pytest.mark.parametrize("source,want", EVAL_CASES)
def test_evaluation_table(source, want):
    got = evaluate(parse(source), T, X, ALPHA)
    assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


SYNTAX_CASES = [
    ("", ExprSyntaxError, 0),
    ("1+", ExprSyntaxError, 2),
    ("(1+2", ExprSyntaxError, 4),
    ("1 + * 2", ExprSyntaxError, 4),
    ("1 2", ExprSyntaxError, 2),
    ("1 @ 2", ExprSyntaxError, 2),
    ("--2", ExprSyntaxError, 1),
    ("1e999", ExprSyntaxError, 0),
    ("y", ExprNameError, 0),
    ("sin", ExprNameError, 0),
    ("2*foo(1)", ExprNameError, 2),
    ("1+boop", ExprNameError, 2),
    ("sin(1,2)", ExprArityError, 0),
    ("pow(1)", ExprArityError, 0),
    ("x + \u00e9", ExprSyntaxError, 4),  # identifiers are ASCII
    ("1.5.2", ExprSyntaxError, 3),  # '1.5', then the literal '.2'
    ("1e", ExprSyntaxError, 1),  # an exponent needs digits: '1', then the name 'e'
    (".e1", ExprSyntaxError, 0),  # a bare '.' starts no literal
]


@pytest.mark.parametrize("source,exc,offset", SYNTAX_CASES)
def test_parse_errors_carry_offsets(source, exc, offset):
    with pytest.raises(exc) as info:
        parse(source)
    assert info.value.offset == offset
    assert f"offset {offset}" in str(info.value)
    assert isinstance(info.value, ExprError)
    assert isinstance(info.value, ValueError)


def test_error_messages_name_the_problem():
    with pytest.raises(ExprSyntaxError, match=r"expected '\)'"):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError, match="overflows a double"):
        parse("1e999")
    with pytest.raises(ExprNameError, match="variables are t, x, alpha"):
        parse("q+1")
    with pytest.raises(ExprNameError, match="known: abs, cos"):
        parse("foo(1)")
    with pytest.raises(ExprArityError, match="pow takes 2 arguments, got 1"):
        parse("pow(1)")


EVAL_FAULTS = [
    ("1/(t-t)", "division by zero"),
    ("ln(t-1)", "domain error"),
    ("sqrt(-x)", "domain error"),
    ("gamma(-1)", "domain error"),
    ("(t-t)^-1", "domain error"),
]


@pytest.mark.parametrize("source,message", EVAL_FAULTS)
def test_evaluation_faults(source, message):
    with pytest.raises(ExprEvalError, match=message):
        evaluate(parse(source), T, X, ALPHA)


def test_fault_names_offending_subexpression():
    with pytest.raises(ExprEvalError) as info:
        evaluate(parse("1/(t-t)"), T, X, ALPHA)
    assert "division by zero in '1.0/(t-t)'" in str(info.value)


def test_overflow_saturates_and_nan_raises():
    assert evaluate(parse("exp(x)"), 0.0, 1000.0, 0.5) == math.inf
    with pytest.raises(ExprEvalError, match="not a number"):
        evaluate(parse("exp(x)-exp(x)"), 0.0, 1000.0, 0.5)


PRETTY_PINS = [
    ("2+3*4", "2.0+3.0*4.0"),
    ("(2+3)*4", "(2.0+3.0)*4.0"),
    ("-(t+x)", "-(t+x)"),
    ("-t^2", "-t^2.0"),
    ("(-t)^2", "(-t)^2.0"),
    ("t^(x^alpha)", "t^x^alpha"),
    ("(t^x)^alpha", "(t^x)^alpha"),
    ("t-(x-1)", "t-(x-1.0)"),
    ("t-x-1", "t-x-1.0"),
    ("t/(x*alpha)", "t/(x*alpha)"),
    ("sin(t)+1", "sin(t)+1.0"),
    ("pow(t, x)", "pow(t, x)"),
]


@pytest.mark.parametrize("source,want", PRETTY_PINS)
def test_minimal_parenthesization(source, want):
    assert pretty(parse(source)) == want


FIXPOINT_CORPUS = [s for s, _ in EVAL_CASES] + [s for s, _ in PRETTY_PINS] + [
    "gamma(9)/gamma(9-alpha)*t^(8-alpha)",
    "pow(t+1, x-1)",
    "-x+t^8+3*t^7",
    "x*-t",
    "sin(-t)*cos(x/2)",
]


@pytest.mark.parametrize("source", FIXPOINT_CORPUS)
def test_pretty_is_reparse_fixed_point(source):
    tree = parse(source)
    printed = pretty(tree)
    assert parse(printed) == tree
    assert pretty(parse(printed)) == printed


def _leaves():
    nums = st.floats(min_value=0.0, max_value=1e9,
                     allow_nan=False, allow_infinity=False).map(abs).map(Num)
    names = st.sampled_from(["t", "x", "alpha"]).map(Var)
    return nums | names


def _extend(children):
    unary = st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs", "gamma"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, a: Call(f, (a,)), unary, children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves(), _extend, max_leaves=10))
def test_random_trees_round_trip(tree):
    assert parse(pretty(tree)) == tree


def test_compile_rhs_binds_alpha_and_keeps_source():
    rhs = compile_rhs("alpha+t*0+x*0", 0.7)
    assert rhs(5.0, 9.0) == pytest.approx(0.7)
    assert rhs.source == "alpha+t*0+x*0"
    with pytest.raises(ExprSyntaxError):
        compile_rhs("1+", 0.5)


POLY8_SOURCE = ("-x + gamma(9)/gamma(9-alpha)*t^(8-alpha)"
                " + 3*gamma(8)/gamma(8-alpha)*t^(7-alpha) + t^8 + 3*t^7")


@pytest.mark.parametrize("alpha", [0.3, 1.5])
def test_benchmark_rhs_matches_registered_problem(alpha):
    from jacobipc.problems import make_problem

    problem = make_problem("poly8", alpha, 1.0)
    rhs = compile_rhs(POLY8_SOURCE, alpha)
    for t in (0.1, 0.35, 0.8):
        for x in (0.5, 1.7):
            assert rhs(t, x) == pytest.approx(problem.rhs(t, x), rel=1e-12)
