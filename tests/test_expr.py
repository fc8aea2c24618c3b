import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgve import expr
from sgve.errors import EvalDomainError, ExprSyntaxError, UnknownVariableError
from sgve.expr import BinOp, Call, Neg, Num, Var

BENCH_PAYOFF = "(1+x)*(1+y*z)/(2*(1+x*y)^2)"


def test_benchmark_payoff_parses():
    e = expr.parse(BENCH_PAYOFF, ["x", "y", "z"])
    assert isinstance(e, BinOp) and e.op == "/"


def test_benchmark_payoff_known_points():
    e = expr.parse(BENCH_PAYOFF, ["x", "y", "z"])
    # (1*1)/(2*1^2) at the origin
    assert expr.evaluate(e, {"x": 0.0, "y": 0.0, "z": 1.0}) == 0.5
    # numerator 1.5 * 1.5, denominator 2 * 1.5^2
    assert expr.evaluate(e, {"x": 0.5, "y": 1.0, "z": 0.5}) == 0.5


def test_variable_leaf():
    assert expr.parse("x", ["x"]) == Var("x")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("x + * y", ["x", "y"])
    assert err.value.offset == 4


@pytest.mark.parametrize("text, offset", [
    ("exp x", 4),   # a function name without its parenthesis
    ("log(x", 5),   # an unclosed parenthesis
    ("x)", 1),      # trailing input
])
def test_syntax_error_offset_of_unbalanced_input(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse(text, ["x"])
    assert err.value.offset == offset


def test_unknown_variable_named():
    with pytest.raises(UnknownVariableError) as err:
        expr.parse("x + q", ["x"])
    assert err.value.name == "q"


def test_no_implicit_multiplication():
    # "xy" is a single identifier, never x*y
    with pytest.raises(UnknownVariableError) as err:
        expr.parse("xy", ["x", "y"])
    assert err.value.name == "xy"


@pytest.mark.parametrize("text, offset", [
    ("+".join(["x"] * 1200), 0),        # a left-deep sum 1200 levels deep
    ("(" * 200 + "x" + ")" * 200, None),
    ("1e999", 0),                        # a literal beyond the double range
    ("x + 1e999", 4),
], ids=["long-sum", "nested-parentheses", "huge-literal", "huge-operand"])
def test_parse_raises_only_its_own_errors(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse(text, ["x"])
    if offset is not None:
        assert err.value.offset == offset


def test_long_sums_parse_and_evaluate():
    e = expr.parse("+".join(["x"] * 500), ["x"])
    assert expr.evaluate(e, {"x": 1.0}) == 500.0
    assert expr.to_string(e) == " + ".join(["x"] * 500)
    # equality and repr walk the tree without recursing once per level
    assert expr.parse(expr.to_string(e), ["x"]) == e and repr(e).count("Var") == 500


def test_equal_trees_hash_equal_and_other_types_compare_unequal():
    text = "exp(-x) * (y + 2.5) / log(x^2 + 1)"
    a, b = expr.parse(text, ["x", "y"]), expr.parse(text, ["x", "y"])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, expr.parse("x", ["x"])}) == 2
    # a 500-term sum hashes by the same walk as equality, without recursing
    long = expr.parse("+".join(["x"] * 500), ["x"])
    assert hash(long) == hash(expr.parse(expr.to_string(long), ["x"]))
    # another type, or another node class, is not equal
    assert Var("x").__eq__("x") is NotImplemented
    assert Var("x") != "x" and Num(1.0) != Var("x") and Num(1.0) != 1.0


def test_reserved_names_rejected_as_variables():
    with pytest.raises(ValueError):
        expr.parse("exp", ["exp"])


@pytest.mark.parametrize("text,value", [
    ("exp(0)", 1.0),
    ("log(1)", 0.0),
    ("2^3^2", 512.0),        # right-associative
    ("-2^2", -4.0),          # '^' binds tighter than unary minus
    ("2^-1", 0.5),
    ("(-2)^3", -8.0),        # integer exponent allows a negative base
    ("6/3/2", 1.0),          # left-associative
    ("1 - 2 - 3", -4.0),
    ("2*3+4", 10.0),
    ("2+3*4", 14.0),
    ("--1", 1.0),
    ("1e2 + 1", 101.0),
    (".5*4", 2.0),
])
def test_evaluation_table(text, value):
    assert expr.evaluate(expr.parse(text, []), {}) == value


@pytest.mark.parametrize("text,bindings", [
    ("log(x)", {"x": -1.0}),
    ("log(x)", {"x": 0.0}),
    ("1/x", {"x": 0.0}),
    ("0^x", {"x": -1.0}),
    ("x^0.5", {"x": -2.0}),   # fractional exponent needs a nonnegative base
    ("exp(x)", {"x": 1e9}),   # overflow leaves the double range
    # an infinite intermediate is an error even when the result would be finite
    ("1/(1/(x-x))", {"x": 0.0}),
    ("exp(-1/x)", {"x": 0.0}),
    ("exp(log(x))", {"x": 0.0}),
])
def test_domain_errors(text, bindings):
    e = expr.parse(text, ["x"])
    with pytest.raises(EvalDomainError):
        expr.evaluate(e, bindings)


@pytest.mark.parametrize("text", [
    BENCH_PAYOFF,
    "exp(x) - log(1 + y*z)",
    "(x - y)^2 / (1 + z)",
    "-x^3 + 2^0.5",
    "2",                      # constants take the broadcast shape too
])
def test_array_bindings_match_scalar_evaluation(text):
    e = expr.parse(text, ["x", "y", "z"])
    xs = np.linspace(0.0, 1.0, 7)
    ys = np.linspace(0.0, 2.0, 5)
    grid = expr.evaluate(e, {"x": xs[:, None], "y": ys, "z": 0.5})
    assert grid.shape == (7, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == expr.evaluate(e, {"x": x, "y": y, "z": 0.5})


def test_missing_binding():
    with pytest.raises(UnknownVariableError):
        expr.evaluate(expr.parse("x", ["x"]), {})


def test_eval_deterministic():
    e = expr.parse(BENCH_PAYOFF, ["x", "y", "z"])
    b = {"x": 0.37, "y": 0.81, "z": 0.93}
    assert expr.evaluate(e, b) == expr.evaluate(e, b)


_NAMES = ("x", "y", "z1")


def _exprs(depth: int):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
        st.sampled_from(_NAMES).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.sampled_from(["exp", "log"]).flatmap(
            lambda f: sub.map(lambda a: Call(f, a))),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])),
    )


@given(_exprs(4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_print_parse_round_trip(e):
    # round-trip stability: printing then reparsing is structurally identical,
    # hence evaluation of the reparse is bit-identical by construction
    assert expr.parse(expr.to_string(e), _NAMES) == e


@given(st.text(max_size=30))
@example("1e999")
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parser_never_crashes_unexpectedly(text):
    try:
        expr.parse(text, _NAMES)
    except (ExprSyntaxError, UnknownVariableError):
        pass


def test_nonfinite_constants_rejected():
    with pytest.raises(ValueError):
        Num(float("inf"))
