import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psihilfer import (ExprDomainError, ExprSyntaxError, UnknownIdentifier,
                       lipschitz_estimate, parse)


def test_eval_examples():
    assert parse("-1*y").eval(0.3, 2.0) == -2.0
    assert parse("sin(t)*y + t^2").eval(0.0, 5.0) == 0.0
    assert parse("y*(1-y)").eval(0.1, 0.25) == 0.1875
    assert parse("t+y").eval(1.0, 2.0) == 3.0
    assert parse("ln(t)").eval(1.0, 123.0) == 0.0


def test_precedence():
    assert parse("2+3*4").eval(0, 0) == 14.0
    assert parse("2^3^2").eval(0, 0) == 512.0
    assert parse("-2^2").eval(0, 0) == -4.0
    assert parse("2*3+4").eval(0, 0) == 10.0
    assert parse("2^-1").eval(0, 0) == 0.5


def test_functions():
    assert np.isclose(parse("exp(1)").eval(0, 0), math.e, rtol=1e-15)
    assert np.isclose(parse("sqrt(t)").eval(4.0, 0), 2.0, rtol=1e-15)
    assert np.isclose(parse("gamma(5)").eval(0, 0), 24.0, rtol=1e-12)
    assert np.isclose(parse("pow(2, 10)").eval(0, 0), 1024.0, rtol=1e-15)
    assert parse("abs(-3)").eval(0, 0) == 3.0


def test_division_by_zero():
    with pytest.raises(ExprDomainError):
        parse("1/y").eval(0.5, 0.0)


def test_log_of_nonpositive():
    with pytest.raises(ExprDomainError):
        parse("ln(t)").eval(0.0, 1.0)
    with pytest.raises(ExprDomainError):
        parse("ln(t)").eval(-1.0, 1.0)


def test_zero_to_negative_power():
    with pytest.raises(ExprDomainError):
        parse("t^(-1)").eval(0.0, 1.0)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("1 + * 2")
    assert exc_info.value.offset == 4


def test_overflowing_literal_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("y + 1e400")
    assert exc_info.value.offset == 4
    assert parse("1e308").eval(0.0, 0.0) == 1e308


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("x + 1")
    with pytest.raises(UnknownIdentifier):
        parse("foo(t)")


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_wrong_arity():
    with pytest.raises(ExprSyntaxError):
        parse("pow(2)")
    with pytest.raises(ExprSyntaxError):
        parse("sin(1, 2)")


def test_eval_many_matches_scalar():
    expr = parse("sin(t)*y + t^2/(1+y^2)")
    ts = np.linspace(0.0, 2.0, 23)
    ys = np.linspace(-1.0, 1.0, 23)
    vec = expr.eval_many(ts, ys)
    ref = np.array([expr.eval(t, y) for t, y in zip(ts, ys)])
    assert np.allclose(vec, ref, rtol=1e-15)


def test_eval_many_reports_domain_errors():
    expr = parse("ln(y)")
    with pytest.raises(ExprDomainError):
        expr.eval_many(np.zeros(3), np.array([1.0, 0.5, -1.0]))


def test_tree_lines_cover_every_node_kind():
    assert parse("-pow(t, 2) / y").tree_lines() == [
        "op /", "  neg", "    call pow", "      var t", "      num 2.0",
        "  var y"]


@pytest.mark.parametrize("text,uses_y", [
    ("t^2 - sin(t)", False), ("-y", True), ("pow(t, y)", True),
    ("exp(-(t + 1))", False), ("1 + t*cos(y)", True)])
def test_uses_y_walks_every_operand(text, uses_y):
    assert parse(text).uses_y() is uses_y


def test_print_reparse_roundtrip_simple():
    for text in ("-1*y", "y*(1-y)", "sin(t)*y + t^2", "2^3^2",
                 "pow(t, 2) - gamma(y)", "-(t + -y)"):
        expr = parse(text)
        again = parse(expr.to_string())
        assert again.root == expr.root
        assert parse(again.to_string()).root == again.root


_leaf = st.one_of(
    st.builds(lambda v: f"{v!r}", st.floats(0.0, 10.0, allow_nan=False)),
    st.just("t"), st.just("y"),
)


def _expr_strings(children):
    unary = st.builds(lambda c: f"(-{c})", children)
    binary = st.builds(lambda a, op, b: f"({a} {op} {b})",
                       children, st.sampled_from("+-*/^"), children)
    call = st.builds(lambda f, c: f"{f}({c})",
                     st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]),
                     children)
    return st.one_of(unary, binary, call)


@given(st.recursive(_leaf, _expr_strings, max_leaves=12))
def test_print_reparse_roundtrip_random(text):
    expr = parse(text)
    assert parse(expr.to_string()).root == expr.root


def test_lipschitz_linear_rhs():
    est = lipschitz_estimate(parse("-1*y"), (0.0, 1.0), (-2.0, 2.0))
    assert abs(est - 1.1) < 1e-9


def test_lipschitz_constant_rhs_is_zero():
    assert lipschitz_estimate(parse("3"), (0.0, 1.0), (0.0, 1.0)) == 0.0


def test_lipschitz_logistic_attains_boundary_maximum():
    est = lipschitz_estimate(parse("y*(1-y)"), (0.0, 1.0), (0.0, 1.0))
    assert abs(est - 1.1) < 1e-9


def test_lipschitz_monotone_under_widening():
    expr = parse("y^2")
    narrow = lipschitz_estimate(expr, (0.0, 1.0), (0.0, 1.0))
    wide = lipschitz_estimate(expr, (0.0, 1.0), (0.0, 2.0))
    assert wide >= narrow * (1.0 - 1e-9)


def test_lipschitz_deterministic():
    expr = parse("sin(3*y) + t*y^2")
    a = lipschitz_estimate(expr, (0.0, 2.0), (-1.0, 1.0))
    b = lipschitz_estimate(expr, (0.0, 2.0), (-1.0, 1.0))
    assert a == b
