import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psihilfer import (DomainViolation, ExprDomainError, ExprSyntaxError,
                       GridMismatch, UnknownIdentifier, lipschitz_estimate,
                       parse)
from psihilfer.rhs_expr import (_FORMS, _MASKING, _OPS, MAX_DEPTH, Num, Var,
                                _children)


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


@pytest.mark.parametrize("text,printed", [
    ("-y^2", "(-(y ^ 2.0))"),
    ("2^-y^2", "(2.0 ^ (-(y ^ 2.0)))"),
    ("y^t^2", "(y ^ (t ^ 2.0))"),
    ("y-t-2", "((y - t) - 2.0)"),
    ("y/t/2", "((y / t) / 2.0)"),
    ("-y*2", "((-y) * 2.0)"),
    ("y/-t", "(y / (-t))"),
    ("y-t*2^-y", "(y - (t * (2.0 ^ (-y))))"),
    ("t^-2*y", "((t ^ (-2.0)) * y)"),
    ("--y", "(-(-y))"),
    ("pow(y,2)^-t", "(pow(y, 2.0) ^ (-t))"),
])
def test_precedence_and_associativity_of_the_tree(text, printed):
    assert parse(text).to_string() == printed


def test_binding_powers_live_in_the_table():
    powered = {key for key, row in _OPS.items() if row[3] is not None}
    assert powered == {"+", "-", "*", "/", "^", "neg"}
    assert {key for key, row in _OPS.items() if row[2] == "infix"} == (
        powered - {"neg"})
    # equal left and right powers: the right operand may hold the same
    # operator unparenthesised
    assert {key for key in powered - {"neg"}
            if _OPS[key][3][0] == _OPS[key][3][1]} == {"^"}


# text of a tree exactly k nodes deep, and the offset at which one level
# deeper fails
_NESTINGS = {
    "unary minus": (lambda k: "-" * (k - 1) + "y", lambda k: k - 1),
    "sum": (lambda k: "+".join(["y"] * k), lambda k: 0),
    "power": (lambda k: "y^" * (k - 1) + "y", lambda k: 2 * (k - 1)),
    "call": (lambda k: "sin(" * (k - 1) + "y" + ")" * (k - 1),
             lambda k: 4 * (k - 1)),
    # parentheses add no node but count as a level
    "parentheses": (lambda k: "(" * (k - 1) + "y" + ")" * (k - 1),
                    lambda k: k - 1),
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_bound(shape):
    text, offset = _NESTINGS[shape]
    expr = parse(text(MAX_DEPTH))
    assert np.isfinite(expr.eval_many(np.full(3, 0.5), np.full(3, 0.5))).all()
    assert math.isfinite(expr.eval(0.5, 0.5))
    assert expr.uses_y()
    assert expr.to_string()
    assert len(expr.tree_lines()) >= 1
    assert expr.bind(np.full(3, 0.5)).tree_lines() == expr.tree_lines()
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse(text(MAX_DEPTH + 1))
    assert str(exc_info.value) == (
        f"expression nests deeper than {MAX_DEPTH} levels "
        f"(at offset {offset(MAX_DEPTH + 1)})")


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


@pytest.mark.parametrize("text,error,message,offset", [
    ("y $", ExprSyntaxError, "unexpected character '$'", 2),
    ("y y", ExprSyntaxError, "unexpected trailing token 'y'", 2),
    ("y)", ExprSyntaxError, "unexpected trailing token ')'", 1),
    ("(y", ExprSyntaxError, "expected ')'", 2),
    ("sin(y", ExprSyntaxError, "expected ',' or ')'", 5),
    ("pow(y 2)", ExprSyntaxError, "expected ',' or ')'", 6),
    # unary minus is an operator, not a function that can be called
    ("neg(y)", UnknownIdentifier, "unknown function 'neg'", 0),
])
def test_syntax_error_message_and_offset(text, error, message, offset):
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse(text)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == f"{message} (at offset {offset})"
    assert exc_info.value.offset == offset


def test_trailing_blanks_are_ignored():
    assert parse("y  ").root == parse("y").root


@pytest.mark.parametrize("text,y,name", [
    ("ln(y)", 0.0, "function 'ln'"), ("-y", np.inf, "unary minus")])
def test_domain_error_names_the_operation(text, y, name):
    with pytest.raises(ExprDomainError) as exc_info:
        parse(text).eval(0.5, y)
    assert str(exc_info.value) == f"undefined value in {name} (node at offset 0)"


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


# a non-finite intermediate that a later operation maps to a finite value:
# the error still names the operation that produced it
@pytest.mark.parametrize("text,y,op,offset", [
    ("exp(-1/y)", 0.0, "/", 6), ("1/(1/y)", 0.0, "/", 4),
    ("pow(2, -1/y)", 0.0, "/", 9), ("t^(1/y)", 0.0, "/", 4),
    ("exp(-y^2)", 1e200, "^", 6),
])
def test_masked_intermediate_keeps_its_node(text, y, op, offset):
    expr = parse(text)
    for call in (lambda: expr.eval(0.5, y),
                 lambda: expr.eval_many(np.array([0.5, 0.5]), np.array([1.0, y]))):
        with pytest.raises(ExprDomainError) as exc_info:
            call()
        assert str(exc_info.value) == (
            f"undefined value in operator {op!r} (node at offset {offset})")
        assert exc_info.value.offset == offset


@pytest.mark.parametrize("text", ["y", "t", "2", "sin(t)", "y + 2*t"])
def test_eval_many_never_hands_back_its_input(text):
    t = np.linspace(0.0, 1.0, 5)
    y = np.linspace(1.0, 2.0, 5)
    expected = parse(text).eval_many(t, y)
    out = parse(text).eval_many(t, y)
    out[:] = -7.0
    assert np.array_equal(t, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(y, np.linspace(1.0, 2.0, 5))
    # nor a value the bound expression holds: writing to one result
    # leaves the next unchanged
    bound = parse(text).bind(t)
    out = bound.eval_many(t, y)
    assert out.flags.writeable
    out[:] = -7.0
    assert np.array_equal(bound.eval_many(t, y), expected)
    assert np.array_equal(t, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("text", ["y", "t", "2", "sin(t)*y"])
def test_eval_returns_a_python_float(text):
    assert type(parse(text).eval(0.5, 2.0)) is float


_SPECIAL = (np.inf, -np.inf, np.nan)
_OPERANDS = (0.0, -0.0, 5e-324, 0.5, 1.0, -1.0, 2.0, -2.5, 1e308, -1e308,
             *_SPECIAL)


def _entries():
    """(key, arity, numpy function) of every operator and function."""
    return ((key, arity, fn) for key, (arity, fn, _, _) in _OPS.items())


def test_table_arities_match_the_functions():
    for key, arity, fn in _entries():
        assert fn.nin == arity, key
    assert _MASKING <= _OPS.keys()


def test_only_masking_entries_can_hide_a_non_finite_operand():
    # the one-pass evaluator checks operands only at _MASKING entries; any
    # other entry must pass a non-finite operand on as a non-finite value
    for key, arity, fn in _entries():
        hidden = []
        for args in itertools.product(_OPERANDS, repeat=arity):
            if all(np.isfinite(args)):
                continue
            with np.errstate(all="ignore"):
                out = fn(*(np.array([a]) for a in args))
            if np.isfinite(out).all():
                hidden.append(args)
        assert bool(hidden) == (key in _MASKING), (key, hidden[:3])


def _reference_eval(node, t, y):
    """Evaluation with a finiteness check after every operation."""
    if isinstance(node, Num):
        return np.full(np.shape(t), node.value)
    if isinstance(node, Var):
        return np.asarray(t if node.name == "t" else y, dtype=float)
    _, fn, form, _ = _OPS[node.key]
    args = [_reference_eval(child, t, y) for child in _children(node)]
    with np.errstate(all="ignore"):
        out = fn(*args)
    if not np.all(np.isfinite(out)):
        raise ExprDomainError(
            f"undefined value in {_FORMS[form][1].format(key=node.key)}",
            node.offset
        )
    return out


def _outcome(evaluate):
    try:
        out = evaluate()
    except ExprDomainError as exc:
        return type(exc), str(exc), exc.offset
    return out.shape, out.tobytes()


_any_leaf = st.one_of(
    st.builds(repr, st.floats(0.0, 1e308) | st.sampled_from([5e-324, 700.0])),
    st.just("t"), st.just("y"),
)


def _any_expr(children):
    # one strategy per table entry, written in the syntax of its form
    text = {"infix": lambda key, a, b: f"({a} {key} {b})",
            "prefix": lambda key, a: f"(-{a})",
            "call": lambda key, *args: f"{key}({', '.join(args)})"}
    return st.one_of(*(st.builds(text[form], st.just(key), *([children] * arity))
                       for key, (arity, _, form, _) in _OPS.items()))


@settings(max_examples=400, deadline=None)
@given(st.recursive(_any_leaf, _any_expr, max_leaves=10),
       st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.floats()),
                min_size=1, max_size=4))
def test_eval_many_matches_the_checked_reference(text, points):
    # each point is (t, y_1, y_2, y_3): one binding serves three y
    expr = parse(text)
    t = np.array([p[0] for p in points])
    bound = expr.bind(t)
    for k in (1, 2, 3):
        y = np.array([p[k] for p in points])
        reference = _outcome(lambda: _reference_eval(expr.root, t, y))
        assert _outcome(lambda: expr.eval_many(t, y)) == reference
        assert _outcome(lambda: bound.eval_many(t, y)) == reference


# a subtree free of y that is not finite (held, or raising when it is
# walked) names itself only when no node before it in post-order fails
@pytest.mark.parametrize("text,y,name,offset", [
    ("ln(y) + 1e308*10", -1.0, "function 'ln'", 0),
    ("ln(y) + 1e308*10", 1.0, "operator '*'", 13),
    ("ln(y) + exp(-(1/0))", -1.0, "function 'ln'", 0),
    ("ln(y) + exp(-(1/0))", 1.0, "operator '/'", 15),
    ("y^(1/0)", 0.5, "operator '/'", 4),
    ("(1e308*10)^y + ln(y)", 0.0, "operator '*'", 6),
])
def test_bound_subtree_errors_keep_post_order(text, y, name, offset):
    expr = parse(text)
    t = np.array([0.5, 0.5])
    y = np.array([1.0, y])
    bound = expr.bind(t)
    for evaluate in (lambda: expr.eval_many(t, y), lambda: bound.eval_many(t, y)):
        with pytest.raises(ExprDomainError) as exc_info:
            evaluate()
        assert str(exc_info.value) == (
            f"undefined value in {name} (node at offset {offset})")
    assert (_outcome(lambda: bound.eval_many(t, y))
            == _outcome(lambda: _reference_eval(expr.root, t, y)))


def test_bound_expression_evaluates_only_where_it_was_bound():
    t = np.array([0.0, 0.25, 0.5])
    bound = parse("sin(t)*y + 1/(1 + t)").bind(t)
    assert np.array_equal(bound.at, t)
    y = np.ones(3)
    assert np.array_equal(bound.eval_many(t.copy(), y),
                          parse("sin(t)*y + 1/(1 + t)").eval_many(t, y))
    # equality is bitwise: -0.0 is another node than 0.0
    for other in (t + 1.0, t[1:], np.array([-0.0, 0.25, 0.5])):
        with pytest.raises(GridMismatch):
            bound.eval_many(other, np.ones_like(other))
    scalar = parse("t*y").bind(0.5)
    assert scalar.eval(0.5, 2.0) == 1.0
    with pytest.raises(GridMismatch):
        scalar.eval(0.25, 2.0)


@pytest.mark.parametrize("text", [
    "sin(t)*y + t^2", "y", "t", "2", "-pow(t, 2) / y", "exp(-(1/0)) + y"])
def test_bound_expression_prints_as_its_source(text):
    expr = parse(text)
    bound = expr.bind(np.linspace(0.0, 1.0, 4))
    assert bound.to_string() == expr.to_string()
    assert bound.tree_lines() == expr.tree_lines()
    assert bound.uses_y() is expr.uses_y()
    assert bound.bind(np.zeros(2)).to_string() == expr.to_string()


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


@pytest.mark.parametrize("t_range, y_range", [
    ((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, np.inf)), ((0.0, 1.0), (-1e308, 1e308)),
    ((0.0, np.nan), (0.0, 1.0)), ((-np.inf, 0.0), (0.0, 1.0))])
def test_lipschitz_rejects_an_empty_or_non_finite_range(t_range, y_range):
    with pytest.raises(DomainViolation, match="ranges must be nonempty and finite"):
        lipschitz_estimate(parse("-1*y"), t_range, y_range)
