import math

import pytest
from hypothesis import given, settings, strategies as st

from curvepath import expressions as ex
from curvepath.jets import Jet2


def test_parse_basic():
    node = ex.parse("1 + q1*q2 / (1 - q1^2)")
    env = {"q1": 0.3, "q2": -0.5}
    expected = 1 + 0.3 * -0.5 / (1 - 0.09)
    assert ex.evaluate(node, env) == pytest.approx(expected, rel=1e-15)


def test_double_star_power_alias():
    assert ex.parse("q1**3") == ex.parse("q1^3")


def test_unary_minus_and_functions():
    node = ex.parse("-sin(q1) + exp(-q1)")
    val = ex.evaluate(node, {"q1": 0.7})
    assert val == pytest.approx(-math.sin(0.7) + math.exp(-0.7), rel=1e-15)


def test_parse_error_has_location():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + \n  (2 *")
    assert err.value.line == 2


def test_digit_float_cannot_read_is_a_located_parse_error():
    # '²' is a str.isdigit() character that float() rejects
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + ²")
    assert (err.value.line, err.value.col) == (1, 5)


def test_unknown_function_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("foo(q1)")


def test_fractional_exponent_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("q1^1.5")


def test_jet_evaluation_matches_scalar():
    node = ex.parse("sqrt(1 + q1^2) * cos(q2)")
    env_f = {"q1": 0.4, "q2": -0.8}
    env_j = {"q1": Jet2.coordinate(0.4, 0, 2), "q2": Jet2.coordinate(-0.8, 1, 2)}
    assert ex.evaluate(node, env_j).value == pytest.approx(ex.evaluate(node, env_f))


def test_division_by_zero_is_eval_error():
    node = ex.parse("1 / (q1 - 1)")
    with pytest.raises(ex.EvalError):
        ex.evaluate(node, {"q1": 1.0})


@pytest.mark.parametrize("source", ["exp(1000) + q1", "(1e300 + q1)^2"])
def test_overflow_is_eval_error(source):
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse(source), {"q1": 0.0})


# --- property: print/parse round-trip -----------------------------------------

def expressions_strategy():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(ex.Num),
        st.sampled_from(["q1", "q2", "alpha"]).map(ex.Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: ex.BinOp(t[0], t[1], t[2])),
            children.map(ex.Neg),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: ex.Pow(t[0], t[1])),
            st.tuples(st.sampled_from(ex.FUNCTION_NAMES), children).map(
                lambda t: ex.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(expressions_strategy())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(node):
    assert ex.parse(ex.to_string(node)) == node


@given(st.text(alphabet="q12+-*/^(). abesinxo²", max_size=40))
@settings(max_examples=200, deadline=None)
def test_parser_is_total(text):
    # fuzzed input either parses or raises a located ParseError, never crashes
    try:
        ex.parse(text)
    except ex.ParseError as err:
        assert err.line >= 1 and err.col >= 1
