import ast
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath import expressions as ex
from curvepath.jets import Jet2

_MATH = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log, "sin": math.sin,
         "cos": math.cos, "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh}


def run_one(node, env):
    """The value of one expression: its one-root program, run on env."""
    return ex.compile_program([node]).run(env)[0]


def test_parse_basic():
    node = ex.parse("1 + q1*q2 / (1 - q1^2)")
    env = {"q1": 0.3, "q2": -0.5}
    expected = 1 + 0.3 * -0.5 / (1 - 0.09)
    assert run_one(node, env) == pytest.approx(expected, rel=1e-15)


def test_double_star_power_alias():
    assert ex.parse("q1**3") == ex.parse("q1^3")


def test_unary_minus_and_functions():
    node = ex.parse("-sin(q1) + exp(-q1)")
    val = run_one(node, {"q1": 0.7})
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
    assert run_one(node, env_j).value == pytest.approx(run_one(node, env_f))


def test_division_by_zero_is_eval_error():
    node = ex.parse("1 / (q1 - 1)")
    with pytest.raises(ex.EvalError):
        run_one(node, {"q1": 1.0})


@pytest.mark.parametrize("source", ["exp(1000) + q1", "(1e300 + q1)^2"])
def test_overflow_is_eval_error(source):
    with pytest.raises(ex.EvalError):
        run_one(ex.parse(source), {"q1": 0.0})


# --- property: the parser reads text as Python's grammar does ------------------

_NAMES = ("x", "y", "q1", "alpha")
_ATOMS = ("0", "x", "1", "y", "2", "q1", "7", "alpha", "0.5", "1e-1", ".75", "2.5e1", "3.",
          "1E+0")
_PREFIXES = ("", "-", "+", "--", "+-")
_OPERATORS = ("+", "-", "*", "/", " + ", " - ", " * ", " / ")
_EXPONENTS = ("", "", "", "") + tuple(op + sign + k for op in ("^", "**")
                                      for sign in ("", "+", "-") for k in "0123")


def source_text(data: bytes, depth: int = 3) -> str:
    """Source text valid in this grammar and in Python's, read off data one
    byte per choice (byte 0, also once data runs out, is the simplest choice):
    sums of products joined by + - * / with and without spaces, unary + and -,
    parentheses, ^ or ** with a signed integer exponent on an atom, and the
    eight functions, with groups nested at most depth deep."""
    choices = iter(data)

    def take(options):
        return options[next(choices, 0) % len(options)]

    def expression(depth):
        text = factor(depth)
        for _ in range(take((0, 1, 2, 3))):
            text += take(_OPERATORS) + factor(depth)
        return text

    def factor(depth):
        kind = take(("atom", "group", "call")) if depth else "atom"
        if kind == "atom":
            base = take(_ATOMS)
        elif kind == "group":
            base = f"({expression(depth - 1)})"
        else:
            base = f"{take(ex.FUNCTION_NAMES)}({expression(depth - 1)})"
        return take(_PREFIXES) + base + take(_EXPONENTS)

    return expression(depth)


class _FloatLiterals(ast.NodeTransformer):
    """Python's tree of a text with every number a float, as this grammar reads
    it: a Python int never rounds or overflows, and its zero has no sign."""

    def visit_Constant(self, node):
        node.value = float(node.value)
        return node


def python_outcome(text, env):
    tree = _FloatLiterals().visit(ast.parse(text.replace("^", "**"), mode="eval"))
    try:
        value = eval(compile(tree, "<text>", "eval"), {"__builtins__": {}}, {**_MATH, **env})
    except (ArithmeticError, ValueError):
        return "fails"
    return struct.pack("<d", value)


def parser_outcome(text, env):
    try:
        value = ex.compile_program([ex.parse(text)]).run(env)[0]
    except ex.EvalError:
        return "fails"
    return struct.pack("<d", value)


@given(st.binary(min_size=24, max_size=96).map(source_text),
       st.tuples(*[st.floats(-2.0, 2.0)] * len(_NAMES)))
@settings(max_examples=500, deadline=None)
def test_parser_agrees_with_python(text, values):
    # the text parsed, compiled and run here, and parsed by Python and run by
    # eval, gives the same bits in a float environment, or fails in both
    env = dict(zip(_NAMES, values))
    assert parser_outcome(text, env) == python_outcome(text, env)


@given(st.text(alphabet="q12+-*/^(). abesinxo²", max_size=40))
@settings(max_examples=200, deadline=None)
def test_parser_is_total(text):
    # fuzzed input either parses or raises a located ParseError, never crashes
    try:
        ex.parse(text)
    except ex.ParseError as err:
        assert err.line >= 1 and err.col >= 1


@pytest.mark.parametrize("make,deepest,col", [
    (lambda n: "(" * n + "q1" + ")" * n, 100, 101),   # the '(' that opens level 101
    (lambda n: "+" * n + "q1", 100, 101),
    (lambda n: "-" * n + "q1", 99, 1),                # the '-' whose Neg is 101 tall
    (lambda n: "sin(" * n + "q1" + ")" * n, 99, 1),
    (lambda n: "q1+" * n + "q1", 99, 300),            # the + that makes the sum 101 tall
    (lambda n: "q1*(" * n + "q1" + ")" * n, 99, 3),
], ids=["parens", "plus", "minus", "calls", "sum", "nested-products"])
def test_nesting_deeper_than_the_bound_is_a_located_parse_error(make, deepest, col):
    """The deepest text parses, and its tree compiles, compares and hashes;
    one level more is a ParseError at the token that goes too deep. The fuzz
    above draws at most 40 characters and never gets there."""
    tree = ex.parse(make(deepest))
    assert len(ex.compile_program([tree]).code) <= ex.MAX_DEPTH
    assert tree == ex.parse(make(deepest)) and hash(tree) == hash(ex.parse(make(deepest)))
    with pytest.raises(ex.ParseError, match=f"nests deeper than {ex.MAX_DEPTH} levels") as err:
        ex.parse(make(deepest + 1))
    assert (err.value.line, err.value.col) == (1, col)


# --- property: the compiled program equals a tree walk, bit for bit -------------

def walk(node, env):
    """Reference: evaluate a tree recursively, as the package once did."""
    if isinstance(node, ex.Num):
        return node.value
    if isinstance(node, ex.Var):
        try:
            return env[node.name]
        except KeyError:
            raise ex.EvalError(f"unknown identifier {node.name!r}") from None
    if isinstance(node, ex.Neg):
        return -walk(node.arg, env)
    if isinstance(node, ex.BinOp):
        left, right = walk(node.left, env), walk(node.right, env)
        try:
            return {"+": lambda: left + right, "-": lambda: left - right,
                    "*": lambda: left * right, "/": lambda: left / right}[node.op]()
        except ZeroDivisionError:
            raise ex.EvalError("division by zero during evaluation") from None
    if isinstance(node, ex.Pow):
        base = walk(node.base, env)
        try:
            return base ** node.exponent
        except ZeroDivisionError:
            raise ex.EvalError("division by zero during evaluation") from None
        except OverflowError:
            raise ex.EvalError("overflow during evaluation") from None
    arg = walk(node.arg, env)
    try:
        if isinstance(arg, Jet2):
            return getattr(arg, node.func)()
        return _MATH[node.func](arg)
    except (ValueError, OverflowError) as exc:
        raise ex.EvalError(str(exc)) from None


def outcome(fn):
    """Bits of a float or Jet2 result, or the EvalError message."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            value = fn()
        except ex.EvalError as exc:
            return "EvalError", str(exc)
    parts = (value.value, value.grad, value.hess) if isinstance(value, Jet2) else (value,)
    return type(value).__name__, [np.asarray(p, dtype=float).tobytes() for p in parts]


def shared_expressions_strategy():
    """Random trees in which some operands are one subtree used twice."""
    leaves = st.one_of(
        st.floats(min_value=-9.5, max_value=9.5, allow_nan=False).map(ex.Num),
        st.sampled_from(["q1", "q2", "alpha"]).map(ex.Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: ex.BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from("+-*/"), children).map(
                lambda t: ex.BinOp(t[0], t[1], ex.Neg(t[1]))),
            st.tuples(st.sampled_from("+*"), children).map(
                lambda t: ex.BinOp(t[0], t[1], t[1])),
            children.map(ex.Neg),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: ex.Pow(t[0], t[1])),
            st.tuples(st.sampled_from(ex.FUNCTION_NAMES), children).map(
                lambda t: ex.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=16)


def environments(q1, q2, alpha):
    """A float environment, a one-point Jet2 one and a three-point Jet2 one."""
    batch = np.array([q1, q2, q1 * q2])
    return ({"q1": q1, "q2": q2, "alpha": alpha},
            {"q1": Jet2.coordinate(q1, 0, 2), "q2": Jet2.coordinate(q2, 1, 2), "alpha": alpha},
            {"q1": Jet2.coordinate(batch, 0, 2), "q2": Jet2.coordinate(batch[::-1], 1, 2),
             "alpha": alpha})


coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(shared_expressions_strategy(), min_size=1, max_size=3),
       coordinate, coordinate, coordinate)
@settings(max_examples=200, deadline=None)
def test_program_matches_the_tree_walk_bit_for_bit(nodes, q1, q2, alpha):
    # the nodes share one program, and the first failing one names its root
    nodes = nodes + [nodes[0]]
    program = ex.compile_program(nodes)
    for env in environments(q1, q2, alpha):
        expected = [outcome(lambda node=node: walk(node, env)) for node in nodes]
        assert [outcome(lambda node=node: run_one(node, env)) for node in nodes] == expected
        failing = [k for k, (kind, _) in enumerate(expected) if kind == "EvalError"]
        try:
            with np.errstate(all="ignore"):
                values = program.run(env)
        except ex.EvalError as exc:
            assert failing and exc.root == failing[0]
            assert ("EvalError", str(exc)) == expected[failing[0]]
        else:
            assert not failing and [outcome(lambda v=v: v) for v in values] == expected


# one divisor, read by the / of three roots: a Jet2 numerator, a float one, a
# float divisor beside it; root 0 divides nothing
SHARED_DIVISOR = ["q1 * q2 + alpha", "q1 / (1 - q1*q1 - q2*q2) + q2 / alpha",
                  "2 / (1 - q1*q1 - q2*q2)", "(q1 * q2) / (1 - q1*q1 - q2*q2)"]


@pytest.mark.parametrize("q1,q2,alpha", [(0.3, -0.4, 1.5), (-0.75, 0.5, -0.25),
                                         (1.0, 0.0, 2.0)])
def test_shared_divisor_matches_the_tree_walk_bit_for_bit(q1, q2, alpha):
    """The program takes one reciprocal of the shared divisor and keeps the
    tree walk's bits; at q = (1, 0) the divisor is zero (in the three-point
    environment at two of its points) and the first root that divides names
    the failure."""
    nodes = [ex.parse(source) for source in SHARED_DIVISOR]
    program = ex.compile_program(nodes)
    divisors = [b for op, _, b in program.code if op == "/"]
    assert len(divisors) == 4 and len(set(divisors)) == 2  # three reads of one slot
    for env in environments(q1, q2, alpha):
        expected = [outcome(lambda node=node: walk(node, env)) for node in nodes]
        if q1 == 1.0:
            assert [kind for kind, _ in expected[1:]] == ["EvalError"] * 3
            with pytest.raises(ex.EvalError) as exc:
                program.run(env)
            assert exc.value.root == 1 and ("EvalError", str(exc.value)) == expected[1]
        else:
            assert [outcome(lambda v=v: v) for v in program.run(env)] == expected


FAILING = ["1 / (q1 - q1)", "alpha / (q2 - q2) + q1", "sqrt(-exp(q1))", "log(q1 - q1)",
           "sqrt(q1) * log(q2)", "q1 + (q2 - q2)^-2", "sin(q1) / (sin(q1) - sin(q1))"]


@pytest.mark.parametrize("source", FAILING)
def test_failures_give_the_tree_walk_message(source):
    node = ex.parse(source)
    for env in environments(-0.5, 0.25, 1.5):
        expected = outcome(lambda: walk(node, env))
        assert expected[0] == "EvalError" and outcome(lambda: run_one(node, env)) == expected
