"""Closed expression grammar for metric components.

Supported syntax: coordinate/parameter identifiers, numeric literals,
binary + - * /, unary minus, power with integer exponent (^ or **), and
the functions sqrt, exp, log, sin, cos, tan, sinh, cosh. The grammar is
deliberately tiny so that evaluation is bit-reproducible; fractional
powers are written via sqrt composition.

Parsing is total: any input either parses or raises ParseError with a
line/column location, never an uncaught crash. Text that nests deeper than
MAX_DEPTH is a ParseError too.

Evaluation runs a compiled Program: straight-line code over the distinct
subtrees of a list of expressions, so a repeated subtree is computed once. A
MetricSpec compiles its components once, when it is constructed, and every
evaluation of the spec runs that shared program.
"""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .jets import JET_FUNCTIONS, Jet2

__all__ = [
    "Expression", "Num", "Var", "Neg", "BinOp", "Pow", "Call",
    "ParseError", "EvalError", "Program", "parse", "compile_program",
]

FUNCTION_NAMES = tuple(sorted(JET_FUNCTIONS))

_MATH_FUNCTIONS = {name: getattr(math, name) for name in FUNCTION_NAMES}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    root: int | None = None  # set by Program.run and compile_program: the expression that failed


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Pow, Call]


# --- tokenizer -------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # num ident op lparen rparen end
    text: str
    line: int
    col: int


_ONE_CHARACTER_TOKENS = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen"}


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(_Token("num", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "*" and i + 1 < n and source[i + 1] == "*":
            tokens.append(_Token("op", "^", line, col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHARACTER_TOKENS:
            tokens.append(_Token(_ONE_CHARACTER_TOKENS[c], c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- recursive descent parser ----------------------------------------------

MAX_DEPTH = 100
"""At most this many parentheses and signs open at once, and a parse tree at
most this many nodes tall; deeper text is a ParseError at the token that goes
too deep, so no parsed tree reaches Python's recursion limit when it is
compiled, compared or hashed."""


class _Parser:
    """Each parse_ method returns the tree it read and the tree's height."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # parentheses and signs around the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def deeper(self, depth: int, tok: _Token) -> int:
        """depth, if it is at most MAX_DEPTH, else a ParseError at tok."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        return depth

    def parse_expression(self, ops: str = "+-") -> tuple[Expression, int]:
        """Terms joined by + and -; with ops "*/", a term: factors joined by * and /."""
        node, height = self.parse_expression("*/") if ops == "+-" else self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in ops:
            tok = self.next()
            right, h = self.parse_expression("*/") if ops == "+-" else self.parse_unary()
            node, height = BinOp(tok.text, node, right), self.deeper(max(height, h) + 1, tok)
        return node, height

    def parse_unary(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind != "op" or tok.text not in "+-":
            return self.parse_power()
        self.next()
        self.open = self.deeper(self.open + 1, tok)
        node, height = self.parse_unary()
        self.open -= 1
        return (Neg(node), self.deeper(height + 1, tok)) if tok.text == "-" else (node, height)

    def parse_power(self) -> tuple[Expression, int]:
        base, height = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.next()
            base, height = Pow(base, self.parse_int_exponent()), self.deeper(height + 1, tok)
        return base, height

    def parse_int_exponent(self) -> int:
        sign = 1
        if self.peek().kind == "op" and self.peek().text in "+-":
            if self.next().text == "-":
                sign = -1
        tok = self.peek()
        if tok.kind != "num":
            raise self.fail("expected integer exponent")
        self.next()
        try:
            value = int(tok.text)
        except ValueError:
            raise ParseError("exponent must be an integer", tok.line, tok.col) from None
        return sign * value

    def parse_atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            try:
                return Num(float(tok.text)), 1
            except ValueError:      # a digit float() does not read, such as '²'
                raise ParseError(f"invalid number {tok.text!r}", tok.line, tok.col) from None
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col)
                node, height = self.parse_group()
                return Call(tok.text, node), self.deeper(height + 1, tok)
            return Var(tok.text), 1
        if tok.kind == "lparen":
            return self.parse_group()
        raise self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input")

    def parse_group(self) -> tuple[Expression, int]:
        """The expression in parentheses, from its '(' on."""
        self.open = self.deeper(self.open + 1, self.next())
        node = self.parse_expression()
        if self.peek().kind != "rparen":
            raise self.fail("expected ')'")
        self.next()
        self.open -= 1
        return node


def parse(source: str) -> Expression:
    parser = _Parser(_tokenize(source))
    node, _ = parser.parse_expression()
    if parser.peek().kind != "end":
        raise parser.fail(f"trailing input {parser.peek().text!r}")
    return node


# --- compilation and evaluation ---------------------------------------------

@dataclass(frozen=True)
class Program:
    """Straight-line code over the distinct subtrees of a list of expressions.

    Instruction k sets slot k: ("num", value, None), ("var", name, None),
    ("neg", slot, None), (op, slot, slot) for op in + - * /, ("^", slot,
    exponent) or ("call", slot, function). Instructions keep the tree-walk
    post-order of each subtree's first occurrence. roots[e] is the slot of
    expression e; owners[k] is the first expression holding instruction k.
    """

    code: tuple[tuple[str, object, object], ...]
    roots: tuple[int, ...]
    owners: tuple[int, ...]

    def run(self, env: Mapping[str, object]) -> list:
        """Each expression's value over floats or Jet2, depending on what env
        holds. Literals stay plain floats; Jet2 arithmetic takes them as
        constants. No operation changes an operand, so a slot can feed many.
        A Jet2 divisor's reciprocal is taken once per run, however many
        divisions read its slot."""
        values: list = []
        reciprocals: dict[int, Jet2] = {}  # divisor slot -> its reciprocal
        for k, (op, a, b) in enumerate(self.code):
            try:
                values.append(_execute(op, a, b, values, env, reciprocals))
            except EvalError as exc:
                exc.root = self.owners[k]
                raise
        return [values[slot] for slot in self.roots]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _execute(op: str, a, b, values: list, env: Mapping[str, object],
             reciprocals: dict[int, Jet2]):
    if op == "num":
        return a
    if op == "var":
        try:
            return env[a]
        except KeyError:
            raise EvalError(f"unknown identifier {a!r}") from None
    if op == "neg":
        return -values[a]
    if op == "call":
        arg = values[a]
        try:
            return (JET_FUNCTIONS if isinstance(arg, Jet2) else _MATH_FUNCTIONS)[b](arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(str(exc)) from None
    if op == "^":
        try:
            return values[a] ** b
        except ZeroDivisionError:
            raise EvalError("division by zero during evaluation") from None
        except OverflowError:
            raise EvalError("overflow during evaluation") from None
    try:
        if op == "/" and isinstance(values[b], Jet2):
            # Jet2 division is x * y._reciprocal(), so sharing y's reciprocal keeps the bits
            if b not in reciprocals:
                reciprocals[b] = values[b]._reciprocal()
            return values[a] * reciprocals[b]
        return _BINARY[op](values[a], values[b])
    except ZeroDivisionError:
        raise EvalError("division by zero during evaluation") from None


def compile_program(nodes: Sequence[Expression]) -> Program:
    """The program of nodes, one root each; equal subtrees share a slot. Each
    node object is walked once, however many trees share it. A node deeper
    than MAX_DEPTH is an EvalError whose root is its expression."""
    code: list[tuple[str, object, object]] = []
    owners: list[int] = []
    slots: dict[tuple, int] = {}
    walked: dict[int, tuple] = {}  # id(node) -> (node, kept so the id stays its own; slot; height)

    def visit(node: Expression, owner: int, depth: int = 1) -> tuple[int, int]:
        """The slot and the height of node, reached depth levels down."""
        _, slot, height = walked.get(id(node), (None, None, 1))
        if depth + height - 1 > MAX_DEPTH:  # a shared subtree is as tall as when first walked
            error = EvalError(f"expression nests deeper than {MAX_DEPTH} levels")
            error.root = owner
            raise error
        if slot is not None:
            return slot, height
        height = 0  # of the tallest child
        if isinstance(node, Num):
            v = node.value
            instruction = ("num", v, None)
            # keyed by its bits, so that 0.0 and -0.0 are never merged
            key = ("num", type(v), struct.pack("<d", v))
        elif isinstance(node, Var):
            key = instruction = ("var", node.name, None)
        elif isinstance(node, Neg):
            arg, height = visit(node.arg, owner, depth + 1)
            key = instruction = ("neg", arg, None)
        elif isinstance(node, BinOp):
            (left, hl), (right, hr) = (visit(x, owner, depth + 1) for x in (node.left, node.right))
            key = instruction = (node.op, left, right)
            height = max(hl, hr)
        elif isinstance(node, Pow):
            base, height = visit(node.base, owner, depth + 1)
            key = instruction = ("^", base, node.exponent)
        elif isinstance(node, Call):
            arg, height = visit(node.arg, owner, depth + 1)
            key = instruction = ("call", arg, node.func)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if key not in slots:
            slots[key] = len(code)
            code.append(instruction)
            owners.append(owner)
        walked[id(node)] = node, slots[key], height + 1
        return slots[key], height + 1

    roots = tuple(visit(node, owner)[0] for owner, node in enumerate(nodes))
    return Program(tuple(code), roots, tuple(owners))
