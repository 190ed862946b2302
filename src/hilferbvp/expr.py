"""A tiny scalar expression language in the variables t and z.

Problem files carry the right-hand side f(t, z) and the growth bound
rho(t) as plain strings; this module parses them once and evaluates the
resulting trees in double precision, at one point (evaluate) or over
whole vectors of points (compile_expr). Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?            # '^' right-associative
    base   := number | 't' | 'z' | ident '(' expr ')' | '(' expr ')' | '-' base

Unary minus binds tighter than the base of '^', so "-2^2" is (-2)^2.
Known functions: sin, cos, abs, exp, log, sqrt. The tokens come from one
regular expression, _TOKEN: a number (1, 1., .5, 1e-3, 2.5E+2), a name,
or any other single character, each after optional whitespace, so
whitespace may appear between any two tokens but not inside one.
"""

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Expr", "Num", "Var", "Unary", "Binary", "parse", "evaluate", "compile_expr", "pretty",
]

_FUNCTIONS = ("sin", "cos", "abs", "exp", "log", "sqrt")
# the functions evaluate and the compiled passes take from math
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_VARIABLES = ("t", "z")


@dataclass(frozen=True, slots=True)
class Expr:
    """Base node. Position is the character offset in the original source
    (-1 for trees built programmatically); positions never affect equality."""

    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str = "t"


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str = "neg"
    arg: Expr = None


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str = "+"
    lhs: Expr = None
    rhs: Expr = None


# One token after optional whitespace: a number, a name, any other single
# character, or the end of input (no group matches). A '.' that starts no
# number is an "op" token, which parse_base reports as "expected a number".
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)|(?P<op>\S)|\Z)"
)


class _Parser:
    """Recursive descent over the tokens of _TOKEN; `kind`, `text` and
    `start` describe the current token (None, "" and the end offset at
    the end of input)."""

    def __init__(self, source: str):
        self.src, self.end = source, 0
        self.advance()

    def advance(self):
        m = _TOKEN.match(self.src, self.end)
        self.kind, self.end = m.lastgroup, m.end()
        self.text = m[self.kind] if self.kind else ""
        self.start = self.end - len(self.text)

    def error(self, expected):
        raise ParseError(f"expected {expected}", self.start, expected)

    def expect(self, ch):
        if self.text != ch:
            self.error(f"'{ch}'")
        self.advance()

    def chain(self, ops, operand):
        """Left-associative operand (op operand)* for op in ops."""
        node = operand()
        while self.text in ops:
            op, here = self.text, self.start
            self.advance()
            node = Binary(op=op, lhs=node, rhs=operand(), pos=here)
        return node

    def parse_expr(self):
        return self.chain(("+", "-"), self.parse_term)

    def parse_term(self):
        return self.chain(("*", "/"), self.parse_factor)

    def parse_factor(self):
        node = self.parse_base()
        if self.text != "^":
            return node
        here = self.start
        self.advance()
        return Binary(op="^", lhs=node, rhs=self.parse_factor(), pos=here)  # right-associative

    def parse_base(self):
        kind, text, here = self.kind, self.text, self.start
        if kind == "name" and text not in _VARIABLES + _FUNCTIONS:
            raise ParseError(
                f"unknown identifier '{text}' (variables are t, z; functions are "
                f"{', '.join(_FUNCTIONS)})", here, "identifier"
            )
        if kind not in ("number", "name") and text not in ("-", "("):
            self.error("a number" if text == "." else "a number, variable, function call or '('")
        self.advance()
        if kind == "number":
            value = float(text)
            if math.isinf(value):
                # pretty would render it as "inf", which does not parse
                raise ParseError(f"number {text} overflows a double", here, "a finite number")
            return Num(value=value, pos=here)
        if text in _VARIABLES:
            return Var(name=text, pos=here)
        if text == "-":
            return Unary(op="neg", arg=self.parse_base(), pos=here)
        if text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        self.expect("(")
        arg = self.parse_expr()
        self.expect(")")
        return Unary(op=text, arg=arg, pos=here)


def parse(source: str) -> Expr:
    """Parse an expression string into an immutable tree.

    Raises ParseError (with character offset) on empty input, unknown
    identifiers, unbalanced parentheses, trailing garbage or a number
    literal that overflows a double.
    """
    if not isinstance(source, str):
        raise ParseError("source must be a string", 0)
    p = _Parser(source)
    if p.kind is None:
        raise ParseError("empty input", p.start, "an expression")
    node = p.parse_expr()
    if p.kind is not None:
        raise ParseError(f"trailing garbage {source[p.start:]!r}", p.start, "end of input")
    return node


def evaluate(e: Expr, t: float, z: float) -> float:
    """Evaluate the tree at (t, z).

    These checks raise EvalError carrying the node position: division by
    zero, log of a non-positive and sqrt of a negative value, sin and cos
    of +-inf, overflow in exp, and a power that is a pole (0 to a negative
    exponent), NaN (a negative base with a non-integer exponent) or an
    overflow from finite operands. Nothing else is checked: overflow in
    + - * and inf - inf pass through as inf and NaN.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else z
    if isinstance(e, Unary):
        v = evaluate(e.arg, t, z)
        op = e.op
        if op == "neg":
            return -v
        if op == "abs":
            return abs(v)
        if op not in _MATH:
            raise EvalError(f"unknown function {op!r}", e.pos)
        if op == "log" and v <= 0.0:
            raise EvalError(f"log of non-positive value {v!r}", e.pos)
        if op == "sqrt" and v < 0.0:
            raise EvalError(f"sqrt of negative value {v!r}", e.pos)
        try:
            return _MATH[op](v)
        except OverflowError:
            raise EvalError(f"overflow in {op}({v!r})", e.pos) from None
        except ValueError:  # sin/cos of +-inf
            raise EvalError(f"{op} of {v!r} is undefined", e.pos) from None
    if isinstance(e, Binary):
        x = evaluate(e.lhs, t, z)
        y = evaluate(e.rhs, t, z)
        op = e.op
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "/":
            if y == 0.0:
                raise EvalError("division by zero", e.pos)
            return x / y
        if op == "^":
            try:
                r = math.pow(x, y)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"invalid power {x!r}^{y!r}: {exc}", e.pos) from None
            if math.isnan(r):
                raise EvalError(f"invalid power {x!r}^{y!r}", e.pos)
            return r
        raise EvalError(f"unknown operator {op!r}", e.pos)
    raise EvalError(f"malformed node {e!r}")


def compile_expr(e: Expr, t):
    """A callable z -> array that takes a float64 array of the length of
    the nodes t and gives evaluate(e, t[i], z[i]) at every i, bit for bit.

    The tree is compiled once, against a copy of t, into one function per
    operator over whole vectors. A subtree without a variable is a
    constant, evaluate's value of it, and a subtree that reads t only is
    an array over the nodes; both are computed here, once, so a pass
    computes only the subtrees that read z (any variable name but t, as
    in evaluate). neg, abs and + - * / are numpy array arithmetic, which
    rounds as the same operations on Python floats do. sin, cos, exp,
    log, sqrt and every '^' map evaluate's math function over the
    operand's Python floats, so they make evaluate's libm calls. The fast
    path checks only a zero divisor and a NaN power; the math calls raise
    ArithmeticError or ValueError on exactly the other inputs where
    evaluate raises EvalError, and + - * overflow and form NaN silently,
    as on floats (numpy's warnings are off here and in the pass). An
    unknown operator, a malformed node, or a constant or t-only subtree
    that raises here compiles to a function that raises ValueError. When
    anything in the pass raises, the whole pass is evaluate's, point by
    point in index order: the first point where evaluate raises raises
    that EvalError, message and pos, with its index in the attribute
    index, so evaluate alone holds the domain rules."""
    t = np.array(t, dtype=float)
    with np.errstate(all="ignore"):
        run = _vector(e, t)
    if run is _read_z:  # a copy, not the argument itself
        run = np.copy
    elif not callable(run):  # a constant or an array over t: a new array on every pass
        values = np.full(len(t), run, dtype=float)
        run = lambda z: values.copy()

    def compiled(z):
        try:
            with np.errstate(all="ignore"):
                return run(z)
        except (ArithmeticError, ValueError):
            return _point_by_point(e, t, z)

    return compiled


def _point_by_point(e, t, z):
    out = np.empty(len(t))
    for i, (ti, zi) in enumerate(zip(t.tolist(), z.tolist())):
        try:
            out[i] = evaluate(e, ti, zi)
        except EvalError as exc:
            exc.index = i
            raise
    return out


def _defer(z):
    raise ValueError("evaluate reports this node")


def _read_z(z):
    return z


def _floats(x, n):
    """An operand's Python floats: an array's, or a constant's n times."""
    return x.tolist() if isinstance(x, np.ndarray) else repeat(x, n)


def _mapped(fn):
    return lambda x: np.fromiter(map(fn, x.tolist()), float, len(x))


def _divide(x, y):
    if not (y.all() if isinstance(y, np.ndarray) else y):  # a constant is a float
        raise ZeroDivisionError("division by zero")
    return x / y


def _power(x, y):
    n = len(x) if isinstance(x, np.ndarray) else len(y)
    r = np.fromiter(map(math.pow, _floats(x, n), _floats(y, n)), float, n)
    if math.isnan(r.dot(r)):  # a sum of squares, >= 0 or inf: NaN exactly where an r_i is
        raise ValueError("NaN power")
    return r


_UNARY = {"neg": operator.neg, "abs": abs, **{op: _mapped(fn) for op, fn in _MATH.items()}}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}


def _vector(e, t):
    """How a parent reads e over the nodes t: the value of a subtree
    without a variable, the array of one that reads t only, or else a
    function z -> array. A constant or t-only subtree that raises here
    is the function that defers to evaluate."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else _read_z
    if isinstance(e, Unary):
        args, fn = [e.arg], _UNARY.get(e.op)
    elif isinstance(e, Binary):
        args, fn = [e.lhs, e.rhs], _BINARY.get(e.op)
    else:
        return _defer
    kids = [_vector(a, t) for a in args]
    if not any(callable(k) or isinstance(k, np.ndarray) for k in kids):
        try:
            return evaluate(e, 0.0, 0.0)
        except EvalError:
            return _defer
    if fn is None:
        return _defer
    if not any(map(callable, kids)):  # t only
        try:
            return fn(*kids)
        except (ArithmeticError, ValueError):
            return _defer
    if len(kids) == 1:
        (x,) = kids
        return lambda z: fn(x(z))
    f, g = (k if callable(k) else (lambda z, c=k: c) for k in kids)
    return lambda z: fn(f(z), g(z))


def variables_used(e: Expr):
    """Set of variable names appearing in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return variables_used(e.arg)
    if isinstance(e, Binary):
        return variables_used(e.lhs) | variables_used(e.rhs)
    return set()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def pretty(e: Expr) -> str:
    """Render a parsed tree back to source text that reparses to an equal tree."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            # '-' binds tighter than any binary operator's operand slot
            inner = _render(e.arg, 4)
            text = "-" + inner
            return f"({text})" if parent_prec >= 4 else text
        return f"{e.op}({_render(e.arg, 0)})"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        if e.op == "^":
            # right-associative: parenthesize a nested '^' on the left
            lhs = _render(e.lhs, prec + 1)
            rhs = _render(e.rhs, prec)
        else:
            lhs = _render(e.lhs, prec)
            rhs = _render(e.rhs, prec + 1)
        text = f"{lhs}{e.op}{rhs}"
        return f"({text})" if prec < parent_prec else text
    raise ValueError(f"malformed node {e!r}")
