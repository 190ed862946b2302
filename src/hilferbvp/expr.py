"""A tiny scalar expression language in the variables t and z.

Problem files carry the right-hand side f(t, z) and the growth bound
rho(t) as plain strings; this module parses them once and evaluates the
resulting trees in double precision. Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?            # '^' right-associative
    base   := number | 't' | 'z' | ident '(' expr ')' | '(' expr ')' | '-' base

Unary minus binds tighter than the base of '^', so "-2^2" is (-2)^2.
Numbers accept decimal and scientific notation. Known functions:
sin, cos, abs, exp, log, sqrt.
"""

import math
from dataclasses import dataclass, field

from .errors import EvalError, ParseError

__all__ = ["Expr", "Num", "Var", "Unary", "Binary", "parse", "evaluate", "pretty"]

_FUNCTIONS = ("sin", "cos", "abs", "exp", "log", "sqrt")
_VARIABLES = ("t", "z")


@dataclass(frozen=True)
class Expr:
    """Base node. Position is the character offset in the original source
    (-1 for trees built programmatically); positions never affect equality."""

    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    name: str = "t"


@dataclass(frozen=True)
class Unary(Expr):
    op: str = "neg"
    arg: Expr = None


@dataclass(frozen=True)
class Binary(Expr):
    op: str = "+"
    lhs: Expr = None
    rhs: Expr = None


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def error(self, expected):
        raise ParseError(f"expected {expected}", self.pos, expected)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error(f"'{ch}'")

    def parse_expr(self):
        node = self.parse_term()
        while True:
            here = self.pos
            c = self.peek()
            if c == "+" or c == "-":
                self.pos += 1
                rhs = self.parse_term()
                node = Binary(op=c, lhs=node, rhs=rhs, pos=here)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            here = self.pos
            c = self.peek()
            if c == "*" or c == "/":
                self.pos += 1
                rhs = self.parse_factor()
                node = Binary(op=c, lhs=node, rhs=rhs, pos=here)
            else:
                return node

    def parse_factor(self):
        node = self.parse_base()
        here = self.pos
        if self.peek() == "^":
            self.pos += 1
            exponent = self.parse_factor()  # right-associative
            node = Binary(op="^", lhs=node, rhs=exponent, pos=here)
        return node

    def parse_base(self):
        c = self.peek()
        here = self.pos
        if c == "-":
            self.pos += 1
            return Unary(op="neg", arg=self.parse_base(), pos=here)
        if c == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if c.isdigit() or c == ".":
            return self.parse_number()
        if c.isalpha() or c == "_":
            return self.parse_ident()
        self.error("a number, variable, function call or '('")

    def parse_number(self):
        start = self.pos
        src = self.src
        n = len(src)
        i = start
        while i < n and src[i].isdigit():
            i += 1
        if i < n and src[i] == ".":
            i += 1
            while i < n and src[i].isdigit():
                i += 1
        if i == start or src[start:i] == ".":
            self.pos = start
            self.error("a number")
        if i < n and src[i] in "eE":
            j = i + 1
            if j < n and src[j] in "+-":
                j += 1
            k = j
            while k < n and src[k].isdigit():
                k += 1
            if k > j:
                i = k
        text = src[start:i]
        self.pos = i
        try:
            value = float(text)
        except ValueError:
            self.pos = start
            self.error("a number")
        return Num(value=value, pos=start)

    def parse_ident(self):
        start = self.pos
        src = self.src
        i = start
        while i < len(src) and (src[i].isalnum() or src[i] == "_"):
            i += 1
        name = src[start:i]
        self.pos = i
        if name in _VARIABLES:
            return Var(name=name, pos=start)
        if name in _FUNCTIONS:
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Unary(op=name, arg=arg, pos=start)
        self.pos = start
        raise ParseError(
            f"unknown identifier '{name}' (variables are t, z; functions are "
            + ", ".join(_FUNCTIONS) + ")",
            start,
            "identifier",
        )


def parse(source: str) -> Expr:
    """Parse an expression string into an immutable tree.

    Raises ParseError (with character offset) on empty input, unknown
    identifiers, unbalanced parentheses or trailing garbage.
    """
    if not isinstance(source, str):
        raise ParseError("source must be a string", 0)
    p = _Parser(source)
    p.skip_ws()
    if p.pos >= len(source):
        raise ParseError("empty input", p.pos, "an expression")
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(source):
        raise ParseError(f"trailing garbage {source[p.pos:]!r}", p.pos, "end of input")
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
        try:
            if op == "sin":
                return math.sin(v)
            if op == "cos":
                return math.cos(v)
            if op == "exp":
                return math.exp(v)
            if op == "log":
                if v <= 0.0:
                    raise EvalError(f"log of non-positive value {v!r}", e.pos)
                return math.log(v)
            if op == "sqrt":
                if v < 0.0:
                    raise EvalError(f"sqrt of negative value {v!r}", e.pos)
                return math.sqrt(v)
        except OverflowError:
            raise EvalError(f"overflow in {op}({v!r})", e.pos) from None
        except ValueError:  # sin/cos of +-inf
            raise EvalError(f"{op} of {v!r} is undefined", e.pos) from None
        raise EvalError(f"unknown function {op!r}", e.pos)
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
            if math.isinf(r) and not (math.isinf(x) or math.isinf(y)):
                raise EvalError(f"overflow in power {x!r}^{y!r}", e.pos)
            return r
        raise EvalError(f"unknown operator {op!r}", e.pos)
    raise EvalError(f"malformed node {e!r}")


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
