import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilferbvp.errors import EvalError, ParseError
from hilferbvp.expr import (
    Binary,
    Num,
    Unary,
    Var,
    compile_expr,
    evaluate,
    parse,
    pretty,
    variables_used,
)


def test_single_variable():
    assert parse("t") == Var(name="t")
    assert parse("z") == Var(name="z")


def test_rhs_tree_shape():
    tree = parse("(1/16)*t*sin(abs(z))")
    # ((1/16) * t) * sin(abs(z)), '*' left-associative
    assert isinstance(tree, Binary) and tree.op == "*"
    assert isinstance(tree.rhs, Unary) and tree.rhs.op == "sin"
    assert isinstance(tree.rhs.arg, Unary) and tree.rhs.arg.op == "abs"
    assert tree.rhs.arg.arg == Var(name="z")
    inner = tree.lhs
    assert isinstance(inner, Binary) and inner.op == "*" and inner.rhs == Var(name="t")
    assert inner.lhs == Binary(op="/", lhs=Num(value=1.0), rhs=Num(value=16.0))


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512.0


def test_unary_minus_binds_tighter_than_power():
    # '-' applies to the base: -2^2 = (-2)^2 = 4
    assert evaluate(parse("-2^2"), 0.0, 0.0) == 4.0
    assert evaluate(parse("2^-2"), 0.0, 0.0) == 0.25


def test_precedence_structural():
    assert parse("1+2*3") == parse("1+(2*3)")
    assert parse("1*2+3") == parse("(1*2)+3")
    assert parse("1-2-3") == parse("(1-2)-3")


def test_scientific_notation():
    assert evaluate(parse("1.5e-3"), 0.0, 0.0) == 1.5e-3
    assert evaluate(parse("2E+2"), 0.0, 0.0) == 200.0
    assert evaluate(parse("0.25"), 0.0, 0.0) == 0.25


def test_unbalanced_paren_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(")
    assert err.value.offset == 4


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")
    with pytest.raises(ParseError) as err:
        parse("foo(2)")
    assert "unknown identifier" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("1 2")
    assert "trailing" in str(err.value)
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ParseError):
        parse("1+")


def test_eval_examples():
    assert evaluate(parse("(1/16)*t*sin(abs(z))"), 1.0, math.pi / 2) == 0.0625
    assert evaluate(parse("t/16"), 1.0, 0.0) == 0.0625
    assert evaluate(parse("z"), 7.0, 0.0) == 0.0


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("1/t"), 0.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("log(t)"), -1.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("log(t)"), 0.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(t)"), -2.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("(-2)^0.5"), 0.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("exp(t)"), 1e6, 0.0)


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_eval_trig_of_infinity_is_an_eval_error(fn):
    # z*1e308*10 overflows to inf, which + - * let through unchecked
    src = f"1+{fn}(z*1e308*10)"
    for z in (1.0, -1.0):
        with pytest.raises(EvalError) as err:
            evaluate(parse(src), 0.0, z)
        assert err.value.pos == 2


def test_eval_error_carries_position():
    with pytest.raises(EvalError) as err:
        evaluate(parse("1+log(0-t)"), 1.0, 0.0)
    assert err.value.pos == 2


def test_power_node_points_at_the_caret():
    # like + - * /, a '^' node carries the offset of its operator, not
    # the end of its base (which is the space here)
    assert parse("(-2) ^ 0.5").pos == 5
    with pytest.raises(EvalError) as err:
        evaluate(parse("(-2) ^ 0.5"), 0.0, 0.0)
    assert err.value.pos == 5


ROUND_TRIP_CORPUS = [
    "1",
    "t",
    "z",
    "1+2",
    "1-2-3",
    "1+2*3",
    "(1+2)*3",
    "2^3^2",
    "(2^3)^2",
    "-t",
    "-t^2",
    "-(t^2)",
    "2^-3",
    "t*z",
    "t/z",
    "t/(1+z)",
    "sin(t)",
    "cos(t*z)",
    "abs(z)",
    "exp(-t)",
    "log(1+t)",
    "sqrt(t+1)",
    "(1/16)*t*sin(abs(z))",
    "t/16",
    "1/3",
    "3/4*t - 1/4*z",
    "sin(cos(abs(t)))",
    "1.5e-3*t^2",
    "-(1+2)",
    "1--2",
    "t^z^2",
    "((t))",
    # the benchmark's f: c t^e + k (sin z - sin(c t^e + c t^e))
    "1.5*t^-0.25 + 0.125*(sin(z) - sin(2*t^0.5 + -0.75*t^1.25))",
]


def test_round_trip_corpus():
    assert len(ROUND_TRIP_CORPUS) >= 30
    for source in ROUND_TRIP_CORPUS:
        tree = parse(source)
        assert parse(pretty(tree)) == tree, source


def test_eval_is_pure_bitwise():
    tree = parse("sin(t)*exp(z)/(1+t^2)")
    first = evaluate(tree, 0.37, -1.25)
    for _ in range(10):
        assert evaluate(tree, 0.37, -1.25) == first


def _pass(tree, points):
    """What one compiled pass over the points gives: its values' reprs
    (so NaN equals NaN and the sign of zero counts), or its EvalError's
    message, pos and index."""
    t = np.array([p[0] for p in points], dtype=float)
    z = np.array([p[1] for p in points], dtype=float)
    return _run(_compiled(tree, t), z)


def _compiled(tree, t):
    """compile_expr(tree, t), which computes the t-only subtrees, with no
    numpy warning either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compile_expr(tree, t)


def _run(compiled, z):
    """_pass of a compiled tree over the array z."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [repr(v) for v in compiled(z).tolist()]
    except EvalError as exc:
        return str(exc), exc.pos, exc.index


def _evaluated(tree, points):
    """The same from evaluate, point by point in index order."""
    values = []
    for i, (t, z) in enumerate(points):
        try:
            values.append(repr(evaluate(tree, t, z)))
        except EvalError as exc:
            return str(exc), exc.pos, i
    return values


# 180 points in [-4, 4]^2 and 20 from edges where the checks fire
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e308, -math.inf, math.inf, math.nan)
_RNG = random.Random("compile")
_POINTS = [(_RNG.uniform(-4.0, 4.0), _RNG.uniform(-4.0, 4.0)) for _ in range(180)]
_POINTS += [(_SPECIAL[k % 8], _SPECIAL[(3 * k + 1) % 8]) for k in range(20)]


def test_compiled_tree_matches_evaluate_on_the_corpus():
    # one-point passes at every point, one pass over all of them (which
    # raises at the first point where evaluate does, if any), and one over
    # the points where evaluate succeeds
    for source in ROUND_TRIP_CORPUS:
        tree = parse(source)
        for point in _POINTS:
            assert _pass(tree, [point]) == _evaluated(tree, [point]), (source, point)
        assert _pass(tree, _POINTS) == _evaluated(tree, _POINTS), source
        good = [pt for pt in _POINTS if isinstance(_evaluated(tree, [pt]), list)]
        assert len(good) >= 100, source
        assert _pass(tree, good) == _evaluated(tree, good), source


@pytest.mark.parametrize("source", ["t", "z", "2.5", "-(1/4)"])
def test_a_pass_returns_a_new_array(source):
    # a variable or a constant still gives an array of its own, one value
    # per point, never the argument itself
    t, z = np.array([1.0, 2.0, 3.0]), np.array([-1.0, -0.0, 0.5])
    out = compile_expr(parse(source), t)(z)
    assert out is not t and out is not z and out.dtype == np.float64
    assert out.tolist() == [evaluate(parse(source), ti, zi) for ti, zi in zip(t, z)]


@pytest.mark.parametrize(
    "tree, t, z",
    [
        ("1/t", 0.0, 0.0),                   # division by zero
        ("log(t)/z", 0.0, 0.0),              # log <= 0, before the division
        ("2+log(t)", -1.0, 0.0),
        ("sqrt(t)", -2.0, 0.0),              # sqrt < 0
        ("1+sin(z*1e308*10)", 0.0, 1.0),     # sin/cos of +-inf
        ("1+cos(z*1e308*10)", 0.0, -1.0),
        ("exp(t)", 1e6, 0.0),                # exp overflow
        ("t^-1", 0.0, 0.0),                  # power: pole
        ("(-2) ^ 0.5", 0.0, 0.0),            # power: negative base
        ("(z*1e308*10*0)^2", 0.0, 1.0),      # power: NaN
        ("10^t", 400.0, 0.0),                # power: overflow
        (Unary(op="tan", arg=Var(name="t")), 1.0, 0.0),
        (Binary(op="%", lhs=Num(value=1.0), rhs=Var(name="z"), pos=3), 1.0, 2.0),
        (Unary(op="neg", arg=None), 0.0, 0.0),   # malformed
        # a variable operand of a function or of '^'
        ("sin(z)", 0.0, math.inf),
        ("cos(t)", -math.inf, 0.0),
        ("log(z)", 0.0, 0.0),
        ("exp(z)", 0.0, 1e6),
        ("t^0.5", -1.0, 0.0),               # power: negative base
        ("t^0.5", math.nan, 0.0),           # power: NaN
        ("(1+z)^0.5", 0.0, -2.0),
        ("z/0", 0.0, 1.0),
        ("2/z", 0.0, 0.0),
        ("t + 1/0", 1.0, 0.0),              # a constant subtree evaluate rejects
        ("log(z) + log(0)", 0.0, -1.0),     # the first error in evaluate's order
    ],
)
def test_compiled_tree_raises_the_same_eval_error(tree, t, z):
    # as a one-point pass, and as the failing point between points where
    # evaluate succeeds: the pass names the first failing point's index
    tree = parse(tree) if isinstance(tree, str) else tree
    want = _evaluated(tree, [(t, z)])
    assert isinstance(want, tuple), want
    assert _pass(tree, [(t, z)]) == want
    good = [pt for pt in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)] if isinstance(_evaluated(tree, [pt]), list)]
    points = good + [(t, z)] + good + [(t, z)]
    assert _evaluated(tree, points) == want[:2] + (len(good),)
    assert _pass(tree, points) == want[:2] + (len(good),)


# Programmatic trees over every function and operator, with leaves and
# (t, z) from the finite doubles and the specials: the compiled fast path
# must fall back to evaluate exactly where evaluate raises
_VALUES = st.floats() | st.sampled_from(_SPECIAL + (710.0, 0.5, 2.0))
def _trees(names):
    return st.recursive(
        st.builds(Num, value=_VALUES) | st.sampled_from([Var(name=name) for name in names]),
        lambda kids: st.builds(
            Unary, op=st.sampled_from(("neg", "sin", "cos", "abs", "exp", "log", "sqrt")), arg=kids,
            pos=st.integers(-1, 40),
        ) | st.builds(
            Binary, op=st.sampled_from("+-*/^"), lhs=kids, rhs=kids, pos=st.integers(-1, 40),
        ),
        max_leaves=10,
    )


_TREES = _trees(["t", "z"])


# 500 examples, or the loaded profile's count where it is larger (the
# "deep" profile of conftest.py: 5000)
@settings(max_examples=max(500, settings.default.max_examples), deadline=None, derandomize=True)
@given(_TREES, _VALUES, _VALUES)
def test_compiled_random_tree_matches_evaluate(tree, t, z):
    assert _pass(tree, [(t, z)]) == _evaluated(tree, [(t, z)])


@settings(max_examples=max(500, settings.default.max_examples), deadline=None, derandomize=True)
@given(_TREES, st.lists(st.tuples(_VALUES, _VALUES), max_size=12))
def test_compiled_pass_matches_evaluate_point_by_point(tree, points):
    # every value bit for bit by repr, or the first failing point's
    # EvalError, message, pos and index; and no numpy warning (_pass)
    assert _pass(tree, points) == _evaluated(tree, points)


# trees also over a name that is neither t nor z, which evaluate reads as z
@settings(max_examples=max(500, settings.default.max_examples), deadline=None, derandomize=True)
@given(_trees(["t", "z", "y"]), st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=12))
def test_compiled_passes_over_one_t_array_match_evaluate(tree, points):
    # one tree compiled against t, whose t-only subtrees it computes once,
    # and then t changed in place: the compiled tree holds its own copy of
    # the nodes, so its passes over z1 and z2 each equal evaluate at the
    # nodes as they were, point by point, by repr, or raise its first
    # EvalError, message, pos and index; a fresh compile against a copy of
    # the changed t equals evaluate at the new nodes
    t, z1, z2 = (np.array([p[k] for p in points], dtype=float) for k in range(3))
    nodes = t.tolist()
    compiled = _compiled(tree, t)
    t[:] = 0.75
    for z in (z1, z2):
        assert _run(compiled, z) == _evaluated(tree, list(zip(nodes, z.tolist())))
    fresh = _compiled(tree, t.copy())
    assert _run(fresh, z2) == _evaluated(tree, list(zip(t.tolist(), z2.tolist())))


def test_eval_error_names_its_offset():
    with pytest.raises(EvalError, match=r"^sqrt of negative value -10\.0 \(offset 0\)$"):
        evaluate(parse("sqrt(z - 10) + 1"), 0.0, 0.0)
    assert str(EvalError("division by zero")) == "division by zero"   # no position, no offset


def test_parsed_nodes_are_slotted_and_frozen():
    tree = parse("sin(-t) + 1.5*z")
    nodes = [tree, tree.lhs, tree.lhs.arg, tree.lhs.arg.arg, tree.rhs.lhs, tree.rhs.rhs]
    assert {type(n) for n in nodes} == {Binary, Unary, Num, Var}
    for node in nodes:
        assert not hasattr(node, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.pos = 0


def test_variables_used():
    assert variables_used(parse("sin(t)*z")) == {"t", "z"}
    assert variables_used(parse("1/3")) == set()


def _positions(e):
    """Node offsets in pre-order."""
    if isinstance(e, Binary):
        return [e.pos] + _positions(e.lhs) + _positions(e.rhs)
    if isinstance(e, Unary):
        return [e.pos] + _positions(e.arg)
    return [e.pos]


# offsets of every node, recorded with the character-scanning parser
NODE_POSITIONS = {
    "1": [0],
    "t": [0],
    "z": [0],
    "1+2": [1, 0, 2],
    "1-2-3": [3, 1, 0, 2, 4],
    "1+2*3": [1, 0, 3, 2, 4],
    "(1+2)*3": [5, 2, 1, 3, 6],
    "2^3^2": [1, 0, 3, 2, 4],
    "(2^3)^2": [5, 2, 1, 3, 6],
    "-t": [0, 1],
    "-t^2": [2, 0, 1, 3],
    "-(t^2)": [0, 3, 2, 4],
    "2^-3": [1, 0, 2, 3],
    "t*z": [1, 0, 2],
    "t/z": [1, 0, 2],
    "t/(1+z)": [1, 0, 4, 3, 5],
    "sin(t)": [0, 4],
    "cos(t*z)": [0, 5, 4, 6],
    "abs(z)": [0, 4],
    "exp(-t)": [0, 4, 5],
    "log(1+t)": [0, 5, 4, 6],
    "sqrt(t+1)": [0, 6, 5, 7],
    "(1/16)*t*sin(abs(z))": [8, 6, 2, 1, 3, 7, 9, 13, 17],
    "t/16": [1, 0, 2],
    "1/3": [1, 0, 2],
    "3/4*t - 1/4*z": [6, 3, 1, 0, 2, 4, 11, 9, 8, 10, 12],
    "sin(cos(abs(t)))": [0, 4, 8, 12],
    "1.5e-3*t^2": [6, 0, 8, 7, 9],
    "-(1+2)": [0, 3, 2, 4],
    "1--2": [1, 0, 2, 3],
    "t^z^2": [1, 0, 3, 2, 4],
    "((t))": [2],
    "1 + 2 * t": [2, 0, 6, 4, 8],
    "sin ( t )": [0, 6],
    "1.5*t^-0.25 + 0.125*(sin(z) - sin(2*t^0.5 + -0.75*t^1.25))": [
        12, 3, 0, 5, 4, 6, 7, 19, 14, 28, 21, 25, 30, 42, 35, 34, 37, 36, 38, 49, 44, 45, 51, 50, 52,
    ],
}


def test_node_positions_pinned():
    assert set(ROUND_TRIP_CORPUS) <= set(NODE_POSITIONS)
    for source, expected in NODE_POSITIONS.items():
        assert _positions(parse(source)) == expected, source


OPERAND = "a number, variable, function call or '('"


@pytest.mark.parametrize(
    "source, offset, expected",
    [
        ("", 0, "an expression"),
        ("   ", 3, "an expression"),
        (".", 0, "a number"),
        (".E2", 0, "a number"),
        ("1e", 1, "end of input"),
        ("1 2", 2, "end of input"),
        ("(1+2", 4, "')'"),
        ("sin(", 4, OPERAND),
        ("foo(2)", 0, "identifier"),
        ("1+", 2, OPERAND),
        ("2^", 2, OPERAND),
        ("_x", 0, "identifier"),
    ],
)
def test_parse_error_offset_and_expected_pinned(source, offset, expected):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.offset, err.value.expected) == (offset, expected)


# grammar-built expressions with up to 3 characters of any kind spliced in
# at a random place, cut to 40 characters
_EXPRESSIONS = st.recursive(
    st.sampled_from(["1", "2.5", ".5", "3.", "1e-3", "t", "z", "٣"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/", "^", " ^ "]), inner).map("".join),
        inner.map("-{}".format),
        inner.map("sin( {})".format),
        inner.map("({})".format),
    ),
    max_leaves=8,
)
_TEXT = st.builds(
    lambda source, junk, at: (source[:at] + junk + source[at:])[:40],
    _EXPRESSIONS,
    st.text(max_size=3),
    st.integers(0, 40),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TEXT)
def test_parse_returns_a_round_tripping_tree_or_raises_parse_error(source):
    try:
        tree = parse(source)
    except ParseError:
        return
    assert parse(pretty(tree)) == tree


@pytest.mark.parametrize("source, offset", [("1e999", 0), ("t + 2.5E+400*z", 4), ("-1e309", 1)])
def test_parse_rejects_a_literal_that_overflows(source, offset):
    # it would be inf, which pretty renders as "inf", and that does not parse
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.offset, err.value.expected) == (offset, "a finite number")


def test_an_overflowing_power_is_an_invalid_power_at_its_offset():
    # math.pow raises OverflowError for every finite overflow
    with pytest.raises(EvalError, match=r"^invalid power 10\.0\^400\.0: ") as err:
        evaluate(parse("1 + 10^t"), 400.0, 0.0)
    assert err.value.pos == 6


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse(b"t"), ParseError),
        (lambda: parse(None), ParseError),
        (lambda: pretty("t"), ValueError),
        (lambda: pretty(Binary(op="+", lhs=Num(value=1.0), rhs=[1])), ValueError),
    ],
    ids=["parse-bytes", "parse-none", "pretty-str", "pretty-list-child"],
)
def test_parse_and_pretty_reject_what_is_not_their_input(call, error):
    with pytest.raises(error):
        call()
