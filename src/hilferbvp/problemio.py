"""Problem files: a JSON document describing one problem instance.

Scalar fields (mu, nu, a, b, c, d, lambda, tau, p) are expression strings
so that rational orders like "1/3" survive into the binary exactly as
written; they are evaluated once at load time and must not reference the
variables t or z. Example:

    {
      "mu": "1/3", "nu": "1/4",
      "a": "0", "b": "1",
      "c": "1/4", "d": "3/4",
      "nonlocal": [{"lambda": "2/5", "tau": "2/3"}],
      "f": "(1/16)*t*sin(abs(z))",
      "rho": "t/16",
      "p": "1/2",
      "solver": {"n_base": 512, "tol": 1e-8}
    }

The optional "solver" block overrides SolveConfig defaults; the optional
"reference" block declares externally claimed certificate values (q,
rho_norm, G, L_star), read by the scalar rules, that a check at the
file's own p compares against. An unknown key at any level is a
SchemaError naming its path, e.g. "nonlocal[0].tua".
"""

import json
import math
from dataclasses import fields
from importlib import resources

from .errors import DomainError, EvalError, ParseError, SchemaError
from .expr import evaluate, parse, pretty, variables_used
from .fraccalc import FracOrder
from .solver import ProblemSpec, SolveConfig

__all__ = [
    "load_problem",
    "load_problem_document",
    "serialize_spec",
    "example_problem_path",
]

_SCALAR_KEYS = ("mu", "nu", "a", "b", "c", "d")
_TOP_KEYS = _SCALAR_KEYS + ("nonlocal", "f", "rho", "p", "solver", "reference")
_REFERENCE_KEYS = ("q", "rho_norm", "G", "L_star")


def _reject_unknown(block, known, prefix=""):
    for key in block:
        if key not in known:
            raise SchemaError(prefix + key, f"unknown key; expected one of {', '.join(known)}")


def _scalar(doc, key, path=None):
    """The finite value of doc[key]; errors name `path` (default: key)."""
    path = path or key
    if key not in doc:
        raise SchemaError(path, "missing required key")
    raw = doc[key]
    if not isinstance(raw, str):
        value = _number(raw)
        if value is None:
            raise SchemaError(path, f"expected a finite number or expression string, got {raw!r}")
        return value
    try:
        value = evaluate(_expression(doc, key, (), path), 0.0, 0.0)
    except EvalError as exc:
        raise SchemaError(path, f"evaluation error: {exc}") from exc
    if not math.isfinite(value):
        raise SchemaError(path, f"expression evaluates to non-finite value {value!r}")
    return value


def _number(raw):
    """raw as a float if it is a finite JSON number, else None. Python's
    json reads the tokens NaN and Infinity and integers past the float
    range, so those give None, as do booleans."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        value = float(raw)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _expression(doc, key, allowed_vars, path=None):
    """The parsed doc[key], an expression string in allowed_vars only;
    errors name `path` (default: key)."""
    path = path or key
    if key not in doc:
        raise SchemaError(path, "missing required key")
    raw = doc[key]
    if not isinstance(raw, str):
        raise SchemaError(path, f"expected an expression string, got {raw!r}")
    try:
        tree = parse(raw)
    except ParseError as exc:
        raise SchemaError(path, f"expression error: {exc}") from exc
    extra = variables_used(tree) - set(allowed_vars)
    if extra:
        raise SchemaError(path, f"unexpected variables {sorted(extra)}")
    return tree


def _checked(path, make, *args, **kwargs):
    """make(*args, **kwargs), a DomainError raised as a SchemaError at path."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise SchemaError(path, str(exc)) from exc


def _solver_config(block) -> SolveConfig:
    if block is None:
        return SolveConfig()
    if not isinstance(block, dict):
        raise SchemaError("solver", "expected an object")
    types = {f.name: f.type for f in fields(SolveConfig)}
    _reject_unknown(block, types, "solver.")
    kwargs = {}
    for key, value in block.items():
        if types[key] is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"solver.{key}", f"expected an integer, got {value!r}")
        elif _number(value) is None:
            raise SchemaError(f"solver.{key}", f"expected a finite number, got {value!r}")
        kwargs[key] = types[key](value)
        # each SolveConfig check reads one field: checked alone, the
        # defaults standing in for the rest, a field names its own key
        _checked(f"solver.{key}", SolveConfig, **{key: kwargs[key]})
    return SolveConfig(**kwargs)


def load_problem_document(path):
    """Parse and validate a problem file; returns (spec, config, reference).

    reference maps each key of the optional reference block (may be
    empty) to its value and its text as written."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(str(path), "top level must be an object")
    _reject_unknown(doc, _TOP_KEYS)

    scalars = {key: _scalar(doc, key) for key in _SCALAR_KEYS}
    _checked("mu", FracOrder, mu=scalars["mu"], nu=0.0)
    order = _checked("nu", FracOrder, mu=scalars["mu"], nu=scalars["nu"])
    a, b = scalars["a"], scalars["b"]
    if not a < b:
        raise SchemaError("b", f"need a < b, got a={a!r}, b={b!r}")

    nonlocal_terms = []
    raw_terms = doc.get("nonlocal", [])
    if not isinstance(raw_terms, list):
        raise SchemaError("nonlocal", "expected a list of {lambda, tau} objects")
    for k, item in enumerate(raw_terms):
        if not isinstance(item, dict):
            raise SchemaError(f"nonlocal[{k}]", "expected a {lambda, tau} object")
        _reject_unknown(item, ("lambda", "tau"), f"nonlocal[{k}].")
        lam = _scalar(item, "lambda", f"nonlocal[{k}].lambda")
        tau = _scalar(item, "tau", f"nonlocal[{k}].tau")
        if not (a < tau <= b):
            raise SchemaError(f"nonlocal[{k}].tau", f"tau = {tau!r} outside (a, b]")
        nonlocal_terms.append((lam, tau))

    f = _expression(doc, "f", ("t", "z"))
    rho = _expression(doc, "rho", ("t",))
    p = _scalar(doc, "p")
    if not p > 0.0:
        raise SchemaError("p", f"exponent must be positive, got {p!r}")

    spec = ProblemSpec(
        order=order,
        a=a,
        b=b,
        c=scalars["c"],
        d=scalars["d"],
        nonlocal_terms=tuple(nonlocal_terms),
        f=f,
        rho=rho,
        p=p,
    )
    config = _solver_config(doc.get("solver"))
    block = doc.get("reference", {})
    if not isinstance(block, dict):
        raise SchemaError("reference", "expected an object")
    _reject_unknown(block, _REFERENCE_KEYS, "reference.")
    reference = {
        key: (_scalar(block, key, f"reference.{key}"), raw if isinstance(raw, str) else repr(raw))
        for key, raw in block.items()
    }
    return spec, config, reference


def load_problem(path) -> ProblemSpec:
    """Load and validate a problem file, returning just the spec."""
    spec, _, _ = load_problem_document(path)
    return spec


def serialize_spec(spec: ProblemSpec) -> dict:
    """Problem document for a spec; load_problem of the written document
    reproduces the spec field for field."""
    return {
        "mu": repr(spec.order.mu),
        "nu": repr(spec.order.nu),
        "a": repr(spec.a),
        "b": repr(spec.b),
        "c": repr(spec.c),
        "d": repr(spec.d),
        "nonlocal": [
            {"lambda": repr(lam), "tau": repr(tau)}
            for lam, tau in spec.nonlocal_terms
        ],
        "f": pretty(spec.f),
        "rho": pretty(spec.rho),
        "p": repr(spec.p),
    }


def example_problem_path():
    """Filesystem path of the bundled example problem."""
    return resources.files("hilferbvp").joinpath("data/example_problem.json")
