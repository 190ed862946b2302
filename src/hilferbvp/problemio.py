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
"reference" block declares externally claimed certificate values that the
check command compares against in paper-literal mode.
"""

import json
from dataclasses import fields
from importlib import resources

from .errors import ParseError, SchemaError
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


def _scalar(doc, key, allowed_vars=()):
    if key not in doc:
        raise SchemaError(key, "missing required key")
    raw = doc[key]
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if not isinstance(raw, str):
        raise SchemaError(key, f"expected a number or expression string, got {raw!r}")
    try:
        tree = parse(raw)
    except ParseError as exc:
        raise SchemaError(key, f"expression error: {exc}") from exc
    used = variables_used(tree)
    if used - set(allowed_vars):
        raise SchemaError(key, f"expression must not reference {sorted(used)}")
    value = evaluate(tree, 0.0, 0.0)
    if not _finite(value):
        raise SchemaError(key, f"expression evaluates to non-finite value {value!r}")
    return value


def _finite(x):
    return x == x and abs(x) != float("inf")


def _expression(doc, key, allowed_vars):
    if key not in doc:
        raise SchemaError(key, "missing required key")
    raw = doc[key]
    if not isinstance(raw, str):
        raise SchemaError(key, f"expected an expression string, got {raw!r}")
    try:
        tree = parse(raw)
    except ParseError as exc:
        raise SchemaError(key, f"expression error: {exc}") from exc
    extra = variables_used(tree) - set(allowed_vars)
    if extra:
        raise SchemaError(key, f"unexpected variables {sorted(extra)}")
    return tree


def _solver_config(block) -> SolveConfig:
    if block is None:
        return SolveConfig()
    if not isinstance(block, dict):
        raise SchemaError("solver", "expected an object")
    types = {f.name: f.type for f in fields(SolveConfig)}
    unknown = set(block) - set(types)
    if unknown:
        raise SchemaError("solver", f"unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in block.items():
        if types[key] is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"solver.{key}", f"expected an integer, got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"solver.{key}", f"expected a number, got {value!r}")
        kwargs[key] = types[key](value)
    try:
        return SolveConfig(**kwargs)
    except Exception as exc:
        raise SchemaError("solver", str(exc)) from exc


def load_problem_document(path):
    """Parse and validate a problem file; returns (spec, config, reference).

    reference is the optional dict of externally claimed values (may be
    empty)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(str(path), "top level must be an object")

    scalars = {key: _scalar(doc, key) for key in _SCALAR_KEYS}
    try:
        order = FracOrder(mu=scalars["mu"], nu=scalars["nu"])
    except Exception as exc:
        raise SchemaError("mu", str(exc)) from exc
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
        lam = _scalar(item, "lambda")
        tau = _scalar(item, "tau")
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
    reference = doc.get("reference", {})
    if not isinstance(reference, dict):
        raise SchemaError("reference", "expected an object")
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
