"""Command line interface.

Subcommands:
    check    evaluate the existence certificate for a problem file
    solve    run the fixed-point solver and emit the solution table
    verify   recompute residuals for an externally supplied solution table
    example  check (with exponent sweep) and solve the bundled instance

Exit codes are a total function of the outcome class:
    0  success            3  certificate inadmissible
    1  usage / IO error   4  solver did not converge
    2  certificate violated  5  verification failure
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import (
    HilferError,
    MeshMismatchError,
    NoConvergenceError,
    SchemaError,
)
from .existence import certificate, sweep_certificates
from .fraccalc import _NODE_REL_TOL, WeightedGrid
from .problemio import example_problem_path, load_problem_document
from .solver import derive_params, problem_mesh, residuals, solve_picard

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_INADMISSIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY_FAILED = 5

_VERIFY_BC_TOL = 1e-5
_VERIFY_ODE_TOL = 5e-2


# ---------------------------------------------------------------------------
# deterministic JSON with numeric fields at 12 significant digits
# ---------------------------------------------------------------------------


def _rounded(obj):
    """obj (dicts, lists and tuples walked) with each finite float as the
    JSON number its %.12g text reads as, so 8.0 becomes the int 8, and
    each non-finite one as the string nan, inf or -inf."""
    if isinstance(obj, float):
        return json.loads(f"{obj:.12g}") if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def dumps_report(doc: dict) -> str:
    """Stable JSON rendering: key order as inserted, floats at 12
    significant digits (see _rounded), newline terminated."""
    return json.dumps(_rounded(doc), indent=2) + "\n"


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# solution tables
# ---------------------------------------------------------------------------


def format_table(grid: WeightedGrid) -> str:
    """Comma-delimited node table with header t,z,w; numbers use shortest
    round-trip decimals. The z entry at t = a is inf or -inf when the
    solution genuinely blows up there (gamma < 1, w(a) != 0)."""
    lines = ["t,z,w"]
    for t, z, w in zip(grid.mesh.nodes, grid.z_values(), grid.w):
        lines.append(f"{float(t)!r},{float(z)!r},{float(w)!r}")
    return "\n".join(lines) + "\n"


def parse_table(path):
    """Read a solution table; returns (nodes, w) arrays. Blank lines are
    skipped, and an error names the physical line of the bad row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(ln, line.strip()) for ln, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read table: {exc}") from exc
    if not lines or lines[0][1] != "t,z,w":
        raise MeshMismatchError(f"{path}: missing 't,z,w' header")
    ts, ws = [], []
    for ln, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise MeshMismatchError(f"{path}:{ln}: expected 3 columns")
        try:
            ts.append(float(parts[0]))
            ws.append(float(parts[2]))
        except ValueError as exc:
            raise MeshMismatchError(f"{path}:{ln}: {exc}") from exc
    return np.asarray(ts), np.asarray(ws)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _apply_flag_overrides(config, args):
    given = {f.name: getattr(args, f.name, None) for f in fields(config)}
    return replace(config, **{k: v for k, v in given.items() if v is not None})


def _certificate_notes(spec, rep):
    notes = []
    if not rep.admissible:
        mu = spec.order.mu
        gamma = spec.order.gamma
        notes.append(
            f"exponent p = {rep.p:.12g} is inadmissible: violated "
            + ", ".join(rep.failed_conditions)
            + f" (1/mu = {1.0 / mu:.12g}, 1/gamma = {1.0 / gamma:.12g})"
        )
    for name, value in (("Lambda", rep.lambda_const), ("Delta", rep.delta_const)):
        if value is not None and not 0.0 < value < math.inf:
            notes.append(f"{name} = {value:.12g} at p = {rep.p:.12g} is not a positive "
                         "finite double, so G and L_star are not computed")
    return notes


def _reference_notes(rep, reference):
    """Compare computed certificate values against the file's declared
    reference block; a file without one yields no notes."""
    notes = []
    q_ref, q_raw = reference.get("q", (None, None))
    if q_ref is not None and not (
        q_ref != 0 and math.isfinite(rep.q) and abs(1.0 / rep.p + 1.0 / q_ref - 1.0) <= 1e-12
    ):
        notes.append(
            f"declared q = {q_raw} = {q_ref:.12g} is not the Hoelder conjugate "
            f"of p = {rep.p:.12g} (p/(p-1) = {rep.q:.12g}); the pair p = q = "
            f"{rep.p:.12g} does not satisfy 1/p + 1/q = 1"
        )
    rho_ref, rho_raw = reference.get("rho_norm", (None, None))
    if rho_ref is not None and not math.isclose(rho_ref, rep.rho_norm, rel_tol=1e-9):
        notes.append(
            f"declared rho_norm = {rho_raw} = {rho_ref:.12g} differs from the "
            f"computed (int |rho|^p)^(1/p) = {rep.rho_norm:.12g} at p = {rep.p:.12g}"
        )
    for key, computed in (("G", rep.G), ("L_star", rep.L_star)):
        ref_val, ref_raw = reference.get(key, (None, None))
        if ref_val is None:
            continue
        if computed is None or not math.isclose(ref_val, computed, rel_tol=0.05):
            shown = "not computable" if computed is None else f"{computed:.12g}"
            notes.append(
                f"declared {key} = {ref_raw} is not reproduced: computed value "
                f"at p = {rep.p:.12g} is {shown}"
            )
    return notes


def run_check(path, args) -> int:
    spec, _, reference = load_problem_document(path)
    params = derive_params(spec)
    if args.sweep_p:
        reports, rep = sweep_certificates(spec, params)
        reference = {}  # the declared values belong to the file's own p
    else:
        reports, rep = [], certificate(spec, params)
    notes = _certificate_notes(spec, rep) + _reference_notes(rep, reference)
    doc = {
        "gamma": params.gamma,
        "A": params.A,
        "denom": params.denom,
        "p": rep.p,
        "q": rep.q,
        "lambda": rep.lambda_const,
        "delta": rep.delta_const,
        "rho_norm": rep.rho_norm,
        "G": rep.G,
        "L_star": rep.L_star,
        "terms": {
            "G": list(rep.terms_G) if rep.terms_G else None,
            "L_star": list(rep.terms_L) if rep.terms_L else None,
        },
        "verdict": rep.verdict,
        "notes": notes,
        "sweep": [
            {"p": r.p, "q": r.q, "G": r.G, "L_star": r.L_star, "verdict": r.verdict}
            for r in reports
        ],
    }
    _write(dumps_report(doc), args.report)
    if rep.verdict == "satisfied":
        return EXIT_OK
    if rep.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_INADMISSIBLE


def run_solve(path, args) -> int:
    spec, config, _ = load_problem_document(path)
    config = _apply_flag_overrides(config, args)
    code = EXIT_OK
    try:
        report = solve_picard(spec, config)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report, code = exc.report, EXIT_NO_CONVERGENCE
    _write(format_table(report.solution), args.out)
    doc = {
        "iterations": report.iterations,
        "history": list(report.history),
        "residual_bc": report.residual_bc,
        "residual_ode": report.residual_ode,
        "init_coeff": report.init_coeff,
        "converged": report.converged,
    }
    _write(dumps_report(doc), args.report)
    return code


def run_verify(path, table_path, args) -> int:
    spec, config, _ = load_problem_document(path)
    config = _apply_flag_overrides(config, args)
    params = derive_params(spec)
    mesh = problem_mesh(spec, config)
    nodes, w = parse_table(table_path)
    if len(nodes) != len(mesh.nodes):
        raise MeshMismatchError(
            f"table has {len(nodes)} nodes, problem mesh has {len(mesh.nodes)}"
        )
    # row by row (t may repeat next to a), by the mesh's node rule; NaN fails
    if not np.all(np.abs(nodes - mesh.nodes) <= _NODE_REL_TOL * (mesh.b - mesh.a)):
        raise MeshMismatchError("table nodes do not match the problem mesh")
    grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=w)
    residual_bc, residual_ode = residuals(spec, params, grid)
    ok = bool(residual_bc <= _VERIFY_BC_TOL and residual_ode <= _VERIFY_ODE_TOL)
    doc = {
        "residual_bc": residual_bc,
        "residual_ode": residual_ode,
        "bc_tol": _VERIFY_BC_TOL,
        "ode_tol": _VERIFY_ODE_TOL,
        "ok": ok,
    }
    _write(dumps_report(doc), args.report)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def run_example(args) -> int:
    path = str(example_problem_path())
    check_args = argparse.Namespace(sweep_p=True, report=None)
    code = run_check(path, check_args)
    if code != EXIT_OK:
        return code
    return run_solve(path, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_REPORT_HELP = "report document destination"


def _add_config_flags(sub, iteration):
    """--n and --grade, with iteration also --tol, --max-iter, --damping and
    --out, then --report. Each dest is the SolveConfig field the flag sets."""
    sub.add_argument("--n", type=int, dest="n_base", metavar="N", help="graded mesh size")
    sub.add_argument("--grade", type=float, dest="grading", metavar="GRADE",
                     help="grading exponent")
    if iteration:
        sub.add_argument("--tol", type=float, help="iteration stopping tolerance")
        sub.add_argument("--max-iter", type=int)
        sub.add_argument("--damping", type=float)
        sub.add_argument("--out", help="solution table destination")
    sub.add_argument("--report", help=_REPORT_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hilferbvp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="evaluate the existence certificate")
    check.add_argument("problem", help="problem file (JSON)")
    check.add_argument("--sweep-p", action="store_true", dest="sweep_p",
                       help="sweep admissible exponents p in {4, 8, 16, 64}")
    check.add_argument("--report", help=_REPORT_HELP)

    solve = subs.add_parser("solve", help="solve by fixed-point iteration")
    solve.add_argument("problem", help="problem file (JSON)")
    _add_config_flags(solve, iteration=True)

    verify = subs.add_parser("verify", help="check residuals of a solution table")
    verify.add_argument("problem", help="problem file (JSON)")
    verify.add_argument("table", help="solution table produced by solve")
    _add_config_flags(verify, iteration=False)

    example = subs.add_parser("example", help="run check and solve on the bundled problem")
    _add_config_flags(example, iteration=True)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "check":
            return run_check(args.problem, args)
        if args.command == "solve":
            return run_solve(args.problem, args)
        if args.command == "verify":
            return run_verify(args.problem, args.table, args)
        return run_example(args)
    except (HilferError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
