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
    EvalError,
    HilferError,
    MeshMismatchError,
    NoConvergenceError,
    ParseError,
    SchemaError,
)
from .existence import certificate, sweep_certificates
from .expr import evaluate as _eval_expr, parse as _parse_expr
from .fraccalc import WeightedGrid
from .problemio import example_problem_path, load_problem_document
from .solver import derive_params, problem_mesh, solve_picard, verify_bc, verify_ode

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


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.12g}"


def _emit(obj, out, indent):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot emit {type(obj)!r}")


def dumps_report(doc: dict) -> str:
    """Stable JSON rendering: key order as inserted, floats at 12
    significant digits, newline terminated."""
    out = []
    _emit(doc, out, 0)
    out.append("\n")
    return "".join(out)


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
    round-trip decimals. The z entry at t = a is the string inf when the
    solution genuinely blows up there (gamma < 1, w(a) != 0)."""
    lines = ["t,z,w"]
    zvals = grid.z_values()
    for t, z, w in zip(grid.mesh.nodes, zvals, grid.w):
        if math.isinf(z):
            ztext = "inf" if z > 0 else "-inf"
        else:
            ztext = repr(float(z))
        lines.append(f"{float(t)!r},{ztext},{float(w)!r}")
    return "\n".join(lines) + "\n"


def parse_table(path):
    """Read a solution table; returns (nodes, w) arrays."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read table: {exc}") from exc
    if not lines or lines[0] != "t,z,w":
        raise MeshMismatchError(f"{path}: missing 't,z,w' header")
    ts, ws = [], []
    for ln, line in enumerate(lines[1:], start=2):
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


def _report_from_certificate(params, rep, notes, sweep_rows):
    return {
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
        "sweep": sweep_rows,
    }


def _inadmissibility_notes(spec, rep):
    notes = []
    if not rep.admissible:
        mu = spec.order.mu
        gamma = spec.order.gamma
        notes.append(
            f"exponent p = {rep.p:.12g} is inadmissible: violated "
            + ", ".join(rep.failed_conditions)
            + f" (1/mu = {1.0 / mu:.12g}, 1/gamma = {1.0 / gamma:.12g})"
        )
    return notes


def _reference_notes(spec, rep, reference):
    """Compare computed certificate values against the file's declared
    reference block (paper-literal mode only)."""
    notes = []
    if not reference:
        return notes

    def declared(key):
        raw = reference.get(key)
        if raw is None:
            return None, None
        if isinstance(raw, str):
            try:
                return float(_eval_expr(_parse_expr(raw), 0.0, 0.0)), raw
            except (ParseError, EvalError):
                return None, raw
        return float(raw), repr(raw)

    q_ref, q_raw = declared("q")
    if q_ref is not None:
        conjugate_ok = (
            math.isfinite(rep.q) and abs(1.0 / rep.p + 1.0 / q_ref - 1.0) <= 1e-12
            if q_ref != 0
            else False
        )
        if not conjugate_ok:
            notes.append(
                f"declared q = {q_raw} = {q_ref:.12g} is not the Hoelder conjugate "
                f"of p = {rep.p:.12g} (p/(p-1) = {rep.q:.12g}); the pair p = q = "
                f"{rep.p:.12g} does not satisfy 1/p + 1/q = 1"
            )
    rho_ref, rho_raw = declared("rho_norm")
    if rho_ref is not None and not _close(rho_ref, rep.rho_norm):
        notes.append(
            f"declared rho_norm = {rho_raw} = {rho_ref:.12g} differs from the "
            f"computed (int |rho|^p)^(1/p) = {rep.rho_norm:.12g} at p = {rep.p:.12g}"
        )
    for key, computed in (("G", rep.G), ("L_star", rep.L_star)):
        ref_val, ref_raw = declared(key)
        if ref_val is None:
            continue
        if computed is None or not _close(ref_val, computed, 0.05):
            shown = "not computable" if computed is None else f"{computed:.12g}"
            notes.append(
                f"declared {key} = {ref_raw} is not reproduced: computed value "
                f"at p = {rep.p:.12g} is {shown}"
            )
    return notes


def _close(x, y, rel=1e-9):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def run_check(path, args) -> int:
    spec, _, reference = load_problem_document(path)
    params = derive_params(spec)
    sweep_rows = []
    notes = []
    if args.sweep_p:
        reports, best = sweep_certificates(spec, params)
        rep = best
        sweep_rows = [
            {"p": r.p, "q": r.q, "G": r.G, "L_star": r.L_star, "verdict": r.verdict}
            for r in reports
        ]
    else:
        rep = certificate(spec, params)
        notes.extend(_inadmissibility_notes(spec, rep))
        if args.paper_literal:
            notes.extend(_reference_notes(spec, rep, reference))
    doc = _report_from_certificate(params, rep, notes, sweep_rows)
    _write(dumps_report(doc), args.report)
    if rep.verdict == "satisfied":
        return EXIT_OK
    if rep.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_INADMISSIBLE


def _solve_report_doc(report) -> dict:
    return {
        "iterations": report.iterations,
        "history": list(report.history),
        "residual_bc": report.residual_bc,
        "residual_ode": report.residual_ode,
        "init_coeff": report.init_coeff,
        "converged": report.converged,
    }


def run_solve(path, args) -> int:
    spec, config, _ = load_problem_document(path)
    config = _apply_flag_overrides(config, args)
    code = EXIT_OK
    try:
        report = solve_picard(spec, config)
    except NoConvergenceError as exc:
        report, code = exc.report, EXIT_NO_CONVERGENCE
    _write(format_table(report.solution), args.out)
    _write(dumps_report(_solve_report_doc(report)), args.report)
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
    if not np.all(np.abs(nodes - mesh.nodes) <= 1e-12):  # NaN fails too
        raise MeshMismatchError("table nodes do not match the problem mesh")
    grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=w)
    residual_bc = verify_bc(spec, params, grid)
    residual_ode = verify_ode(spec, grid)
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
    check_args = argparse.Namespace(sweep_p=True, paper_literal=False, report=None)
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
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--sweep-p", action="store_true", dest="sweep_p",
                      help="sweep admissible exponents p in {4, 8, 16, 64}")
    mode.add_argument("--paper-literal", action="store_true", dest="paper_literal",
                      help="use the file's p verbatim and compare against its "
                           "declared reference values")
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
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (HilferError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
