import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilferbvp import cli, solver
from hilferbvp.cli import _apply_flag_overrides, build_parser, main
from hilferbvp.errors import MeshMismatchError, SchemaError
from hilferbvp.expr import compile_expr
from hilferbvp.problemio import (
    example_problem_path,
    load_problem,
    load_problem_document,
    serialize_spec,
)
from hilferbvp.solver import SolveConfig, problem_mesh

DATA = Path(__file__).parent / "data"
EXAMPLE = str(example_problem_path())


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = {
        "mu": "1/3",
        "nu": "1/4",
        "a": "0",
        "b": "1",
        "c": "1/4",
        "d": "3/4",
        "nonlocal": [{"lambda": "2/5", "tau": "2/3"}],
        "f": "(1/16)*t*sin(abs(z))",
        "rho": "t/16",
        "p": "1/2",
    }
    doc.update(overrides)
    for key in [k for k, v in doc.items() if v is None]:
        del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_load_bundled_example():
    spec = load_problem(EXAMPLE)
    assert spec.order.mu == pytest.approx(1.0 / 3.0, rel=0, abs=0)
    assert spec.order.nu == 0.25
    assert spec.order.gamma == 0.5
    assert spec.c == 0.25 and spec.d == 0.75
    assert spec.nonlocal_terms == ((0.4, 2.0 / 3.0),)
    assert spec.p == 0.5


def test_load_missing_key(tmp_path):
    path = write_problem(tmp_path, mu=None)
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "mu"


def test_load_tau_out_of_range(tmp_path):
    path = write_problem(tmp_path, **{"nonlocal": [{"lambda": "1", "tau": 1.5}]})
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "nonlocal[0].tau"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "key", ["mu", "nu", "a", "b", "c", "d", "p", "nonlocal[0].lambda", "nonlocal[0].tau"]
)
def test_load_rejects_non_finite_numbers(tmp_path, key, value):
    # json writes and reads the tokens NaN, Infinity and -Infinity
    if key.startswith("nonlocal"):
        term = {"lambda": "2/5", "tau": "2/3", key.split(".")[1]: value}
        path = write_problem(tmp_path, **{"nonlocal": [term]})
    else:
        path = write_problem(tmp_path, **{key: value})
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == key


@pytest.mark.parametrize("value", ["1/0", "log(0)", "exp(1000)"])
@pytest.mark.parametrize("key", ["c", "nonlocal[0].tau"])
def test_load_names_the_key_of_an_evaluation_error(tmp_path, key, value):
    if key.startswith("nonlocal"):
        path = write_problem(tmp_path, **{"nonlocal": [{"lambda": "2/5", "tau": value}]})
    else:
        path = write_problem(tmp_path, **{key: value})
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == key
    assert main(["check", path]) == 1


def test_load_rejects_a_literal_that_overflows(tmp_path):
    # 1e999 would parse to inf, and serialize_spec would then write
    # "inf*t*0.0+t", which load_problem rejects
    path = write_problem(tmp_path, f="1e999*t*0+t")
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "f"
    assert main(["solve", path, "--out", str(tmp_path / "t.csv")]) == 1


@pytest.mark.parametrize(
    "value",
    [[1], {"x": 1}, True, math.nan, 10**400, "sin(", "1/0", "t"],
    ids=["list", "object", "true", "nan", "10**400", "sin(", "1/0", "t"],
)
def test_load_rejects_malformed_reference_values(tmp_path, value):
    path = write_problem(tmp_path, reference={"q": "1/2", "G": value})
    with pytest.raises(SchemaError) as err:
        load_problem_document(path)
    assert err.value.key == "reference.G"
    assert main(["check", path]) == 1


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"solvr": {"n_base": 64}}, "solvr"),
        ({"nonlocal": [{"lambda": "2/5", "tau": "2/3", "tua": "1/2"}]}, "nonlocal[0].tua"),
        ({"reference": {"q": "1/2", "Lstar": 0.14}}, "reference.Lstar"),
        ({"solver": {"n_base": 64, "whatever": 3}}, "solver.whatever"),
    ],
    ids=["top", "nonlocal", "reference", "solver"],
)
def test_load_rejects_unknown_keys(tmp_path, overrides, key):
    path = write_problem(tmp_path, **overrides)
    with pytest.raises(SchemaError) as err:
        load_problem_document(path)
    assert err.value.key == key
    assert main(["check", path]) == 1


def test_load_rejects_variables_in_scalars(tmp_path):
    path = write_problem(tmp_path, c="t+1")
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "c"


def test_load_rejects_z_in_rho(tmp_path):
    path = write_problem(tmp_path, rho="z*t")
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "rho"


def test_load_rejects_bad_solver_block(tmp_path):
    path = write_problem(tmp_path, solver={"n_base": "many"})
    with pytest.raises(SchemaError):
        load_problem(path)
    path = write_problem(tmp_path, solver={"whatever": 3})
    with pytest.raises(SchemaError):
        load_problem(path)
    path = write_problem(tmp_path, solver={"tol": math.inf})
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "solver.tol"


@pytest.mark.parametrize(
    "overrides, key, message",
    [
        ({"nu": "2"}, "nu", "nu must lie in [0, 1], got 2.0"),
        ({"nu": "-1/4"}, "nu", "nu must lie in [0, 1]"),
        ({"mu": "1"}, "mu", "mu must lie in (0, 1), got 1.0"),
        ({"mu": "0", "nu": "2"}, "mu", "mu must lie in (0, 1)"),
        ({"solver": {"n_base": 4}}, "solver.n_base", "n_base must be >= 8, got 4"),
        ({"solver": {"tol": 0}}, "solver.tol", "tol must be positive"),
        ({"solver": {"max_iter": 0}}, "solver.max_iter", "max_iter must be >= 1"),
        ({"solver": {"damping": 2}}, "solver.damping", "damping must lie in (0, 1]"),
        ({"solver": {"n_base": 64, "grading": 0.5}}, "solver.grading", "grading must be >= 1"),
    ],
    ids=["nu", "nu-negative", "mu", "mu-and-nu", "n_base", "tol", "max_iter", "damping",
         "grading"],
)
def test_load_files_a_range_error_under_its_own_key(tmp_path, capsys, overrides, key, message):
    path = write_problem(tmp_path, **overrides)
    with pytest.raises(SchemaError) as err:
        load_problem_document(path)
    assert err.value.key == key
    assert main(["check", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: {message}")


def _not_an_object(doc):
    return [doc]


def _without_f(doc):
    del doc["f"]
    return doc


@pytest.mark.parametrize(
    "edit, key, message",
    [
        (_not_an_object, None, "top level must be an object"),
        ({"b": "0"}, "b", "need a < b"),
        ({"a": "1"}, "b", "need a < b"),
        ({"nonlocal": {"lambda": "1", "tau": "1/2"}}, "nonlocal", "expected a list"),
        ({"nonlocal": [["1", "1/2"]]}, "nonlocal[0]", "expected a {lambda, tau} object"),
        ({"p": "0"}, "p", "exponent must be positive"),
        ({"p": "-1/2"}, "p", "exponent must be positive"),
        ({"reference": ["q", "1/2"]}, "reference", "expected an object"),
        ({"solver": [512]}, "solver", "expected an object"),
        ({"c": "1e308*10"}, "c", "non-finite value inf"),
        (_without_f, "f", "missing required key"),
        ({"f": 3}, "f", "expected an expression string"),
    ],
    ids=["top-level", "b=a", "b<a", "nonlocal-object", "nonlocal-item", "p=0", "p<0",
         "reference", "solver", "c-inf", "f-missing", "f-number"],
)
def test_load_problem_document_input_checks(tmp_path, edit, key, message):
    path = write_problem(tmp_path)
    doc = json.loads(Path(path).read_text())
    doc = edit(doc) if callable(edit) else {**doc, **edit}
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_problem_document(path)
    assert err.value.key == (path if key is None else key)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "text, error, message",
    [
        (None, SchemaError, "cannot read table"),
        ("t,w\n0.0,1.0\n", MeshMismatchError, "missing 't,z,w' header"),
        ("t,z,w\n0.0,1.0\n", MeshMismatchError, ":2: expected 3 columns"),
        ("t,z,w\n0.0,1.0,1.0\n0.5,x,one\n", MeshMismatchError, ":3: could not convert"),
        ("t,z,w\n\n0.0,1,2\n\n0.5,1\n", MeshMismatchError, ":5: expected 3 columns"),
    ],
    ids=["unreadable", "header", "columns", "number", "blank-lines"],
)
def test_parse_table_input_checks(tmp_path, text, error, message):
    table = tmp_path / "table.csv"
    if text is not None:
        table.write_text(text)
    with pytest.raises(error, match=re.escape(message)):
        cli.parse_table(str(table))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: hilferbvp" in capsys.readouterr().out


def test_example_stops_at_a_failed_check(tmp_path, monkeypatch, capsys):
    violated = write_problem(tmp_path, rho="1000*(t/16)", p="4")
    monkeypatch.setattr(cli, "example_problem_path", lambda: violated)
    table = tmp_path / "table.csv"
    assert main(["example", "--out", str(table)]) == 2
    assert '"verdict": "violated"' in capsys.readouterr().out
    assert not table.exists()


def test_load_rejects_expression_error(tmp_path):
    path = write_problem(tmp_path, f="sin(")
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.key == "f"


def test_load_missing_file():
    with pytest.raises(SchemaError):
        load_problem("/nonexistent/problem.json")


def test_serialize_round_trip(tmp_path):
    spec = load_problem(str(DATA / "nontrivial.json"))
    doc = serialize_spec(spec)
    path = tmp_path / "round.json"
    path.write_text(json.dumps(doc))
    again = load_problem(str(path))
    assert again.order == spec.order
    assert (again.a, again.b, again.c, again.d) == (spec.a, spec.b, spec.c, spec.d)
    assert again.nonlocal_terms == spec.nonlocal_terms
    assert again.f == spec.f
    assert again.rho == spec.rho
    assert again.p == spec.p


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_check_exits(tmp_path):
    assert main(["check", EXAMPLE, "--sweep-p"]) == 0
    assert main(["check", EXAMPLE]) == 3  # default uses the file's p verbatim
    violated = write_problem(tmp_path, rho="1000*(t/16)", p="4")
    assert main(["check", violated, "--sweep-p"]) == 2


@pytest.mark.parametrize("p", ["0.999", "0.9999"])
def test_check_at_p_just_below_one_is_inadmissible(tmp_path, capsys, p):
    # q is near -1000 and Lambda = B(q(mu-1)+1, q(gamma-1)+1) underflows to
    # 0, so Lambda^{1/q} has no value: G and L* are left null, as at p = 1
    doc = json.loads(Path(EXAMPLE).read_text())
    doc["p"] = p
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    assert main(["check", str(problem)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == 0
    assert (out["G"], out["L_star"], out["terms"]) == (None, None, {"G": None, "L_star": None})
    # a note says why, beside the one on inadmissibility
    assert f"Lambda = 0 at p = {p} " in out["notes"][1]
    assert "G and L_star are not computed" in out["notes"][1]


def test_solve_exits(tmp_path):
    out = tmp_path / "table.csv"
    rep = tmp_path / "report.json"
    assert main(["solve", EXAMPLE, "--n", "64", "--out", str(out), "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["converged"] is True
    assert doc["residual_bc"] <= 1e-6
    # forced non-convergence on a z-dependent problem with nonzero start
    hard = str(DATA / "nontrivial.json")
    assert main(["solve", hard, "--max-iter", "1", "--report", str(rep)]) == 4
    partial = json.loads(rep.read_text())
    assert partial["converged"] is False
    assert partial["iterations"] == 1


def test_solve_zero_rhs_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["solve", str(DATA / "zero_rhs.json"), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z,w"
    for line in lines[1:]:
        assert line.split(",")[2] == "0.0"


def test_verify_round_trip(tmp_path):
    table = tmp_path / "table.csv"
    rep = tmp_path / "rep.json"
    # caputo.json is nontrivial.json at nu = 1
    for name in ("nontrivial.json", "caputo.json"):
        problem = str(DATA / name)
        assert main(["solve", problem, "--out", str(table)]) == 0
        assert main(["verify", problem, str(table), "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["residual_ode"] <= 1e-4, name


@pytest.mark.parametrize("size", [[], ["--n", "256"]])
@pytest.mark.parametrize("name", ["nontrivial.json", "caputo.json"])
def test_verify_reproduces_the_solve_residuals(tmp_path, name, size):
    # at the file's n_base 64 and at 256, where the solve is seeded
    problem = str(DATA / name)
    table, rep, ver = tmp_path / "t.csv", tmp_path / "r.json", tmp_path / "v.json"
    assert main(["solve", problem, *size, "--out", str(table), "--report", str(rep)]) == 0
    assert main(["verify", problem, str(table), *size, "--report", str(ver)]) == 0
    solved, verified = json.loads(rep.read_text()), json.loads(ver.read_text())
    for key in ("residual_bc", "residual_ode"):
        assert verified[key] == solved[key], key


def test_verify_detects_perturbation(tmp_path):
    table = tmp_path / "table.csv"
    rep = tmp_path / "rep.json"
    problem = str(DATA / "nontrivial.json")
    assert main(["solve", problem, "--out", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    bumped = [lines[0]]
    for line in lines[1:]:
        t, z, w = line.split(",")
        bumped.append(f"{t},{z},{float(w) + 0.1!r}")
    table.write_text("\n".join(bumped) + "\n")
    assert main(["verify", problem, str(table), "--report", str(rep)]) == 5
    doc = json.loads(rep.read_text())
    assert doc["ok"] is False
    assert doc["residual_bc"] > 1e-5


def test_verify_evaluates_f_once_per_node(tmp_path, monkeypatch):
    # one whole-vector pass of the compiled f over the table's nodes serves
    # the boundary and the ODE residual
    table = tmp_path / "table.csv"
    problem = str(DATA / "nontrivial.json")
    assert main(["solve", problem, "--out", str(table)]) == 0
    compiled, passes = [], []

    def counting_compile(e, t):
        compiled.append(e)
        f = compile_expr(e, t)

        def counting(z):
            passes.append(len(z))
            return f(z)

        return counting

    monkeypatch.setattr(solver, "compile_expr", counting_compile)
    assert main(["verify", problem, str(table)]) == 0
    spec = load_problem(problem)
    assert compiled == [spec.f]
    assert passes == [len(problem_mesh(spec, SolveConfig(n_base=64)).nodes)]


def test_solve_stops_at_a_non_finite_iterate(tmp_path):
    problem = write_problem(tmp_path, f="z*1e308*10*0 + t", p="4", solver={"n_base": 64})
    rep = tmp_path / "rep.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", problem, "--out", str(tmp_path / "t.csv"), "--report", str(rep)])
    assert code == 4
    doc = json.loads(rep.read_text())
    assert doc["iterations"] == 2
    assert doc["history"][1] == "nan"


def test_an_overflowing_iterate_raises_no_runtime_warning(tmp_path, capsys):
    # f = -1e200 (z|z| - 1) drives the iterate to -inf; inf times the zero
    # weights of the running integral is NaN, and the solve stops on it
    # with its typed message and no numpy warning. The first iterate,
    # T(0), is about 1e200 (below 1e205 at the mesh's first node), so f of
    # it passes 1e600: the second iterate overflows by hundreds of orders
    # of magnitude, before any Anderson mixing, and rounding cannot move
    # that iteration (1e150 and 1e250 for 1e200 give the same)
    doc = json.loads((DATA / "nontrivial.json").read_text())
    doc["f"] = "-1e200*z*abs(z) + 1e200"
    problem = tmp_path / "overflow.json"
    problem.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", str(problem), "--n", "128", "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert "error: the iterate became non-finite at iteration 2" in capsys.readouterr().err


def test_a_budget_that_ends_on_an_overflowing_iterate_raises_no_runtime_warning(tmp_path, capsys):
    # one iteration: T(0) is about 1e200, so its f samples overflow, and
    # the final pass (init_coeff and residuals) meets inf with zero weights
    doc = json.loads((DATA / "nontrivial.json").read_text())
    doc["f"] = "-1e200*z*abs(z) + 1e200"
    problem = tmp_path / "overflow.json"
    problem.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", str(problem), "--n", "128", "--max-iter", "1",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert _error_lines(capsys) == [
        "error: no convergence after 1 iterations (last residual 8.033e+199, tol 1.000e-08)"
    ]


@pytest.mark.parametrize("command", ["solve", "example"])
def test_failed_solve_says_why_on_stderr(tmp_path, monkeypatch, capsys, command):
    # the bundled problem with an f that is inf * 0 once z is nonzero;
    # example runs the same solve path on its bundled file
    problem = write_problem(tmp_path, f="z*1e308*10*0 + t")
    monkeypatch.setattr(cli, "example_problem_path", lambda: problem)
    out, rep = tmp_path / "t.csv", tmp_path / "r.json"
    argv = [command] + ([problem] if command == "solve" else [])
    assert main(argv + ["--n", "64", "--out", str(out), "--report", str(rep)]) == 4
    assert "error: the iterate became non-finite at iteration 2" in capsys.readouterr().err
    assert out.exists() and json.loads(rep.read_text())["converged"] is False
    # the table's NaN w(a) gives z(a) = NaN, not -inf
    assert out.read_text().splitlines()[1] == "0.0,nan,nan"


def _error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


def test_an_f_outside_its_domain_names_its_offset(tmp_path, capsys):
    problem = write_problem(tmp_path, f="sqrt(z - 10) + 1")
    assert main(["solve", problem, "--n", "64", "--out", str(tmp_path / "t.csv")]) == 1
    # the first sample fails: f at t_1, on the iterate w = 0
    t1 = float(problem_mesh(load_problem(problem), SolveConfig(n_base=64)).nodes[1])
    assert _error_lines(capsys) == [
        f"error: f at t = {t1!r}, z = 0.0: sqrt of negative value -10.0 (offset 0)"
    ]


def test_an_f_outside_its_domain_names_the_point(tmp_path, capsys):
    problem = write_problem(tmp_path, f="z + sqrt(1/2 - t)")
    assert main(["solve", problem, "--n", "64", "--out", str(tmp_path / "t.csv")]) == 1
    nodes = problem_mesh(load_problem(problem), SolveConfig(n_base=64)).nodes
    t = float(nodes[nodes > 0.5][0])  # the first node past the domain
    assert _error_lines(capsys) == [
        f"error: f at t = {t!r}, z = 0.0: sqrt of negative value {0.5 - t!r} (offset 4)"
    ]


def test_a_rho_outside_its_domain_names_the_point(tmp_path, capsys):
    problem = write_problem(tmp_path, rho="sqrt(t - 0.5)")
    assert main(["check", problem]) == 1
    [line] = _error_lines(capsys)
    found = re.fullmatch(r"error: rho at t = (\S+): sqrt of negative value (\S+) \(offset 0\)", line)
    assert found, line
    t, value = float(found[1]), float(found[2])
    assert 0.0 <= t < 0.5 and value == t - 0.5


def write_nontrivial(tmp_path, **overrides):
    """tests/data/nontrivial.json at the default n_base, with overrides."""
    doc = json.loads((DATA / "nontrivial.json").read_text())
    del doc["solver"]
    doc.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_tau_next_to_a_is_refused(tmp_path, capsys):
    # merged into node 0, tau would read z(tau) and its running integral as 0
    problem = write_nontrivial(tmp_path, **{"nonlocal": [{"lambda": "2/5", "tau": "1e-13"}]})
    assert main(["solve", problem, "--out", str(tmp_path / "t.csv")]) == 1
    [line] = _error_lines(capsys)
    assert line.startswith("error: extra node 1e-13 ")


def test_a_strongly_graded_problem_away_from_zero_solves_and_verifies(tmp_path, capsys):
    # gamma 0.145, default r = 13.8: on [1, 2] the first nodes a + x round onto a
    problem = write_nontrivial(
        tmp_path, a="1", b="2", mu="1/10", nu="1/20",
        **{"nonlocal": [{"lambda": "2/5", "tau": "1 + 2/3"}]},
    )
    table = tmp_path / "t.csv"
    assert main(["solve", problem, "--out", str(table)]) == 0
    assert main(["verify", problem, str(table)]) == 0
    # at a = 100, with f and rho in t - a, the table's first t cells repeat
    problem = write_nontrivial(
        tmp_path, a="100", b="101", mu="1/10", nu="1/20",
        f="(1/16)*(t - 100)*sin(abs(z)) + 1/4", rho="(t - 100)/16",
        **{"nonlocal": [{"lambda": "2/5", "tau": "100 + 2/3"}]},
    )
    assert main(["solve", problem, "--out", str(table)]) == 0
    t_cells = [line.split(",")[0] for line in table.read_text().splitlines()[1:4]]
    assert t_cells == ["100.0"] * 3
    assert main(["verify", problem, str(table)]) == 0
    assert _error_lines(capsys) == []


def test_verify_trivial_solution(tmp_path):
    table = tmp_path / "table.csv"
    problem = str(DATA / "zero_rhs.json")
    assert main(["solve", problem, "--out", str(table)]) == 0
    assert main(["verify", problem, str(table)]) == 0


def test_verify_mesh_mismatch(tmp_path):
    table = tmp_path / "table.csv"
    problem = str(DATA / "nontrivial.json")
    assert main(["solve", problem, "--out", str(table)]) == 0
    # different mesh size on the verify side
    assert main(["verify", problem, str(table), "--n", "32"]) == 1
    # same size, but one node is NaN: no comparison with it may pass
    example = tmp_path / "example.csv"
    assert main(["solve", EXAMPLE, "--n", "64", "--out", str(example)]) == 0
    lines = example.read_text().splitlines()
    _, z, w = lines[5].split(",")
    lines[5] = f"nan,{z},{w}"
    example.write_text("\n".join(lines) + "\n")
    assert main(["verify", EXAMPLE, str(example), "--n", "64"]) == 1


def _rewrite_t_cells(table, rewrite):
    lines = table.read_text().splitlines()
    rows = [f"{rewrite(float(t))!r},{rest}" for t, rest in (ln.split(",", 1) for ln in lines[1:])]
    table.write_text("\n".join([lines[0], *rows]) + "\n")


def test_verify_reads_a_long_interval_table_written_at_15_digits(tmp_path, capsys):
    # on [0, 1e4] the rounded t cells are up to 5.5e-12 off, 5.5e-16 (b - a):
    # within the node rule, though not within an absolute 1e-12
    problem = write_nontrivial(
        tmp_path, b="10000", f="1/4", **{"nonlocal": [{"lambda": "2/5", "tau": "10000*2/3"}]}
    )
    table = tmp_path / "t.csv"
    assert main(["solve", problem, "--out", str(table)]) == 0
    before = table.read_text()
    _rewrite_t_cells(table, lambda t: float(f"{t:.15g}"))
    assert table.read_text() != before
    assert main(["verify", problem, str(table)]) == 0
    assert _error_lines(capsys) == []


def test_verify_refuses_a_short_interval_table_off_its_nodes(tmp_path, capsys):
    # on [0, 1e-6] a shift of 5e-13 is 5e-7 (b - a), far beyond the node rule
    problem = write_nontrivial(
        tmp_path, b="1e-6", **{"nonlocal": [{"lambda": "2/5", "tau": "2/3*1e-6"}]}
    )
    table = tmp_path / "t.csv"
    assert main(["solve", problem, "--out", str(table)]) == 0
    _rewrite_t_cells(table, lambda t: t + 5e-13)
    assert main(["verify", problem, str(table)]) == 1
    assert _error_lines(capsys) == ["error: table nodes do not match the problem mesh"]


def test_example_command(capsys):
    assert main(["example"]) == 0
    captured = capsys.readouterr()
    assert '"verdict": "satisfied"' in captured.out
    assert '"converged": true' in captured.out


def test_example_command_coarse_mesh(capsys):
    assert main(["example", "--n", "64"]) == 0
    captured = capsys.readouterr()
    assert '"converged": true' in captured.out


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1
    assert main(["check", "/nonexistent.json"]) == 1
    capsys.readouterr()
    # the reference block, not a flag, says whether there is anything to compare
    assert main(["check", EXAMPLE, "--paper-literal"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --paper-literal\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    assert main(["solve", write_problem(tmp_path, c=math.nan)]) == 1
    bad.write_text('{"c": ' + "1" * 5000 + "}")  # past Python's int-parsing limit
    assert main(["check", str(bad)]) == 1


def test_sweep_names_the_conditions_an_inadmissible_exponent_violates(tmp_path, capsys):
    doc = json.loads((DATA / "nontrivial.json").read_text())
    doc["mu"] = "1/100"  # 1/mu = 100 exceeds every swept p
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--sweep-p"]) == 3
    notes = json.loads(capsys.readouterr().out)["notes"]
    assert len(notes) == 1
    assert notes[0].startswith("exponent p = 4 is inadmissible: violated p > 1/mu")
    assert "(1/mu = 100," in notes[0]


def test_singular_problem_exit(tmp_path):
    # lambda tuned so that A = c + d
    import hilferbvp.specfun as sf

    lam = 1.0 * sf.gamma(0.5) * 0.5**0.5
    path = write_problem(
        tmp_path,
        c="1/2",
        d="1/2",
        p="4",
        **{"nonlocal": [{"lambda": repr(lam), "tau": 0.5}]},
    )
    assert main(["check", path]) == 1
    assert main(["solve", path]) == 1


def test_exit_code_matrix(tmp_path):
    table = tmp_path / "t.csv"
    problem = str(DATA / "nontrivial.json")
    main(["solve", problem, "--out", str(table)])
    violated = write_problem(tmp_path, rho="1000*(t/16)", p="4")
    matrix = [
        (["example"], 0),
        (["bogus-command"], 1),
        (["check", violated], 2),
        (["check", EXAMPLE], 3),
        (["solve", problem, "--max-iter", "1"], 4),
        (["verify", problem, str(table)], 0),
    ]
    for argv, expected in matrix:
        assert main(argv) == expected, argv


def test_check_and_verify_reject_flags_they_do_not_read(tmp_path, capsys):
    table = tmp_path / "t.csv"
    problem = str(DATA / "nontrivial.json")
    assert main(["solve", problem, "--out", str(table)]) == 0
    out = ["--out", str(tmp_path / "unused.csv")]
    iteration = [["--tol", "1e-10"], ["--max-iter", "5"], ["--damping", "0.5"], out]
    rejected = [
        ["check", EXAMPLE, "--sweep-p"] + flag
        for flag in [["--n", "64"], ["--grade", "2"]] + iteration
    ]
    rejected += [["verify", problem, str(table)] + flag for flag in iteration]
    for argv in rejected:
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_main_runs_commands_back_to_back_in_one_process(tmp_path, capsys):
    # a check, a verify and a usage error in one process leave nothing
    # behind: the second check prints the first's bytes
    problem = str(DATA / "nontrivial.json")
    table = tmp_path / "t.csv"
    assert main(["solve", problem, "--out", str(table), "--report", str(tmp_path / "r.json")]) == 0
    check = ["check", problem, "--sweep-p"]
    runs = []
    for argv in (check, ["verify", problem, str(table)], check[:2] + ["--n", "64"], check):
        capsys.readouterr()
        runs.append((main(argv), capsys.readouterr().out))
    assert [code for code, _ in runs[1:3]] == [0, 1]
    assert '"ok": true' in runs[1][1] and runs[2][1] == ""
    assert runs[0] == runs[3]
    assert '"sweep": [' in runs[0][1]


def test_solver_flags_and_solver_block_give_the_same_config(tmp_path):
    flags = {"--n": 64, "--grade": 2.5, "--tol": 1e-9, "--max-iter": 7, "--damping": 0.5}
    block = dict(zip((f.name for f in fields(SolveConfig)), flags.values(), strict=True))
    path = write_problem(tmp_path, solver=block)
    argv = ["solve", path] + [str(x) for item in flags.items() for x in item]
    args = build_parser().parse_args(argv)
    # every SolveConfig field is the dest of its solve flag
    assert {name: getattr(args, name) for name in block} == block
    _, from_file, _ = load_problem_document(path)
    assert _apply_flag_overrides(SolveConfig(), args) == from_file == SolveConfig(**block)


# ---------------------------------------------------------------------------
# golden outputs (12 significant digits, byte-compared)
# ---------------------------------------------------------------------------


def test_dumps_report_text():
    doc = {
        "whole": 8.0,
        "third": 1 / 3,
        "small": 1e-5,
        "nan": math.nan,
        "inf": math.inf,
        "minus_inf": -math.inf,
        "empty_list": [],
        "empty_dict": {},
        "nested": (1, (2.5, "x")),
        "flags": [True, None],
        "name": "\u00b5-\u03bd",
    }
    assert cli.dumps_report(doc) == """{
  "whole": 8,
  "third": 0.333333333333,
  "small": 1e-05,
  "nan": "nan",
  "inf": "inf",
  "minus_inf": "-inf",
  "empty_list": [],
  "empty_dict": {},
  "nested": [
    1,
    [
      2.5,
      "x"
    ]
  ],
  "flags": [
    true,
    null
  ],
  "name": "\\u00b5-\\u03bd"
}
"""


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dumps_report_reads_back_as_the_12_digit_value(v):
    got = json.loads(cli.dumps_report({"x": v}))["x"]
    want = json.loads(f"{v:.12g}")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["check", EXAMPLE], "check_paper_literal.json"),
        (["check", EXAMPLE, "--sweep-p"], "check_sweep.json"),
        (["solve", str(DATA / "nontrivial.json")], "solve_nontrivial_report.json"),
        # rho vanishes inside [a, b]: |rho|^p has a kink where the rho norm's
        # panels stop by the integral's tolerance
        (["check", str(DATA / "kinked_rho.json")], "check_kinked_rho.json"),
    ],
)
def test_golden_reports(tmp_path, argv, golden):
    out = tmp_path / "report.json"
    main(argv + ["--report", str(out)])
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_golden_solution_table(tmp_path):
    out = tmp_path / "table.csv"
    main(["solve", str(DATA / "constant_rhs.json"), "--out", str(out), "--report", str(tmp_path / "r.json")])
    assert out.read_bytes() == (DATA / "solve_constant_table.csv").read_bytes()


def test_golden_reports_are_json():
    for name in (
        "check_paper_literal.json",
        "check_sweep.json",
        "solve_nontrivial_report.json",
        "check_kinked_rho.json",
    ):
        doc = json.loads((DATA / name).read_text())
        assert isinstance(doc, dict)


def test_check_report_key_order():
    doc = json.loads((DATA / "check_sweep.json").read_text())
    assert list(doc.keys()) == [
        "gamma", "A", "denom", "p", "q", "lambda", "delta", "rho_norm",
        "G", "L_star", "terms", "verdict", "notes", "sweep",
    ]


def test_paper_literal_notes_name_the_discrepancies():
    doc = json.loads((DATA / "check_paper_literal.json").read_text())
    notes = " | ".join(doc["notes"])
    assert "inadmissible" in notes
    assert "1/48" in notes  # declared reference value
    assert doc["rho_norm"] == pytest.approx(1.0 / 36.0, rel=1e-9)
    assert "1/p + 1/q = 1" in notes
    assert "G" in notes and "L_star" in notes


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "hilferbvp.cli", "check", EXAMPLE, "--sweep-p"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert '"verdict": "satisfied"' in result.stdout


@pytest.mark.parametrize(
    "rho, p",
    [
        ("t*1e308*10*0 + 1", "1/2"),  # NaN at every sample
        ("1e308", "1"),  # finite samples whose norm over [0, 2] is 2e308
    ],
)
def test_check_stops_on_a_non_finite_rho_integral(tmp_path, rho, p):
    # a panel sum that is not finite never meets the tolerance, and halving
    # on it down to depth 40 visits about 2^40 panels: the timeout turns such
    # a hang into a failure
    path = write_problem(tmp_path, rho=rho, p=p, b="2")
    result = subprocess.run(
        [sys.executable, "-m", "hilferbvp.cli", "check", path],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "|rho|^p" in result.stderr


def test_check_sweep_reports_an_overflowing_rho(tmp_path, capsys):
    # t*1e308*10 is inf from t = 0.18 (a product lets the inf through):
    # an error line, not a traceback
    path = write_problem(tmp_path, rho="t*1e308*10")
    assert main(["check", path, "--sweep-p"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[a, b] = [0.0, 1.0]" in err


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.integrate pulls in sparse, linalg and optimize: ~26 MB of RSS
    # and ~0.2 s on every CLI start; scipy.special alone is ~24 MB, and the
    # package uses no scipy at all
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")
    code = f"import sys, hilferbvp.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_solution_table_inf_cell():
    text = (DATA / "solve_constant_table.csv").read_text().splitlines()
    first_row = text[1].split(",")
    assert first_row[0] == "0.0"
    assert first_row[1] in ("inf", "-inf")
    # w column round-trips through repr
    w0 = float(first_row[2])
    assert math.isfinite(w0) and w0 != 0.0
