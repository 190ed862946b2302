import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from hilferbvp.cli import _apply_flag_overrides, build_parser, main
from hilferbvp.errors import SchemaError
from hilferbvp.problemio import (
    example_problem_path,
    load_problem,
    load_problem_document,
    serialize_spec,
)
from hilferbvp.solver import SolveConfig

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
    assert main(["check", path, "--paper-literal"]) == 1


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
    assert main(["check", path, "--paper-literal"]) == 1


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
    assert main(["check", EXAMPLE, "--paper-literal"]) == 3
    assert main(["check", EXAMPLE]) == 3  # default uses the file's p verbatim
    violated = write_problem(tmp_path, rho="1000*(t/16)", p="4")
    assert main(["check", violated, "--sweep-p"]) == 2


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


def test_example_command(capsys):
    assert main(["example"]) == 0
    captured = capsys.readouterr()
    assert '"verdict": "satisfied"' in captured.out
    assert '"converged": true' in captured.out


def test_example_command_coarse_mesh(capsys):
    assert main(["example", "--n", "64"]) == 0
    captured = capsys.readouterr()
    assert '"converged": true' in captured.out


def test_usage_errors(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1
    assert main(["check", "/nonexistent.json"]) == 1
    assert main(["check", EXAMPLE, "--sweep-p", "--paper-literal"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    assert main(["solve", write_problem(tmp_path, c=math.nan)]) == 1
    bad.write_text('{"c": ' + "1" * 5000 + "}")  # past Python's int-parsing limit
    assert main(["check", str(bad)]) == 1


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
        (["check", EXAMPLE, "--paper-literal"], 3),
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


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["check", EXAMPLE, "--paper-literal"], "check_paper_literal.json"),
        (["check", EXAMPLE, "--sweep-p"], "check_sweep.json"),
        (["solve", str(DATA / "nontrivial.json")], "solve_nontrivial_report.json"),
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
    for name in ("check_paper_literal.json", "check_sweep.json", "solve_nontrivial_report.json"):
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


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.integrate pulls in sparse, linalg and optimize: ~26 MB of RSS
    # and ~0.2 s on every CLI start
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
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
