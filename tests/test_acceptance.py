"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its runtime budget. Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np

from hilferbvp import specfun
from hilferbvp.cli import main
from hilferbvp.existence import certificate, certificate_at, sweep_certificates
from hilferbvp.expr import parse, pretty
from hilferbvp.fraccalc import (
    FracOrder,
    KernelOperator,
    WeightedGrid,
    _derivative_profile,
    build_mesh,
    hilfer_derivative_num,
    rl_derivative_num,
    rl_integral_monomial,
    rl_integral_quad,
)
from hilferbvp.problemio import example_problem_path, load_problem
from hilferbvp.solver import (
    ProblemSpec,
    SolveConfig,
    derive_params,
    solve_picard,
    solve_volterra_ivp,
)

EXAMPLE = str(example_problem_path())

# oracle values, frozen ahead of the build from 50-digit evaluation of the
# closed forms (see tests/test_existence.py for the expressions)
LAMBDA_P4 = 11.456586824501692
DELTA_P4 = 3.3669044815441846
RHO_P4 = 0.041796269061026377
G_P4 = 0.18339289117636599
L_P4 = 0.08121015390487931


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gamma_derivation():
    spec = load_problem(EXAMPLE)
    start = time.perf_counter()
    params = derive_params(spec)
    elapsed = time.perf_counter() - start
    ok = params.gamma == 0.5 and elapsed < 1e-3
    _report(
        "criterion 1 (gamma derivation)",
        ok,
        f"gamma = {params.gamma!r} (exact 0.5: {params.gamma == 0.5}), "
        f"runtime {elapsed * 1e3:.3f} ms < 1 ms",
    )


def test_criterion_2_monomial_identities():
    start = time.perf_counter()
    mesh = build_mesh(0.0, 1.0, 256, 1.0, [])
    pairs = [(mu, d) for mu in (0.2, 0.4, 0.6, 0.8) for d in (0.4, 0.75, 1.0, 2.5, 3.0)]
    assert len(pairs) == 20
    worst = 0.0
    for mu, delta in pairs:
        if delta <= 1.0:
            grid = WeightedGrid(mesh=mesh, gamma=delta, w=np.ones(len(mesh.nodes)))
            got = rl_integral_quad(grid, mu, 1.0)
        else:
            got = rl_integral_quad(mesh.nodes ** (delta - 1.0), mu, 1.0, mesh)
        want = rl_integral_monomial(mu, delta, 0.0, 1.0)
        worst = max(worst, abs(got - want))

    # empirical order on a smooth-after-weighting integrand (w = cos under
    # the (s)^{gamma-1} weight) via Richardson ratios
    values = []
    for n in (64, 128, 256, 512):
        m = build_mesh(0.0, 1.0, n, 1.0, [])
        g = WeightedGrid(mesh=m, gamma=0.5, w=np.cos(m.nodes))
        values.append(rl_integral_quad(g, 0.4, 1.0))
    orders = [
        math.log2(abs(values[i] - values[i + 1]) / abs(values[i + 1] - values[i + 2]))
        for i in range(2)
    ]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and min(orders) >= 1.8 and elapsed < 10.0
    _report(
        "criterion 2 (monomial identities)",
        ok,
        f"20 pairs, worst error {worst:.2e} <= 1e-4; orders "
        f"{[f'{o:.2f}' for o in orders]} >= 1.8; runtime {elapsed:.2f} s < 10 s",
    )


def test_criterion_3_existence_certificate():
    start = time.perf_counter()
    spec = load_problem(EXAMPLE)
    params = derive_params(spec)

    literal = certificate(spec, params)  # the file's p = 1/2, used verbatim
    literal_ok = literal.verdict == "inadmissible" and not literal.admissible

    at4 = certificate_at(spec, params, 4.0)
    tol = 1e-10

    def rel(x, y):
        return abs(x - y) / abs(y)

    oracle_ok = (
        at4.verdict == "satisfied"
        and at4.G < 1.0
        and at4.L_star < 1.0
        and rel(at4.lambda_const, LAMBDA_P4) <= tol
        and rel(at4.delta_const, DELTA_P4) <= tol
        and rel(at4.G, G_P4) <= tol
        and rel(at4.L_star, L_P4) <= tol
        and rel(at4.rho_norm, RHO_P4) <= tol
    )

    # the literal constants are not reproduced at any admissible exponent
    reports, _ = sweep_certificates(spec, params)
    not_reproduced = all(
        abs(r.G - 0.03) > 0.01 and abs(r.L_star - 0.14) > 0.01 for r in reports
    )

    # the discrepancy report names the inadmissible pair and the declared
    # reference norm 1/48 vs the computed 1/36
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", EXAMPLE, "--paper-literal"])
    doc = json.loads(buf.getvalue())
    notes = " | ".join(doc["notes"])
    notes_ok = (
        code == 3
        and "inadmissible" in notes
        and "1/48" in notes
        and abs(doc["rho_norm"] - 1.0 / 36.0) <= 1e-9
        and "1/p + 1/q = 1" in notes
    )
    elapsed = time.perf_counter() - start
    ok = literal_ok and oracle_ok and not_reproduced and notes_ok and elapsed < 1.0
    _report(
        "criterion 3 (existence certificate)",
        ok,
        f"paper-literal verdict {literal.verdict}; p=4 verdict {at4.verdict}, "
        f"G = {at4.G:.12g}, L* = {at4.L_star:.12g} (oracle match <= 1e-10); "
        f"literal 0.03/0.14 not reproduced: {not_reproduced}; "
        f"runtime {elapsed:.2f} s < 1 s",
    )


def test_criterion_4_manufactured_solution():
    start = time.perf_counter()
    spec = ProblemSpec(
        order=FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0),
        a=0.0,
        b=1.0,
        c=1.0,
        d=0.0,
        nonlocal_terms=(),
        f=parse("1"),
        rho=parse("t/16"),
        p=4.0,
    )
    report = solve_picard(spec, SolveConfig(n_base=512))
    mu, gamma = spec.order.mu, spec.order.gamma
    nodes = report.solution.mesh.nodes
    exact_w = nodes ** (1.0 - gamma + mu) / specfun.gamma(mu + 1.0)
    err = float(np.max(np.abs(report.solution.w - exact_w)))
    elapsed = time.perf_counter() - start
    ok = report.converged and err <= 1e-3 and elapsed < 5.0
    _report(
        "criterion 4 (manufactured solution)",
        ok,
        f"weighted max error {err:.2e} <= 1e-3 at N=512; "
        f"runtime {elapsed:.2f} s < 5 s",
    )


def test_criterion_5_example_end_to_end():
    start = time.perf_counter()
    spec = load_problem(EXAMPLE)
    config = SolveConfig(n_base=512, tol=1e-8, max_iter=50)
    report = solve_picard(spec, config)
    ivp = solve_volterra_ivp(spec, report.init_coeff, config)
    equivalence = float(np.max(np.abs(ivp.w - report.solution.w)))
    elapsed = time.perf_counter() - start
    ok = (
        report.converged
        and report.iterations <= 50
        and report.residual_bc <= 1e-6
        and report.residual_ode <= 5e-2
        and equivalence <= 1e-6
        and elapsed < 30.0
    )
    _report(
        "criterion 5 (end-to-end solve)",
        ok,
        f"converged in {report.iterations} iterations; residual_bc "
        f"{report.residual_bc:.2e} <= 1e-6; residual_ode {report.residual_ode:.2e}"
        f" <= 5e-2; IVP equivalence {equivalence:.2e} <= 1e-6; "
        f"runtime {elapsed:.2f} s < 30 s",
    )


def test_criterion_6_property_suites(tmp_path):
    start = time.perf_counter()
    failures = []

    # Gamma recurrence and reflection at 1e-10 relative
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.1, 50.0, size=300):
        x = float(x)
        if abs(specfun.gamma(x + 1.0) - x * specfun.gamma(x)) / specfun.gamma(x + 1.0) > 1e-10:
            failures.append(f"recurrence at {x}")
    for x in rng.uniform(1e-3, 1.0 - 1e-3, size=300):
        x = float(x)
        lhs = specfun.gamma(x) * specfun.gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        if abs(lhs - rhs) / abs(rhs) > 1e-10:
            failures.append(f"reflection at {x}")

    # semigroup on monomials under refinement
    mu, nu, delta = 0.4, 0.3, 1.5
    errors = []
    for n in (64, 128, 256):
        m = build_mesh(0.0, 1.0, n, 1.0, [])
        inner = np.array(
            [0.0] + [rl_integral_monomial(nu, delta, 0.0, float(t)) for t in m.nodes[1:]]
        )
        outer = rl_integral_quad(inner, mu, 1.0, m)
        errors.append(abs(outer - rl_integral_monomial(mu + nu, delta, 0.0, 1.0)))
    if not (errors[2] < errors[1] < errors[0]):
        failures.append(f"semigroup refinement not monotone: {errors}")

    # two-parameter derivative endpoint reductions at 1e-10
    m = build_mesh(0.0, 1.0, 128, 2.0, [])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.cos(m.nodes))
    for j in (10, 60, 120):
        t = float(m.nodes[j])
        d_rl = rl_derivative_num(g, 0.4, t)
        d_h0 = hilfer_derivative_num(g, FracOrder(mu=0.4, nu=0.0), t)
        if abs(d_rl - d_h0) > 1e-10:
            failures.append(f"nu=0 reduction at node {j}")
    mu_c = 0.4
    m1 = build_mesh(0.0, 1.0, 128, 1.0, [])
    g1 = WeightedGrid(mesh=m1, gamma=1.0, w=np.sin(m1.nodes) + 2.0)
    d = _derivative_profile(m1.nodes, g1.w.copy())
    dd = np.array(d)
    dd[0] = 0.0
    dd[-1] = 0.0
    caputo_ref = KernelOperator(m1.nodes, 1.0 - mu_c).apply(dd, ("power", mu_c - 1.0))
    caputo_ref = caputo_ref / specfun.gamma(1.0 - mu_c)
    for j in (10, 60, 120):
        t = float(m1.nodes[j])
        got = hilfer_derivative_num(g1, FracOrder(mu=mu_c, nu=1.0), t)
        if abs(got - float(caputo_ref[j])) > 1e-10:
            failures.append(f"nu=1 reduction at node {j}")

    # certificate scaling linearity at 1e-12 relative
    from dataclasses import replace

    spec = load_problem(EXAMPLE)
    params = derive_params(spec)
    base = certificate_at(spec, params, 4.0)
    s = 3.25
    scaled = certificate(replace(spec, rho=parse(f"{s!r}*(t/16)"), p=4.0), params)
    for name, a, b in (
        ("rho_norm", scaled.rho_norm, s * base.rho_norm),
        ("G", scaled.G, s * base.G),
        ("L_star", scaled.L_star, s * base.L_star),
    ):
        if abs(a - b) / abs(b) > 1e-12:
            failures.append(f"scaling linearity of {name}")

    # parser round-trip corpus
    from test_expr import ROUND_TRIP_CORPUS

    if len(ROUND_TRIP_CORPUS) < 30:
        failures.append("round-trip corpus smaller than 30")
    for source in ROUND_TRIP_CORPUS:
        if parse(pretty(parse(source))) != parse(source):
            failures.append(f"round trip failed for {source!r}")

    # CLI exit-code matrix
    from test_cli import DATA, write_problem

    table = tmp_path / "t.csv"
    problem = str(DATA / "nontrivial.json")
    main(["solve", problem, "--out", str(table), "--report", str(tmp_path / "r.json")])
    violated = write_problem(tmp_path, rho="1000*(t/16)", p="4")
    matrix = [
        (["check", EXAMPLE, "--sweep-p"], 0),
        (["no-such-command"], 1),
        (["check", violated], 2),
        (["check", EXAMPLE, "--paper-literal"], 3),
        (["solve", problem, "--max-iter", "1"], 4),
        (["verify", problem, str(table)], 0),
    ]
    import io
    from contextlib import redirect_stderr, redirect_stdout

    for argv, expected in matrix:
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf_out), redirect_stderr(buf_err):
            code = main(argv)
        if code != expected:
            failures.append(f"exit code {code} != {expected} for {argv}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "criterion 6 (property suites)",
        ok,
        (f"{len(failures)} failures {failures[:3]}" if failures else "all properties hold")
        + f"; runtime {elapsed:.2f} s < 60 s",
    )
