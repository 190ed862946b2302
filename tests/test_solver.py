import hashlib
import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hilferbvp import expr, fraccalc, solver, specfun
from hilferbvp.errors import DomainError, EvalError, NoConvergenceError, SingularProblemError
from hilferbvp.expr import compile_expr, evaluate, parse
from hilferbvp.fraccalc import FracOrder, WeightedGrid, weighted_norm
from hilferbvp.problemio import example_problem_path, load_problem
from hilferbvp.solver import (
    ProblemSpec,
    SolveConfig,
    apply_T,
    derive_params,
    grading_exponent,
    problem_mesh,
    residuals,
    solve_picard,
    solve_volterra_ivp,
    verify_bc,
    verify_ode,
)

DATA = Path(__file__).parent / "data"

# frozen closed-form values for the bundled nonlocal instance
#   A = (2/5) (2/3)^{-1/2} / Gamma(1/2), computed with 50-digit arithmetic
A_EXAMPLE = 0.27639531957706838
DENOM_EXAMPLE = 0.72360468042293162


def example_spec():
    return load_problem(str(example_problem_path()))


def spec_with(f, c=1.0, d=0.0, nonlocal_terms=(), mu=1.0 / 3.0, nu=1.0 / 4.0, p=4.0):
    return ProblemSpec(
        order=FracOrder(mu=mu, nu=nu),
        a=0.0,
        b=1.0,
        c=c,
        d=d,
        nonlocal_terms=nonlocal_terms,
        f=parse(f),
        rho=parse("t/16"),
        p=p,
    )


def panel_spec(panel, f, mu, nu):
    """A case of Anderson panel A (c = 1, d = 1/2, lambda = 0.3 at tau = 1/2)
    or B (c = 1, d = 0, no nonlocal term); see PANEL_CASES."""
    if panel == "A":
        return spec_with(f, c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), mu=mu, nu=nu)
    return spec_with(f, c=1.0, d=0.0, mu=mu, nu=nu)


# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------


def test_derive_params_example():
    spec = example_spec()
    params = derive_params(spec)
    assert params.gamma == 0.5
    assert params.A == pytest.approx(A_EXAMPLE, abs=1e-6)
    assert params.denom == pytest.approx(DENOM_EXAMPLE, abs=1e-6)
    # and far tighter, since this is a three-factor closed form
    assert params.A == pytest.approx(A_EXAMPLE, rel=1e-12)


def test_derive_params_empty_sum():
    spec = spec_with("1", c=0.3, d=0.4)
    params = derive_params(spec)
    assert params.A == 0.0
    assert params.denom == pytest.approx(0.7)


def test_derive_params_singular():
    # choose lambda so that A = c + d exactly: lambda = (c+d) Gamma(gamma) tau^{1-gamma}
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    tau = 0.5
    lam = 1.0 * specfun.gamma(order.gamma) * tau ** (1.0 - order.gamma)
    spec = spec_with("1", c=0.25, d=0.75, nonlocal_terms=((lam, tau),))
    with pytest.raises(SingularProblemError):
        derive_params(spec)


def test_grading_default():
    spec = example_spec()
    assert grading_exponent(spec, SolveConfig()) == 4.0
    assert grading_exponent(spec, SolveConfig(grading=1.5)) == 1.5


def test_problem_mesh_contains_taus():
    spec = example_spec()
    mesh = problem_mesh(spec, SolveConfig(n_base=64))
    mesh.index_of(2.0 / 3.0)  # must not raise


def test_solve_config_validation():
    with pytest.raises(DomainError):
        SolveConfig(n_base=4)
    with pytest.raises(DomainError):
        SolveConfig(tol=0.0)
    with pytest.raises(DomainError):
        SolveConfig(damping=0.0)
    with pytest.raises(DomainError):
        SolveConfig(grading=0.5)
    with pytest.raises(DomainError):
        SolveConfig(max_iter=0)


@pytest.mark.parametrize("field, value", [("n_base", 100.5), ("n_base", 100.0), ("max_iter", 2.5)])
def test_solve_config_refuses_a_non_integral_count(field, value):
    # n_base 100.5 once solved the bundled problem on a mesh past b, and
    # max_iter 2.5 raised a TypeError from range
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value!r}$"):
        SolveConfig(**{field: value})
    assert SolveConfig(**{field: np.int64(100)}) == SolveConfig(**{field: 100})


# ---------------------------------------------------------------------------
# initial coefficient and the operator
# ---------------------------------------------------------------------------


def zero_grid(spec, n=64):
    mesh = problem_mesh(spec, SolveConfig(n_base=n))
    return WeightedGrid(mesh=mesh, gamma=spec.order.gamma, w=np.zeros(len(mesh.nodes)))


def test_initial_coefficient_zero_integrand():
    spec = spec_with("0", c=0.25, d=0.75, nonlocal_terms=((0.4, 2.0 / 3.0),))
    params = derive_params(spec)
    assert apply_T(spec, params, zero_grid(spec)).w[0] == 0.0


def test_initial_coefficient_no_boundary_terms():
    spec = spec_with("sin(t)+2", c=1.0, d=0.0)
    params = derive_params(spec)
    assert apply_T(spec, params, zero_grid(spec)).w[0] == 0.0


def test_initial_coefficient_example_zero_iterate():
    spec = example_spec()
    params = derive_params(spec)
    # f(s, 0) = (1/16) s sin(0) = 0 kills both integrals
    assert apply_T(spec, params, zero_grid(spec)).w[0] == 0.0


def test_apply_T_constant_rhs_closed_form():
    spec = spec_with("1")
    params = derive_params(spec)
    z = zero_grid(spec, n=256)
    out = apply_T(spec, params, z)
    mu, gamma = spec.order.mu, spec.order.gamma
    want = out.mesh.nodes ** (1.0 - gamma + mu) / specfun.gamma(mu + 1.0)
    assert np.max(np.abs(out.w - want)) <= 1e-12
    assert out.w[0] == 0.0


def test_apply_T_zero_rhs():
    spec = spec_with("0", c=0.5, d=0.5)
    params = derive_params(spec)
    out = apply_T(spec, params, zero_grid(spec))
    assert np.all(out.w == 0.0)


def test_apply_T_ignores_z_when_f_does():
    spec = spec_with("t^2+1", c=0.25, d=0.75, nonlocal_terms=((0.4, 2.0 / 3.0),))
    params = derive_params(spec)
    mesh = problem_mesh(spec, SolveConfig(n_base=64))
    n = len(mesh.nodes)
    z1 = WeightedGrid(mesh=mesh, gamma=params.gamma, w=np.zeros(n))
    z2 = WeightedGrid(mesh=mesh, gamma=params.gamma, w=np.linspace(-3.0, 5.0, n))
    out1 = apply_T(spec, params, z1)
    out2 = apply_T(spec, params, z2)
    assert np.array_equal(out1.w, out2.w)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


def test_picard_z_independent_one_step():
    spec = spec_with("t+1", c=0.25, d=0.75, nonlocal_terms=((0.4, 2.0 / 3.0),))
    report = solve_picard(spec, SolveConfig(n_base=64))
    # constant map: one productive step, then an identical one
    assert report.converged
    assert report.iterations == 2
    assert report.history[-1] == 0.0


def test_picard_manufactured_solution():
    spec = spec_with("1")
    report = solve_picard(spec, SolveConfig(n_base=512))
    mu, gamma = spec.order.mu, spec.order.gamma
    nodes = report.solution.mesh.nodes
    want = nodes ** (1.0 - gamma + mu) / specfun.gamma(mu + 1.0)
    assert report.converged
    assert np.max(np.abs(report.solution.w - want)) <= 1e-3


def test_picard_example_converges():
    spec = example_spec()
    report = solve_picard(spec, SolveConfig(n_base=512, tol=1e-8, max_iter=50))
    assert report.converged
    assert report.iterations <= 50
    assert report.residual_bc <= 1e-6


def test_picard_nontrivial_fixed_point():
    # z-dependent with nonzero forcing: genuine contraction iteration
    spec = spec_with(
        "(1/16)*t*sin(abs(z)) + 1/4", c=0.25, d=0.75,
        nonlocal_terms=((0.4, 2.0 / 3.0),),
    )
    report = solve_picard(spec, SolveConfig(n_base=128))
    assert report.converged
    assert report.iterations >= 3
    assert weighted_norm(report.solution) > 0.1
    # fixed-point residual: re-apply the operator once
    params = derive_params(spec)
    again = apply_T(spec, params, report.solution)
    assert np.max(np.abs(again.w - report.solution.w)) <= 2e-8


def test_picard_divergence_raises():
    spec = spec_with("4*z + 1")
    with pytest.raises(NoConvergenceError) as err:
        solve_picard(spec, SolveConfig(n_base=32, max_iter=30))
    report = err.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 30


def test_anderson_converges_where_plain_picard_does_not():
    # plain Picard on f = -4z + 1 has not converged after 100 iterations
    spec = spec_with("-4*z + 1", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    report = solve_picard(spec, SolveConfig(n_base=32))
    assert report.converged


def test_anderson_drops_a_mixed_iterate_whose_residual_grows():
    # plain Picard converges here in 23 iterations after a transient, and
    # mixing without the growth check wanders until max_iter
    spec = spec_with("7*z/(1+z^2) + 1", c=1.0, d=0.0, mu=0.3, nu=0.0)
    assert solve_picard(spec, SolveConfig(n_base=32)).converged


def test_picard_stops_at_a_non_finite_iterate():
    # z*1e308*10 overflows to inf once z is nonzero, and inf*0 is NaN: the
    # second iterate is NaN, and the loop stops there instead of running
    # to max_iter
    spec = spec_with("z*1e308*10*0 + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    with pytest.raises(NoConvergenceError, match="non-finite") as err:
        with np.errstate(over="ignore", invalid="ignore"):
            solve_picard(spec, SolveConfig(n_base=64))
    report = err.value.report
    assert report.iterations == 2
    assert math.isfinite(report.history[0]) and math.isnan(report.history[1])


def test_a_non_finite_iterate_raises_no_runtime_warning():
    # the bundled problem with f = z*1e308*10*0 + t: evaluate's * overflows
    # to inf silently, as its contract says, so the solve ends in
    # NoConvergenceError and numpy prints no scalar-multiply warning
    spec = replace(example_spec(), f=parse("z*1e308*10*0 + t"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError, match="non-finite"):
            solve_picard(spec, SolveConfig(n_base=64))


@pytest.mark.parametrize("source", ["z*1e308*10 + t", "z*1e308*10 - z*1e308*10", "1e300/(z*1e-300)"])
def test_f_at_nodes_overflows_silently(source):
    # + - * / overflow and form inf - inf on whole node vectors
    # as on floats: evaluate's values, and no numpy RuntimeWarning
    tree = parse(source)
    t = np.array([0.25, 0.5, 0.75, 1.0])
    z = np.array([1.0, -2.0, 0.5, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = solver._f_at_nodes(compile_expr(tree, t), t, z)
    want = [evaluate(tree, ti, zi) for ti, zi in zip(t.tolist(), z.tolist())]
    assert [repr(v) for v in phi.tolist()] == [repr(v) for v in want]
    assert not np.isfinite(phi).any()


def test_f_at_nodes_names_the_first_failing_node():
    # nodes 3 and 4 are both outside the domain; node 3 is named, with its
    # (t, z) and the offset of the sqrt
    t = np.array([0.0, 0.1, 0.4, 0.6, 0.9])
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(EvalError) as err:
        solver._f_at_nodes(compile_expr(parse("z + sqrt(1/2 - t)"), t), t, z)
    assert str(err.value) == (
        f"f at t = 0.6, z = 4.0: sqrt of negative value {0.5 - 0.6!r} (offset 4)"
    )


def test_verify_ode_samples_f_at_its_checked_nodes_only():
    # z + log(t - t_k) is undefined at the nodes up to t_k: with t_k the
    # node below the first checked one the residual is finite, and with
    # t_k the first checked node that node's t and z are named
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    grid = solve_picard(spec, SolveConfig(n_base=64)).solution
    first = solver._checked_nodes(grid.mesh).start
    t, z = grid.mesh.nodes.tolist(), grid.z_values().tolist()
    assert first > 1
    skipped = replace(spec, f=parse(f"z + log(t - {t[first - 1]!r})"))
    assert math.isfinite(verify_ode(skipped, grid))
    checked = replace(spec, f=parse(f"z + log(t - {t[first]!r})"))
    with pytest.raises(EvalError) as err:
        verify_ode(checked, grid)
    assert str(err.value) == (
        f"f at t = {t[first]!r}, z = {z[first]!r}: log of non-positive value 0.0 (offset 4)"
    )


def test_picard_max_iter_one():
    spec = spec_with("(1/16)*t*sin(abs(z)) + 1/4")
    with pytest.raises(NoConvergenceError):
        solve_picard(spec, SolveConfig(n_base=32, max_iter=1))


# ---------------------------------------------------------------------------
# solves seeded from a coarse mesh
# ---------------------------------------------------------------------------


def _unseeded(spec, config):
    """(w, iterations, converged) of the iteration from zero on config's mesh."""
    mesh = problem_mesh(spec, config)
    ws = solver._Workspace(spec, derive_params(spec), mesh)
    w, history, converged = solver._picard_loop(ws.apply, np.zeros(len(mesh.nodes)), config)
    return w, len(history), converged


def test_seeded_large_solve_meets_a_tight_solve(large_anchor):
    config = SolveConfig(n_base=1024)
    report = solve_picard(large_anchor, config)
    tight = solve_picard(large_anchor, replace(config, tol=1e-13, max_iter=500))
    assert np.max(np.abs(report.solution.w - tight.solution.w)) <= 1e-9


def test_coarse_seed_saves_fine_iterations(large_anchor):
    config = SolveConfig(n_base=1024)
    report = solve_picard(large_anchor, config)
    _, iterations, converged = _unseeded(large_anchor, config)
    assert converged
    assert report.iterations <= iterations - 2


@pytest.mark.parametrize("n_base", [128, 256])
def test_seeded_small_solve_meets_a_tight_solve(batch_anchor, n_base):
    config = SolveConfig(n_base=n_base)
    report = solve_picard(batch_anchor, config)
    tight = solve_picard(batch_anchor, replace(config, tol=1e-13, max_iter=500))
    assert np.max(np.abs(report.solution.w - tight.solution.w)) <= 1e-9


@pytest.mark.parametrize("n_base", [128, 256])
def test_coarse_seed_saves_small_solve_iterations(batch_anchor, n_base):
    # measured: 5 and 4 fine iterations against 8 from zero
    config = SolveConfig(n_base=n_base)
    report = solve_picard(batch_anchor, config)
    _, iterations, converged = _unseeded(batch_anchor, config)
    assert converged
    assert report.iterations <= iterations - 2


@pytest.mark.parametrize("n_base, calls", [(64, 1), (128, 2)])
def test_only_a_solve_from_n_base_128_is_seeded(monkeypatch, n_base, calls):
    # n_base 64 has no valid coarse mesh (64 // 16 < 8): one iteration, from
    # zero; n_base 128 iterates on 8 intervals first
    starts = []
    loop = solver._picard_loop

    def recording(step, w0, config):
        starts.append(w0.copy())
        return loop(step, w0, config)

    monkeypatch.setattr(solver, "_picard_loop", recording)
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    solve_picard(spec, SolveConfig(n_base=n_base))
    assert len(starts) == calls
    assert not np.any(starts[0])
    assert np.any(starts[-1]) == (calls == 2)


@pytest.mark.parametrize("n_base", [128, 1024])
def test_seeded_solve_stops_at_a_non_finite_iterate(n_base):
    # the coarse level turns NaN at its second iterate and seeds nothing, so
    # the fine level fails as an unseeded solve does
    spec = spec_with("z*1e308*10*0 + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    with pytest.raises(NoConvergenceError, match="non-finite at iteration 2") as err:
        solve_picard(spec, SolveConfig(n_base=n_base))
    assert err.value.report.iterations == 2


@pytest.mark.parametrize("n_base", [128, 1024])
def test_seeded_solve_keeps_its_iteration_budget(n_base):
    # with max_iter 1 the coarse level cannot converge: the fine level
    # starts from zero and spends its one iteration, which returns T(0)
    spec = spec_with("(1/16)*t*sin(abs(z)) + 1/4")
    config = SolveConfig(n_base=n_base, max_iter=1)
    with pytest.raises(NoConvergenceError) as err:
        solve_picard(spec, config)
    assert err.value.report.iterations == 1
    params = derive_params(spec)
    mesh = problem_mesh(spec, config)
    zero = WeightedGrid(mesh=mesh, gamma=params.gamma, w=np.zeros(len(mesh.nodes)))
    assert np.array_equal(err.value.report.solution.w, apply_T(spec, params, zero).w)


# A seeded draw (random.Random("seeded panel")) of cases of Anderson panels A
# and B (see PANEL_CASES below) at n_base 128 and 256, tol 1e-10, that
# converge both seeded and from zero. Over the whole panels the two agree
# to 2.4e-10 relative wherever both converge.
SEEDED_PANEL_CASES = [
    (128, "A", "-4*z + 1", 1 / 3, 1 / 4),
    (128, "A", "1*z/(1+z^2) + 1", 1 / 3, 1 / 4),
    (128, "B", "-2*z + 1", 0.3, 0.0),
    (128, "B", "-4*z + 1", 0.7, 0.0),
    (128, "B", "4*z + 1", 0.7, 0.5),
    (256, "B", "4*z + 1", 0.7, 1.0),
]


@pytest.mark.parametrize("n_base, panel, f, mu, nu", SEEDED_PANEL_CASES)
def test_seed_does_not_switch_fixed_points(n_base, panel, f, mu, nu):
    spec = panel_spec(panel, f, mu, nu)
    config = SolveConfig(n_base=n_base, tol=1e-10)
    w = solve_picard(spec, config).solution.w
    w0, _, converged = _unseeded(spec, config)
    assert converged
    assert np.max(np.abs(w - w0)) <= 1e-9 * max(1.0, np.max(np.abs(w0)))


def test_picard_homogeneous_zero():
    spec = spec_with("0", c=0.3, d=0.6)
    report = solve_picard(spec, SolveConfig(n_base=64))
    assert report.converged
    assert np.all(report.solution.w == 0.0)
    assert report.init_coeff == 0.0


def test_picard_deterministic():
    spec = spec_with("(1/16)*t*sin(abs(z)) + 1/8", c=0.5, d=0.5)
    r1 = solve_picard(spec, SolveConfig(n_base=64))
    r2 = solve_picard(spec, SolveConfig(n_base=64))
    assert np.array_equal(r1.solution.w, r2.solution.w)
    assert r1.history == r2.history
    assert r1.init_coeff == r2.init_coeff
    assert r1.residual_bc == r2.residual_bc
    assert r1.residual_ode == r2.residual_ode


def test_picard_mesh_consistency():
    spec = spec_with(
        "(1/16)*t*sin(abs(z)) + 1/4", c=0.25, d=0.75,
        nonlocal_terms=((0.4, 2.0 / 3.0),),
    )
    sols = {}
    for n in (64, 128, 256):
        rep = solve_picard(spec, SolveConfig(n_base=n, tol=1e-12))
        sols[n] = rep.solution
    # compare on the shared coarse skeleton (graded meshes nest under doubling)
    def values_on(grid, ts):
        return np.array([grid.w_at(float(t)) for t in ts])

    probe = sols[64].mesh.nodes[1:]
    d1 = np.max(np.abs(values_on(sols[64], probe) - values_on(sols[128], probe)))
    d2 = np.max(np.abs(values_on(sols[128], probe) - values_on(sols[256], probe)))
    assert d1 / d2 >= 3.0


# A seeded draw from the cases of two panels that the solver converges on,
# plus the two initial-value cases (k = 2 at (mu, nu) = (0.5, 1), k = 4 at
# (0.7, 0.5)) that plain Picard with damping halving lost. Panel A: f in
# {k z + 1, k sin z + t, -k z + 1, -k z|z| + 1, k z/(1+z^2) + 1}, c = 1,
# d = 1/2, lambda = 0.3 at tau = 1/2, mu = 1/3, nu = 1/4, n_base 64. Panel
# B: f = k z + 1, c = 1, d = 0, no nonlocal term, n_base 32. Both at tol
# 1e-10: at 1e-8 two iterations stop up to 2.4e-8 apart on the slowly
# contracting cases, so w would compare stop rules, not fixed points.
PANEL_CASES = [
    ("A", "-1*z*abs(z) + 1", 1 / 3, 1 / 4),
    ("A", "-2*z + 1", 1 / 3, 1 / 4),
    ("A", "-8*z + 1", 1 / 3, 1 / 4),
    ("A", "1*z + 1", 1 / 3, 1 / 4),
    ("A", "1*z/(1+z^2) + 1", 1 / 3, 1 / 4),
    ("A", "2*z + 1", 1 / 3, 1 / 4),
    ("B", "-2*z + 1", 0.3, 0.0),
    ("B", "-4*z + 1", 0.5, 1.0),
    ("B", "-4*z + 1", 0.7, 0.5),
    ("B", "-8*z + 1", 0.7, 0.5),
    ("B", "0.5*z + 1", 0.3, 1.0),
    ("B", "0.5*z + 1", 0.7, 0.0),
    ("B", "0.5*z + 1", 0.7, 0.5),
    ("B", "1*z + 1", 0.3, 0.5),
    ("B", "1*z + 1", 0.7, 1.0),
    ("B", "2*z + 1", 0.3, 1.0),
    ("B", "2*z + 1", 0.5, 1.0),
    ("B", "4*z + 1", 0.7, 0.5),
]
# w of the cases that plain damped Picard (with the halving) solved,
# recorded from that solver at the same settings
PANEL_PICARD_W = json.loads((DATA / "panel_picard_w.json").read_text())


@pytest.mark.parametrize("panel, f, mu, nu", PANEL_CASES)
def test_panel_case_converges_to_the_recorded_fixed_point(panel, f, mu, nu):
    spec = panel_spec(panel, f, mu, nu)
    n_base = 64 if panel == "A" else 32
    report = solve_picard(spec, SolveConfig(n_base=n_base, tol=1e-10))
    assert report.converged
    want = PANEL_PICARD_W.get(f"{panel} {f} mu={mu!r} nu={nu!r}")
    if want is not None:
        assert np.max(np.abs(report.solution.w - np.array(want))) <= 1e-8


# ---------------------------------------------------------------------------
# Volterra initial-value oracle and equivalence
# ---------------------------------------------------------------------------


def test_volterra_constant_rhs():
    spec = spec_with("1")
    grid = solve_volterra_ivp(spec, 0.0, SolveConfig(n_base=256))
    mu, gamma = spec.order.mu, spec.order.gamma
    want = grid.mesh.nodes ** (1.0 - gamma + mu) / specfun.gamma(mu + 1.0)
    assert np.max(np.abs(grid.w - want)) <= 1e-10


def test_volterra_pure_power():
    spec = spec_with("0")
    gamma = spec.order.gamma
    grid = solve_volterra_ivp(spec, specfun.gamma(gamma), SolveConfig(n_base=64))
    assert np.max(np.abs(grid.w - 1.0)) <= 1e-12


def test_volterra_requires_finite_seed():
    spec = spec_with("0")
    with pytest.raises(DomainError):
        solve_volterra_ivp(spec, math.inf)


def test_volterra_non_convergence_attaches_the_partial_grid():
    spec = spec_with("4*z + 1")
    config = SolveConfig(n_base=32, max_iter=2)
    with pytest.raises(NoConvergenceError) as err:
        solve_volterra_ivp(spec, 1.0, config)
    grid = err.value.report
    assert isinstance(grid, WeightedGrid)
    assert np.array_equal(grid.mesh.nodes, problem_mesh(spec, config).nodes)
    assert np.all(np.isfinite(grid.w)) and np.any(grid.w != 0.0)


@pytest.mark.parametrize(
    "bounds, terms",
    [((1.0, 1.0), ()), ((1.0, 0.0), ()), ((0.0, 1.0), ((0.5, 0.0),)), ((0.0, 1.0), ((0.5, 1.5),))],
    ids=["b=a", "b<a", "tau=a", "tau>b"],
)
def test_problem_spec_rejects_bad_bounds_and_taus(bounds, terms):
    a, b = bounds
    with pytest.raises(DomainError):
        ProblemSpec(
            order=FracOrder(0.5, 0.5), a=a, b=b, c=1.0, d=0.0, nonlocal_terms=terms,
            f=parse("z"), rho=parse("1"), p=4.0,
        )


def test_equivalence_example():
    spec = example_spec()
    config = SolveConfig(n_base=512)
    report = solve_picard(spec, config)
    ivp = solve_volterra_ivp(spec, report.init_coeff, config)
    assert np.max(np.abs(ivp.w - report.solution.w)) <= 1e-6


def test_equivalence_randomized():
    rng = np.random.default_rng(20240809)
    found = 0
    attempts = 0
    while found < 5 and attempts < 20:
        attempts += 1
        mu = float(rng.uniform(0.3, 0.9))
        nu = float(rng.uniform(0.0, 1.0))
        c = float(rng.uniform(0.3, 1.0))
        d = float(rng.uniform(0.1, 0.8))
        lam = float(rng.uniform(0.05, 0.3))
        tau = float(rng.uniform(0.3, 0.9))
        s1 = float(rng.uniform(0.02, 0.08))
        spec = ProblemSpec(
            order=FracOrder(mu=mu, nu=nu),
            a=0.0,
            b=1.0,
            c=c,
            d=d,
            nonlocal_terms=((lam, tau),),
            f=parse(f"{s1}*t*cos(z) + {s1}"),
            rho=parse("t/16"),
            p=4.0,
        )
        try:
            config = SolveConfig(n_base=128)
            report = solve_picard(spec, config)
        except (SingularProblemError, NoConvergenceError):
            continue
        ivp = solve_volterra_ivp(spec, report.init_coeff, config)
        assert np.max(np.abs(ivp.w - report.solution.w)) <= 1e-6
        found += 1
    assert found == 5


# ---------------------------------------------------------------------------
# closed forms at small gamma, with f growing in z
#
# mu = 0.15, nu = 0.05 (gamma 0.1925, default r 10.4): z reaches 1e20 on
# the first cells, so far-cell weights that cancel down to rounding show
# through f. Bounds set from the Gauss rule on far cells.
# ---------------------------------------------------------------------------


def _mittag_leffler(mp, alpha, beta, x):
    """E_{alpha,beta}(x) = sum_k x^k / Gamma(alpha k + beta), 0 <= x <= 1,
    to 30 digits: past alpha k + beta = 2 the terms fall."""
    total, k = mp.mpf(0), 0
    while True:
        term = x**k * mp.rgamma(alpha * k + beta)
        total += term
        if alpha * k + beta > 2 and term < mp.mpf(10) ** -30 * total:
            return total
        k += 1


# relative error bounds at n_base 256, 2048, 8192; the parent rule read
# 5.6e3 / 3.2e2 / 2.2e6 at mu = 0.15 and 5.5e-5 at mu = 0.25, n_base 8192
BOUNDARY_ROW_BOUNDS = {
    (0.15, 0.05): (1e-2, 2e-4, 1e-5),
    (0.25, 0.1): (1.5e-3, 3e-5, 2e-6),
    (1.0 / 3.0, 0.25): (3e-4, 7e-6, 5e-7),
}


@pytest.mark.parametrize("mu, nu", sorted(BOUNDARY_ROW_BOUNDS))
def test_boundary_row_integrates_the_weight_against_beta(mu, nu):
    # w = 1: z = (t-a)^{gamma-1}, sample 0 at t_1 as the solver takes it,
    # and int_0^1 (1-s)^{mu-gamma} s^{gamma-1} ds = B(1-gamma+mu, gamma)
    spec = spec_with("z", c=1.0, d=1.0, mu=mu, nu=nu)
    params = derive_params(spec)
    gamma = params.gamma
    want = specfun.beta(1.0 - gamma + mu, gamma)
    errors = []
    for n_base in (256, 2048, 8192):
        ws = solver._Workspace(spec, params, problem_mesh(spec, SolveConfig(n_base=n_base)))
        errors.append(abs(float((ws.boundary_weights @ ws.weight_down)[0]) - want) / want)
    assert errors == sorted(errors, reverse=True), errors
    assert all(e <= bound for e, bound in zip(errors, BOUNDARY_ROW_BOUNDS[mu, nu])), errors


@pytest.mark.parametrize("far", [False, True], ids=["dense", "split"])
def test_linear_ivp_at_small_gamma_meets_mittag_leffler(far, monkeypatch):
    # f = z, z_a = 1: w = E_{mu,gamma}((t-a)^mu). The parent rule read
    # 1.47 / 12.8 / 5.9e3 / 1.5e6 at n_base 64-512
    mp = pytest.importorskip("mpmath")
    monkeypatch.setattr(fraccalc, "_FAR_MIN_NODES", 0 if far else 1 << 30)
    spec = spec_with("z", mu=0.15, nu=0.05)
    mu, gamma = spec.order.mu, spec.order.gamma
    errors = []
    for n_base in (64, 128, 256, 512):
        grid = solve_volterra_ivp(spec, 1.0, SolveConfig(n_base=n_base, tol=1e-13))
        rows = np.unique(np.linspace(0, len(grid.w) - 1, 60).astype(int))
        with mp.workdps(30):
            want = [float(_mittag_leffler(mp, mu, gamma, mp.mpf(x) ** mu))
                    for x in grid.mesh.x[rows]]
        errors.append(np.max(np.abs(grid.w[rows] - want)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.5), (errors, orders)
    assert errors[-1] <= 0.05, errors


def _affine_k(mp, spec, R):
    """init_coeff K of f = R z + 1 on [0, 1]: with z = K t^{gamma-1}
    E_{mu,gamma}(R t^mu) + t^mu E_{mu,mu+1}(R t^mu), the boundary
    condition c K + d (K E_{mu,1}(R) + E_{mu,mu+2-gamma}(R)) =
    sum_k lambda_k z(tau_k) is linear in K."""
    mu, gamma = mp.mpf(spec.order.mu), mp.mpf(spec.order.gamma)
    E = lambda b, x: _mittag_leffler(mp, mu, b, x)  # noqa: E731
    lhs = spec.c + spec.d * E(1, R)
    rhs = -spec.d * E(mu + 2 - gamma, R)
    for lam, tau in spec.nonlocal_terms:
        tau = mp.mpf(tau)
        lhs -= lam * tau ** (gamma - 1) * E(gamma, R * tau**mu)
        rhs += lam * tau**mu * E(mu + 1, R * tau**mu)
    return float(rhs / lhs)


@pytest.mark.parametrize("far", [False, True], ids=["dense", "split"])
@pytest.mark.parametrize("n_base, bound", [(512, 3e-4), (2048, 3e-5)])
def test_affine_bvp_at_small_gamma_meets_its_closed_form(n_base, bound, far, monkeypatch):
    # K = -0.39407431424; the parent rule read init_coeff 2.1e-5 at
    # n_base 512 and -0.00579 at 2048
    mp = pytest.importorskip("mpmath")
    monkeypatch.setattr(fraccalc, "_FAR_MIN_NODES", 0 if far else 1 << 30)
    spec = load_problem(str(DATA / "small_gamma_affine.json"))
    with mp.workdps(30):
        K = _affine_k(mp, spec, mp.mpf(0.5))
    assert abs(K + 0.39407431424) <= 1e-11
    report = solve_picard(spec, SolveConfig(n_base=n_base))
    assert report.converged
    assert abs(report.init_coeff - K) <= bound, report.init_coeff


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def test_verify_bc_pure_power():
    spec = spec_with("0", c=0.3, d=0.6)
    params = derive_params(spec)
    mesh = problem_mesh(spec, SolveConfig(n_base=64))
    grid = WeightedGrid(
        mesh=mesh, gamma=params.gamma, w=np.full(len(mesh.nodes), 0.8)
    )
    # z = 0.8 Gamma(gamma)(t-a)^{gamma-1}/Gamma(gamma): the boundary identity
    # reduces to (c+d) Gamma(gamma) w0 on both sides only when m = 0 and the
    # solved problem forces w0 = 0; for the solved f=0 problem:
    report = solve_picard(spec, SolveConfig(n_base=64))
    assert verify_bc(spec, params, report.solution) <= 1e-10
    # deliberately violated: w(a) forced away from the solved value
    assert verify_bc(spec, params, grid) > 1e-3


def test_verify_bc_example():
    spec = example_spec()
    params = derive_params(spec)
    report = solve_picard(spec, SolveConfig(n_base=256))
    assert verify_bc(spec, params, report.solution) <= 1e-6


def test_verify_bc_detects_violation():
    spec = example_spec()
    params = derive_params(spec)
    mesh = problem_mesh(spec, SolveConfig(n_base=64))
    w = np.zeros(len(mesh.nodes))
    w[0] = 1.0  # unconverged iterate with forced weighted endpoint value
    grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=w)
    assert verify_bc(spec, params, grid) > 0.0


def test_dense_kernel_moments_built_once_per_order(monkeypatch):
    # above the crossover no all-row build: the running integral is a near
    # band plus the SOE far field, and verify_ode needs none at any nu; the
    # boundary integral, in the solve and in verify_bc, reads one row. At
    # n_base 1024 the coarse seed solve reads its own boundary row first.
    builds = []
    build = fraccalc.kernel_weights

    def counting(nodes, beta, *rest, **kw):
        W = build(nodes, beta, *rest, **kw)
        builds.append(len(W) == len(nodes))
        return W

    monkeypatch.setattr(fraccalc, "kernel_weights", counting)
    for nu in (0.25, 1.0):
        spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), nu=nu)
        config = SolveConfig(n_base=1024)
        assert len(problem_mesh(spec, config).nodes) >= fraccalc._FAR_MIN_NODES
        builds.clear()
        report = solve_picard(spec, config)
        assert builds == [False, False], nu
        builds.clear()
        verify_bc(spec, derive_params(spec), report.solution)
        assert builds == [False], nu


# First 16 hex digits of one sha256 over the bytes of w followed by
# (init_coeff, residual_bc, *history), with mu = 1/3, c = 1, d = 1/2,
# lambda = 0.3 at tau = 1/2: for f = 0.5 sin z + t, keyed (nu, n_base), and
# for the benchmark-shaped _T_HEAVY_F, keyed (f, nu, n_base), whose t-only
# powers inside and beside sin a compiled pass can read once per node
# vector. Recorded with the C library's Gamma (math.gamma, x86-64, glibc,
# numpy 2.4), the kernel moments folded into one node-weight matrix (far
# cells by the Gauss rule) and the Anderson-mixed iteration, whose least
# squares run in LAPACK; the n_base 256 solves start from the solve on 16
# intervals. A change to the Gamma values, to the least-squares solver, to
# the seed or to the floating-point order of a solve moves these bits.
_T_HEAVY_F = "0.8*t^0.3 + 0.5*(sin(z) - sin(1.2*t^-0.4 + 0.7*t^0.9))"
SOLVE_DIGESTS = {
    (0.0, 64): ("f44045db254b9004", 11),
    (0.0, 256): ("3a210fd389885996", 9),
    (0.25, 64): ("885c085e15c1bdff", 11),
    (0.25, 256): ("98b9e0ed7a522619", 9),
    (0.6, 64): ("eed587cb8f4edde4", 11),
    (0.6, 256): ("ee97b24973170db1", 8),
    (1.0, 64): ("8c009be75282e7c7", 11),
    (1.0, 256): ("74fc894460190a1c", 8),
    (_T_HEAVY_F, 0.25, 64): ("39c9bd0bb21f0e76", 10),
    (_T_HEAVY_F, 0.25, 256): ("589c604dd601dd65", 9),
    (_T_HEAVY_F, 1.0, 64): ("35c6824bb1346c04", 10),
    (_T_HEAVY_F, 1.0, 256): ("f512365afd646375", 9),
}


def _digest_cases(table):
    """Every key of table, with the test id of its fields joined by '-'."""
    return [pytest.param(key, id="-".join(map(str, key))) for key in table]


def _digest_solve(key):
    """(spec, report) of a digest key, (nu, n_base) or (f, nu, n_base)."""
    f, nu, n_base = key if len(key) == 3 else ("0.5*sin(z) + t", *key)
    spec = spec_with(f, c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), nu=nu)
    return spec, solve_picard(spec, SolveConfig(n_base=n_base))


@pytest.mark.parametrize("key", _digest_cases(SOLVE_DIGESTS))
def test_solve_is_bit_identical_to_recorded_values(key):
    _, report = _digest_solve(key)
    h = hashlib.sha256(report.solution.w.tobytes())
    h.update(np.array([report.init_coeff, report.residual_bc, *report.history]).tobytes())
    assert (h.hexdigest()[:16], report.iterations) == SOLVE_DIGESTS[key]


# verify_ode of the solutions above, as float.hex, recorded with the whole
# derivative profile built: the residual reads only the stencils of the
# checked nodes, so building the profile from their first row moves no bit
VERIFY_ODE_BITS = {
    (0.0, 64): "0x1.7526e825cc1cep-9",
    (0.0, 256): "0x1.8c8e9a91b83c4p-11",
    (0.25, 64): "0x1.117e7cfeb7504p-8",
    (0.25, 256): "0x1.70085b1d4a450p-12",
    (0.6, 64): "0x1.e942895cd6019p-12",
    (0.6, 256): "0x1.262ecfca76d12p-15",
    (1.0, 64): "0x1.be79bd4c46000p-13",
    (1.0, 256): "0x1.36b1ca5738000p-15",
    (_T_HEAVY_F, 0.25, 64): "0x1.d8951af7de4e2p-7",
    (_T_HEAVY_F, 0.25, 256): "0x1.05fd76aee1c88p-8",
    (_T_HEAVY_F, 1.0, 64): "0x1.2894ae8bc7180p-5",
    (_T_HEAVY_F, 1.0, 256): "0x1.4fe902a0aaf00p-9",
}


@pytest.mark.parametrize("key", _digest_cases(VERIFY_ODE_BITS))
def test_verify_ode_is_bit_identical_to_recorded_values(key):
    spec, report = _digest_solve(key)
    assert verify_ode(spec, report.solution).hex() == VERIFY_ODE_BITS[key]


def test_a_second_f_pass_reads_the_t_only_subtrees_of_the_first(monkeypatch):
    # on one workspace's node vector the powers of t and the sin of their
    # sum are computed by the first pass only: the second makes no pow call
    # and one sin call per node, for sin(z)
    calls = {"pow": 0, "sin": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(math, "pow", counted("pow", math.pow))
    monkeypatch.setitem(expr._UNARY, "sin", expr._mapped(counted("sin", math.sin)))
    spec = spec_with(_T_HEAVY_F, c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    ws = solver._Workspace(spec, derive_params(spec), problem_mesh(spec, SolveConfig(n_base=64)))
    n = len(ws.sample_nodes)
    ws.f_samples(np.linspace(0.0, 1.0, n))
    assert calls == {"pow": 3 * n, "sin": 2 * n}
    calls.update(pow=0, sin=0)
    ws.f_samples(np.linspace(1.0, -1.0, n))
    assert calls == {"pow": 0, "sin": n}


def test_a_failing_t_only_subtree_raises_again_on_every_pass():
    # log(t - 0.5) fails at the nodes below 0.5; the pass that fails keeps
    # nothing of it, so a later pass over the same t raises the same error
    t = np.array([0.75, 1.0, 0.25, 0.5])
    f = compile_expr(parse("z + log(t - 0.5)"), t)
    errors = []
    for z in (np.zeros(4), np.ones(4)):
        with pytest.raises(EvalError) as err:
            f(z)
        errors.append((str(err.value), err.value.pos, err.value.index))
    assert errors == [(f"log of non-positive value {0.25 - 0.5!r} (offset 4)", 4, 2)] * 2


def test_solve_frees_its_moments_before_verify_ode(monkeypatch):
    # below the crossover the running integral holds the N x N weights W;
    # they are dropped before verify_ode runs, which builds none. The
    # crossover is moved above this mesh: below the real one, at the 258
    # nodes of n_base 256, the solve's other temporaries weigh more against
    # the smaller W, and it peaks at 2.6 arrays with W freed
    monkeypatch.setattr(fraccalc, "_FAR_MIN_NODES", 1 << 30)
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    config = SolveConfig(n_base=384)
    n = len(problem_mesh(spec, config).nodes)
    tracemalloc.start()
    try:
        solve_picard(spec, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ((n - 1) * n * 8) <= 2.0


def test_solve_holds_no_square_array_above_the_crossover():
    # the running integral holds a near band and O(N L) SOE factors, so
    # the whole solve peaks below half of one (N-1) x N float64 array;
    # the dense W alone would be one
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    config = SolveConfig(n_base=2047)
    n = len(problem_mesh(spec, config).nodes)
    assert n >= fraccalc._FAR_MIN_NODES
    tracemalloc.start()
    try:
        solve_picard(spec, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ((n - 1) * n * 8) <= 0.5


def test_solve_starts_no_thread(monkeypatch):
    # n_base 1024: large enough that every build has dozens of row blocks,
    # which all run in the calling thread
    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    assert solve_picard(spec, SolveConfig(n_base=1024)).converged


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_base", [64, 1024])
def test_solve_reports_the_residual_that_verify_ode_computes(n_base, nu):
    # the solve feeds its last f samples to the ODE residual; verify_ode
    # evaluates f itself, at the same points: both sides of the
    # running integral's crossover
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), nu=nu)
    report = solve_picard(spec, SolveConfig(n_base=n_base))
    assert (len(report.solution.mesh.nodes) >= fraccalc._FAR_MIN_NODES) == (n_base > 64)
    assert report.residual_ode == verify_ode(spec, report.solution)
    assert report.residual_bc == verify_bc(spec, derive_params(spec), report.solution)
    pair = residuals(spec, derive_params(spec), report.solution)
    assert pair == (report.residual_bc, report.residual_ode)


def test_verify_ode_pure_power():
    spec = spec_with("0", c=0.3, d=0.6, nonlocal_terms=((0.1, 0.5),))
    params = derive_params(spec)
    mesh = problem_mesh(spec, SolveConfig(n_base=512))
    grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=np.ones(len(mesh.nodes)))
    assert verify_ode(spec, grid) <= 1e-2


def test_verify_ode_manufactured():
    spec = spec_with("1")
    report = solve_picard(spec, SolveConfig(n_base=512))
    assert report.residual_ode <= 1e-2


def test_verify_ode_example():
    spec = example_spec()
    report = solve_picard(spec, SolveConfig(n_base=512))
    assert report.residual_ode <= 1e-2


def test_verify_ode_nontrivial():
    spec = spec_with(
        "(1/16)*t*sin(abs(z)) + 1/4", c=0.25, d=0.75,
        nonlocal_terms=((0.4, 2.0 / 3.0),),
    )
    report = solve_picard(spec, SolveConfig(n_base=512))
    assert report.residual_ode <= 5e-2
    assert report.residual_bc <= 1e-6


def test_verify_ode_propagates_nan():
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    report = solve_picard(spec, SolveConfig(n_base=64))
    assert 0.0 < report.residual_ode < 1e-2
    w = report.solution.w.copy()
    w[40] = math.nan
    grid = WeightedGrid(mesh=report.solution.mesh, gamma=report.solution.gamma, w=w)
    assert math.isnan(verify_ode(spec, grid))


def test_verify_ode_residual_is_second_order_on_the_exact_solution():
    # z* = 0.8 t^{gamma-1} + 0.6 t^{delta-1}; tau = b, so no node is
    # inserted inside the mesh
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    gamma, mu = order.gamma, order.mu
    delta = gamma + 0.45
    coef = 0.6 * math.gamma(delta) / math.gamma(delta - mu)
    spec = ProblemSpec(
        order=order, a=0.0, b=1.0, c=1.0, d=0.5, nonlocal_terms=((0.3, 1.0),),
        f=parse(f"{coef!r}*t^{delta - mu - 1.0!r}"), rho=parse("t/16"), p=4.0,
    )
    residuals = []
    for n_base in (256, 512, 1024):
        mesh = problem_mesh(spec, SolveConfig(n_base=n_base))
        w = 0.8 + 0.6 * mesh.nodes ** (delta - gamma)
        residuals.append(verify_ode(spec, WeightedGrid(mesh=mesh, gamma=gamma, w=w)))
    orders = [math.log2(residuals[k] / residuals[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9, (residuals, orders)


@pytest.mark.parametrize("nu", [0.25, 1.0])
def test_verify_ode_holds_no_square_array(nu):
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), nu=nu)
    report = solve_picard(spec, SolveConfig(n_base=511))
    n = len(report.solution.mesh.nodes)
    tracemalloc.start()
    try:
        verify_ode(spec, report.solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ((n - 1) * n * 8) <= 1.0


# ---------------------------------------------------------------------------
# problems away from a = 0
# ---------------------------------------------------------------------------


def shifted_spec(a, mu, nu):
    """tests/data/nontrivial.json moved to [a, a + 1], with f and rho written in
    t - a (regular at a) and tau = a + 2/3."""
    return ProblemSpec(
        order=FracOrder(mu=mu, nu=nu), a=a, b=a + 1.0, c=0.25, d=0.75,
        nonlocal_terms=((0.4, a + 2.0 / 3.0),),
        f=parse(f"(1/16)*(t - {a!r})*sin(abs(z)) + 1/4"), rho=parse(f"(t - {a!r})/16"), p=4.0,
    )


# (mu, nu, grading): the default r = 2/gamma (4 and 13.8), r = 4.4 and r = 8
SHIFTED_CASES = [(1 / 3, 1 / 4, None), (1 / 10, 1 / 20, None), (1 / 3, 1 / 4, 4.4), (1 / 3, 1 / 4, 8.0)]


@pytest.mark.parametrize("mu, nu, grading", SHIFTED_CASES)
def test_a_shifted_solve_matches_the_solve_at_zero(mu, nu, grading):
    # the meshes hold the same offsets x = t - a, so the solves differ only
    # in the points a + x at which f is sampled
    config = SolveConfig(n_base=512, grading=grading, tol=1e-13)
    w0 = solve_picard(shifted_spec(0.0, mu, nu), config).solution.w
    for a in (1.0, 10.0, 100.0):
        w = solve_picard(shifted_spec(a, mu, nu), config).solution.w
        assert np.max(np.abs(w - w0)) <= 1e-13, a


def test_a_shifted_grid_reads_as_the_grid_at_zero():
    config = SolveConfig(n_base=512, grading=8.0, tol=1e-13)
    g0 = solve_picard(shifted_spec(0.0, 1 / 3, 1 / 4), config).solution
    a = 100.0
    g = solve_picard(shifted_spec(a, 1 / 3, 1 / 4), config).solution
    assert g.mesh.nodes[1] == a                       # a + x_1 rounds onto a
    assert np.max(np.abs(g.mesh.x - g0.mesh.x)) <= 1e-13   # tau - a rounds
    assert g.mesh.index_of(a + 2.0 / 3.0) == g0.mesh.index_of(2.0 / 3.0)
    for s in (2.0 / 3.0, 0.1, 0.5, 1.0):
        assert g.w_at(a + s) == pytest.approx(g0.w_at(s), rel=0, abs=1e-13)
        assert g.z_at(a + s) == pytest.approx(g0.z_at(s), rel=1e-12)
