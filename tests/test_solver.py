import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from hilferbvp import fraccalc, specfun
from hilferbvp.errors import DomainError, NoConvergenceError, SingularProblemError
from hilferbvp.expr import parse
from hilferbvp.fraccalc import FracOrder, WeightedGrid, weighted_norm
from hilferbvp.problemio import example_problem_path, load_problem
from hilferbvp.solver import (
    ProblemSpec,
    SolveConfig,
    apply_T,
    derive_params,
    grading_exponent,
    initial_coefficient,
    problem_mesh,
    solve_picard,
    solve_volterra_ivp,
    verify_bc,
    verify_ode,
)

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


# ---------------------------------------------------------------------------
# initial coefficient and the operator
# ---------------------------------------------------------------------------


def zero_grid(spec, n=64):
    mesh = problem_mesh(spec, SolveConfig(n_base=n))
    return WeightedGrid(mesh=mesh, gamma=spec.order.gamma, w=np.zeros(len(mesh.nodes)))


def test_initial_coefficient_zero_integrand():
    spec = spec_with("0", c=0.25, d=0.75, nonlocal_terms=((0.4, 2.0 / 3.0),))
    params = derive_params(spec)
    assert initial_coefficient(spec, params, zero_grid(spec)) == 0.0


def test_initial_coefficient_no_boundary_terms():
    spec = spec_with("sin(t)+2", c=1.0, d=0.0)
    params = derive_params(spec)
    assert initial_coefficient(spec, params, zero_grid(spec)) == 0.0


def test_initial_coefficient_example_zero_iterate():
    spec = example_spec()
    params = derive_params(spec)
    # f(s, 0) = (1/16) s sin(0) = 0 kills both integrals
    assert initial_coefficient(spec, params, zero_grid(spec)) == 0.0


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


def test_damping_halving_rescues_a_growing_iteration():
    # plain Picard on f = -4z + 1 has not converged after 100 iterations;
    # halving the damping after five growing differences brings it home
    spec = spec_with("-4*z + 1", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    report = solve_picard(spec, SolveConfig(n_base=32))
    assert report.converged
    h = report.history
    assert any(all(h[k + i] > h[k + i - 1] for i in range(1, 5)) for k in range(len(h) - 4))


def test_picard_max_iter_one():
    spec = spec_with("(1/16)*t*sin(abs(z)) + 1/4")
    with pytest.raises(NoConvergenceError):
        solve_picard(spec, SolveConfig(n_base=32, max_iter=1))


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
    # boundary integral, in the solve and in verify_bc, reads one row
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
        assert builds == [False], nu
        builds.clear()
        verify_bc(spec, derive_params(spec), report.solution)
        assert builds == [False], nu


# First 16 hex digits of one sha256 over the bytes of w followed by
# (init_coeff, residual_bc, *history), for f = 0.5 sin z + t with mu = 1/3,
# c = 1, d = 1/2, lambda = 0.3 at tau = 1/2. Recorded with the C library's
# Gamma (math.gamma, x86-64, glibc, numpy 2.4) and the kernel moments
# folded into one node-weight matrix: a change to the Gamma values or to
# the floating-point order of a solve moves these bits.
SOLVE_DIGESTS = {
    (0.0, 64): ("ec784e517ff3ec9c", 17),
    (0.0, 256): ("7dbe6d4b0ee8049d", 17),
    (0.25, 64): ("cd168bb26ee05ea7", 17),
    (0.25, 256): ("0dd139cb5f8d0959", 17),
    (0.6, 64): ("d53ff708f1fab0cf", 18),
    (0.6, 256): ("e70f501c0cbfd53e", 18),
    (1.0, 64): ("aba51406d656e463", 18),
    (1.0, 256): ("faa9737f9960a110", 18),
}


@pytest.mark.parametrize("nu, n_base", sorted(SOLVE_DIGESTS))
def test_solve_is_bit_identical_to_recorded_values(nu, n_base):
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),), nu=nu)
    report = solve_picard(spec, SolveConfig(n_base=n_base))
    h = hashlib.sha256(report.solution.w.tobytes())
    h.update(np.array([report.init_coeff, report.residual_bc, *report.history]).tobytes())
    assert (h.hexdigest()[:16], report.iterations) == SOLVE_DIGESTS[(nu, n_base)]


def test_solve_frees_its_moments_before_verify_ode():
    # below the crossover the running integral holds the N x N weights W;
    # they are dropped before verify_ode runs, which builds none
    spec = spec_with("0.5*sin(z) + t", c=1.0, d=0.5, nonlocal_terms=((0.3, 0.5),))
    config = SolveConfig(n_base=512)
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
