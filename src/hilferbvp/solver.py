r"""Fixed-point solver for the nonlocal boundary value problem.

The problem

    D^{mu,nu} z(t) = f(t, z(t)),   t in (a, b],
    I^{1-gamma}[c z](a+) + I^{1-gamma}[d z](b-) = sum_k lambda_k z(tau_k)

is equivalent to the integral equation

    z(t) = (t-a)^{gamma-1}/Gamma(gamma) * z_a  +  I^mu[f(., z)](t),

where z_a = I^{1-gamma} z(a+) is determined by the boundary data:

    z_a = 1/(c+d-A) * [ sum_k lambda_k/Gamma(mu)
                            * int_a^{tau_k} (tau_k-s)^{mu-1} f ds
                        - d/Gamma(1-gamma+mu)
                            * int_a^b (b-s)^{mu-gamma} f ds ],
    A   = sum_k lambda_k (tau_k-a)^{gamma-1} / Gamma(gamma).

Everything is iterated in weighted form w = (t-a)^{1-gamma} z on a graded
mesh; the Anderson-mixed fixed-point iteration starts from w = 0, or from
n_base 128 up from the solution on the mesh with n_base // 16 intervals,
interpolated linearly in w (the two meshes nest when 16 divides n_base).
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fraccalc, specfun
from .errors import DomainError, EvalError, NoConvergenceError, SingularProblemError
from .expr import Expr, compile_expr
from .fraccalc import (
    FracOrder,
    GradedMesh,
    WeightedGrid,
    _check_count,
    _hilfer_profile,
    build_mesh,
)

__all__ = [
    "ProblemSpec",
    "DerivedParams",
    "SolveConfig",
    "SolveReport",
    "derive_params",
    "problem_mesh",
    "apply_T",
    "solve_picard",
    "solve_volterra_ivp",
    "residuals",
    "verify_bc",
    "verify_ode",
]

_SINGULAR_REL_TOL = 1e-10
_ANDERSON_DEPTH = 16
# a mixed iterate whose residual grows past this factor is dropped
_ANDERSON_GROWTH = 2.0
# the smallest n_base SolveConfig accepts
_MIN_INTERVALS = 8
# a solve on n_base intervals starts from the solution on n_base // _SEED_RATIO
# when that is a valid mesh, i.e. from n_base 128 up
_SEED_RATIO = 16


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance.

    nonlocal_terms holds (lambda_k, tau_k) pairs with tau_k in (a, b];
    f is an expression in (t, z), rho an expression in t bounding
    |f(t, z)| <= rho(t) |z|, and p the Lebesgue exponent attached to rho.
    """

    order: FracOrder
    a: float
    b: float
    c: float
    d: float
    nonlocal_terms: tuple
    f: Expr
    rho: Expr
    p: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        for k, (lam, tau) in enumerate(self.nonlocal_terms):
            if not (self.a < tau <= self.b):
                raise DomainError(f"tau_{k} = {tau!r} outside (a, b]")


@dataclass(frozen=True)
class DerivedParams:
    gamma: float
    A: float
    denom: float


@dataclass(frozen=True)
class SolveConfig:
    """Discretization and iteration settings.

    The fields are the keys of a problem file's "solver" block and the
    settings of the solve and example commands (--n sets n_base, --grade
    grading; --tol, --max-iter and --damping their fields).

    tol bounds the fixed-point residual max|T(w) - w| of the last iterate,
    and damping is the mixing parameter of the Anderson-mixed iteration:
    1 mixes in T(w) in full, smaller values take shorter steps. From
    n_base 128 up, a solve first runs with the same other fields on the
    mesh with n_base // 16 intervals and starts from that solution (see
    _seed); max_iter bounds each level, and a report's iterations count
    the fine one.

    grading = None means the default exponent r = max(1, 2/gamma). The
    solver interpolates w, which behaves like w(a) + C (t-a)^sigma near a,
    and the w-error order is min(r*sigma, 2): measured 2.00 on a problem
    with sigma = 1.51 (r = 2.19), but 1.00-1.04 on one with sigma = 0.454
    (r = 2.34). So the default is second order only when sigma >= gamma.
    """

    n_base: int = 512
    grading: float = None
    tol: float = 1e-8
    max_iter: int = 100
    damping: float = 1.0

    def __post_init__(self):
        _check_count("n_base", self.n_base, _MIN_INTERVALS)
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        _check_count("max_iter", self.max_iter, 1)
        if not 0.0 < self.damping <= 1.0:
            raise DomainError(f"damping must lie in (0, 1], got {self.damping!r}")
        if self.grading is not None and not self.grading >= 1.0:
            raise DomainError(f"grading must be >= 1, got {self.grading!r}")


@dataclass(frozen=True)
class SolveReport:
    solution: WeightedGrid
    init_coeff: float
    iterations: int
    history: tuple
    residual_bc: float
    residual_ode: float
    converged: bool


def derive_params(spec: ProblemSpec) -> DerivedParams:
    """Aggregation constant A and the nondegeneracy denominator c + d - A.

    Raises SingularProblemError when |c+d-A| falls below the relative
    threshold 1e-10*(|c|+|d|+|A|): the boundary condition then fails to
    determine the initial coefficient.
    """
    gamma = spec.order.gamma
    gg = specfun.gamma(gamma)
    A = sum(
        lam * (tau - spec.a) ** (gamma - 1.0) / gg for lam, tau in spec.nonlocal_terms
    )
    denom = spec.c + spec.d - A
    scale = abs(spec.c) + abs(spec.d) + abs(A)
    if abs(denom) <= _SINGULAR_REL_TOL * scale:
        raise SingularProblemError(
            f"c + d - A = {denom!r} is numerically zero (c={spec.c!r}, "
            f"d={spec.d!r}, A={A!r}); the problem is degenerate"
        )
    return DerivedParams(gamma=gamma, A=A, denom=denom)


def grading_exponent(spec: ProblemSpec, config: SolveConfig) -> float:
    if config.grading is not None:
        return config.grading
    return max(1.0, 2.0 / spec.order.gamma)


def problem_mesh(spec: ProblemSpec, config: SolveConfig) -> GradedMesh:
    """Graded mesh for the instance; every tau_k is inserted as a node."""
    taus = [tau for _, tau in spec.nonlocal_terms]
    return build_mesh(spec.a, spec.b, config.n_base, grading_exponent(spec, config), taus)


def _f_at_nodes(f, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f(t_i, z_i) at every node, from one pass of f compiled against the
    nodes t (expr.compile_expr). An EvalError is raised again, same pos,
    with the (t, z) of the first node in index order where evaluate fails
    before its message."""
    try:
        return f(z)
    except EvalError as exc:
        at = f"t = {float(t[exc.index])!r}, z = {float(z[exc.index])!r}"
        raise EvalError(f"f at {at}: {exc.args[0]}", exc.pos) from exc


class _Workspace:
    """Kernel operators and f samples for one (mesh, order) pair.

    The running integral of order mu is read at every node, the boundary
    integral of order 1-gamma+mu only at t = b. The first is a
    fraccalc._RunningIntegral: from its node-count crossover on a
    closed-form near band plus an SOE far field, O(N L) numbers with no
    N x N array, and below it the dense weights W. The second is the one
    row of kernel_weights at t = b. Each is built on first use and then
    serves every iteration, the final coefficient and the boundary
    residual. Both integrate the same f samples, with the first
    subinterval under the one-point rule of kernel_weights: sample 0
    holds f at t_1 with the limiting weighted value w(a). That model
    lives in the sample vectors alone: sample_nodes and weight_down are
    taken at the sample offsets x[1], x[1], x[2], ..., so a sample's z
    is weight_down * w (bc_residual reads weight_down at tau nodes only,
    all past node 0). f is compiled once per workspace against
    sample_nodes, the t at which it is read (expr.compile_expr,
    bit-identical to evaluate): its t-only subtrees are computed then,
    and f_samples is one pass over a new z. apply is the one fixed-point
    map, of solve_picard and, with z_a held fixed, of solve_volterra_ivp,
    and residuals the one residual pass."""

    def __init__(self, spec: ProblemSpec, params: DerivedParams, mesh: GradedMesh):
        self.spec = spec
        self.params = params
        mu = spec.order.mu
        gamma = params.gamma
        x = self.x = mesh.x
        self.sample_nodes = np.r_[mesh.nodes[1], mesh.nodes[1:]]
        self.weight_down = np.r_[x[1], x[1:]] ** (gamma - 1.0)
        self.f = compile_expr(spec.f, self.sample_nodes)
        self.gamma_mu = specfun.gamma(mu)
        self.gamma_gamma = specfun.gamma(gamma)
        self.gamma_bc = specfun.gamma(1.0 - gamma + mu)
        self.tau_indices = tuple(mesh.index_of(tau) for _, tau in spec.nonlocal_terms)
        self.lambdas = tuple(lam for lam, _ in spec.nonlocal_terms)
        self.weight_up = x ** (1.0 - gamma)  # (t-a)^{1-gamma}

    @cached_property
    def running_operator(self) -> fraccalc._RunningIntegral:
        return fraccalc._RunningIntegral(self.x, self.spec.order.mu)

    @cached_property
    def boundary_weights(self) -> np.ndarray:
        beta = 1.0 - self.params.gamma + self.spec.order.mu
        last = [len(self.x) - 1]
        return fraccalc.kernel_weights(self.x, beta, last)

    def f_samples(self, w: np.ndarray) -> np.ndarray:
        """f at the nodes (index >= 1); entry 0 holds the first-interval
        model value f(t_1, (t_1-a)^{gamma-1} w(a))."""
        return _f_at_nodes(self.f, self.sample_nodes, self.weight_down * w)

    def running(self, samples) -> np.ndarray:
        """(1/Gamma(mu)) int_a^{t_j} (t_j-s)^{mu-1} f ds at every node."""
        return self.running_operator @ samples / self.gamma_mu

    def boundary(self, samples) -> float:
        """(1/Gamma(1-gamma+mu)) int_a^b (b-s)^{mu-gamma} f ds."""
        return float((self.boundary_weights @ samples)[0]) / self.gamma_bc

    def init_coeff(self, running, boundary) -> float:
        acc = sum(
            lam * running[j] for lam, j in zip(self.lambdas, self.tau_indices)
        )
        return (acc - self.spec.d * boundary) / self.params.denom

    def bc_residual(self, w: np.ndarray, samples) -> float:
        """Residual of the nonlocal boundary condition for the iterate w,
        given its f samples."""
        ia = self.gamma_gamma * w[0]
        ib = ia + self.boundary(samples)
        acc = sum(
            lam * self.weight_down[j] * w[j]
            for lam, j in zip(self.lambdas, self.tau_indices)
        )
        return float(abs(self.spec.c * ia + self.spec.d * ib - acc))

    def residuals(self, grid: WeightedGrid, samples) -> tuple:
        """(residual_bc, residual_ode) of grid, given the f samples of its w."""
        checked = samples[_checked_nodes(grid.mesh)]
        return self.bc_residual(grid.w, samples), _ode_residual(self.spec, grid, checked)

    def apply(self, w: np.ndarray, za: float = None) -> np.ndarray:
        """One application of the fixed-point map, in weighted form: its
        value at a is za/Gamma(gamma), with za the initial coefficient of
        w's f samples, or the given za held fixed.

        An iterate that overflowed to +-inf gives NaN where the kernel
        weights meet it with zeros; the iteration stops there with a typed
        error, so numpy's warnings are silenced here, as in expr."""
        with np.errstate(invalid="ignore", over="ignore"):
            samples = self.f_samples(w)
            running = self.running(samples)
            if za is None:
                za = self.init_coeff(running, self.boundary(samples))
            return za / self.gamma_gamma + self.weight_up * running


def apply_T(spec: ProblemSpec, params: DerivedParams, z: WeightedGrid) -> WeightedGrid:
    """One application of the integral-equation operator.

    In weighted form the two boundary terms collapse to the constant
    init_coeff/Gamma(gamma), so the output satisfies
    w(a) = init_coeff/Gamma(gamma) exactly.
    """
    ws = _Workspace(spec, params, z.mesh)
    return WeightedGrid(mesh=z.mesh, gamma=params.gamma, w=ws.apply(z.w))


def _picard_loop(step, w0, config: SolveConfig):
    """Fixed-point iteration of step (the map T) with type-II Anderson
    mixing (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)); returns
    (w, history, converged).

    history[k] is the fixed-point residual max|T(w_k) - w_k|. The loop
    stops when it is <= tol, and w is then T(w_k), or at the first
    non-finite residual: a NaN or inf iterate stays one. The next iterate
    is w_k + damping F_k minus the least-squares fit of F_k by the last
    _ANDERSON_DEPTH residual differences, mapped through the matching
    differences of T and of w; damping is the mixing parameter, and with
    no differences yet the step is the plain damped one. A mixed iterate
    whose residual exceeds _ANDERSON_GROWTH times that of the iterate it
    was mixed from is dropped: the loop takes that iterate's plain step
    instead and restarts the mixing.
    """
    beta = config.damping
    w = w0
    history = []
    diffs = deque(maxlen=_ANDERSON_DEPTH)  # (dT, dF) of successive kept iterates
    kept = None  # (T(w), F, max|F|) of the last kept iterate
    converged = False
    for _ in range(config.max_iter):
        g = step(w)
        f = g - w
        res = float(np.max(np.abs(f)))
        history.append(res)
        if res <= config.tol:
            converged = True
            break
        if not math.isfinite(res):
            break
        if diffs and res > _ANDERSON_GROWTH * kept[2]:  # w was mixed from kept
            g, f, _ = kept
            diffs.clear()
        else:
            if kept is not None:
                diffs.append((g - kept[0], f - kept[1]))
            kept = (g, f, res)
        w = g - (1.0 - beta) * f
        if diffs:
            dg = np.column_stack([d[0] for d in diffs])
            df = np.column_stack([d[1] for d in diffs])
            coef = np.linalg.lstsq(df, f, rcond=None)[0]
            w -= (dg - (1.0 - beta) * df) @ coef
    return g, history, converged


def _no_convergence_message(history, config: SolveConfig) -> str:
    if not math.isfinite(history[-1]):
        return f"the iterate became non-finite at iteration {len(history)}"
    return (
        f"no convergence after {len(history)} iterations "
        f"(last residual {history[-1]:.3e}, tol {config.tol:.3e})"
    )


def _seed(spec: ProblemSpec, params: DerivedParams, config: SolveConfig, mesh) -> np.ndarray:
    """First iterate of a solve on mesh: zero, or, when n_base //
    _SEED_RATIO is a valid n_base (at least _MIN_INTERVALS), the solution on
    that coarse mesh (same tol, damping and budget, from zero) interpolated
    piecewise linearly in w, as WeightedGrid does. The two graded meshes
    nest, tau nodes included, only when _SEED_RATIO divides n_base;
    otherwise they share only a, b and the tau nodes. A coarse solve that
    does not converge seeds nothing. Its workspace is freed on return."""
    n_coarse = config.n_base // _SEED_RATIO
    if n_coarse >= _MIN_INTERVALS:
        coarse = problem_mesh(spec, replace(config, n_base=n_coarse))
        ws = _Workspace(spec, params, coarse)
        w0 = np.zeros(len(coarse.x))
        w, _, converged = _picard_loop(ws.apply, w0, config)
        if converged:
            return np.interp(mesh.x, coarse.x, w)
    return np.zeros(len(mesh.x))


def solve_picard(spec: ProblemSpec, config: SolveConfig = SolveConfig()) -> SolveReport:
    """Solve the boundary value problem by fixed-point iteration of T with
    Anderson mixing (see _picard_loop).

    Starts from z = 0, or, from n_base 128 up, from the solution on the
    mesh with n_base // 16 intervals (see _seed). iterations and the
    history describe the iteration on config's mesh only: the history holds
    the fixed-point residual max|T(w_k) - w_k| of each iterate, and the
    solve stops when it is at most config.tol and returns T(w_k).
    config.damping is the mixing parameter. Raises NoConvergenceError (with
    the partial report attached) when the iteration budget is exhausted or
    the residual becomes non-finite.
    The f samples of the final iterate serve its coefficient and both
    residuals, through the pass that residuals makes.
    """
    params = derive_params(spec)
    mesh = problem_mesh(spec, config)
    w0 = _seed(spec, params, config, mesh)
    ws = _Workspace(spec, params, mesh)
    w, history, converged = _picard_loop(ws.apply, w0, config)
    # a budget can end on an iterate whose f samples overflow: the pass
    # then gives NaN as apply does, under the same guard
    with np.errstate(invalid="ignore", over="ignore"):
        samples = ws.f_samples(w)
        init_coeff = ws.init_coeff(ws.running(samples), ws.boundary(samples))
        del ws.running_operator  # freed before the ODE residual adds its temporaries
        grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=w)
        residual_bc, residual_ode = ws.residuals(grid, samples)
    report = SolveReport(
        solution=grid,
        init_coeff=init_coeff,
        iterations=len(history),
        history=tuple(history),
        residual_bc=residual_bc,
        residual_ode=residual_ode,
        converged=converged,
    )
    if not converged:
        raise NoConvergenceError(_no_convergence_message(history, config), report=report)
    return report


def solve_volterra_ivp(
    spec: ProblemSpec, z_a: float, config: SolveConfig = SolveConfig()
) -> WeightedGrid:
    """Solve the initial-value form

        z(t) = z_a/Gamma(gamma) (t-a)^{gamma-1} + I^mu[f(., z)](t)

    with the first term frozen: the iteration of _Workspace.apply with
    z_a held fixed, from w = 0 and unseeded; the oracle for checking
    equivalence with the boundary-value solve."""
    if not math.isfinite(z_a):
        raise DomainError(f"z_a must be finite, got {z_a!r}")
    params = derive_params(spec)
    mesh = problem_mesh(spec, config)
    ws = _Workspace(spec, params, mesh)
    w0 = np.zeros(len(mesh.x))
    w, history, converged = _picard_loop(lambda v: ws.apply(v, z_a), w0, config)
    grid = WeightedGrid(mesh=mesh, gamma=params.gamma, w=w)
    if not converged:
        raise NoConvergenceError(_no_convergence_message(history, config), report=grid)
    return grid


def verify_bc(spec: ProblemSpec, params: DerivedParams, z: WeightedGrid) -> float:
    """Residual of the nonlocal boundary condition.

    I^{1-gamma} z(a+) is read algebraically as Gamma(gamma) w(a), which is
    exact for the weighted representation; I^{1-gamma} z(b-) adds the
    boundary integral of f, which needs only the t = b row of its kernel
    (solve_picard computes the same residual from its own operator and f
    samples)."""
    ws = _Workspace(spec, params, z.mesh)
    return ws.bc_residual(z.w, ws.f_samples(z.w))


def residuals(spec: ProblemSpec, params: DerivedParams, z: WeightedGrid) -> tuple:
    """(verify_bc, verify_ode) of z from one pass of f over its nodes: the
    pair solve_picard reports, through the same code, bit for bit."""
    ws = _Workspace(spec, params, z.mesh)
    return ws.residuals(z, ws.f_samples(z.w))


def verify_ode(spec: ProblemSpec, z: WeightedGrid) -> float:
    """Weighted residual of the differential equation at interior nodes:

        max |D^{mu,nu} z(t) - f(t, z(t))| * (t-a)^{1-gamma}.

    The finite-difference stage of the derivative loses accuracy next to
    the singular endpoint, so the check skips the first eighth of the base
    index range. A NaN residual at any checked node makes the result NaN.
    Where w - w(a) ~ (t-a)^sigma with sigma < mu, (t-a)^(1-gamma) f is
    unbounded and the skipped residual at node 1 grows like
    (t-a)^(sigma-mu): 0.47, 0.80, 1.39 at n_base 128, 512, 2048 on the
    "order/batch" problem (mu = 0.621, sigma = 0.454; the exact w gives
    the same), against 2.3e-3, 1.4e-4, 9.0e-6 over the checked nodes.
    The derivative's profile is built only from the first node that the
    checked nodes' stencils read; its rows below that are NaN and never
    read, so the skipped nodes cost no near-field moments."""
    rows = _checked_nodes(z.mesh)
    t = z.mesh.nodes[rows]
    return _ode_residual(spec, z, _f_at_nodes(compile_expr(spec.f, t), t, z.z_values()[rows]))


def _checked_nodes(mesh: GradedMesh) -> slice:
    return slice(max(1, mesh.n_base // 8), len(mesh.x) - 1)


def _ode_residual(spec: ProblemSpec, z: WeightedGrid, samples: np.ndarray) -> float:
    """verify_ode's residual, given f(t_i, z_i) at its checked nodes."""
    mesh = z.mesh
    j = _checked_nodes(mesh)
    profile = _hilfer_profile(z, spec.order, j.start - 1)  # the first stencil row
    resid = np.abs(profile[j] - samples) * mesh.x[j] ** (1.0 - z.gamma)
    return float(np.max(resid, initial=0.0))  # a NaN residual propagates
