"""Numerical toolkit for Hilfer fractional differential equations with
nonlocal boundary conditions.

The package solves problems of the form

    D^{mu,nu} z(t) = f(t, z(t)),                 t in (a, b],
    I^{1-gamma}[c z](a+) + I^{1-gamma}[d z](b-) = sum_k lambda_k z(tau_k),

by Anderson-mixed fixed-point iteration on the equivalent weakly
singular integral equation,
and evaluates a numerical existence certificate (the constants G and L*)
for a given problem instance.
"""

from .errors import (
    DomainError,
    EvalError,
    HilferError,
    InadmissibleExponentError,
    MeshMismatchError,
    NoConvergenceError,
    ParseError,
    PoleError,
    SchemaError,
    SingularProblemError,
)
from .specfun import beta, gamma, log_gamma
from .expr import Expr, parse, evaluate, pretty
from .fraccalc import (
    FracOrder,
    GradedMesh,
    WeightedGrid,
    build_mesh,
    hilfer_derivative_num,
    rl_integral_monomial,
    rl_integral_quad,
    weighted_norm,
)
from .solver import (
    DerivedParams,
    ProblemSpec,
    SolveConfig,
    SolveReport,
    apply_T,
    derive_params,
    problem_mesh,
    residuals,
    solve_picard,
    solve_volterra_ivp,
    verify_bc,
    verify_ode,
)
from .existence import (
    ExistenceReport,
    certificate,
    hoelder_constants,
    rho_lp_norm,
)
from .problemio import example_problem_path, load_problem, serialize_spec

__version__ = "0.1.0"
