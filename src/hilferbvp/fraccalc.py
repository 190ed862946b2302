r"""Graded meshes, weighted grids, and numerical fractional operators.

Solutions of the problems handled by this package behave like
(t-a)^{gamma-1} near the left endpoint, so grid functions are stored in
weighted form w(t) = (t-a)^{1-gamma} z(t): w is continuous up to t = a
even when z blows up. All quadrature is product integration: only the
smooth factor of an integrand is interpolated (piecewise linearly); the
singular kernel factors (t-s)^{mu-1} and (s-a)^{gamma-1} are integrated
in closed form per subinterval.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc as _betainc_reg
from scipy.special import beta as _beta_sp

from . import specfun
from .errors import DomainError

__all__ = [
    "FracOrder",
    "GradedMesh",
    "KernelOperator",
    "WeightedGrid",
    "build_mesh",
    "rl_integral_monomial",
    "rl_integral_quad",
    "rl_derivative_num",
    "hilfer_derivative_num",
    "weighted_norm",
]

_MERGE_REL_TOL = 1e-14
_NODE_LOOKUP_REL_TOL = 1e-12


@dataclass(frozen=True)
class FracOrder:
    """Order mu and type nu of the two-parameter fractional derivative.

    gamma = mu + nu*(1 - mu) governs the endpoint behaviour (t-a)^{gamma-1}
    of solutions; the factored form is used because it is exact in floating
    point for the rational orders that appear in practice (the expanded
    form mu + nu - mu*nu rounds 1/3, 1/4 to 0.49999999999999994).
    """

    mu: float
    nu: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise DomainError(f"mu must lie in (0, 1), got {self.mu!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise DomainError(f"nu must lie in [0, 1], got {self.nu!r}")
        object.__setattr__(self, "gamma", self.mu + self.nu * (1.0 - self.mu))


@dataclass(frozen=True)
class GradedMesh:
    """Strictly increasing nodes on [a, b] with a power-law skeleton
    a + (b-a)*(j/n_base)^r plus optional extra nodes (e.g. nonlocal points).
    """

    a: float
    b: float
    n_base: int
    r: float
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)

    def __len__(self):
        return len(self.nodes)

    def index_of(self, t: float) -> int:
        """Index of the node equal to t (within 1e-12 of the span)."""
        tol = _NODE_LOOKUP_REL_TOL * (self.b - self.a)
        i = int(np.searchsorted(self.nodes, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.nodes) and abs(self.nodes[j] - t) <= tol:
                return j
        raise DomainError(f"t = {t!r} is not a mesh node")


def build_mesh(a, b, n_base, r, extra_nodes=()) -> GradedMesh:
    """Graded mesh with extra nodes merged in.

    Extra nodes must lie in (a, b]; nodes closer than 1e-14*(b-a) to an
    existing node are merged (the existing node wins).
    """
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")
    if n_base < 2:
        raise DomainError(f"n_base must be >= 2, got {n_base!r}")
    if not r >= 1.0:
        raise DomainError(f"grading exponent must be >= 1, got {r!r}")
    j = np.arange(n_base + 1, dtype=float)
    nodes = a + (b - a) * (j / n_base) ** float(r)
    nodes[0] = a
    nodes[-1] = b
    merged = list(nodes)
    tol = _MERGE_REL_TOL * (b - a)
    for extra in sorted(set(float(e) for e in extra_nodes)):
        if not (a < extra <= b):
            raise DomainError(f"extra node {extra!r} outside (a, b]")
        i = int(np.searchsorted(merged, extra))
        near = [merged[k] for k in (i - 1, i) if 0 <= k < len(merged)]
        if any(abs(v - extra) <= tol for v in near):
            continue
        merged.insert(i, extra)
    out = np.asarray(merged, dtype=float)
    if np.any(np.diff(out) <= 0):
        raise DomainError("mesh nodes are not strictly increasing after merge")
    return GradedMesh(a=float(a), b=float(b), n_base=int(n_base), r=float(r), nodes=out)


@dataclass(frozen=True)
class WeightedGrid:
    """A grid function stored as w_i = (t_i - a)^{1-gamma} z(t_i).

    Between nodes, w (not z) is interpolated piecewise linearly; that rule
    is part of this type's contract. With gamma = 1 the weight is trivial
    and w coincides with z.
    """

    mesh: GradedMesh
    gamma: float
    w: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if len(self.w) != len(self.mesh.nodes):
            raise DomainError("w values and mesh nodes differ in length")
        self.w.setflags(write=False)

    def z_values(self) -> np.ndarray:
        """Pointwise z_i = (t_i - a)^{gamma-1} w_i; inf at the left endpoint
        when gamma < 1 and w(a) != 0."""
        t = self.mesh.nodes
        z = np.empty_like(self.w)
        z[1:] = (t[1:] - self.mesh.a) ** (self.gamma - 1.0) * self.w[1:]
        if self.gamma == 1.0:
            z[0] = self.w[0]
        elif self.w[0] == 0.0:
            z[0] = 0.0
        else:
            z[0] = math.inf if self.w[0] > 0 else -math.inf
        return z

    def w_at(self, t: float) -> float:
        return float(np.interp(t, self.mesh.nodes, self.w))

    def z_at(self, t: float) -> float:
        if t == self.mesh.a:
            return float(self.z_values()[0])
        return (t - self.mesh.a) ** (self.gamma - 1.0) * self.w_at(t)


def weighted_norm(g: WeightedGrid) -> float:
    """Discrete norm of the weighted space: max_i |w_i|."""
    return float(np.max(np.abs(g.w)))


def rl_integral_monomial(mu, delta, a, t) -> float:
    """Closed form of the order-mu left integral of (s-a)^{delta-1}:

        I^mu (t-a)^{delta-1} = Gamma(delta)/Gamma(delta+mu) (t-a)^{delta+mu-1}
    """
    if not t > a:
        raise DomainError(f"need t > a, got t={t!r}, a={a!r}")
    if not delta > 0.0:
        raise DomainError(f"need delta > 0, got {delta!r}")
    if not mu >= 0.0:
        raise DomainError(f"need mu >= 0, got {mu!r}")
    coeff = specfun.gamma(delta) / specfun.gamma(delta + mu)
    return coeff * (t - a) ** (delta + mu - 1.0)


# ---------------------------------------------------------------------------
# kernel moments
#
# Plain moments over a subinterval [u, v] of [a, t], in the variable
# xi = t - s (avoids cancellation near s = t):
#   M0 = int_u^v (t-s)^{beta-1} ds           = (A0^beta - A1^beta)/beta
#   M1 = int_u^v (s-u)(t-s)^{beta-1} ds      = A0*M0 - (A0^{b1} - A1^{b1})/b1
# with A0 = t-u, A1 = t-v, b1 = beta+1. With phi linear on [u, v] the
# subinterval contributes M0 phi(u) + M1 (phi(v) - phi(u))/(v-u), so the
# moments fold into node weights: M0 - M1/h on node u, M1/h on node v.
# Only the entries that are read, subintervals left of the target node,
# are evaluated, and each by the one branch of _pow_diffs that it takes.
# Rows are built in blocks of about _BLOCK_ENTRIES entries, so the
# temporaries of a build stay small next to its N x N output. The blocks
# are independent; _run_blocks spreads them over the CPUs.
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 14
_BLOCKS_PER_THREAD = 16


def _run_blocks(block, lo, hi, width):
    """Call block(k0, k1) on consecutive row ranges [k0, k1) of about
    _BLOCK_ENTRIES entries that cover [lo, hi), for rows of `width` entries.

    Each block writes only its own rows of the preallocated outputs, so
    the result is the same bits in any order. The blocks run on a thread
    pool with one thread per CPU in the process's affinity mask, but at
    most one per _BLOCKS_PER_THREAD blocks, so no more than about a 16th
    of the rows are in flight and the temporaries stay small next to the
    outputs whatever the CPU count. A build too small for two threads runs inline
    and starts none. The pool is created for this build only: nothing
    outlives it, so a forked child starts clean."""
    step = max(1, _BLOCK_ENTRIES // width)
    ranges = [(k0, min(k0 + step, hi)) for k0 in range(lo, hi, step)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(ranges) // _BLOCKS_PER_THREAD)
    if workers < 2:
        for k0, k1 in ranges:
            block(k0, k1)
        return
    with ThreadPoolExecutor(workers) as pool:
        # list() re-raises a block's exception
        list(pool.map(lambda r: block(*r), ranges))


def _pow_diffs(A0, A1, h, beta):
    """A0**e - A1**e for e = beta and e = beta+1, elementwise over 1-D
    arrays with 0 <= A1 <= A0 and A0 - A1 = h, without cancellation.

    Each entry is evaluated by one branch: at the target (A1 = 0) by A0**e;
    far from it (h/A1 < 0.5) by A1**e * expm1(e*log1p(h/A1)), with the
    log1p shared by both exponents; near it by the direct difference.
    The branches are picked by boolean masks, whose gathers and scatters,
    unlike integer-index ones, let other threads run."""
    b1 = beta + 1.0
    P = np.empty_like(A1)
    Q = np.empty_like(A1)
    end = A1 == 0.0
    P[end] = A0[end] ** beta
    Q[end] = A0[end] ** b1
    with np.errstate(divide="ignore"):
        ratio = h / A1                    # inf at the target: not far
    far = ratio < 0.5
    L = np.log1p(ratio[far])
    a1 = A1[far]
    P[far] = a1**beta * np.expm1(beta * L)
    Q[far] = a1**b1 * np.expm1(b1 * L)
    near = ~(end | far)
    a0, a1 = A0[near], A1[near]
    P[near] = a0**beta - a1**beta
    Q[near] = a0**b1 - a1**b1
    return P, Q


def _moment_matrices(nodes: np.ndarray, beta: float, rows: np.ndarray, sampled_first=True):
    """Node weights W[k, i] of product integration against the plain
    kernel at target node t_j, j = rows[k]: the moments of every
    subinterval [t_i, t_{i+1}] with i < j, folded onto its two nodes.

    With sampled_first false, the first subinterval puts only its M0 on
    node 0 and nothing on node 1: the one-point rule for a phi[0] that
    is not a sample."""
    t = nodes
    h = np.diff(t)
    W = np.zeros((len(rows), len(t)))

    def block(k0, k1):
        j = rows[k0:k1]
        m = j.max()                       # the block reads subintervals < m
        inside = np.arange(m) < j[:, None]
        tj = t[j, None]
        A0 = (tj - t[:m])[inside]         # t_j - t_i
        A1 = (tj - t[1:m + 1])[inside]    # t_j - t_{i+1}
        hi = np.broadcast_to(h[:m], inside.shape)[inside]
        P, Q = _pow_diffs(A0, A1, hi, beta)
        m0 = P / beta
        W[k0:k1, :m][inside] = m0
        G = np.zeros(inside.shape)        # the block's M1/h
        G[inside] = (A0 * m0 - Q / (beta + 1.0)) / hi
        if not sampled_first:
            G[:, :1] = 0.0
        W[k0:k1, :m] -= G
        W[k0:k1, 1:m + 1] += G

    _run_blocks(block, 0, len(rows), len(t))
    return W


class KernelOperator:
    """Product integration against the plain kernel (t_j-s)^{beta-1} on a
    fixed mesh.

    The constructor builds one node-weight matrix W, and only for the
    target rows: every node by default, or the given node indices. apply
    returns the raw integrals int_a^{t_j} (t_j-s)^{beta-1} phi(s) ds at
    those rows as W @ phi, with phi interpolated piecewise linearly
    between nodes. The argument `first` models phi on the first
    subinterval [t_0, t_1]:

    None:    phi[0] is used as sampled;
    "const": phi[0] carries the model value v; one-point product rule,
             v times the kernel moment of the subinterval.

    The model only changes the weights of nodes 0 and 1.
    """

    def __init__(self, nodes: np.ndarray, beta: float, targets=None, first=None):
        if first not in (None, "const"):
            raise ValueError(f"unknown first-interval model {first!r}")
        rows = np.arange(len(nodes)) if targets is None else np.asarray(targets)
        self.W = _moment_matrices(nodes, beta, rows, first is None)

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Raw integrals of the node samples phi at the target rows."""
        return self.W @ phi


def _profile_weighted(nodes, beta, eta, w) -> np.ndarray:
    """Raw integrals int_a^{t_j} (t_j-s)^{beta-1} (s-a)^{eta} w(s) ds with w
    piecewise linear; both kernel factors are integrated in closed form on
    every subinterval (exact for monomials, i.e. constant w).

    In X = (s-a)/(t_j-a) the weights of a subinterval are differences of
    the regularized incomplete Beta functions I_X(eta+1, beta) (for w) and
    I_X(eta+2, beta) (for its slope). Only the first is a betainc call; the
    second follows from the recurrence (DLMF 8.17.20)

        I_X(eta+2, beta) = I_X(eta+1, beta)
                           - X^{eta+1} (1-X)^beta / ((eta+1) B(eta+1, beta)).

    Row j reads the nodes up to t_j only (beyond it X = 1 and both weights
    vanish), and rows are built in blocks, as the kernel moments are. Each
    block applies its weights to w and its slope at once, so no N x N
    array is ever held."""
    n = len(nodes)
    x = nodes - nodes[0]                       # s - a at the nodes
    b1 = _beta_sp(eta + 1.0, beta)
    b2 = _beta_sp(eta + 2.0, beta)
    sw = np.diff(w) / np.diff(nodes)
    out = np.zeros(n)

    def block(j0, m):
        span = x[j0:m, None]                   # t_j - a
        # m - 1 is the block's last j: it reads the nodes up to t_{m-1}
        X = np.clip(x[:m] / span, 0.0, 1.0)
        C = _betainc_reg(eta + 1.0, beta, X)
        D = C - X ** (eta + 1.0) * (1.0 - X) ** beta / ((eta + 1.0) * b1)
        # the block's weights of w and of its slope
        B0 = b1 * span ** (beta + eta) * np.diff(C, axis=1)
        B1 = b2 * span ** (beta + eta + 1.0) * np.diff(D, axis=1) - x[:m - 1] * B0
        out[j0:m] = B0 @ w[:m - 1] + B1 @ sw[:m - 1]

    _run_blocks(block, 1, n, n)
    return out


def rl_integral_quad(phi, mu: float, t: float, mesh: GradedMesh = None) -> float:
    """Left fractional integral of order mu in (0, 1], evaluated at a mesh
    node t by product integration.

    phi may be a WeightedGrid (its (s-a)^{gamma-1} factor is peeled off and
    integrated in closed form together with the kernel) or an array of node
    values (then mesh is required and phi is interpolated piecewise
    linearly as-is).

    Each call builds the whole O(N^2) profile to return one entry, so a
    loop over nodes is O(N^3); solve_picard and verify_ode compute all
    nodes at once. A one-row build waits for a perfbench change, as its
    moments.* and profile.weighted_s probes time this call.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"kernel order must lie in (0, 1], got {mu!r}")
    if isinstance(phi, WeightedGrid):
        mesh = phi.mesh
        j = mesh.index_of(t)
        prof = _profile_weighted(mesh.nodes, mu, phi.gamma - 1.0, phi.w)
    else:
        if mesh is None:
            raise DomainError("mesh is required for sampled integrands")
        values = np.asarray(phi, dtype=float)
        if len(values) != len(mesh.nodes):
            raise DomainError("sampled integrand length does not match mesh")
        j = mesh.index_of(t)
        prof = KernelOperator(mesh.nodes, mu).apply(values)
    return float(prof[j]) / specfun.gamma(mu)


# ---------------------------------------------------------------------------
# finite differences on a non-uniform mesh
# ---------------------------------------------------------------------------


def _three_point_weights(x0, x1, x2, xe):
    """Weights of the derivative of the quadratic through (x0, x1, x2) at xe."""
    w0 = (2.0 * xe - x1 - x2) / ((x0 - x1) * (x0 - x2))
    w1 = (2.0 * xe - x0 - x2) / ((x1 - x0) * (x1 - x2))
    w2 = (2.0 * xe - x0 - x1) / ((x2 - x0) * (x2 - x1))
    return w0, w1, w2


def _derivative_profile(nodes: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Derivative of F at nodes 1..n-2 from values of F at nodes 1..n-2.

    Three-point stencils, exact for quadratics on the non-uniform mesh:
    centered in the interior, one-sided at the first and last usable node
    (node 0 and node n-1 are never touched). Entries 0 and n-1 of the
    result are NaN.
    """
    n = len(nodes)
    if n < 5:
        raise DomainError("derivative stencils need at least 4 subintervals")
    d = np.full(n, np.nan)
    t = nodes
    # right-sided at the second node
    w = _three_point_weights(t[1], t[2], t[3], t[1])
    d[1] = w[0] * F[1] + w[1] * F[2] + w[2] * F[3]
    # centered at nodes 2..n-3
    w = _three_point_weights(t[1:n - 3], t[2:n - 2], t[3:n - 1], t[2:n - 2])
    d[2:n - 2] = w[0] * F[1:n - 3] + w[1] * F[2:n - 2] + w[2] * F[3:n - 1]
    # left-sided at the penultimate node
    w = _three_point_weights(t[n - 4], t[n - 3], t[n - 2], t[n - 2])
    d[n - 2] = w[0] * F[n - 4] + w[1] * F[n - 3] + w[2] * F[n - 2]
    return d


def rl_derivative_num(g: WeightedGrid, mu: float, t: float) -> float:
    """Fractional derivative of order mu in (0,1) at a strictly interior
    mesh node: tabulate I^{1-mu} g at the nodes, then differentiate with
    the three-point stencils.

    Each call builds the whole O(N^2) profile to return one entry, so a
    loop over nodes is O(N^3); solve_picard and verify_ode compute all
    nodes at once. A one-row build waits for a perfbench change, as its
    profile.hilfer_s probe times hilfer_derivative_num, which this calls."""
    return hilfer_derivative_num(g, FracOrder(mu, 0.0), t)


def _hilfer_profile(g: WeightedGrid, order: FracOrder) -> np.ndarray:
    """Two-parameter derivative of g at nodes 1..n-2 (NaN elsewhere), for
    every 0 <= nu <= 1 by the Riemann-Liouville identity: with
    theta = nu(1-mu),

        D^{mu,nu} z = d/dt [ I^{1-mu} z - z_a (t-a)^theta / Gamma(theta+1) ],

    where z_a = I^{1-gamma} z(a+) and gamma = mu + theta, so one
    weighted profile and the stencils give the derivative. z_a is
    Gamma(gamma) w(a) when g carries the order's gamma, and 0 when g's
    gamma is larger (then the result is the Riemann-Liouville derivative
    of order mu, bit for bit). A smaller gamma leaves I^{1-gamma} z
    unbounded at a, and the derivative does not exist for nu > 0. At
    nu = 0, theta = 0 and nothing is subtracted. At nu = 1, gamma = 1 and
    z_a = z(a), so this is the Caputo derivative D^mu [z - z(a)].
    """
    mu = order.mu
    theta = order.nu * (1.0 - mu)
    nodes = g.mesh.nodes
    inner = 1.0 - mu
    F = _profile_weighted(nodes, inner, g.gamma - 1.0, g.w) / specfun.gamma(inner)
    if theta > 0.0:
        if g.gamma < order.gamma:
            raise DomainError(
                f"grid gamma {g.gamma!r} is below the order's gamma "
                f"{order.gamma!r}: I^(1-gamma) z is unbounded at a"
            )
        za = specfun.gamma(g.gamma) * g.w[0] if g.gamma == order.gamma else 0.0
        F -= za * (nodes - g.mesh.a) ** theta / specfun.gamma(theta + 1.0)
    return _derivative_profile(nodes, F)


def hilfer_derivative_num(g: WeightedGrid, order: FracOrder, t: float) -> float:
    """Two-parameter fractional derivative at a strictly interior mesh node.

    For every 0 <= nu <= 1 it is d/dt [I^{1-mu} z - z_a (t-a)^theta /
    Gamma(theta+1)] with theta = nu(1-mu) and z_a = I^{1-gamma} z(a+):
    Gamma(gamma) w(a) when g's gamma is the order's, 0 when it is larger;
    for nu > 0 a smaller one raises DomainError. At nu = 1, z_a = z(a)
    and this is the Caputo derivative D^mu [z - z(a)].

    Each call builds the whole O(N^2) profile to return one entry, so a
    loop over nodes is O(N^3); solve_picard and verify_ode compute all
    nodes at once. A one-row build waits for a perfbench change, as its
    profile.hilfer_s probe times this call."""
    j = g.mesh.index_of(t)
    if j == 0 or j == len(g.mesh.nodes) - 1:
        raise DomainError("derivative is not available at boundary nodes")
    return float(_hilfer_profile(g, order)[j])
