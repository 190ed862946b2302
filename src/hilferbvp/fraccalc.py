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

    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)


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
# with A0 = t-u, A1 = t-v, b1 = beta+1.
# ---------------------------------------------------------------------------


def _pow_diff(A0, A1, h, e):
    """A0**e - A1**e for 0 <= A1 <= A0, A0 - A1 = h, without cancellation."""
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    h = np.asarray(h, dtype=float)
    tiny = A1 <= 0.0
    A1s = np.where(tiny, 1.0, A1)
    ratio = h / A1s
    small = (~tiny) & (ratio < 0.5)
    with np.errstate(all="ignore"):
        series = A1s**e * np.expm1(e * np.log1p(ratio))
        direct = A0**e - A1**e
        endpoint = A0**e
    return np.where(tiny, endpoint, np.where(small, series, direct))


def _moment_matrices(nodes: np.ndarray, beta: float, rows: np.ndarray):
    """Matrices M0[k, i], M1[k, i] of the plain kernel moments for
    subinterval [t_i, t_{i+1}] and target node t_j, j = rows[k] (zero
    unless i < j)."""
    t = nodes
    A0 = t[rows, None] - t[None, :-1]     # t_j - t_i
    A1 = t[rows, None] - t[None, 1:]      # t_j - t_{i+1}
    h = np.diff(t)[None, :]
    mask = np.arange(len(t) - 1)[None, :] < rows[:, None]
    A0v = np.where(mask, A0, 1.0)
    A1v = np.where(mask, np.maximum(A1, 0.0), 0.0)
    hv = np.broadcast_to(h, A1.shape)
    P = _pow_diff(A0v, A1v, hv, beta)
    Q = _pow_diff(A0v, A1v, hv, beta + 1.0)
    M0 = np.where(mask, P / beta, 0.0)
    M1 = np.where(mask, A0v * M0 - Q / (beta + 1.0), 0.0)
    return M0, M1


class KernelOperator:
    """Product integration against the plain kernel (t_j-s)^{beta-1} on a
    fixed mesh.

    The moments are built once, by the constructor, and only for the
    target rows: every node by default, or the given node indices. apply
    returns the raw integrals int_a^{t_j} (t_j-s)^{beta-1} phi(s) ds at
    those rows, with phi interpolated piecewise linearly between nodes.
    The argument `first` models phi on the first subinterval [t_0, t_1]:

    None:           phi[0] is used as sampled;
    ("const", v):   phi[0] is unusable; one-point product rule, v times
                    the kernel moment of the subinterval;
    ("power", eta): phi[0] is unusable; phi is modelled as C (s-a)^{eta}
                    with C matched to phi[1], and the mixed kernel is
                    integrated in closed form.
    """

    def __init__(self, nodes: np.ndarray, beta: float, targets=None):
        self.nodes = nodes
        self.beta = beta
        self.rows = np.arange(len(nodes)) if targets is None else np.asarray(targets)
        self.M0, self.M1 = _moment_matrices(nodes, beta, self.rows)

    def apply(self, phi: np.ndarray, first=None) -> np.ndarray:
        """Raw integrals of the node samples phi at the target rows."""
        h = np.diff(self.nodes)
        if first is None:
            return self.M0 @ phi[:-1] + self.M1 @ (np.diff(phi) / h)
        # drop the sampled first cell through phi0[0] = s[0] = 0; column 0
        # of M0 stays intact, since it is the const model's moment
        phi0 = np.array(phi, dtype=float)
        phi0[0] = 0.0
        s = np.diff(phi0) / h
        s[0] = 0.0
        out = self.M0 @ phi0[:-1] + self.M1 @ s
        kind, value = first
        if kind == "const":
            return out + value * self.M0[:, 0]
        if kind == "power":
            return out + (phi0[1] * h[0] ** (-value)) * self._power_moment(value)
        raise ValueError(f"unknown first-interval model {kind!r}")

    def _power_moment(self, eta: float) -> np.ndarray:
        """int_a^{t_1} (t_j-s)^{beta-1} (s-a)^{eta} ds at the target rows."""
        t, beta = self.nodes, self.beta
        span = t[self.rows] - t[0]
        with np.errstate(all="ignore"):
            x1 = np.clip((t[1] - t[0]) / span, 0.0, 1.0)
            bfull = _beta_sp(eta + 1.0, beta)
            m = span ** (beta + eta) * bfull * _betainc_reg(eta + 1.0, beta, x1)
        return np.where(self.rows > 0, m, 0.0)


def _profile_weighted(nodes, beta, eta, w) -> np.ndarray:
    """Raw integrals int_a^{t_j} (t_j-s)^{beta-1} (s-a)^{eta} w(s) ds with w
    piecewise linear; both kernel factors are integrated in closed form on
    every subinterval (exact for monomials, i.e. constant w)."""
    n = len(nodes)
    a = nodes[0]
    out = np.zeros(n)
    span = nodes[1:] - a                       # t_j - a for j >= 1
    with np.errstate(all="ignore"):
        X = np.clip((nodes[None, :] - a) / span[:, None], 0.0, 1.0)
    b1 = _beta_sp(eta + 1.0, beta)
    b2 = _beta_sp(eta + 2.0, beta)
    C = _betainc_reg(eta + 1.0, beta, X)       # shape (n-1, n)
    D = _betainc_reg(eta + 2.0, beta, X)
    W0 = b1 * (span ** (beta + eta))[:, None] * np.diff(C, axis=1)
    V = b2 * (span ** (beta + eta + 1.0))[:, None] * np.diff(D, axis=1)
    W1 = V - (nodes[:-1] - a)[None, :] * W0
    sw = np.diff(w) / np.diff(nodes)
    out[1:] = W0 @ w[:-1] + W1 @ sw
    return out


def rl_integral_quad(phi, mu: float, t: float, mesh: GradedMesh = None) -> float:
    """Left fractional integral of order mu in (0, 1], evaluated at a mesh
    node t by product integration.

    phi may be a WeightedGrid (its (s-a)^{gamma-1} factor is peeled off and
    integrated in closed form together with the kernel) or an array of node
    values (then mesh is required and phi is interpolated piecewise
    linearly as-is).
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
    for j in range(2, n - 2):
        w = _three_point_weights(t[j - 1], t[j], t[j + 1], t[j])
        d[j] = w[0] * F[j - 1] + w[1] * F[j] + w[2] * F[j + 1]
    # left-sided at the penultimate node
    w = _three_point_weights(t[n - 4], t[n - 3], t[n - 2], t[n - 2])
    d[n - 2] = w[0] * F[n - 4] + w[1] * F[n - 3] + w[2] * F[n - 2]
    return d


def _rl_derivative_profile(g: WeightedGrid, mu: float) -> np.ndarray:
    """Order-mu derivative D^mu g = d/dt I^{1-mu} g at nodes 1..n-2."""
    if not 0.0 < mu < 1.0:
        raise DomainError(f"derivative order must lie in (0, 1), got {mu!r}")
    nodes = g.mesh.nodes
    F = _profile_weighted(nodes, 1.0 - mu, g.gamma - 1.0, g.w) / specfun.gamma(1.0 - mu)
    return _derivative_profile(nodes, F)


def rl_derivative_num(g: WeightedGrid, mu: float, t: float) -> float:
    """Fractional derivative of order mu in (0,1) at a strictly interior
    mesh node: tabulate I^{1-mu} g at the nodes, then differentiate with
    the three-point stencils."""
    j = g.mesh.index_of(t)
    if j == 0 or j == len(g.mesh.nodes) - 1:
        raise DomainError("derivative is not available at boundary nodes")
    return float(_rl_derivative_profile(g, mu)[j])


def _hilfer_profile(g: WeightedGrid, order: FracOrder) -> np.ndarray:
    """Two-parameter derivative of g at nodes 1..n-2 (NaN elsewhere).

    Composition I^{nu(1-mu)} d/dt I^{(1-nu)(1-mu)}; inner/outer integrals
    of order zero are skipped exactly so the nu = 0 and nu = 1 endpoint
    reductions hold by construction.
    """
    mu, nu = order.mu, order.nu
    inner = (1.0 - nu) * (1.0 - mu)
    outer = nu * (1.0 - mu)
    nodes = g.mesh.nodes
    if outer == 0.0:
        return _rl_derivative_profile(g, mu)
    if inner == 0.0:
        F = np.empty(len(nodes))
        F[1:] = (nodes[1:] - g.mesh.a) ** (g.gamma - 1.0) * g.w[1:]
        F[0] = np.nan  # never read by the stencils
    else:
        F = _profile_weighted(nodes, inner, g.gamma - 1.0, g.w) / specfun.gamma(inner)
    d = _derivative_profile(nodes, F)
    # Outer integral of the derivative stage. The value at node 0 does not
    # exist; on [t_0, t_1] the integrand is modelled as C (s-a)^{mu-gamma},
    # the endpoint behaviour of the derivative stage for solution-like g.
    dd = np.array(d)
    dd[0] = 0.0
    dd[-1] = 0.0
    prof = KernelOperator(nodes, outer).apply(dd, ("power", mu - order.gamma))
    out = prof / specfun.gamma(outer)
    out[0] = np.nan
    out[-1] = np.nan
    return out


def hilfer_derivative_num(g: WeightedGrid, order: FracOrder, t: float) -> float:
    """Two-parameter fractional derivative at a strictly interior mesh node."""
    j = g.mesh.index_of(t)
    if j == 0 or j == len(g.mesh.nodes) - 1:
        raise DomainError("derivative is not available at boundary nodes")
    return float(_hilfer_profile(g, order)[j])
