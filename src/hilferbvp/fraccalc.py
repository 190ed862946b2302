r"""Graded meshes, weighted grids, and numerical fractional operators.

Solutions of the problems handled by this package behave like
(t-a)^{gamma-1} near the left endpoint, so grid functions are stored in
weighted form w(t) = (t-a)^{1-gamma} z(t): w is continuous up to t = a
even when z blows up. All quadrature is product integration: only the
smooth factor of an integrand is interpolated (piecewise linearly); the
singular kernel factors (t-s)^{mu-1} and (s-a)^{gamma-1} are integrated
in closed form on every subinterval where they are singular or nearly
so. Cells that lie at least 16 of their widths from the singularities
take 4-point Gauss-Legendre instead, with the kernel at the Gauss points
a sum of L ~ 300 exponentials carried from row to row. So the weighted
profile, and the running integral from _FAR_MIN_NODES nodes on, cost
O(N L) rather than O(N^2) and hold no N x N array; that moves them by
at most 1.3e-15 relative (see _profile_weighted and _RunningIntegral).
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
    "WeightedGrid",
    "build_mesh",
    "kernel_weights",
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
# kernel_weights returns them as one matrix W, one row per target node;
# the solver builds it for the t = b row only, and _RunningIntegral
# builds the near band of every row from the same moments (all of W
# below _FAR_MIN_NODES nodes). Only the entries that are read,
# subintervals left of the target node, are evaluated, and each by the
# one branch of _pow_diffs that it takes. Rows are built in blocks of
# about _BLOCK_ENTRIES entries, so the temporaries of a build stay small
# next to its output.
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 14


def _pow_diffs(A0, A1, h, beta):
    """A0**e - A1**e for e = beta and e = beta+1, elementwise over 1-D
    arrays with 0 <= A1 <= A0 and A0 - A1 = h, without cancellation.

    Each entry is evaluated by one branch: at the target (A1 = 0) by A0**e;
    far from it (h/A1 < 0.5) by A1**e * expm1(e*log1p(h/A1)), with the
    log1p shared by both exponents; near it by the direct difference."""
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


def _moment_rows(t, rows, lo, hi, beta, sampled_first) -> np.ndarray:
    """Columns lo..hi of kernel_weights(t, beta, rows, sampled_first):
    the weights that the cells [lo, hi) left of each target node fold
    onto the nodes lo..hi."""
    W = np.zeros((len(rows), hi - lo + 1))
    step = max(1, _BLOCK_ENTRIES // (hi - lo + 1))
    for k0 in range(0, len(rows), step):
        k1 = min(k0 + step, len(rows))
        j = rows[k0:k1]
        m = min(hi, j.max())              # the block reads cells lo..m-1
        if m <= lo:
            continue
        inside = np.arange(lo, m) < j[:, None]
        tj = t[j, None]
        A0 = (tj - t[lo:m])[inside]       # t_j - t_i
        A1 = (tj - t[lo + 1:m + 1])[inside]   # t_j - t_{i+1}
        width = np.broadcast_to(np.diff(t[lo:m + 1]), inside.shape)[inside]
        P, Q = _pow_diffs(A0, A1, width, beta)
        m0 = P / beta
        B = W[k0:k1, :m - lo + 1]
        B[:, :-1][inside] = m0
        G = np.zeros(inside.shape)        # the block's M1/h
        G[inside] = (A0 * m0 - Q / (beta + 1.0)) / width
        if not sampled_first and lo == 0:
            G[:, :1] = 0.0
        B[:, :-1] -= G
        B[:, 1:] += G
    return W


def kernel_weights(nodes: np.ndarray, beta: float, rows=None, sampled_first=True) -> np.ndarray:
    """Node weights W[k, i] of product integration against the plain
    kernel (t_j-s)^{beta-1} at target node t_j, j = rows[k] (default:
    every node): the moments of every subinterval [t_i, t_{i+1}] with
    i < j, folded onto its two nodes. W @ phi gives the raw integrals
    int_a^{t_j} (t_j-s)^{beta-1} phi(s) ds, with phi interpolated
    piecewise linearly between nodes.

    With sampled_first false, the first subinterval puts only its M0 on
    node 0 and nothing on node 1: the one-point rule for a phi[0] that
    is not a sample.

    The solver reads only the t = b row from here; _RunningIntegral gives
    every row of W @ phi without holding W, and W is its dense reference."""
    rows = np.arange(len(nodes)) if rows is None else np.asarray(rows)
    return _moment_rows(nodes, rows, 0, len(nodes) - 1, beta, sampled_first)


# ---------------------------------------------------------------------------
# far field
#
# A cell [t_i, t_{i+1}] is far from row j when it lies at least
# _FAR_WIDTHS of its own widths h_i left of t_j (and, for the weighted
# profile, right of a). The kernel is smooth on a far cell, so it takes
# the _FAR_GAUSS-point Gauss-Legendre rule, and at the Gauss points the
# kernel is a sum of exponentials (SOE),
#
#   x^{beta-1} ~ sum_l omega_l exp(-lambda_l x),  x in [delta, b-a],
#
# with delta the smallest far distance on the mesh (Jiang, Zhang, Zhang
# & Zhang, Commun. Comput. Phys. 21 (2017); Beylkin & Monzon, Appl.
# Comput. Harmon. Anal. 28 (2010)). Rows are scanned in blocks of
# _SCAN_ROWS; the block from t_{j0} reads the far cells [c0, f), f the
# first cell from c0 that is not far from t_{j0} (so not far from any
# row of the block), and the block carries the L-vector history
#
#   H_l = sum over far cells and Gauss points of exp(-lambda_l (t_{j0}-s_q)) c_q,
#
# H <- exp(-lambda (t_{j0'} - t_{j0})) H + (the cells that became far),
# so a far field costs O(N L) and not O(N^2). Each Gauss sample c_q is
# rho_q times the linear interpolant of a node vector, and the factors
# fold the interpolation onto the nodes.
# ---------------------------------------------------------------------------

_FAR_WIDTHS = 16
_FAR_GAUSS = 4
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_FAR_GAUSS)
_GAUSS_X, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W   # on [0, 1]
_SCAN_ROWS = 32
# from this node count on, the running integral takes the far field; below
# it every cell is near. A build plus ten applications broke even at
# n_base 384-512 on a 2-vCPU x86-64 host with one BLAS thread (CHANGES.md)
_FAR_MIN_NODES = 600
_SOE_X, _SOE_W = np.polynomial.legendre.leggauss(12)
# a scan block keeps the SOE terms with lambda_l d <= _SOE_CUT, d its
# smallest far distance
_SOE_CUT = 50.0


def _soe(alpha, delta):
    """Exponents lam and weights omega with sum_l omega_l exp(-lam_l x)
    = x^{-alpha} to 1e-15 relative for x in [delta, 1], 0 <= alpha < 1;
    alpha = 0 (the kernel of order beta = 1) is the single term 1.

    It is the quadrature of x^{-alpha} = Gamma(alpha)^{-1}
    int exp(alpha u - e^u x) du by 12-point Gauss-Legendre panels: unit
    panels on [0, log(37/delta) + 1/2], where e^u delta reaches 61, and
    panels that double in width below 0 down to the u at which the
    remaining tail, at most e^{alpha u} / alpha, is 1e-17 of Gamma(alpha)."""
    if alpha == 0.0:
        return np.zeros(1), np.ones(1)
    top = math.log(37.0 / delta) + 0.5
    edges = [0.0]
    u_min = math.log(1e-17 * specfun.gamma(alpha + 1.0)) / alpha
    width = 1.0
    while edges[0] > u_min:
        edges.insert(0, max(edges[0] - width, u_min))
        width *= 2.0
    edges.extend(np.arange(1.0, math.ceil(top) + 1.0))
    e = np.asarray(edges)
    lo, hi = e[:-1, None], e[1:, None]
    u = (0.5 * (hi - lo) * _SOE_X + 0.5 * (hi + lo)).ravel()
    wt = (0.5 * (hi - lo) * _SOE_W).ravel()
    return np.exp(u), wt * np.exp(alpha * u) / specfun.gamma(alpha)


def _scan_blocks(x, h, c0):
    """Row blocks (j0, j1, f) of the far-field scan over rows 1..n-1, with
    x = t - a: rows j0..j1-1 read the cells [c0, f) as far."""
    n = len(x)
    blocks = []
    f = c0
    for j0 in range(1, n, _SCAN_ROWS):
        # a cell far from the last block's first row is far from this one,
        # and cell j0 - 1 ends at t_{j0}, so it is near when in range
        near = x[j0] - x[f + 1:j0 + 1] < _FAR_WIDTHS * h[f:j0]
        if near.size:
            f += int(np.argmax(near))
        blocks.append((j0, min(j0 + _SCAN_ROWS, n), f))
    return blocks


def _far_factors(x, beta, rho, blocks, c0):
    """SOE factors of the far-field scan, one (j0, j1, lo, f, decay, F, E)
    per block that has far cells. With x = t - a, the far field of the
    node vector v is

        H <- decay * H,  H[:l] += F @ v[lo:f + 1],  far[j0:j1] = E @ H[:l],

    block after block, with l = len(F): F folds the cells [lo, f) that
    became far onto their nodes, with Gauss sample q of cell i weighted
    by rho[q, i]. A block keeps only the l terms with lambda_l d <=
    _SOE_CUT, d its smallest far distance; the rest add at most e^{-50}
    of a kernel value, and decay drops them from H."""
    far = [(j0, j1, f) for j0, j1, f in blocks if f > c0]
    if not far:
        return
    span = x[-1]
    delta = min(x[j0] - x[f] for j0, _, f in far) / span
    lam, omega = _soe(1.0 - beta, delta)
    lam = lam / span
    omega = omega * span ** (beta - 1.0)
    g = _GAUSS_X[:, None]
    S = x[:-1] + np.diff(x) * g                # s_q - a of every cell
    lo, ref = c0, x[far[0][0]]
    for j0, j1, f in far:
        n_terms = int(np.searchsorted(lam, _SOE_CUT / (x[j0] - x[f]), side="right"))
        live = lam[:n_terms]
        decay = np.zeros(len(lam))
        decay[:n_terms] = np.exp(-live * (x[j0] - ref))
        G = np.exp(-live[:, None, None] * (x[j0] - S[:, lo:f]))
        F = np.zeros((n_terms, f - lo + 1))
        F[:, :-1] = np.einsum("lqi,qi->li", G, (1.0 - g) * rho[:, lo:f])
        F[:, 1:] += np.einsum("lqi,qi->li", G, g * rho[:, lo:f])
        E = omega[:n_terms] * np.exp(-np.outer(x[j0:j1] - x[j0], live))
        yield j0, j1, lo, f, decay, F, E
        lo, ref = f, x[j0]


def _far_field(factors, v) -> np.ndarray:
    """The far field of the node vector v at every row (0 where a row has
    no far cells), from the factors of _far_factors."""
    out = np.zeros(len(v))
    H = 0.0
    for j0, j1, lo, f, decay, F, E in factors:
        H = decay * H
        H[:len(F)] += F @ v[lo:f + 1]
        out[j0:j1] = E @ H[:len(F)]
    return out


class _RunningIntegral:
    """The raw integrals int_a^{t_j} (t_j-s)^{beta-1} phi(s) ds at every
    node t_j, phi piecewise linear: kernel_weights(nodes, beta,
    sampled_first=sampled_first) @ phi, built once and applied to many phi.

    From _FAR_MIN_NODES nodes on, a row is split in two. The near band is
    cell 0 (under the first-cell model) and the cells [f, j) of its scan
    block, with closed-form moments as in kernel_weights. The far cells
    [1, f) take the SOE far field on the Gauss samples of phi. It holds
    O(N (L + K)) numbers, about 2 N L with L ~ 300 SOE terms, and no
    N x N array. Below that node count every cell is near, and the
    operator is W itself."""

    def __init__(self, nodes: np.ndarray, beta: float, sampled_first=True):
        t = nodes
        n = len(t)
        rows = np.arange(n)
        if n < _FAR_MIN_NODES:
            self.W = _moment_rows(t, rows, 0, n - 1, beta, sampled_first)
            return
        self.W = None
        x = t - t[0]
        h = np.diff(t)
        blocks = _scan_blocks(x, h, 1)
        self.cell0 = _moment_rows(t, rows, 0, 1, beta, sampled_first)
        self.bands = [
            (j0, j1, f, _moment_rows(t, rows[j0:j1], f, j1 - 1, beta, sampled_first))
            for j0, j1, f in blocks
        ]
        self.factors = list(_far_factors(x, beta, _GAUSS_W[:, None] * h, blocks, 1))

    def __matmul__(self, phi: np.ndarray) -> np.ndarray:
        if self.W is not None:
            return self.W @ phi
        out = _far_field(self.factors, phi) + self.cell0 @ phi[:2]
        for j0, j1, lo, band in self.bands:
            out[j0:j1] += band @ phi[lo:j1]
        return out


def _profile_weighted(nodes, beta, eta, w) -> np.ndarray:
    """Raw integrals int_a^{t_j} (t_j-s)^{beta-1} (s-a)^{eta} w(s) ds with w
    piecewise linear.

    Near cells, those within K = _FAR_WIDTHS of their own widths h_i of
    either singularity, are integrated in closed form. In
    X = (s-a)/(t_j-a) their weights are differences of the regularized
    incomplete Beta functions I_X(eta+1, beta) (for w) and
    I_X(eta+2, beta) (for its slope). Only the first is a betainc call,
    one per node; the second follows from the recurrence (DLMF 8.17.20)

        I_X(eta+2, beta) = I_X(eta+1, beta)
                           - X^{eta+1} (1-X)^beta / ((eta+1) B(eta+1, beta)).

    A far cell, with x = s - a, has x_i >= K h_i and x_j - x_{i+1} >= K h_i,
    so both factors are smooth on it: it takes the _FAR_GAUSS-point
    Gauss-Legendre rule with samples h_i omega_q s_q^eta w(s_q), summed
    against the kernel by the SOE far field. The far cells of a row are
    one range [c0, f): c0 is right of the last cell that fails the first
    condition, and f is the first cell from c0 that fails the second for
    the first row of a scan block, so every far cell meets both, also
    next to an inserted node. So only O(N (K + _SCAN_ROWS)) entries need
    betainc, and the far field is O(N L). Against two betainc calls per
    entry the profile moves by at most 1.3e-15 relative (nine (beta, eta)
    pairs at n_base 512 and 2047), and it meets a 30-digit reference to
    6.2e-16 (the closed form on every cell: 4e-16). Where far cells exist, constant w is
    integrated exactly only up to that rounding; a mesh without any
    (small N) gets the closed form throughout.

    Row j reads the nodes up to t_j only (beyond it X = 1 and both weights
    vanish), and the near cells are integrated block by block, so no
    N x N array is ever held."""
    n = len(nodes)
    x = nodes - nodes[0]                       # s - a at the nodes
    h = np.diff(nodes)
    b1 = _beta_sp(eta + 1.0, beta)
    b2 = _beta_sp(eta + 2.0, beta)
    sw = np.diff(w) / h
    out = np.zeros(n)
    # cell 0 always fails x_i >= K h_i
    c0 = 1 + np.flatnonzero(x[:-1] < _FAR_WIDTHS * h)[-1]
    blocks = _scan_blocks(x, h, c0)
    S = x[:-1] + h * _GAUSS_X[:, None]
    far = _far_field(_far_factors(x, beta, _GAUSS_W[:, None] * h * S**eta, blocks, c0), w)

    def near(span, lo, hi):
        # closed-form weights of the cells [lo, hi - 1), applied to w
        X = np.clip(x[lo:hi] / span, 0.0, 1.0)
        C = _betainc_reg(eta + 1.0, beta, X)
        D = C - X ** (eta + 1.0) * (1.0 - X) ** beta / ((eta + 1.0) * b1)
        B0 = b1 * span ** (beta + eta) * np.diff(C, axis=1)
        B1 = b2 * span ** (beta + eta + 1.0) * np.diff(D, axis=1) - x[lo:hi - 1] * B0
        return B0 @ w[lo:hi - 1] + B1 @ sw[lo:hi - 1]

    for j0, j1, f in blocks:
        span = x[j0:j1, None]                  # t_j - a
        if f <= c0:
            out[j0:j1] = near(span, 0, j1)
        else:
            out[j0:j1] = near(span, 0, c0 + 1) + far[j0:j1] + near(span, f, j1)
    return out


def rl_integral_quad(phi, mu: float, t: float, mesh: GradedMesh = None) -> float:
    """Left fractional integral of order mu in (0, 1], evaluated at a mesh
    node t by product integration.

    phi may be a WeightedGrid (its (s-a)^{gamma-1} factor is peeled off and
    integrated in closed form together with the kernel) or an array of node
    values (then mesh is required and phi is interpolated piecewise
    linearly as-is).

    Each call builds the whole profile, O(N L) with L ~ 300 SOE terms
    (O(N^2) for a sampled phi below _FAR_MIN_NODES nodes), to return one
    entry, so a loop over nodes costs N times that; solve_picard and
    verify_ode compute all nodes at once. A one-row build waits for a
    perfbench change, as its moments.* and profile.weighted_s probes time
    this call.
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
        prof = _RunningIntegral(mesh.nodes, mu) @ values
    return float(prof[j]) / specfun.gamma(mu)


# ---------------------------------------------------------------------------
# finite differences on a non-uniform mesh
# ---------------------------------------------------------------------------


def _derivative_profile(nodes: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Derivative of F at nodes 1..n-2 from values of F at nodes 1..n-2.

    np.gradient with edge_order=2: three-point stencils, exact for
    quadratics on the non-uniform mesh, centered in the interior and
    one-sided at the first and last usable node (node 0 and node n-1 are
    never touched). Entries 0 and n-1 of the result are NaN.
    """
    if len(nodes) < 5:
        raise DomainError("derivative stencils need at least 4 subintervals")
    d = np.full(len(nodes), np.nan)
    d[1:-1] = np.gradient(F[1:-1], nodes[1:-1], edge_order=2)
    return d


def rl_derivative_num(g: WeightedGrid, mu: float, t: float) -> float:
    """Fractional derivative of order mu in (0,1) at a strictly interior
    mesh node: tabulate I^{1-mu} g at the nodes, then differentiate with
    the three-point stencils.

    Each call builds the whole O(N L) profile (L ~ 300 SOE terms) to
    return one entry, so a loop over nodes costs N times that;
    solve_picard and verify_ode compute all nodes at once. A one-row
    build waits for a perfbench change, as its profile.hilfer_s probe
    times hilfer_derivative_num, which this calls."""
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

    Each call builds the whole O(N L) profile (L ~ 300 SOE terms) to
    return one entry, so a loop over nodes costs N times that;
    solve_picard and verify_ode compute all nodes at once. A one-row
    build waits for a perfbench change, as its profile.hilfer_s probe
    times this call."""
    j = g.mesh.index_of(t)
    if j == 0 or j == len(g.mesh.nodes) - 1:
        raise DomainError("derivative is not available at boundary nodes")
    return float(_hilfer_profile(g, order)[j])
