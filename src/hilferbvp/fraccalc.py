r"""Graded meshes, weighted grids, and numerical fractional operators.

Solutions of the problems handled by this package behave like
(t-a)^{gamma-1} near the left endpoint, so every kernel reads t - a: a
mesh holds the offsets x = t - a of its nodes (absolute t serve only f,
rho and tables), and grid functions are stored in weighted form
w(t) = (t-a)^{1-gamma} z(t), continuous up to t = a even when z blows
up. All quadrature is product integration: only the
smooth factor of an integrand is interpolated (piecewise linearly); the
singular kernel factors (t-s)^{mu-1} and (s-a)^{gamma-1} are integrated
in closed form on every subinterval where they are singular or nearly
so. Cells that lie at least 16 of their widths from the singularities
take 4-point Gauss-Legendre instead, every product-integration weight
alike; in the O(N L) stages below the kernel at the Gauss points is a
sum of exponentials carried from row to row, of which a scan block
keeps L live terms (a median of 54, 51-74, on the graded n_base 2048
mesh of the benchmark's solve-large anchor; 41-50 at n_base 128-256).
In the weighted profile the block of cells next to t = a, the same for
every row, reaches the rows at least four times its length from a
through the binomial series of the kernel about s = a, 27 terms with
row-independent moments, in place of incomplete-Beta weights. So the weighted profile, and the
running integral from _FAR_MIN_NODES nodes on, cost O(N L) rather than
O(N^2) and hold no N x N array; that moves them by at most 1.8e-15
relative (see _profile_weighted and _RunningIntegral).
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
    "hilfer_derivative_num",
    "weighted_norm",
]

_NODE_REL_TOL = 1e-12   # of b - a: the node rule of index_of and build_mesh


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
    """A graded mesh on [a, b], stored as the offsets x = t - a of its
    nodes, its one array: the power-law skeleton (b-a)*(j/n_base)^r plus
    optional extra nodes (e.g. nonlocal points), strictly increasing from
    x[0] = 0 to x[-1] = b - a. Every kernel reads x."""

    a: float
    b: float
    n_base: int
    r: float
    x: np.ndarray

    def __post_init__(self):
        self.x.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        """The absolute nodes a + x, formed here only, with nodes[-1]
        pinned to b (a + (b - a) need not be b), for sampling f and rho
        and for tables. Next to a they may repeat where a + x rounds."""
        nodes = self.a + self.x
        nodes[-1] = self.b
        return nodes

    def index_of(self, t: float) -> int:
        """Index of the node nearest to t, the node rule that build_mesh
        merges by, applied to t - a; DomainError when it is farther than
        1e-12*(b-a) from t, or when a + x rounds several nodes to t, as
        then t does not name one node."""
        gaps = np.abs(self.x - (t - self.a))
        j = int(np.argmin(gaps))
        if not gaps[j] <= _NODE_REL_TOL * (self.b - self.a):
            raise DomainError(f"t = {float(t)!r} is not a mesh node")
        same = np.flatnonzero(self.nodes == t)
        if len(same) > 1:
            raise DomainError(f"t = {float(t)!r} is the value of nodes {', '.join(map(str, same))}")
        return j


def _check_count(name, value, least):
    """DomainError unless value is an integer (a numbers.Integral, so a
    numpy integer too) of at least least."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")


def build_mesh(a, b, n_base, r, extra_nodes=()) -> GradedMesh:
    """Graded mesh with extra nodes merged in, built on the offsets from a.

    Extra nodes must lie in (a, b], more than 1e-12*(b-a) from a. By the
    node rule of index_of, on tau - a and taken in increasing order, an
    extra node within 1e-12*(b-a) of its nearest node so far is merged
    into that node, so index_of finds every one.
    """
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")
    _check_count("n_base", n_base, 2)
    if not r >= 1.0:
        raise DomainError(f"grading exponent must be >= 1, got {r!r}")
    j = np.arange(n_base + 1, dtype=float)
    x = (b - a) * (j / n_base) ** float(r)    # x[0] = 0, x[-1] = b - a exactly
    tol = _NODE_REL_TOL * (b - a)
    kept = []
    for extra in sorted(set(float(e) for e in extra_nodes)):
        e = extra - a
        if not (tol < e and extra <= b):
            raise DomainError(f"extra node {extra!r} outside (a, b] or within {tol!r} of a")
        gap = np.min(np.abs(x - e))
        if gap > tol and not (kept and e - kept[-1] <= tol):
            kept.append(e)
    x = np.insert(x, np.searchsorted(x, kept), kept)
    if np.any(np.diff(x) <= 0):
        raise DomainError("mesh nodes are not strictly increasing after merge")
    return GradedMesh(a=float(a), b=float(b), n_base=int(n_base), r=float(r), x=x)


@dataclass(frozen=True)
class WeightedGrid:
    """A grid function stored as w_i = (t_i - a)^{1-gamma} z(t_i).

    Between nodes, w (not z) is interpolated piecewise linearly; that rule
    is part of this type's contract. With gamma = 1 the weight is trivial
    and w coincides with z. The grid holds a read-only float64 copy of the
    given w, which may be any sequence of one value per node.
    """

    mesh: GradedMesh
    gamma: float
    w: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        w = np.array(self.w, dtype=float)
        if w.shape != self.mesh.x.shape:
            raise DomainError("w values and mesh nodes differ in length")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def z_values(self) -> np.ndarray:
        """Pointwise z_i = (t_i - a)^{gamma-1} w_i; at the left endpoint,
        when gamma < 1, +-inf for a nonzero w(a) and NaN for a NaN one."""
        z = np.empty_like(self.w)
        z[1:] = self.mesh.x[1:] ** (self.gamma - 1.0) * self.w[1:]
        if self.gamma == 1.0:
            z[0] = self.w[0]
        elif self.w[0] == 0.0:
            z[0] = 0.0
        else:
            z[0] = self.w[0] * math.inf       # NaN stays NaN
        return z

    def w_at(self, t: float) -> float:
        """w interpolated at t; DomainError unless a <= t <= b."""
        if not self.mesh.a <= t <= self.mesh.b:
            raise DomainError(f"t = {t!r} lies outside [{self.mesh.a!r}, {self.mesh.b!r}]")
        return float(np.interp(t - self.mesh.a, self.mesh.x, self.w))

    def z_at(self, t: float) -> float:
        """(t-a)^{gamma-1} w_at(t); at t = a as z_values()."""
        w = self.w_at(t)
        if t == self.mesh.a:
            return float(self.z_values()[0])
        return (t - self.mesh.a) ** (self.gamma - 1.0) * w


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
# Each cell takes one rule, by the far-field criterion of _scan_blocks. A
# near cell (A1 < _FAR_WIDTHS h) takes the closed forms as direct
# differences, whose cancellation is bounded, as A0 < 17 h. A far cell,
# where M1 would cancel down to the rounding of A0^{b1}, takes the
# _FAR_GAUSS-point Gauss rule of the far field, the kernel evaluated at
# its points s_q = u + g_q h:
#   M0 = h sum_q omega_q (t-s_q)^{beta-1},  M1/h = h sum_q omega_q g_q (t-s_q)^{beta-1}.
# kernel_weights returns the node weights as one matrix W, one row
# per target node; the solver builds it for the t = b row only, and
# _RunningIntegral builds the band of every row by the same rules
# (all of W below _FAR_MIN_NODES nodes). Only the entries that are read,
# subintervals left of the target node, are evaluated, and rows are built
# in blocks of about _BLOCK_ENTRIES entries, so the temporaries of a build
# stay small next to its output.
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 13


def _moment_rows(t, rows, lo, hi, beta) -> np.ndarray:
    """Columns lo..hi of kernel_weights(t, beta, rows): the weights that
    the cells [lo, hi) left of each target node fold onto the nodes
    lo..hi, cell 0 under the one-point rule."""
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
        far = A1 >= _FAR_WIDTHS * width
        near = ~far
        m0 = np.empty_like(A0)
        g = np.empty_like(A0)             # M1/h
        a0, a1, h = A0[near], A1[near], width[near]
        m0[near] = p = (a0**beta - a1**beta) / beta
        g[near] = (a0 * p - (a0 ** (beta + 1.0) - a1 ** (beta + 1.0)) / (beta + 1.0)) / h
        h = width[far]
        K = np.multiply.outer(-_GAUSS_X, h)
        K += A0[far]                              # t_j - s_q, one row per Gauss point
        K **= beta - 1.0
        K *= h
        K *= _GAUSS_W[:, None]
        m0[far] = K.sum(axis=0)
        K *= _GAUSS_X[:, None]
        g[far] = K.sum(axis=0)
        B = W[k0:k1, :m - lo + 1]
        B[:, :-1][inside] = m0
        G = np.zeros(inside.shape)
        G[inside] = g
        if lo == 0:
            G[:, :1] = 0.0
        B[:, :-1] -= G
        B[:, 1:] += G
    return W


def kernel_weights(nodes: np.ndarray, beta: float, rows=None) -> np.ndarray:
    """Node weights W[k, i] of product integration against the plain
    kernel (t_j-s)^{beta-1} at target node t_j, j = rows[k] (default:
    every node): the moments of every subinterval [t_i, t_{i+1}] with
    i < j, folded onto its two nodes, in closed form where the cell is
    near t_j and by the Gauss rule of the far field where it is far.
    W @ phi gives the raw integrals int_a^{t_j} (t_j-s)^{beta-1} phi(s)
    ds, with phi interpolated piecewise linearly between nodes, except on
    the first subinterval: it takes the one-point rule, its M0 on node 0
    and nothing on node 1, so phi[0] holds the value that the solver's
    model gives phi on that whole cell. (A node vector integrated
    linearly on every cell is rl_integral_quad's gamma = 1 profile.)

    The solver reads only the t = b row, on the offsets t - a (W reads
    node differences only); _RunningIntegral gives every row of W @ phi
    without holding W, and W is its dense reference."""
    rows = np.arange(len(nodes)) if rows is None else np.asarray(rows)
    return _moment_rows(nodes, rows, 0, len(nodes) - 1, beta)


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
# it the operator is the dense W, which takes the same rule cell by cell, so
# the crossover changes speed only. A build plus 6 applications (a seeded
# solve makes 3-9), dense / split, medians of 10 alternating pairs: 2.9/2.0,
# 2.4/1.9, 2.6/2.3 ms at 322 nodes and r = 2.19, 4, 10.4. Split wins 10 of
# 10 from 322 nodes at all three r, and at r = 10.4 6 of 10 at 290 and 0 at
# 258 (mu = 1/3; 2-vCPU x86-64, one BLAS thread)
_FAR_MIN_NODES = 322
# a scan block keeps the SOE terms with lambda_l d <= _SOE_CUT, d its
# smallest far distance
_SOE_CUT = 50.0
# the SOE's trapezoidal step in u, dyadic so that every node k h is exact
_SOE_STEP = 15.0 / 64.0


def _soe(alpha, delta):
    """Exponents lam (ascending) and weights omega with
    sum_l omega_l exp(-lam_l x) = x^{-alpha} for x in [delta, 1],
    0 <= alpha < 1; alpha = 0 (the kernel of order beta = 1) is the
    single term 1.

    It is the quadrature of x^{-alpha} = Gamma(alpha)^{-1}
    int_0^inf lam^{alpha-1} exp(-lam x) dlam through lam = exp(u - e^{-u}),
    which takes the integrand to a double-exponential decay at both ends,
    by the trapezoidal rule in u, step h = 15/64, one rule for every alpha
    (McLean, "Exponential sum approximations for t^{-beta}", 2018, after
    Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21 (2017)). The
    nodes u_k = k h run from -log(39/alpha) - 1, where alpha e^{-u} =
    39 e and the terms left out, which fall like exp(-alpha e^{-u}), are
    below 1e-40 of the sum, to log(61/delta) + 0.1, where lam delta =
    61 e^{0.1}; the weights are h lam^alpha (1 + e^{-u}) / Gamma(alpha).
    v = u - e^{-u} is formed together with its rounding error
    v_lo = (u - v) - e^{-u}, and lam = exp(v) (1 + v_lo). Without v_lo,
    lam is off by up to |v| eps / 2 relative (v reaches 36), the rule's
    own error rises from 3.0e-16 to 5.6e-16 at alpha = 0.99, and 2 of
    the grid's cases below exceed 1e-15. The nodes with lam < 1e-17 fold
    into one term lam = 0, as exp(-lam x) rounds to 1 on x <= 1, with the
    sum of their weights, their lam^alpha taken as exp(alpha v). L is 104
    at alpha = 0.5, delta = 1e-7, and 55-183 on the grid below.

    Measured at alpha = 0.001, 0.002, 0.003, 0.005, 0.01, 0.02, ...,
    0.99, 0.995, 0.999 and delta = 1e-2, 1e-3, ..., 1e-15 on geometric
    grids of 500 and 2000 points in [delta, 1] (tools/soe_grid.py), the
    relative error is at most 8.66e-16 (alpha = 0.001, delta = 1e-11),
    and 0 of those 2940 cases exceed 1e-15. The rule itself, its sum
    taken in long double, is within 4.4e-16 there (alpha = 0.79,
    delta = 1e-10): the rest is the rounding of the sum in double."""
    if alpha == 0.0:
        return np.zeros(1), np.ones(1)
    k = np.arange(math.ceil((-math.log(39.0 / alpha) - 1.0) / _SOE_STEP),
                  math.ceil((math.log(61.0 / delta) + 0.1) / _SOE_STEP) + 1)
    u = k * _SOE_STEP
    e = np.exp(-u)
    v = u - e
    lam = np.exp(v) * (1.0 + ((u - v) - e))
    n0 = int(np.searchsorted(lam, 1e-17))     # the first node always folds
    power = np.r_[np.exp(alpha * v[:n0]), lam[n0:] ** alpha]
    omega = _SOE_STEP * power * (1.0 + e) / specfun.gamma(alpha)
    return np.r_[0.0, lam[n0:]], np.r_[omega[:n0].sum(), omega[n0:]]


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


def _soe_geometry(x, beta, blocks, c0):
    """SOE geometry of the far-field scan, one (j0, j1, lo, f, decay, G, E)
    per block that has far cells, with x = t - a. The block from t_{j0}
    adds the cells [lo, f) that became far to the history,

        H <- decay * H,  H[:l] += sum_{q,i} G[:, q, i] c[q, lo + i],
        far[j0:j1] = E @ H[:l],

    block after block, with l = len(G) and c[q, i] the weighted sample at
    Gauss point q of cell i: G holds exp(-lambda_l (t_{j0} - s_q)) and E
    the row exponentials omega_l exp(-lambda_l (t_j - t_{j0})). A block
    keeps only the l terms with lambda_l d <= _SOE_CUT, d its smallest
    far distance; the rest add at most e^{-50} of a kernel value, and
    decay drops them from H."""
    far = [(j0, j1, f) for j0, j1, f in blocks if f > c0]
    if not far:
        return
    span = x[-1]
    delta = min(x[j0] - x[f] for j0, _, f in far) / span
    lam, omega = _soe(1.0 - beta, delta)
    lam = lam / span
    omega = omega * span ** (beta - 1.0)
    S = x[:-1] + np.diff(x) * _GAUSS_X[:, None]    # s_q - a of every cell
    lo, ref = c0, x[far[0][0]]
    for j0, j1, f in far:
        n_terms = int(np.searchsorted(lam, _SOE_CUT / (x[j0] - x[f]), side="right"))
        live = lam[:n_terms]
        decay = np.zeros(len(lam))
        decay[:n_terms] = np.exp(-live * (x[j0] - ref))
        G = np.exp(-live[:, None, None] * (x[j0] - S[:, lo:f]))
        E = omega[:n_terms] * np.exp(-np.outer(x[j0:j1] - x[j0], live))
        yield j0, j1, lo, f, decay, G, E
        lo, ref = f, x[j0]


def _far_factors(x, beta, rho, blocks, c0):
    """The geometry of _soe_geometry with G folded onto the nodes: the
    sample at Gauss point q of cell i is rho[q, i] times the linear
    interpolant of v, so F, of shape (l, f - lo + 1), gives the history's
    update F @ v[lo:f + 1]. The fold buys memory, not time. F holds a
    quarter of G's numbers, and the running integral with it half of
    what it holds with G (2.57 against 5.19 MiB at 2051 nodes of the
    solve-large anchor). It takes 10.5-10.7 ms to build against 9.1-9.4,
    and an application takes 0.41 ms against 0.62, so the 5 or so
    applications of a seeded solve leave its time as it was (2-vCPU
    x86-64, one BLAS thread)."""
    g = _GAUSS_X[:, None]
    for j0, j1, lo, f, decay, G, E in _soe_geometry(x, beta, blocks, c0):
        F = np.zeros((len(G), f - lo + 1))
        F[:, :-1] = np.einsum("lqi,qi->li", G, (1.0 - g) * rho[:, lo:f])
        F[:, 1:] += np.einsum("lqi,qi->li", G, g * rho[:, lo:f])
        yield j0, j1, lo, f, decay, F, E


def _far_field(terms, n, samples) -> np.ndarray:
    """The far field at each of the n rows (0 where a row has no far
    cells). Each term (j0, j1, lo, f, decay, M, E) updates the history by
    M @ samples(lo, f): the factors F of _far_factors with the node
    values v[lo:f + 1], or the flattened G of _soe_geometry with the
    Gauss samples of the cells [lo, f)."""
    out = np.zeros(n)
    H = 0.0
    for j0, j1, lo, f, decay, M, E in terms:
        H = decay * H
        H[:len(M)] += M @ samples(lo, f)
        out[j0:j1] = E @ H[:len(M)]
    return out


class _RunningIntegral:
    """The raw integrals int_a^{t_j} (t_j-s)^{beta-1} phi(s) ds at every
    node offset x_j = t_j - a, phi piecewise linear past the one-point
    first cell: kernel_weights(x, beta) @ phi, built once and applied to
    many phi. The solver is its one user.

    From _FAR_MIN_NODES nodes on, a row is split in two. The band is
    cell 0 (under the one-point rule) and the cells [f, j) of its scan
    block, with the weights of kernel_weights. The cells [1, f), far from
    every row of the block, take the SOE far field on the Gauss samples
    of phi: the rule of W with the kernel as a sum of exponentials. It
    holds O(N (L + K)) numbers, about 3.0 N L with L the live SOE terms
    of a scan block (a median of 54 on a graded n_base 2048 mesh): on
    solve-large draws, the node factors of _far_factors 1.06 N L, the row
    exponentials E 1.03, the bands 0.86. It holds no N x N array. Below
    that node count the operator is W itself."""

    def __init__(self, x: np.ndarray, beta: float):
        n = len(x)
        rows = np.arange(n)
        if n < _FAR_MIN_NODES:
            self.W = _moment_rows(x, rows, 0, n - 1, beta)
            return
        self.W = None
        h = np.diff(x)
        blocks = _scan_blocks(x, h, 1)
        self.cell0 = _moment_rows(x, rows, 0, 1, beta)
        self.bands = [
            (j0, j1, f, _moment_rows(x, rows[j0:j1], f, j1 - 1, beta))
            for j0, j1, f in blocks
        ]
        self.factors = list(_far_factors(x, beta, _GAUSS_W[:, None] * h, blocks, 1))

    def __matmul__(self, phi: np.ndarray) -> np.ndarray:
        if self.W is not None:
            return self.W @ phi
        out = _far_field(self.factors, len(phi), lambda lo, f: phi[lo:f + 1])
        out += self.cell0 @ phi[:2]
        for j0, j1, lo, band in self.bands:
            out[j0:j1] += band @ phi[lo:j1]
        return out


# A scan block whose first row t_{j0} has x_{j0} >= _SERIES_SPAN x_{c0}, x = t - a,
# sees the left block of cells [0, c0) through the binomial series of its
# kernel about s = a, with ratio x_{c0} / x_j <= 1 / _SERIES_SPAN; the
# _SERIES_TERMS terms leave a tail below 2^-53 of the first
_SERIES_SPAN = 4.0
_SERIES_TERMS = math.ceil(
    math.log(2.0**-53 * (1.0 - 1.0 / _SERIES_SPAN)) / -math.log(_SERIES_SPAN)
)


def _left_series(x, c0, beta, eta, w, sw, xj) -> np.ndarray:
    """int_0^{x_{c0}} (x_j - s)^{beta-1} s^eta w(s) ds at the x_j >=
    _SERIES_SPAN x_{c0} of the array xj, w linear on each cell of slope sw:

        x_j^{beta-1} sum_{k<K} c_k (x_{c0}/x_j)^k Mt_k,
        c_0 = 1, c_{k+1} = c_k (k+1-beta)/(k+1),
        Mt_k = int_0^{x_{c0}} (s/x_{c0})^k s^eta w(s) ds,

    the moments in closed form on each cell, in u = s/x_{c0} <= 1, so that
    no power of 1/x_j is formed however strong the grading."""
    p = eta + 1.0 + np.arange(_SERIES_TERMS + 1)[:, None]
    U = np.diff((x[:c0 + 1] / x[c0]) ** p, axis=1) / p    # int u^{eta+k} du per cell
    A = x[c0] ** (eta + 1.0) * U[:-1]
    B = x[c0] ** (eta + 2.0) * U[1:] - x[:c0] * A         # the slope's moments
    k = np.arange(1.0, _SERIES_TERMS)
    coeff = np.cumprod(np.r_[1.0, (k - beta) / k])
    series = np.polynomial.polynomial.polyval(x[c0] / xj, coeff * (A @ w[:c0] + B @ sw[:c0]))
    return xj ** (beta - 1.0) * series


def _profile_far(x, h, beta, eta, w, blocks, c0) -> np.ndarray:
    """The far field of the weighted profile at every row, x = t - a: the
    Gauss samples h_i omega_q s_q^eta w(s_q) of every cell, with w(s_q)
    interpolated once, contracted with the G of each scan block, one
    matrix-vector product per block. No node factors F are formed, as
    they would serve this one w only."""
    g = _GAUSS_X[:, None]
    c = _GAUSS_W[:, None] * h * (x[:-1] + h * g) ** eta * ((1.0 - g) * w[:-1] + g * w[1:])
    geometry = ((j0, j1, lo, f, decay, G.reshape(len(G), -1), E)
                for j0, j1, lo, f, decay, G, E in _soe_geometry(x, beta, blocks, c0))
    return _far_field(geometry, len(x), lambda lo, f: c[:, lo:f].ravel())


# I_x(a, b) for a, b in (0, 1] from the power series of B_x(a, b) about
# x = 0, taken at x <= 1/2 (the complement above): every term is positive
# and the k-th is at most 2^-k of the first, so _BETAINC_TERMS terms reach
# 2^-56. They are summed in blocks of _BETAINC_BLOCK powers of x.
_BETAINC_TERMS = 56
_BETAINC_BLOCK = 8


@lru_cache(maxsize=8)
def _betainc_setup(a, b):
    """B(a, b) and the series coefficients (1-q)_k / k! / (p+k) of
    B_x(p, q) / x^p for (p, q) = (a, b) (rows [0, nb)) and (b, a) (rows
    [nb, 2 nb)), row j holding those of the powers x^{8j} .. x^{8j+7}."""
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise DomainError(f"incomplete Beta needs a, b in (0, 1], got ({a!r}, {b!r})")
    k = np.arange(1.0, _BETAINC_TERMS)
    rows = [np.cumprod(np.r_[1.0, (k - q) / k]) / (p + np.r_[0.0, k]) for p, q in ((a, b), (b, a))]
    C = np.concatenate(rows).reshape(-1, _BETAINC_BLOCK)
    C.setflags(write=False)
    return specfun.beta(a, b), C


def _betainc_reg(a, b, x) -> np.ndarray:
    """The regularized incomplete Beta I_x(a, b) at the x in [0, 1] of the
    1-D array x, for a, b in (0, 1] (DomainError otherwise):

        I_x(a, b)   = x^a S_{a,b}(x) / B(a, b),               x <= 1/2,
                    = 1 - (1-x)^b S_{b,a}(1-x) / B(a, b),     x > 1/2,
        S_{p,q}(u)  = sum_k (1-q)_k / k! u^k / (p+k).

    The powers u^0 .. u^7 are formed once, one matrix product applies the
    coefficients block by block, and Horner in u^8 sums the blocks."""
    B, C = _betainc_setup(a, b)
    nb = len(C) // 2
    flip = x > 0.5
    u = np.where(flip, 1.0 - x, x)
    P = np.empty((_BETAINC_BLOCK, len(u)))
    P[0] = 1.0
    P[1] = u
    for i in range(2, _BETAINC_BLOCK):
        np.multiply(P[i - 1], u, out=P[i])
    Q = C @ P
    Q = np.where(flip, Q[nb:], Q[:nb])
    u8 = P[-1] * u
    s = Q[-1]
    for j in range(nb - 2, -1, -1):
        s = s * u8 + Q[j]
    r = u ** np.where(flip, b, a) * s / B
    return np.where(flip, 1.0 - r, r)


def _profile_weighted(x, beta, eta, w, first=0) -> np.ndarray:
    """Raw integrals int_a^{t_j} (t_j-s)^{beta-1} (s-a)^{eta} w(s) ds with w
    piecewise linear, at the node offsets x = t - a.

    Near cells, those within K = _FAR_WIDTHS of their own widths h_i of
    either singularity, are integrated in closed form. In
    X = (s-a)/(t_j-a) their weights are differences of the regularized
    incomplete Beta functions I_X(eta+1, beta) (for w) and
    I_X(eta+2, beta) (for its slope). Only the first is evaluated
    (_betainc_reg), once per node left of t_j (right of it X = 1 and both
    weights vanish); the second follows from the recurrence (DLMF 8.17.20)

        I_X(eta+2, beta) = I_X(eta+1, beta)
                           - X^{eta+1} (1-X)^beta / ((eta+1) B(eta+1, beta)),

    and B(eta+2, beta) from B(eta+1, beta) (eta+1) / (eta+1+beta), so the
    one B(eta+1, beta) of the weights is the one inside I.

    A far cell, with x = s - a, has x_i >= K h_i and x_j - x_{i+1} >= K h_i,
    so both factors are smooth on it: it takes the _FAR_GAUSS-point
    Gauss-Legendre rule with samples h_i omega_q s_q^eta w(s_q), summed
    against the kernel by the SOE far field in one pass (_profile_far:
    each scan block's Gauss exponentials G meet the samples directly,
    with no node factors F in between). The far cells of a row are
    one range [c0, f): c0 is right of the last cell that fails the first
    condition, and f is the first cell from c0 that fails the second for
    the first row of a scan block, so every far cell meets both, also
    next to an inserted node.

    Every scan block takes one path, as _RunningIntegral applies a row:
    the left block, then the far range [c0, f), then the near band [f, j).
    The left block, the cells [0, c0) next to a (c0 ~ 16 r at grading r),
    is the same for every row: the blocks from j_series, the first at
    x_{j0} >= 4 x_{c0}, take it from the binomial series of the kernel
    about s = a, 27 terms with row-independent moments (_left_series),
    and the blocks before j_series from its incomplete-Beta weights. So
    O(N (K + _SCAN_ROWS)) entries need I_X, about 32 per row, and the far
    field is O(N L). Against scipy's betainc for both I_X on every cell
    the profile moves by at most 1.8e-15 relative (beta in {0.1, 0.5,
    0.999, 1}, eta in {-0.9, -0.5, 0}; r = 4 at n_base 512 and 2047,
    r = 4.4 at n_base 2048 and 2600, where h_1 ~ 1e-15), and it meets
    a 30-digit reference to 6.7e-16 (the closed form on every cell:
    4e-16). Constant w is integrated exactly only up to that rounding.

    Row j reads the nodes up to t_j only, and the near cells are
    integrated block by block, so no N x N array is ever held.

    Rows below first, which the caller does not read, are NaN: the scan
    blocks that end before first take no near cells, while the far-field
    history still runs over every cell. The rows from first on are those
    of the whole profile, bit for bit."""
    n = len(x)
    h = np.diff(x)
    b1 = specfun.beta(eta + 1.0, beta)
    b2 = b1 * (eta + 1.0) / (eta + 1.0 + beta)   # B(p+1, q) = B(p, q) p / (p + q)
    sw = np.diff(w) / h
    out = np.zeros(n)
    # cell 0 always fails x_i >= K h_i
    c0 = 1 + np.flatnonzero(x[:-1] < _FAR_WIDTHS * h)[-1]
    blocks = _scan_blocks(x, h, c0)
    far = _profile_far(x, h, beta, eta, w, blocks, c0)
    j_series = next((j0 for j0, _, _ in blocks if x[j0] >= _SERIES_SPAN * x[c0]), n)
    out[j_series:] = _left_series(x, c0, beta, eta, w, sw, x[j_series:])

    def near(span, lo, hi):
        # closed-form weights of the cells [lo, hi - 1), applied to w
        X = np.clip(x[lo:hi] / span, 0.0, 1.0)
        inside = X < 1.0                       # X = 1 gives C = D = 1 exactly
        C, D = np.ones_like(X), np.ones_like(X)
        Xi = X[inside]
        C[inside] = Ci = _betainc_reg(eta + 1.0, beta, Xi)
        D[inside] = Ci - Xi ** (eta + 1.0) * (1.0 - Xi) ** beta / ((eta + 1.0) * b1)
        B0 = b1 * span ** (beta + eta) * np.diff(C, axis=1)
        B1 = b2 * span ** (beta + eta + 1.0) * np.diff(D, axis=1) - x[lo:hi - 1] * B0
        return B0 @ w[lo:hi - 1] + B1 @ sw[lo:hi - 1]

    for j0, j1, f in blocks:
        if j1 <= first:
            continue
        span = x[j0:j1, None]                  # t_j - a
        left = 0.0 if j0 >= j_series else near(span, 0, c0 + 1)
        out[j0:j1] += left + far[j0:j1] + near(span, f, j1)
    out[:first] = np.nan
    return out


def rl_integral_quad(phi, mu: float, t: float, mesh: GradedMesh = None) -> float:
    """Left fractional integral of order mu in (0, 1], evaluated at a mesh
    node t (GradedMesh.index_of) by product integration.

    phi may be a WeightedGrid (its (s-a)^{gamma-1} factor is peeled off and
    integrated in closed form together with the kernel) or a sequence of
    node values, which needs mesh and is taken as the gamma = 1 grid
    WeightedGrid(mesh, 1.0, phi): interpolated piecewise linearly as-is,
    on every cell. Both go through the one weighted profile.

    Each call builds the whole profile, O(N L) with L the live SOE terms
    of a scan block, a median of 54 on a graded n_base 2048 mesh, to
    return one entry, so a loop over nodes costs N times that;
    solve_picard and verify_ode compute all nodes at once. A one-row
    build waits for a perfbench change, as its moments.* and
    profile.weighted_s probes time this call.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"kernel order must lie in (0, 1], got {mu!r}")
    if not isinstance(phi, WeightedGrid):
        if mesh is None:
            raise DomainError("mesh is required for sampled integrands")
        phi = WeightedGrid(mesh, 1.0, phi)
    prof = _profile_weighted(phi.mesh.x, mu, phi.gamma - 1.0, phi.w)
    return float(prof[phi.mesh.index_of(t)]) / specfun.gamma(mu)


# ---------------------------------------------------------------------------
# finite differences on a non-uniform mesh
# ---------------------------------------------------------------------------


def _derivative_profile(x: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Derivative of F at nodes 1..n-2 from values of F at nodes 1..n-2,
    on the node offsets x = t - a (or any translate of them).

    np.gradient with edge_order=2: three-point stencils, exact for
    quadratics on the non-uniform mesh, centered in the interior and
    one-sided at the first and last usable node (node 0 and node n-1 are
    never touched). Entries 0 and n-1 of the result are NaN.
    """
    if len(x) < 5:
        raise DomainError("derivative stencils need at least 4 subintervals")
    d = np.full(len(x), np.nan)
    d[1:-1] = np.gradient(F[1:-1], x[1:-1], edge_order=2)
    return d


def _hilfer_profile(g: WeightedGrid, order: FracOrder, first=0) -> np.ndarray:
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

    The profile is built from row first on (_profile_weighted), so the
    derivative at every node past first is that of first = 0 bit for bit,
    and a node whose stencil reads a row below first is NaN.
    """
    mu = order.mu
    theta = order.nu * (1.0 - mu)
    x = g.mesh.x
    inner = 1.0 - mu
    F = _profile_weighted(x, inner, g.gamma - 1.0, g.w, first) / specfun.gamma(inner)
    if theta > 0.0:
        if g.gamma < order.gamma:
            raise DomainError(
                f"grid gamma {g.gamma!r} is below the order's gamma "
                f"{order.gamma!r}: I^(1-gamma) z is unbounded at a"
            )
        za = specfun.gamma(g.gamma) * g.w[0] if g.gamma == order.gamma else 0.0
        F -= za * x ** theta / specfun.gamma(theta + 1.0)
    return _derivative_profile(x, F)


def hilfer_derivative_num(g: WeightedGrid, order: FracOrder, t: float) -> float:
    """Two-parameter fractional derivative at a strictly interior mesh node.

    For every 0 <= nu <= 1 it is d/dt [I^{1-mu} z - z_a (t-a)^theta /
    Gamma(theta+1)] with theta = nu(1-mu) and z_a = I^{1-gamma} z(a+):
    Gamma(gamma) w(a) when g's gamma is the order's, 0 when it is larger;
    for nu > 0 a smaller one raises DomainError. At nu = 0 this is the
    Riemann-Liouville derivative of order mu (FracOrder(mu, 0.0)); at
    nu = 1, z_a = z(a) and it is the Caputo derivative D^mu [z - z(a)].
    t is looked up by GradedMesh.index_of.

    Each call builds the whole O(N L) profile (L the live SOE terms of a
    scan block, a median of 54 on a graded n_base 2048 mesh) to
    return one entry, so a loop over nodes costs N times that;
    solve_picard and verify_ode compute all nodes at once. A one-row
    build waits for a perfbench change, as its profile.hilfer_s probe
    times this call."""
    j = g.mesh.index_of(t)
    if j == 0 or j == len(g.mesh.x) - 1:
        raise DomainError("derivative is not available at boundary nodes")
    return float(_hilfer_profile(g, order)[j])
