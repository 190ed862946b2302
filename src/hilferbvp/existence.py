r"""Numerical existence certificate.

For an admissible Lebesgue exponent p (with Hoelder conjugate
q = p/(p-1)) the certificate evaluates

    Lambda_{q,mu,gamma} = Gamma(q(mu-1)+1) Gamma(q(gamma-1)+1)
                          / Gamma(q(mu+gamma-2)+2),
    Delta_{q,mu,gamma}  = Gamma(q(mu-gamma)+1) Gamma(q(gamma-1)+1)
                          / Gamma(q(mu-1)+2),

the growth-bound norm ||rho||_{L^p} = (int_a^b |rho|^p ds)^{1/p}, and the
two contraction-style constants

    G  = [ 1/Gamma(gamma) * Lambda^{1/q}/(c+d-A)
               * sum_k lambda_k/Gamma(mu) (tau_k-a)^{gamma+mu-1}
         + ( 1/Gamma(gamma) |d/(c+d-A)| Delta^{1/q}/Gamma(1-gamma+mu)
           + Lambda^{1/q}/Gamma(mu) ) (b-a)^mu ] * ||rho||_{L^p},

    L* = [ m/Gamma(gamma) * (b-a)^{gamma-1}/(c+d-A)
               * sum_k lambda_k (tau_k-a)^mu / Gamma(mu+1)
         + ( 1/Gamma(gamma) |d/(c+d-A)| / Gamma(1-gamma+mu)
           + 1/Gamma(mu+1) ) (b-a)^mu ] * ||rho||_{L^p}.

Both below 1 certifies that the fixed-point operator admits a solution.
Admissibility of p requires p > 1, p > 1/mu, p > 1/gamma and positivity
of the three Gamma arguments q(mu-1)+1, q(gamma-1)+1, q(mu-gamma)+1.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .errors import DomainError, EvalError, InadmissibleExponentError
from .expr import Expr, compile_expr, pretty
from .solver import DerivedParams, ProblemSpec

__all__ = ["ExistenceReport", "hoelder_constants", "rho_lp_norm", "certificate"]

_SWEEP_EXPONENTS = (4.0, 8.0, 16.0, 64.0)


@dataclass(frozen=True)
class ExistenceReport:
    """Certificate evaluation for one exponent p.

    terms_G and terms_L are the three addends whose sums are G and L_star,
    making the adopted grouping auditable. Fields that cannot be computed
    for an inadmissible exponent are None. verdict is one of "satisfied",
    "violated", "inadmissible".
    """

    p: float
    q: float
    lambda_const: float
    delta_const: float
    rho_norm: float
    G: float
    L_star: float
    terms_G: tuple
    terms_L: tuple
    admissible: bool
    failed_conditions: tuple
    verdict: str


def hoelder_constants(q: float, mu: float, gamma: float):
    """(Lambda, Delta) for exponent q, the Beta-type constants of the
    kernel estimates: Lambda = B(q(mu-1)+1, q(gamma-1)+1) and
    Delta = B(q(mu-gamma)+1, q(gamma-1)+1), by specfun.beta. At q = 1
    they are B(mu, gamma) and B(1+mu-gamma, gamma).

    Raises InadmissibleExponentError naming the first argument positivity
    condition that fails."""
    x1 = q * (mu - 1.0) + 1.0
    x2 = q * (gamma - 1.0) + 1.0
    x3 = q * (mu - gamma) + 1.0
    for name, value in (("q*(mu-1)+1", x1), ("q*(gamma-1)+1", x2), ("q*(mu-gamma)+1", x3)):
        if not value > 0.0:
            raise InadmissibleExponentError(
                f"{name} = {value!r} <= 0 (q={q!r}, mu={mu!r}, gamma={gamma!r})"
            )
    return specfun.beta(x1, x2), specfun.beta(x3, x2)


# Python floats: a panel's nodes are Python floats, so an EvalError names its t as one
_GL_NODES, _GL_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(15))


def _gl_panel(fn, lo, hi):
    """15-point Gauss-Legendre on [lo, hi]; fn takes the list of the
    panel's nodes and gives their values."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = fn([mid + half * x for x in _GL_NODES])
    return half * sum(w * v for w, v in zip(_GL_WEIGHTS, values))


def _adaptive(fn, lo, hi, whole, rel_tol, abs_tol, depth):
    """Halve [lo, hi] until the sum of its halves agrees with whole, its
    one-panel estimate, to the looser of rel_tol of that sum and abs_tol,
    the panel's share of one global tolerance, halved with the panel
    (Gander & Gautschi, BIT 40 (2000)). The global test ends the halving
    where |fn| nearly vanishes, as at a kink of |rho|^p; the relative one
    ends it where the global tolerance, taken from a first estimate that
    missed a narrow peak, is far too tight. A non-finite sum, which no
    halving makes agree, is returned at once."""
    mid = 0.5 * (lo + hi)
    left = _gl_panel(fn, lo, mid)
    right = _gl_panel(fn, mid, hi)
    total = left + right
    if (
        not math.isfinite(total)
        or depth >= 40
        or abs(total - whole) <= max(rel_tol * abs(total), abs_tol) + 1e-300
    ):
        return total
    half = 0.5 * abs_tol
    return _adaptive(fn, lo, mid, left, rel_tol, half, depth + 1) + _adaptive(
        fn, mid, hi, right, rel_tol, half, depth + 1
    )


class _Rescale(Exception):
    """A sample r of |rho| that the scale M cannot take: (r/M)^p
    overflows, or M = 0 < r."""


def rho_lp_norm(rho: Expr, p: float, a: float, b: float) -> float:
    """(int_a^b |rho(s)|^p ds)^{1/p} as M (int_a^b (|rho(s)|/M)^p ds)^{1/p}
    by adaptive Gauss-Legendre panels (interval halving to 1e-12 of the
    integral, see _adaptive), so that |rho|^p neither underflows to 0 nor
    overflows for large p. M is the largest |rho| among the first
    panel's 15 samples, set as they are taken; a sample whose (|rho|/M)^p
    overflows (or a nonzero one when M = 0) restarts the integral with M
    set to it. rho is compiled against each panel's 15 nodes
    (compile_expr) and sampled in one pass, which gives evaluate's samples
    bit for bit; the panel's sum then takes (|rho|/M)^p and the weights
    in Python floats, node by node, so the norm is the one scalar
    sampling gives, bit for bit. A sweep takes 20 passes, for a kinked
    rho as for a smooth one. Any p > 0 is
    taken; the certificate enforces the H2 admissibility of p. Raises
    DomainError when a sample of |rho|, the integral or the norm is not a
    finite double (NaN, inf or past the double range), and an EvalError
    of rho again with the t it was met at before its message."""
    if not p > 0.0:
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")
    zeros = np.zeros(len(_GL_NODES))

    def integrand(points):
        nonlocal scale
        try:
            samples = np.abs(compile_expr(rho, points)(zeros)).tolist()
        except EvalError as exc:
            raise EvalError(f"rho at t = {points[exc.index]!r}: {exc.args[0]}", exc.pos) from exc
        if scale is None:
            scale = max(samples)
        values = []
        for r in samples:
            try:
                values.append((r / scale) ** p if r else 0.0)
            except (OverflowError, ZeroDivisionError):
                raise _Rescale(r) from None
        return values

    scale = None  # set by the first panel's samples
    while True:
        try:
            whole = _gl_panel(integrand, a, b)
            # 1e-12, as the reports print 12 digits: 1e-10 left 3.4e-12 of the
            # integral at p = 0.9999 next to a zero of rho
            value = _adaptive(integrand, a, b, whole, 1e-10, 1e-12 * abs(whole), 0)
            break
        except _Rescale as exc:
            scale = exc.args[0]
    norm = scale * value ** (1.0 / p)
    if not math.isfinite(norm):
        raise DomainError(
            f"(int |rho|^p)^(1/p) over [a, b] = [{a!r}, {b!r}] is not a finite "
            f"double (rho = {pretty(rho)}, p = {p!r})"
        )
    return norm


def certificate(spec: ProblemSpec, params: DerivedParams) -> ExistenceReport:
    """Evaluate the existence certificate for the instance's exponent p.

    Inadmissible exponents still produce a report with every computable
    quantity filled in and the violated conditions listed by name."""
    mu = spec.order.mu
    gamma = params.gamma
    p = spec.p
    q = p / (p - 1.0) if p != 1.0 else math.inf
    checks = (
        ("p > 1", p > 1.0),
        ("p > 1/mu", p > 1.0 / mu),
        ("p > 1/gamma", p > 1.0 / gamma),
        ("q*(mu-1)+1 > 0", q * (mu - 1.0) + 1.0 > 0.0),
        ("q*(gamma-1)+1 > 0", q * (gamma - 1.0) + 1.0 > 0.0),
        ("q*(mu-gamma)+1 > 0", q * (mu - gamma) + 1.0 > 0.0),
    )
    failed = tuple(name for name, ok in checks if not ok)
    admissible = not failed

    try:
        lam, delta = hoelder_constants(q, mu, gamma)
    except (InadmissibleExponentError, OverflowError):
        lam = delta = None

    rho_norm = rho_lp_norm(spec.rho, p, spec.a, spec.b)

    terms_g = terms_l = None
    G = L = None
    # p just below 1 (q near -1000) underflows Lambda to 0: no Lambda^{1/q}
    if lam is not None and all(0.0 < x < math.inf for x in (lam, delta)):
        gg = specfun.gamma(gamma)
        gm = specfun.gamma(mu)
        gm1 = specfun.gamma(mu + 1.0)
        gbc = specfun.gamma(1.0 - gamma + mu)
        ba = spec.b - spec.a
        lam_q = lam ** (1.0 / q)
        delta_q = delta ** (1.0 / q)
        m = len(spec.nonlocal_terms)
        sum_g = sum(
            lamk / gm * (tau - spec.a) ** (gamma + mu - 1.0)
            for lamk, tau in spec.nonlocal_terms
        )
        sum_l = sum(
            lamk * (tau - spec.a) ** mu / gm1 for lamk, tau in spec.nonlocal_terms
        )
        t1 = (1.0 / gg) * (lam_q / params.denom) * sum_g
        t2 = (1.0 / gg) * abs(spec.d / params.denom) * delta_q / gbc
        t3 = lam_q / gm
        terms_g = (t1 * rho_norm, t2 * ba**mu * rho_norm, t3 * ba**mu * rho_norm)
        G = sum(terms_g)
        s1 = (m / gg) * (ba ** (gamma - 1.0) / params.denom) * sum_l
        s2 = (1.0 / gg) * abs(spec.d / params.denom) / gbc
        s3 = 1.0 / gm1
        terms_l = (s1 * rho_norm, s2 * ba**mu * rho_norm, s3 * ba**mu * rho_norm)
        L = sum(terms_l)

    if admissible and G is not None:
        verdict = "satisfied" if (G < 1.0 and L < 1.0) else "violated"
    else:
        verdict = "inadmissible"

    return ExistenceReport(
        p=p,
        q=q,
        lambda_const=lam,
        delta_const=delta,
        rho_norm=rho_norm,
        G=G,
        L_star=L,
        terms_G=terms_g,
        terms_L=terms_l,
        admissible=admissible,
        failed_conditions=failed,
        verdict=verdict,
    )


def sweep_certificates(spec: ProblemSpec, params: DerivedParams):
    """Certificates over a fixed set of admissible exponents, plus the one
    whose binding constant max(G, L*) is smallest."""
    reports = [certificate(replace(spec, p=p), params) for p in _SWEEP_EXPONENTS]
    scored = [r for r in reports if r.G is not None]
    best = min(scored, key=lambda r: max(r.G, r.L_star)) if scored else reports[0]
    return reports, best
