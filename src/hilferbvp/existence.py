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
from .errors import DomainError, InadmissibleExponentError
from .expr import Expr, evaluate
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
    """(Lambda, Delta) for exponent q; Beta-type constants of the kernel
    estimates. At q = 1 Lambda reduces to B(mu, gamma) and Delta to
    B(1+mu-gamma, gamma).

    Raises InadmissibleExponentError naming the first argument positivity
    condition that fails."""
    conditions = (
        ("q*(mu-1)+1", q * (mu - 1.0) + 1.0),
        ("q*(gamma-1)+1", q * (gamma - 1.0) + 1.0),
        ("q*(mu-gamma)+1", q * (mu - gamma) + 1.0),
    )
    for name, value in conditions:
        if not value > 0.0:
            raise InadmissibleExponentError(
                f"{name} = {value!r} <= 0 (q={q!r}, mu={mu!r}, gamma={gamma!r})"
            )
    x1 = q * (mu - 1.0) + 1.0
    x2 = q * (gamma - 1.0) + 1.0
    x3 = q * (mu - gamma) + 1.0
    lam = specfun.gamma(x1) * specfun.gamma(x2) / specfun.gamma(x1 + x2)
    delta = specfun.gamma(x3) * specfun.gamma(x2) / specfun.gamma(x3 + x2)
    return lam, delta


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(fn, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * sum(w * fn(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _adaptive(fn, lo, hi, whole, rel_tol, depth):
    mid = 0.5 * (lo + hi)
    left = _gl_panel(fn, lo, mid)
    right = _gl_panel(fn, mid, hi)
    if depth >= 40 or abs(left + right - whole) <= rel_tol * abs(left + right) + 1e-300:
        return left + right
    return _adaptive(fn, lo, mid, left, rel_tol, depth + 1) + _adaptive(
        fn, mid, hi, right, rel_tol, depth + 1
    )


def rho_lp_norm(rho: Expr, p: float, a: float, b: float) -> float:
    """(int_a^b |rho(s)|^p ds)^{1/p} by adaptive Gauss-Legendre panels
    (interval halving to relative 1e-10). Accepts any p > 0; the H2
    admissibility constraints on p are enforced by the certificate, not
    here."""
    if not p > 0.0:
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")

    def integrand(s):
        return abs(evaluate(rho, s, 0.0)) ** p

    whole = _gl_panel(integrand, a, b)
    value = _adaptive(integrand, a, b, whole, 1e-10, 0)
    return value ** (1.0 / p)


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
    except (InadmissibleExponentError, OverflowError, DomainError):
        lam = delta = None

    rho_norm = rho_lp_norm(spec.rho, p, spec.a, spec.b)

    terms_g = terms_l = None
    G = L = None
    if lam is not None:
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


def certificate_at(spec: ProblemSpec, params: DerivedParams, p: float) -> ExistenceReport:
    """Certificate for the instance with its exponent replaced by p."""
    return certificate(replace(spec, p=float(p)), params)


def sweep_certificates(spec: ProblemSpec, params: DerivedParams):
    """Certificates over a fixed set of admissible exponents, plus the one
    whose binding constant max(G, L*) is smallest."""
    reports = [certificate_at(spec, params, p) for p in _SWEEP_EXPONENTS]
    scored = [r for r in reports if r.G is not None]
    best = min(scored, key=lambda r: max(r.G, r.L_star)) if scored else reports[0]
    return reports, best
