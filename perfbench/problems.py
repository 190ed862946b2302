"""Seeded manufactured problems with a closed-form exact solution.

Every problem has a = 0 and the exact solution

    z*(t) = C t^(gamma-1) + sum_j b_j t^(delta_j-1),    delta_j > gamma,

whose two-parameter derivative is known in closed form: the first term is
annihilated and each power maps to Gamma(delta)/Gamma(delta-mu)
t^(delta-mu-1). The right-hand side is

    f(t, z) = sum_j b_j Gamma(delta_j)/Gamma(delta_j-mu) t^(delta_j-mu-1)
              + rho(t) (sin z - sin z*(t)),

written in the package's expression grammar, so z* solves the equation
for any rho. With I^(1-gamma) z*(0+) = C Gamma(gamma) and

    I^(1-gamma) z*(b-) = C Gamma(gamma)
                         + sum_j b_j Gamma(delta_j)/Gamma(delta_j+1-gamma) b^(delta_j-gamma),

c is solved so that the nonlocal boundary condition holds exactly. The
weighted exact solution is w*(t) = C + sum_j b_j t^(delta_j-gamma), and
the solver's initial coefficient must approach C Gamma(gamma).
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from hilferbvp import FracOrder, ProblemSpec, parse


@dataclass(frozen=True)
class Manufactured:
    """A problem instance together with its exact solution."""

    spec: ProblemSpec
    C: float
    terms: tuple  # (b_j, delta_j) pairs
    rho_text: str

    @property
    def gamma(self) -> float:
        return self.spec.order.gamma

    @property
    def za_exact(self) -> float:
        """I^(1-gamma) z*(0+) = C Gamma(gamma)."""
        return self.C * math.gamma(self.gamma)

    def z_exact(self, t):
        t = np.asarray(t, dtype=float)
        out = self.C * t ** (self.gamma - 1.0)
        for b, delta in self.terms:
            out = out + b * t ** (delta - 1.0)
        return out

    def w_exact(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.C)
        for b, delta in self.terms:
            out = out + b * t ** (delta - self.gamma)
        return out

    def bc_residual(self) -> float:
        """Closed-form residual of the nonlocal boundary condition for z*."""
        spec = self.spec
        ia = self.za_exact
        ib = ia + _tail_integral(self.terms, self.gamma, spec.b)
        rhs = sum(lam * float(self.z_exact(tau)) for lam, tau in spec.nonlocal_terms)
        return abs(spec.c * ia + spec.d * ib - rhs)

    def w_error(self, nodes, w) -> float:
        return float(np.max(np.abs(np.asarray(w) - self.w_exact(nodes))))


def _tail_integral(terms, gamma, b):
    """I^(1-gamma) of the delta terms of z*, evaluated at b (a = 0)."""
    return sum(
        bj * math.gamma(dj) / math.gamma(dj + 1.0 - gamma) * b ** (dj - gamma)
        for bj, dj in terms
    )


def _num(x: float) -> str:
    """Exact float literal for the expression grammar."""
    text = repr(float(x))
    return f"({text})" if text.startswith("-") else text


def manufacture(mu, nu, d, nonlocal_terms, C, terms, rho_text) -> Manufactured:
    """Build the problem whose exact solution is C t^(gamma-1) + sum b_j t^(delta_j-1).

    rho_text is an expression in t that multiplies the nonlinearity; it is
    also the growth bound handed to the existence certificate."""
    order = FracOrder(mu=mu, nu=nu)
    gamma = order.gamma
    if not all(dj > gamma for _, dj in terms):
        raise ValueError("every delta must exceed gamma")
    source = " + ".join(
        f"{_num(bj * math.gamma(dj) / math.gamma(dj - mu))}*t^{_num(dj - mu - 1.0)}"
        for bj, dj in terms
    )
    exact = " + ".join(
        [f"{_num(C)}*t^{_num(gamma - 1.0)}"]
        + [f"{_num(bj)}*t^{_num(dj - 1.0)}" for bj, dj in terms]
    )
    f = parse(f"{source} + ({rho_text})*(sin(z) - sin({exact}))")
    ib = C * math.gamma(gamma) + _tail_integral(terms, gamma, 1.0)
    z_star = lambda tau: C * tau ** (gamma - 1.0) + sum(
        bj * tau ** (dj - 1.0) for bj, dj in terms
    )
    rhs = sum(lam * z_star(tau) for lam, tau in nonlocal_terms)
    c = (rhs - d * ib) / (C * math.gamma(gamma))
    spec = ProblemSpec(
        order=order,
        a=0.0,
        b=1.0,
        c=c,
        d=float(d),
        nonlocal_terms=tuple(nonlocal_terms),
        f=f,
        rho=parse(rho_text),
        p=2.0 / mu,  # admissible: p > 1/mu >= 1/gamma
    )
    return Manufactured(spec=spec, C=C, terms=tuple(terms), rho_text=rho_text)


def lipschitz_bound(spec: ProblemSpec, k: float) -> float:
    """A-priori Lipschitz constant, in the weighted sup norm, of the
    fixed-point map when |df/dz| <= k.

    I^mu[s^(gamma-1)](t) = Gamma(gamma)/Gamma(gamma+mu) t^(gamma+mu-1) bounds
    the running integral; the same moment at the taus and the order
    (1-gamma+mu) moment at b bound the change of the initial coefficient.
    Below 1 the map contracts, so Picard iteration converges to z*."""
    mu = spec.order.mu
    gamma = spec.order.gamma
    b = spec.b
    gg = math.gamma(gamma)
    running = b**mu / math.gamma(gamma + mu)
    boundary = (
        sum(abs(lam) * tau ** (gamma + mu - 1.0) for lam, tau in spec.nonlocal_terms)
        / math.gamma(gamma + mu)
        + abs(spec.d) * b**mu / math.gamma(1.0 + mu)
    )
    return k * gg * (running + boundary / (gg * abs(_denominator(spec))))


def _denominator(spec: ProblemSpec) -> float:
    """c + d - A, which the boundary condition divides by to fix z_a."""
    gamma = spec.order.gamma
    A = sum(lam * tau ** (gamma - 1.0) for lam, tau in spec.nonlocal_terms) / math.gamma(gamma)
    return spec.c + spec.d - A


def _draw(rng: random.Random, n_terms, n_taus, contraction, rho_shape) -> Manufactured:
    """Draw orders, boundary data and exact solution, then scale the
    nonlinearity so the map's Lipschitz bound equals a value drawn from the
    contraction range. rho_shape(rng) gives (text with a {k} slot, sup of the
    shape on [0, 1])."""
    while True:
        mu = rng.uniform(0.3, 0.7)
        nu = rng.uniform(0.2, 0.8)
        gamma = FracOrder(mu=mu, nu=nu).gamma
        d = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
        taus = sorted(rng.sample([0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 1.0], n_taus))
        nonlocal_terms = tuple((rng.uniform(-0.5, 0.5), tau) for tau in taus)
        C = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        terms = tuple(
            (rng.uniform(-1.0, 1.0), gamma + rng.uniform(0.4, 1.6)) for _ in range(n_terms)
        )
        shape, sup = rho_shape(rng)
        target = rng.uniform(*contraction)
        unit = manufacture(mu, nu, d, nonlocal_terms, C, terms, "1")
        if abs(_denominator(unit.spec)) < 0.25:
            continue  # the boundary condition barely fixes z_a
        k = target / (lipschitz_bound(unit.spec, 1.0) * sup)
        return manufacture(mu, nu, d, nonlocal_terms, C, terms, shape.format(k=_num(k)))


def _constant(rng):
    return "{k}", 1.0


def large_problem(rng: random.Random) -> Manufactured:
    """gamma < 1, d != 0, two taus, one power term and a weak constant
    nonlinearity (Lipschitz bound 0.25-0.35): 6-12 Picard iterations."""
    return _draw(rng, 1, 2, (0.25, 0.35), _constant)


def batch_problem(rng: random.Random) -> Manufactured:
    """1-3 nonlocal terms, 1-3 power terms and a constant nonlinearity with
    Lipschitz bound 0.5-0.95: 6-33 Picard iterations."""
    return _draw(rng, rng.randint(1, 3), rng.randint(1, 3), (0.5, 0.95), _constant)


def _kinked(rng):
    t0 = rng.uniform(0.3, 0.7)
    return f"{{k}}*abs(t - {_num(t0)})", max(t0, 1.0 - t0)


def _smooth(rng):
    return "{k}*(1 + t^2)", 2.0


def certify_problem(rng: random.Random, kinked: bool) -> Manufactured:
    """Nonlinearity rho(t) sin z with a kinked rho = k|t - t0| or a smooth
    rho = k(1 + t^2); rho is also the certificate's growth bound."""
    return _draw(rng, rng.randint(1, 2), 2, (0.3, 0.6), _kinked if kinked else _smooth)
