"""Real-valued Gamma, log-Gamma and Beta functions.

The values come from the C library (``math.gamma``, ``math.lgamma``); these
wrappers add the package's DomainError, PoleError and OverflowError
contract. They are pure functions and safe to call from any thread.

``beta`` is the package's one Euler Beta: the Gamma ratio wherever that is
a finite double, which covers the arguments of every admissible p (all in
(0, 2]), and log-Gamma past it (p just below 1 gives arguments in the
hundreds). Errors against 40-digit mpmath are in its docstring and in
tests/test_specfun.py.
"""

import math

from .errors import DomainError, PoleError

__all__ = ["gamma", "log_gamma", "beta"]

_POLE_TOL = 1e-12


def _near_pole(x):
    return x <= 0.5 and abs(x - round(x)) <= _POLE_TOL and round(x) <= 0.0


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x.

    Raises DomainError for NaN and -inf, PoleError within 1e-12 of a
    non-positive integer, and OverflowError when the result is not
    representable in double precision.
    Results too small to represent underflow to a signed zero.
    """
    if math.isnan(x) or x == -math.inf:
        raise DomainError(f"gamma of {x!r}")
    if _near_pole(x):
        raise PoleError(f"gamma pole at or near x = {x!r}")
    result = math.gamma(x)  # raises OverflowError for finite x past the range
    if math.isinf(result):
        raise OverflowError(f"gamma({x!r}) exceeds double range")
    return result


def beta(x: float, y: float) -> float:
    """Euler Beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0.

    The Gamma ratio, in that order, whenever Gamma(x) Gamma(y) and
    Gamma(x + y) are finite doubles (x + y below about 171.6): within
    1.1e-15 relative on 2000 seeded pairs in (0, 1]^2, where the log-Gamma
    route errs by up to 2.4e-15, and within 7e-14 for x + y up to 170,
    libm's Gamma losing accuracy as its argument grows. Past that it
    takes exp(lgamma(x) + lgamma(y) - lgamma(x + y)): 2.4e-14 at
    (1e-10, 170), 3e-14 at (100, 100) and 7e-14 at (400, 300).
    Symmetric in (x, y) bit for bit. Raises DomainError unless x, y > 0,
    and OverflowError when B(x, y) is past the double range.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    try:
        product = math.gamma(x) * math.gamma(y)
        if product != math.inf:
            return product / math.gamma(x + y)
    except OverflowError:
        pass
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
