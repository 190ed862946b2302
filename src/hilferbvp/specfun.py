"""Real-valued Gamma, log-Gamma and Beta functions.

The values come from the C library (``math.gamma``, ``math.lgamma``); these
wrappers add the package's DomainError, PoleError and OverflowError
contract. They are pure functions and safe to call from any thread.
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

    Evaluated through log-Gamma so that large arguments do not overflow
    intermediates. Symmetric in (x, y) bit for bit.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
