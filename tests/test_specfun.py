"""Gamma/Beta accuracy, identity and error-contract tests.

The C library's gamma/lgamma is the implementation under test, so it is
not an oracle here. Accuracy is judged against reference values computed
ahead of time with an arbitrary-precision library (50 digits) and frozen
here, against the recurrence and reflection identities, and for Beta
against mpmath at 40 digits on both of its routes. The sweeps against
math.gamma/math.lgamma check that the wrappers pass libm's values through
unchanged, with no spurious PoleError, DomainError or overflow.
"""

import math

import numpy as np
import pytest

from hilferbvp import beta, gamma, log_gamma, specfun
from hilferbvp.errors import DomainError, PoleError

# frozen reference values (50-digit arithmetic, rounded to double)
GAMMA_ONE_THIRD = 2.6789385347077476
BETA_HALF_THIRD = 4.206546315976363  # B(1/2, 1/3) = Gamma(.5)Gamma(1/3)/Gamma(5/6)


def test_gamma_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_one_third_frozen():
    assert gamma(1.0 / 3.0) == pytest.approx(GAMMA_ONE_THIRD, rel=1e-12)


def test_gamma_six_is_factorial():
    assert gamma(6.0) == pytest.approx(120.0, rel=1e-12)


def test_gamma_against_libm_sweep():
    xs = np.concatenate(
        [
            np.geomspace(1e-3, 0.5, 200),
            np.linspace(0.5, 20.0, 400),
            np.linspace(20.0, 170.0, 300),
        ]
    )
    for x in xs:
        assert gamma(float(x)) == math.gamma(float(x))


def test_gamma_negative_noninteger_reflection():
    for x in (-0.5, -1.5, -2.5, -4.25, -10.75):
        lhs = gamma(x) * gamma(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)


def test_gamma_recurrence():
    rng = np.random.default_rng(20240811)
    xs = rng.uniform(0.1, 50.0, size=1000)
    for x in xs:
        x = float(x)
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) / abs(lhs) <= 1e-11


def test_gamma_reflection():
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-3, 1.0 - 1e-3, size=500)
    for x in xs:
        x = float(x)
        lhs = gamma(x) * gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


def test_pole_errors():
    for x in (0.0, -1.0, -2.0, -7.0, 1e-13, -3.0 + 1e-13):
        with pytest.raises(PoleError):
            gamma(x)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma(172.0)
    with pytest.raises(OverflowError):
        gamma(500.0)
    with pytest.raises(OverflowError):
        gamma(math.inf)  # math.gamma returns inf here instead of raising


def test_gamma_underflow_is_a_signed_zero():
    # |Gamma(-180.5)| ~ 1.2e-330 is below the subnormal range; libm's -0.0
    # is kept rather than reported as an overflow
    value = gamma(-180.5)
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


def test_gamma_nan_rejected():
    with pytest.raises(DomainError):
        gamma(float("nan"))


def test_gamma_minus_inf_rejected():
    # checked before the pole test, whose round(x) cannot take an infinity
    with pytest.raises(DomainError):
        gamma(-math.inf)


def test_log_gamma_consistency():
    xs = np.linspace(0.5, 30.0, 400)
    for x in xs:
        x = float(x)
        assert math.exp(log_gamma(x)) == pytest.approx(gamma(x), rel=1e-11)


def test_log_gamma_against_libm():
    for x in np.geomspace(1e-3, 170.0, 500):
        x = float(x)
        assert log_gamma(x) == math.lgamma(x)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.5)


def test_beta_trivial():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_frozen():
    assert beta(0.5, 1.0 / 3.0) == pytest.approx(BETA_HALF_THIRD, rel=1e-12)


def test_beta_symmetry_bitwise():
    rng = np.random.default_rng(99)
    for _ in range(200):
        x, y = rng.uniform(0.05, 20.0, size=2)
        assert beta(float(x), float(y)) == beta(float(y), float(x))


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -2.0)


def test_beta_large_arguments_no_overflow():
    # direct Gamma(400) would overflow; the log route must not
    value = beta(400.0, 300.0)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(
        math.exp(math.lgamma(400.0) + math.lgamma(300.0) - math.lgamma(700.0)),
        rel=1e-10,
    )


def _ratio(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def _log_route(x, y):
    return math.exp(specfun._log_beta(x, y))


def _relative_errors(pairs):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = [mp.beta(x, y) for x, y in pairs]
        return [float(abs(beta(x, y) - e) / e) for (x, y), e in zip(pairs, exact)]


def test_beta_on_the_unit_square_matches_mpmath():
    # every Beta the package takes has both arguments in (0, 2]; the Gamma
    # ratio reads 1.05e-15 here, the log-Gamma route 2.44e-15
    rng = np.random.default_rng(1)
    pairs = [(float(x), float(y)) for x, y in 1.0 - rng.random((2000, 2))]
    assert max(_relative_errors(pairs)) <= 1.5e-15
    assert all(beta(x, y) == _ratio(x, y) for x, y in pairs)


def test_beta_ratio_route_up_to_170_matches_mpmath():
    # libm's Gamma loses accuracy as its argument grows: 7.2e-14 at worst
    rng = np.random.default_rng(2)
    pairs = [(float(x), float(y)) for x, y in 85.0 * (1.0 - rng.random((300, 2)))]
    pairs += [(1.0, 169.0), (0.5, 169.5), (85.0, 85.0), (1e-3, 169.0)]
    assert all(beta(x, y) == _ratio(x, y) for x, y in pairs)
    assert max(_relative_errors(pairs)) <= 1e-13


@pytest.mark.parametrize(
    "x, y, bound",
    [
        # Gamma(x) Gamma(y) is inf
        (1e-10, 170.0, 5e-14),
        (1e-300, 1e-300, 1.5e-13),
        (100.0, 100.0, 6e-14),
        # a Gamma raises OverflowError
        (0.5, 171.5, 8e-14),
        (100.0, 80.0, 3e-14),
        (400.0, 300.0, 1.5e-13),
    ],
)
def test_beta_log_route_matches_mpmath(x, y, bound):
    assert beta(x, y) == _log_route(x, y)
    assert _relative_errors([(x, y)])[0] <= bound


@pytest.mark.parametrize("x, y", [(1000.0, 0.5), (1e5, 0.5), (0.5, 1e5), (171.0, 1.0)])
def test_beta_of_large_unequal_arguments_does_not_cancel(x, y):
    # exp(lgamma(x) + lgamma(y) - lgamma(x + y)) read 7.7e-13 at (1000, 0.5)
    # and 3.0e-10 at (1e5, 0.5): lgamma(x) and lgamma(x + y) cancel
    assert beta(x, y) == _log_route(x, y) == beta(y, x)
    assert _relative_errors([(x, y)])[0] <= 1e-14


def test_beta_past_the_double_range_overflows():
    with pytest.raises(OverflowError):
        beta(1e-320, 1e-320)
