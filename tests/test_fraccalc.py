import math

import numpy as np
import pytest

from hilferbvp import specfun
from hilferbvp.errors import DomainError
from hilferbvp.fraccalc import (
    FracOrder,
    KernelOperator,
    WeightedGrid,
    _derivative_profile,
    _profile_weighted,
    build_mesh,
    hilfer_derivative_num,
    rl_derivative_num,
    rl_integral_monomial,
    rl_integral_quad,
    weighted_norm,
)


def uniform_mesh(n, extras=()):
    return build_mesh(0.0, 1.0, n, 1.0, extras)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def test_build_mesh_uniform():
    m = uniform_mesh(4)
    assert np.allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_build_mesh_graded():
    m = build_mesh(0.0, 1.0, 4, 2.0, [])
    assert np.allclose(m.nodes, [0.0, 0.0625, 0.25, 0.5625, 1.0], atol=0)


def test_build_mesh_insertion():
    m = build_mesh(0.0, 1.0, 4, 1.0, [2.0 / 3.0])
    assert len(m.nodes) == 6
    assert 2.0 / 3.0 in m.nodes
    assert np.all(np.diff(m.nodes) > 0)


def test_build_mesh_merges_duplicates():
    m = build_mesh(0.0, 1.0, 4, 1.0, [0.25, 0.25 + 1e-16, 0.5])
    assert len(m.nodes) == 5  # all extras coincide with skeleton nodes
    m2 = build_mesh(0.0, 1.0, 4, 1.0, [0.3, 0.3 + 1e-16])
    assert len(m2.nodes) == 6


def test_build_mesh_errors():
    with pytest.raises(DomainError):
        build_mesh(1.0, 0.0, 4, 1.0, [])
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 1, 1.0, [])
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 4, 0.5, [])
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 4, 1.0, [0.0])
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 4, 1.0, [1.5])


def test_index_of():
    m = build_mesh(0.0, 1.0, 8, 2.0, [2.0 / 3.0])
    for j, t in enumerate(m.nodes):
        assert m.index_of(float(t)) == j
    with pytest.raises(DomainError):
        m.index_of(0.123456789)


# ---------------------------------------------------------------------------
# orders and weighted grids
# ---------------------------------------------------------------------------


def test_frac_order_gamma():
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    assert order.gamma == 0.5
    assert FracOrder(mu=0.3, nu=0.0).gamma == 0.3
    assert FracOrder(mu=0.3, nu=1.0).gamma == 1.0
    with pytest.raises(DomainError):
        FracOrder(mu=1.0, nu=0.5)
    with pytest.raises(DomainError):
        FracOrder(mu=0.5, nu=1.5)


def test_weighted_norm_examples():
    m = uniform_mesh(16)
    ones = WeightedGrid(mesh=m, gamma=0.5, w=np.ones(len(m.nodes)))
    assert weighted_norm(ones) == 1.0
    # z = (t-a)^{gamma-1} has weighted form w = 1 identically
    assert weighted_norm(WeightedGrid(mesh=m, gamma=0.5, w=np.ones(len(m.nodes)))) == 1.0
    w = 2.0 + 1e-14 * m.nodes
    two = WeightedGrid(mesh=m, gamma=0.5, w=w)
    assert weighted_norm(two) == pytest.approx(2.0, abs=1e-12)


def test_weighted_grid_z_values():
    m = uniform_mesh(4)
    g = WeightedGrid(mesh=m, gamma=0.5, w=np.ones(5))
    z = g.z_values()
    assert math.isinf(z[0])
    assert z[-1] == 1.0
    g0 = WeightedGrid(mesh=m, gamma=0.5, w=np.zeros(5))
    assert g0.z_values()[0] == 0.0
    g1 = WeightedGrid(mesh=m, gamma=1.0, w=m.nodes.copy())
    assert g1.z_values()[0] == 0.0


# ---------------------------------------------------------------------------
# closed-form integral of monomials
# ---------------------------------------------------------------------------


def test_monomial_examples():
    assert rl_integral_monomial(0.5, 1.0, 0.0, 1.0) == pytest.approx(
        1.1283791670955126, rel=1e-12
    )
    assert rl_integral_monomial(0.0, 2.0, 0.0, 3.0) == pytest.approx(3.0, rel=1e-12)
    assert rl_integral_monomial(1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_monomial_domain():
    with pytest.raises(DomainError):
        rl_integral_monomial(0.5, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        rl_integral_monomial(0.5, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# product-integration quadrature
# ---------------------------------------------------------------------------


def test_quad_constant_integrand():
    m = uniform_mesh(256)
    value = rl_integral_quad(np.ones(len(m.nodes)), 0.5, 1.0, m)
    assert value == pytest.approx(rl_integral_monomial(0.5, 1.0, 0.0, 1.0), abs=1e-4)
    # product trapezoid with exact moments is exact for constants
    assert value == pytest.approx(rl_integral_monomial(0.5, 1.0, 0.0, 1.0), rel=1e-13)


def test_quad_zero_integrand():
    m = uniform_mesh(64)
    assert rl_integral_quad(np.zeros(len(m.nodes)), 0.5, 1.0, m) == 0.0


def test_quad_linear_exact_at_mu_one():
    m = uniform_mesh(128)
    value = rl_integral_quad(m.nodes.copy(), 1.0, 1.0, m)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_quad_weighted_monomials_exact():
    # singular monomials in weighted representation: closed-form moments
    # make the quadrature exact up to roundoff
    m = uniform_mesh(256)
    for mu in (0.2, 0.5, 0.9):
        for delta in (0.3, 0.5, 0.75, 1.0):
            g = WeightedGrid(mesh=m, gamma=delta, w=np.ones(len(m.nodes)))
            got = rl_integral_quad(g, mu, 1.0, m)
            want = rl_integral_monomial(mu, delta, 0.0, 1.0)
            assert got == pytest.approx(want, rel=1e-10), (mu, delta)


def test_quad_requires_node():
    m = uniform_mesh(16)
    with pytest.raises(DomainError):
        rl_integral_quad(np.ones(len(m.nodes)), 0.5, 0.33, m)
    with pytest.raises(DomainError):
        rl_integral_quad(np.ones(len(m.nodes)), 1.5, 0.5, m)
    with pytest.raises(DomainError):
        rl_integral_quad(np.ones(len(m.nodes)), 0.5, 0.5)


def test_quad_linearity():
    m = build_mesh(0.0, 1.0, 64, 2.0, [])
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(len(m.nodes))
    psi = rng.standard_normal(len(m.nodes))
    alpha, beta_ = 1.7, -0.3
    lhs = rl_integral_quad(alpha * phi + beta_ * psi, 0.5, 1.0, m)
    rhs = alpha * rl_integral_quad(phi, 0.5, 1.0, m) + beta_ * rl_integral_quad(
        psi, 0.5, 1.0, m
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_semigroup_closed_form():
    # composing the closed forms is exact
    for mu, nu, delta in [(0.3, 0.4, 1.5), (0.5, 0.5, 0.8), (0.7, 0.1, 2.0)]:
        inner_coeff = specfun.gamma(delta) / specfun.gamma(delta + nu)
        composed = inner_coeff * rl_integral_monomial(mu, delta + nu, 0.0, 1.0)
        direct = rl_integral_monomial(mu + nu, delta, 0.0, 1.0)
        assert composed == pytest.approx(direct, rel=1e-12)


def test_semigroup_quad_refines():
    # I^mu I^nu g -> I^{mu+nu} g on nodes as the mesh refines
    mu, nu, delta = 0.4, 0.3, 1.5
    errors = []
    for n in (32, 64, 128):
        m = uniform_mesh(n)
        inner = np.array(
            [0.0]
            + [rl_integral_monomial(nu, delta, 0.0, float(t)) for t in m.nodes[1:]]
        )
        # feed the tabulated inner integral back through the quadrature
        outer = rl_integral_quad(inner, mu, 1.0, m)
        want = rl_integral_monomial(mu + nu, delta, 0.0, 1.0)
        errors.append(abs(outer - want))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 1e-5


def test_inversion_derivative_of_integral():
    # D^mu I^mu g = g for the monomial g = t^{delta-1}
    mu, delta = 0.35, 0.4
    m = build_mesh(0.0, 1.0, 512, 4.0, [])
    coeff = specfun.gamma(delta) / specfun.gamma(delta + mu)
    integral = WeightedGrid(mesh=m, gamma=delta + mu, w=np.full(len(m.nodes), coeff))
    for j in (128, 256, 384, 480):
        t = float(m.nodes[j])
        got = rl_derivative_num(integral, mu, t)
        want = t ** (delta - 1.0)
        assert got == pytest.approx(want, abs=1e-2)


def test_vanishing_limit_at_left_endpoint():
    # g in a weighted continuity class: g = t^{-1/4}; I^{1/2} g ~ t^{1/4} -> 0
    mu, exponent = 0.5, -0.25
    prev = None
    for n in (64, 128, 256):
        m = build_mesh(0.0, 1.0, n, 2.0, [])
        g = WeightedGrid(mesh=m, gamma=1.0 + exponent, w=np.ones(len(m.nodes)))
        t1 = float(m.nodes[1])
        value = abs(rl_integral_quad(g, mu, t1, m))
        assert value <= 10.0 * t1 ** (mu + exponent)
        if prev is not None:
            assert value < prev
        prev = value


def _richardson_orders(values):
    e1 = abs(values[0] - values[1])
    e2 = abs(values[1] - values[2])
    e3 = abs(values[2] - values[3])
    return math.log2(e1 / e2), math.log2(e2 / e3)


def test_convergence_order_weighted():
    # smooth-after-weighting: w = cos(s) under the (s)^{gamma-1} weight
    mu, gamma = 0.4, 0.5
    values = []
    for n in (64, 128, 256, 512):
        m = uniform_mesh(n)
        g = WeightedGrid(mesh=m, gamma=gamma, w=np.cos(m.nodes))
        values.append(rl_integral_quad(g, mu, 1.0, m))
    o1, o2 = _richardson_orders(values)
    assert o1 >= 1.8
    assert o2 >= 1.8


def test_convergence_order_sampled():
    mu = 0.6
    values = []
    for n in (64, 128, 256, 512):
        m = uniform_mesh(n)
        values.append(rl_integral_quad(np.exp(m.nodes), mu, 1.0, m))
    o1, o2 = _richardson_orders(values)
    assert o1 >= 1.8
    assert o2 >= 1.8


# ---------------------------------------------------------------------------
# kernel operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_base", [100, 257, 1024])
def test_kernel_operator_boundary_row_is_last_row_of_full_build(n_base):
    # the solver reads its boundary integral from a one-row build; the
    # golden files rely on it matching the full build bit for bit
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    mu, nu, gamma = order.mu, order.nu, order.gamma
    m = build_mesh(0.0, 1.0, n_base, 2.0 / gamma, [0.3, 2.0 / 3.0])
    last = len(m.nodes) - 1
    for beta in (mu, 1.0 - gamma + mu, nu * (1.0 - mu), 1.0):
        full = KernelOperator(m.nodes, beta)
        row = KernelOperator(m.nodes, beta, targets=[last])
        assert np.array_equal(row.M0, full.M0[-1:])
        assert np.array_equal(row.M1, full.M1[-1:])


@pytest.mark.parametrize("first", [None, ("const", 0.7), ("power", -0.25)])
def test_kernel_operator_targets_agree_with_full_rows(first):
    m = build_mesh(0.0, 2.0, 64, 2.0, [0.5])
    phi = np.cos(m.nodes) + m.nodes
    rows = [0, 1, 17, len(m.nodes) - 1]
    full = KernelOperator(m.nodes, 0.4).apply(phi, first)
    part = KernelOperator(m.nodes, 0.4, targets=rows).apply(phi, first)
    assert part[0] == 0.0
    assert np.allclose(part, full[rows], rtol=1e-14, atol=0.0)


def test_kernel_operator_const_model_exact_for_constants():
    # the one-point model is exact when phi is the same constant everywhere
    beta = 0.6
    m = build_mesh(0.0, 1.0, 32, 2.5, [])
    op = KernelOperator(m.nodes, beta)
    out = op.apply(np.full(len(m.nodes), 3.0), ("const", 3.0))
    exact = 3.0 * m.nodes**beta / beta
    assert np.allclose(out, exact, rtol=1e-13, atol=0.0)


def test_kernel_operator_rejects_unknown_model():
    m = uniform_mesh(8)
    with pytest.raises(ValueError):
        KernelOperator(m.nodes, 0.5).apply(np.ones(len(m.nodes)), ("linear", 1.0))


# ---------------------------------------------------------------------------
# fractional derivatives
# ---------------------------------------------------------------------------


def test_derivative_annihilates_its_power():
    mu = 0.5
    m = build_mesh(0.0, 1.0, 512, 4.0, [])
    g = WeightedGrid(mesh=m, gamma=mu, w=np.ones(len(m.nodes)))
    for j in (64, 200, 400):
        assert abs(rl_derivative_num(g, mu, float(m.nodes[j]))) <= 1e-2


def test_derivative_of_constant():
    mu, c = 0.5, 1.7
    m = build_mesh(0.0, 1.0, 512, 2.0, [0.5])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.full(len(m.nodes), c))
    t = 0.5
    want = c * t ** (-mu) / specfun.gamma(1.0 - mu)
    assert rl_derivative_num(g, mu, t) == pytest.approx(want, rel=1e-3)


def test_derivative_classical_limit():
    m = build_mesh(0.0, 1.0, 512, 1.0, [0.5])
    g = WeightedGrid(mesh=m, gamma=1.0, w=m.nodes.copy())
    got = rl_derivative_num(g, 0.999, 0.5)
    assert got == pytest.approx(1.0, abs=5e-2)


def test_derivative_boundary_rejected():
    m = uniform_mesh(16)
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.ones(len(m.nodes)))
    with pytest.raises(DomainError):
        rl_derivative_num(g, 0.5, 0.0)
    with pytest.raises(DomainError):
        rl_derivative_num(g, 0.5, 1.0)
    with pytest.raises(DomainError):
        hilfer_derivative_num(g, FracOrder(mu=0.5, nu=0.5), 1.0)


def test_hilfer_nu_zero_matches_rl():
    m = build_mesh(0.0, 1.0, 128, 2.0, [])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.cos(m.nodes))
    order = FracOrder(mu=0.4, nu=0.0)
    for j in (10, 40, 90):
        t = float(m.nodes[j])
        assert hilfer_derivative_num(g, order, t) == pytest.approx(
            rl_derivative_num(g, 0.4, t), abs=1e-10
        )


def test_hilfer_nu_one_matches_integral_of_derivative():
    # Caputo endpoint: I^{1-mu} applied to the mesh derivative of g
    mu = 0.4
    m = build_mesh(0.0, 1.0, 128, 1.0, [])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.sin(m.nodes) + 2.0)
    order = FracOrder(mu=mu, nu=1.0)
    d = _derivative_profile(m.nodes, g.w.copy())
    dd = np.array(d)
    dd[0] = 0.0
    dd[-1] = 0.0
    prof = KernelOperator(m.nodes, 1.0 - mu).apply(dd, ("power", mu - 1.0))
    reference = prof / specfun.gamma(1.0 - mu)
    for j in (5, 30, 64, 120):
        t = float(m.nodes[j])
        assert hilfer_derivative_num(g, order, t) == pytest.approx(
            float(reference[j]), abs=1e-10
        )


def test_hilfer_annihilates_endpoint_power():
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    m = build_mesh(0.0, 1.0, 512, 4.0, [])
    g = WeightedGrid(mesh=m, gamma=order.gamma, w=np.ones(len(m.nodes)))
    for j in (64, 128, 256, 500):
        assert abs(hilfer_derivative_num(g, order, float(m.nodes[j]))) <= 1e-2


def test_hilfer_zero_is_zero():
    order = FracOrder(mu=0.5, nu=0.5)
    m = build_mesh(0.0, 1.0, 64, 2.0, [])
    g = WeightedGrid(mesh=m, gamma=order.gamma, w=np.zeros(len(m.nodes)))
    assert hilfer_derivative_num(g, order, float(m.nodes[32])) == 0.0


def test_hilfer_of_known_power_function():
    # D^{mu,nu} [t^mu / Gamma(mu+1)] = (analytically) t^{... } identity check
    # via the defining property on the manufactured solution: the composition
    # of I^mu and D^{mu,nu} reproduces a constant right-hand side.
    mu, nu = 1.0 / 3.0, 1.0 / 4.0
    order = FracOrder(mu=mu, nu=nu)
    m = build_mesh(0.0, 1.0, 512, 4.0, [])
    # z = t^mu/Gamma(mu+1) solves D^{mu,nu} z = 1 with zero initial weight
    w = m.nodes ** (1.0 - order.gamma + mu) / specfun.gamma(mu + 1.0)
    g = WeightedGrid(mesh=m, gamma=order.gamma, w=w)
    for j in (128, 256, 448):
        got = hilfer_derivative_num(g, order, float(m.nodes[j]))
        assert got == pytest.approx(1.0, abs=1e-2)


def test_weighted_profile_row_zero_is_zero():
    m = uniform_mesh(8)
    out = _profile_weighted(m.nodes, 0.5, -0.5, np.ones(len(m.nodes)))
    assert out[0] == 0.0
