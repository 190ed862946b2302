import itertools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import betainc

from hilferbvp import fraccalc, specfun
from hilferbvp.errors import DomainError
from hilferbvp.fraccalc import (
    FracOrder,
    WeightedGrid,
    _derivative_profile,
    _hilfer_profile,
    _profile_weighted,
    build_mesh,
    hilfer_derivative_num,
    kernel_weights,
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
    for a in (0.0, 1.0):  # within 1e-12 (b - a) of a, tau would be merged into node 0
        with pytest.raises(DomainError, match=repr(a + 1e-13)):
            build_mesh(a, a + 1.0, 4, 1.0, [a + 1e-13])
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 4, 1.0, [1.5])


def test_index_of():
    m = build_mesh(0.0, 1.0, 8, 2.0, [2.0 / 3.0])
    for j, t in enumerate(m.nodes):
        assert m.index_of(float(t)) == j
    with pytest.raises(DomainError):
        m.index_of(0.123456789)


# meshes whose first nodes lie closer together than 1e-12: the default for
# mu = 0.2, nu = 0.1 (gamma = 0.28, r = 2/gamma), r = 4.4 and r = 12
STEEP_MESHES = {
    "gamma0.28": (0.0, 1.0, 512, 2.0 / FracOrder(0.2, 0.1).gamma),
    "r4.4": (0.0, 1.0, 2048, 4.4),
    "r12": (0.0, 1.0, 64, 12.0),
}


@pytest.mark.parametrize("args", STEEP_MESHES.values(), ids=STEEP_MESHES.keys())
def test_index_of_finds_every_node_of_a_steep_mesh(args):
    m = build_mesh(*args)
    assert m.nodes[1] - m.nodes[0] < 1e-12
    assert [m.index_of(float(t)) for t in m.nodes] == list(range(len(m.nodes)))


def test_index_of_takes_the_nearest_node_within_the_tolerance():
    m = build_mesh(0.0, 1.0, 512, 2.0 / FracOrder(0.2, 0.1).gamma)
    t = float(m.nodes[5])
    assert m.index_of(t + 0.4 * (m.nodes[6] - t)) == 5
    assert m.index_of(t + 0.6 * (m.nodes[6] - t)) == 6
    mid = float(m.nodes[300])
    assert m.index_of(mid + 9e-13) == m.index_of(mid - 9e-13) == 300
    for off in (0.123456789, mid + 2e-12, math.nan):
        with pytest.raises(DomainError):
            m.index_of(off)


def test_a_numpy_scalar_off_the_mesh_is_named_as_a_float():
    m = build_mesh(0.0, 1.0, 16, 1.0)
    for call in (lambda: m.index_of(np.float64(0.33)),
                 lambda: rl_integral_quad(np.ones(17), 0.5, np.float64(0.33), m)):
        with pytest.raises(DomainError, match=r"^t = 0\.33 is not a mesh node$"):
            call()


def test_build_mesh_merges_an_extra_node_within_the_node_tolerance():
    # 5e-13 from a skeleton node it is that node; 2e-12 away it is a node of
    # its own, and a third extra within 1e-12 of it is merged into it
    m = build_mesh(0.0, 1.0, 4, 1.0, [0.25 + 5e-13])
    assert np.array_equal(m.nodes, uniform_mesh(4).nodes)
    assert m.index_of(0.25 + 5e-13) == 1
    m = build_mesh(0.0, 1.0, 4, 1.0, [0.25 + 2e-12, 0.25 + 2.8e-12])
    assert m.nodes[2] == 0.25 + 2e-12 and len(m.nodes) == 6
    assert m.index_of(0.25 + 2.8e-12) == 2


def test_rl_integral_quad_next_to_the_left_end_of_a_steep_mesh():
    # nodes[5] lies 1e-15 from a: the closed form of I^mu (t-a)^{gamma-1}
    gamma = FracOrder(0.2, 0.1).gamma
    m = build_mesh(*STEEP_MESHES["gamma0.28"])
    g = WeightedGrid(mesh=m, gamma=gamma, w=np.ones(len(m.nodes)))
    t = float(m.nodes[5])
    want = rl_integral_monomial(0.2, gamma, 0.0, t)
    assert rl_integral_quad(g, 0.2, t) == pytest.approx(want, rel=1e-12)


def test_hilfer_derivative_num_at_the_first_interior_node_of_a_steep_mesh():
    m = build_mesh(*STEEP_MESHES["r4.4"])
    order = FracOrder(0.5, 0.0)
    g = WeightedGrid(mesh=m, gamma=order.gamma, w=np.ones(len(m.nodes)))
    got = hilfer_derivative_num(g, order, float(m.nodes[1]))
    assert math.isfinite(got) and got == _hilfer_profile(g, order)[1]


def test_a_mesh_away_from_zero_holds_the_offsets_of_the_mesh_at_zero():
    m = build_mesh(1, 2, 64, 12)
    assert np.array_equal(m.x, build_mesh(0, 1, 64, 12).nodes)
    assert m.nodes[0] == 1.0 and m.nodes[1] == 1.0   # a + x rounds onto a
    assert [m.index_of(1.0 + float(x)) for x in m.x[20:]] == list(range(20, 65))


def test_the_per_node_functions_refuse_a_t_that_names_several_nodes():
    m = build_mesh(1, 2, 64, 12)
    assert m.nodes[0] == m.nodes[1] == m.nodes[2] == 1.0 != m.nodes[3]
    g = WeightedGrid(mesh=m, gamma=0.5, w=np.ones(len(m.nodes)))
    with pytest.raises(DomainError, match="t = 1.0 is the value of nodes 0, 1, 2$"):
        rl_integral_quad(np.ones(len(m.nodes)), 0.5, m.nodes[2], m)
    with pytest.raises(DomainError, match="t = 1.0 is the value of nodes 0, 1, 2$"):
        hilfer_derivative_num(g, FracOrder(0.5, 0.0), m.nodes[2])


def test_the_absolute_nodes_end_on_a_and_b():
    # a + (b - a) is not b here
    a, b = -1.7, 0.3
    assert a + (b - a) != b
    m = build_mesh(a, b, 64, 4.0)
    assert m.nodes[0] == a and m.nodes[-1] == b
    assert m.x[0] == 0.0 and m.x[-1] == b - a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(1.0, 16.0),
    st.integers(8, 512),
    st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=3),
)
def test_build_mesh_builds_on_every_interval(a, length, r, n_base, fractions):
    b = a + length
    tol = 1e-12 * (b - a)
    taus = [min(a + u * (b - a), b) for u in fractions]
    assume(all(tau - a > tol for tau in taus))
    m = build_mesh(a, b, n_base, r, taus)
    assert np.all(np.diff(m.x) > 0)
    assert m.x[0] == 0.0 and m.x[-1] == b - a
    assert m.nodes[0] == a and m.nodes[-1] == b
    for tau in taus:
        assert abs(m.x[m.index_of(tau)] - (tau - a)) <= tol


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_mesh(0.0, 1.0, 64, 200.0),  # the skeleton underflows to repeated zeros
        lambda: WeightedGrid(mesh=uniform_mesh(4), gamma=0.0, w=np.ones(5)),
        lambda: WeightedGrid(mesh=uniform_mesh(4), gamma=1.5, w=np.ones(5)),
        lambda: WeightedGrid(mesh=uniform_mesh(4), gamma=0.5, w=np.ones(4)),
        lambda: rl_integral_monomial(-0.5, 1.0, 0.0, 1.0),
        lambda: rl_integral_quad(np.ones(4), 0.5, 0.5, uniform_mesh(4)),
    ],
    ids=["coinciding-nodes", "gamma0", "gamma1.5", "w-length", "monomial-mu", "quad-length"],
)
def test_fraccalc_input_checks(call):
    with pytest.raises(DomainError):
        call()


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


def test_weighted_grid_keeps_a_nan_at_the_endpoint():
    # w(a) = NaN with gamma < 1 gives z(a) = NaN, not -inf
    m = uniform_mesh(4)
    w = np.ones(5)
    w[0] = math.nan
    g = WeightedGrid(mesh=m, gamma=0.5, w=w)
    assert math.isnan(g.z_values()[0]) and math.isnan(g.z_at(0.0))
    assert g.z_values()[1] == 0.25**-0.5


def test_weighted_grid_point_values():
    m = uniform_mesh(4)
    g = WeightedGrid(mesh=m, gamma=0.5, w=1.0 + m.nodes)
    assert g.w_at(0.0) == 1.0 and g.w_at(0.125) == 1.125 and g.w_at(1.0) == 2.0
    assert g.z_at(0.25) == 0.25**-0.5 * 1.25
    assert math.isinf(g.z_at(0.0)) and g.z_at(1.0) == 2.0


@pytest.mark.parametrize("t", [-0.5, -1e-300, 1.0 + 1e-15, 2.0, math.nan])
def test_weighted_grid_point_values_outside_the_mesh(t):
    # past either end np.interp holds the end value, and below a
    # (t-a)^(gamma-1) is complex
    g = WeightedGrid(mesh=uniform_mesh(4), gamma=0.5, w=np.ones(5))
    with pytest.raises(DomainError):
        g.w_at(t)
    with pytest.raises(DomainError):
        g.z_at(t)


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
        got = hilfer_derivative_num(integral, FracOrder(mu, 0.0), t)
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
# kernel weights
# ---------------------------------------------------------------------------

FIRST_CELL_MODELS = (True, False)   # sampled_first


@pytest.mark.parametrize("n_base", [100, 257, 1024])
def test_kernel_operator_boundary_row_is_last_row_of_full_build(n_base):
    # the solver reads its boundary integral from a one-row build; the
    # golden files rely on it matching the full build bit for bit
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    mu, nu, gamma = order.mu, order.nu, order.gamma
    m = build_mesh(0.0, 1.0, n_base, 2.0 / gamma, [0.3, 2.0 / 3.0])
    last = len(m.nodes) - 1
    for beta in (mu, 1.0 - gamma + mu, nu * (1.0 - mu), 1.0):
        for sampled in FIRST_CELL_MODELS:
            full = kernel_weights(m.nodes, beta, sampled_first=sampled)
            row = kernel_weights(m.nodes, beta, [last], sampled_first=sampled)
            assert np.array_equal(row, full[-1:]), (beta, sampled)


@pytest.mark.parametrize("first", [None, 0.7], ids=["None", "first1"])
def test_kernel_operator_targets_agree_with_full_rows(first):
    m = build_mesh(0.0, 2.0, 64, 2.0, [0.5])
    phi = np.cos(m.nodes) + m.nodes
    if first is not None:
        phi[0] = first   # the one-point rule's value rides in phi[0]
    sampled = first is None
    rows = [0, 1, 17, len(m.nodes) - 1]
    full = kernel_weights(m.nodes, 0.4, sampled_first=sampled) @ phi
    part = kernel_weights(m.nodes, 0.4, rows, sampled_first=sampled) @ phi
    assert part[0] == 0.0
    assert np.allclose(part, full[rows], rtol=1e-14, atol=0.0)


def test_kernel_operator_const_model_exact_for_constants():
    # the one-point rule is exact when phi is the same constant everywhere
    beta = 0.6
    m = build_mesh(0.0, 1.0, 32, 2.5, [])
    W = kernel_weights(m.nodes, beta, sampled_first=False)
    out = W @ np.full(len(m.nodes), 3.0)
    exact = 3.0 * m.nodes**beta / beta
    assert np.allclose(out, exact, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# fractional derivatives
# ---------------------------------------------------------------------------


def test_derivative_annihilates_its_power():
    mu = 0.5
    m = build_mesh(0.0, 1.0, 512, 4.0, [])
    g = WeightedGrid(mesh=m, gamma=mu, w=np.ones(len(m.nodes)))
    for j in (64, 200, 400):
        assert abs(hilfer_derivative_num(g, FracOrder(mu, 0.0), float(m.nodes[j]))) <= 1e-2


def test_derivative_of_constant():
    mu, c = 0.5, 1.7
    m = build_mesh(0.0, 1.0, 512, 2.0, [0.5])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.full(len(m.nodes), c))
    t = 0.5
    want = c * t ** (-mu) / specfun.gamma(1.0 - mu)
    assert hilfer_derivative_num(g, FracOrder(mu, 0.0), t) == pytest.approx(want, rel=1e-3)


def test_derivative_classical_limit():
    m = build_mesh(0.0, 1.0, 512, 1.0, [0.5])
    g = WeightedGrid(mesh=m, gamma=1.0, w=m.nodes.copy())
    got = hilfer_derivative_num(g, FracOrder(0.999, 0.0), 0.5)
    assert got == pytest.approx(1.0, abs=5e-2)


def test_derivative_boundary_rejected():
    m = uniform_mesh(16)
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.ones(len(m.nodes)))
    with pytest.raises(DomainError):
        hilfer_derivative_num(g, FracOrder(0.5, 0.0), 0.0)
    with pytest.raises(DomainError):
        hilfer_derivative_num(g, FracOrder(0.5, 0.0), 1.0)
    with pytest.raises(DomainError):
        hilfer_derivative_num(g, FracOrder(mu=0.5, nu=0.5), 1.0)


def test_hilfer_nu_one_matches_integral_of_derivative():
    # Caputo endpoint, I^{1-mu} z' = D^mu [z - z(a)] (Diethelm 2010, 3.1):
    # the Riemann-Liouville derivative of g - g(a)
    mu = 0.4
    m = build_mesh(0.0, 1.0, 128, 1.0, [])
    g = WeightedGrid(mesh=m, gamma=1.0, w=np.sin(m.nodes) + 2.0)
    shifted = WeightedGrid(mesh=m, gamma=1.0, w=g.w - g.w[0])
    order = FracOrder(mu=mu, nu=1.0)
    for j in (5, 30, 64, 120):
        t = float(m.nodes[j])
        assert hilfer_derivative_num(g, order, t) == pytest.approx(
            hilfer_derivative_num(shifted, FracOrder(mu, 0.0), t), abs=1e-10
        )


@pytest.mark.parametrize("mu", [0.3, 0.6])
def test_hilfer_nu_one_is_second_order_on_a_singular_solution(mu):
    # Caputo derivative of z = 1 + t^delta is
    # Gamma(delta+1)/Gamma(delta+1-mu) t^{delta-mu}
    delta = 0.7
    order = FracOrder(mu=mu, nu=1.0)
    errors = []
    for n_base in (128, 512, 2048):
        m = build_mesh(0.0, 1.0, n_base, 2.0, [])
        g = WeightedGrid(mesh=m, gamma=1.0, w=1.0 + m.nodes**delta)
        t = m.nodes[n_base // 8:-1]
        exact = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - mu) * t ** (delta - mu)
        got = fraccalc._hilfer_profile(g, order)[n_base // 8:-1]
        errors.append(np.max(np.abs(got - exact)))
    orders = [math.log(errors[k] / errors[k + 1], 4.0) for k in range(2)]
    assert min(orders) >= 1.9, (errors, orders)


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


@pytest.mark.parametrize("nu", [0.25, 0.6, 1.0])
def test_hilfer_rejects_a_grid_gamma_below_the_order_gamma(nu):
    # I^{1-gamma} z is unbounded at a, so z_a does not exist
    order = FracOrder(mu=0.4, nu=nu)
    m = build_mesh(0.0, 1.0, 64, 2.0, [])
    g = WeightedGrid(mesh=m, gamma=order.gamma - 0.1, w=np.ones(len(m.nodes)))
    with pytest.raises(DomainError):
        hilfer_derivative_num(g, order, float(m.nodes[32]))


@pytest.mark.parametrize("gamma", [0.9, 1.0])
def test_hilfer_of_a_grid_with_larger_gamma_is_the_rl_derivative(gamma):
    # I^{1-gamma} z(a+) = 0 there, so D^{mu,nu} z = D^mu z
    order = FracOrder(mu=0.4, nu=0.5)
    assert gamma > order.gamma
    m = build_mesh(0.0, 1.0, 128, 2.0, [0.3])
    g = WeightedGrid(mesh=m, gamma=gamma, w=np.cos(m.nodes) + 0.5)
    nodes = [float(t) for t in m.nodes[1:-1]]
    got = np.array([hilfer_derivative_num(g, order, t) for t in nodes])
    want = np.array([hilfer_derivative_num(g, FracOrder(order.mu, 0.0), t) for t in nodes])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0])
def test_hilfer_endpoint_profiles_are_their_single_stages(gamma):
    # nu = 0: the stencils of I^{1-mu} z; nu = 1 (gamma = 1 grids only,
    # smaller ones raise): the stencils of I^{1-mu} z - z(a) (t-a)^{1-mu}
    # / Gamma(2-mu). Bit for bit.
    mu = 0.4
    m = build_mesh(0.0, 1.0, 128, 2.0, [0.3])
    g = WeightedGrid(mesh=m, gamma=gamma, w=np.sin(m.nodes) + 2.0)
    F = _profile_weighted(m.nodes, 1.0 - mu, gamma - 1.0, g.w) / specfun.gamma(1.0 - mu)
    want = _derivative_profile(m.nodes, F)
    assert np.array_equal(fraccalc._hilfer_profile(g, FracOrder(mu, 0.0)), want, equal_nan=True)
    if gamma == 1.0:
        F -= g.w[0] * m.nodes ** (1.0 - mu) / specfun.gamma(2.0 - mu)
        want = _derivative_profile(m.nodes, F)
        assert np.array_equal(fraccalc._hilfer_profile(g, FracOrder(mu, 1.0)), want, equal_nan=True)


# seeded (a, b) in (0, 1], the only orders _profile_weighted passes, with
# a = 1 and b = 1; x across [0, 1] and down to 1e-15 from either end
_BETAINC_PAIRS = [(1.0, 1.0), (1.0, 0.3), (0.3, 1.0)] + [
    (1.0 - u, 1.0 - v) for u, v in np.random.default_rng(20).random((20, 2))
]
_BETAINC_X = np.r_[
    np.linspace(0.0, 1.0, 41), np.geomspace(1e-15, 0.5, 30), 1.0 - np.geomspace(1e-15, 0.5, 30)
]


def test_incomplete_beta_matches_mpmath():
    # x <= 1/2 sums the series of I_x(a, b), with no cancellation: relative
    # error; x > 1/2 takes 1 - I_{1-x}(b, a), accurate to absolute rounding,
    # which is what the profile's differences of I read. On these points
    # scipy.special.betainc errs by 1.10e-15 relative and 6.2e-16 absolute,
    # the series by 1.14e-15 and 3.5e-16; the bounds leave room for a
    # libm or SIMD pow that rounds differently.
    mp = pytest.importorskip("mpmath")
    low = _BETAINC_X <= 0.5
    for a, b in _BETAINC_PAIRS:
        got = fraccalc._betainc_reg(a, b, _BETAINC_X)
        with mp.workdps(30):
            want = [mp.betainc(a, b, 0, x, regularized=True) for x in _BETAINC_X]
            err = np.array([float(abs(g - w)) for g, w in zip(got, want)])
            scale = np.array([float(w) if w else 1.0 for w in want])
        assert np.max(err[low] / scale[low]) <= 1.5e-15, (a, b)
        assert np.max(err[~low]) <= 1e-15, (a, b)
        assert fraccalc._betainc_reg(a, b, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "a,b", [(0.0, 0.5), (0.5, 0.0), (1.5, 0.5), (0.5, 1.0 + 1e-15), (-0.5, 0.5), (math.nan, 0.5)]
)
def test_incomplete_beta_rejects_orders_outside_its_range(a, b):
    with pytest.raises(DomainError):
        fraccalc._betainc_reg(a, b, np.array([0.25, 0.75]))


def test_weighted_profile_row_zero_is_zero():
    m = uniform_mesh(8)
    out = _profile_weighted(m.nodes, 0.5, -0.5, np.ones(len(m.nodes)))
    assert out[0] == 0.0


# ---------------------------------------------------------------------------
# kernel weight builders against dense references
#
# The references are the dense formulas the builders replaced: every entry
# of the N x N matrix by every rule, the rule picked afterwards, and two
# betainc calls for the weighted profile.
# ---------------------------------------------------------------------------


def _dense_moment_matrices(nodes, beta, rows):
    """M0 and M1/h of every cell for each row: the direct differences of
    the closed forms near the row, the Gauss rule with the kernel at the
    Gauss points where t_j - t_{i+1} >= 16 h_i, and 0 right of the row."""
    t = nodes
    A0 = t[rows, None] - t[None, :-1]
    A1 = t[rows, None] - t[None, 1:]
    h = np.broadcast_to(np.diff(t)[None, :], A1.shape)
    mask = np.arange(len(t) - 1)[None, :] < rows[:, None]
    far = A1 >= 16.0 * h
    with np.errstate(all="ignore"):
        P = (A0**beta - A1**beta) / beta
        G = (A0 * P - (A0 ** (beta + 1.0) - A1 ** (beta + 1.0)) / (beta + 1.0)) / h
        S0 = S1 = 0.0
        for g, wt in zip(fraccalc._GAUSS_X, fraccalc._GAUSS_W):
            k = (A0 - g * h) ** (beta - 1.0) * h * wt
            S0 = S0 + k
            S1 = S1 + g * k
    M0 = np.where(mask, np.where(far, S0, P), 0.0)
    G = np.where(mask, np.where(far, S1, G), 0.0)
    return M0, G


def _folded_reference(nodes, beta, rows, sampled_first):
    """Node weights from the dense moments, folded in the builder's
    order (M0 - M1/h on node i, then M1/h added on node i+1), with the
    first-cell rule applied."""
    M0, G = _dense_moment_matrices(nodes, beta, rows)
    if not sampled_first:
        G[:, 0] = 0.0
    W = np.zeros((len(rows), len(nodes)))
    W[:, :-1] = M0 - G
    W[:, 1:] += G
    return W


def _two_betainc_profile(nodes, beta, eta, w, rows=None):
    """Rows of the weighted profile (default: every node) with two
    betainc calls for every cell of every row."""
    rows = np.arange(len(nodes)) if rows is None else np.asarray(rows)
    a = nodes[0]
    out = np.zeros(len(rows))
    inner = rows > 0
    span = nodes[rows[inner]] - a
    X = np.clip((nodes[None, :] - a) / span[:, None], 0.0, 1.0)
    C = betainc(eta + 1.0, beta, X)
    D = betainc(eta + 2.0, beta, X)
    W0 = beta_fn(eta + 1.0, beta) * (span ** (beta + eta))[:, None] * np.diff(C, axis=1)
    V = beta_fn(eta + 2.0, beta) * (span ** (beta + eta + 1.0))[:, None] * np.diff(D, axis=1)
    W1 = V - (nodes[:-1] - a)[None, :] * W0
    out[inner] = W0 @ w[:-1] + W1 @ (np.diff(w) / np.diff(nodes))
    return out


def _mesh_with_close_tau(n_base, r):
    # tau just right of a grid node: a tiny subinterval, then a long one,
    # so the target rows meet the far and near rules and the endpoint
    grid = build_mesh(0.0, 1.0, n_base, r, [])
    tau = float(grid.nodes[(2 * n_base) // 3]) + 1e-9
    return build_mesh(0.0, 1.0, n_base, r, [tau]), tau


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("n_base", [16, 257, 1024])
def test_moment_matrices_bit_identical_to_dense_reference(n_base, graded):
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    r = 2.0 / order.gamma if graded else 1.0
    m, tau = _mesh_with_close_tau(n_base, r)
    n = len(m.nodes)
    assert n == n_base + 2
    everything = np.arange(n)
    for beta in (0.3, order.mu, 1.0 - order.gamma + order.mu, 1.0):
        for sampled in FIRST_CELL_MODELS:
            got = kernel_weights(m.nodes, beta, sampled_first=sampled)
            want = _folded_reference(m.nodes, beta, everything, sampled)
            assert np.array_equal(got, want), (beta, sampled)
            for j in (1, m.index_of(tau), m.index_of(tau) + 1, n - 1):
                got = kernel_weights(m.nodes, beta, [j], sampled_first=sampled)
                assert np.array_equal(got, want[[j]]), (beta, sampled, j)


def _mp_kernel_row(mp, x, beta, phi, j, sampled_first):
    """int_0^{x_j} (x_j - s)^{beta-1} phi(s) ds with phi the linear
    interpolant of the samples (cell 0 carrying phi[0] alone when
    sampled_first is false), in closed form on each cell in mpmath."""
    total = mp.mpf(0)
    xj = mp.mpf(x[j])
    for i in range(j):
        A0, A1 = xj - mp.mpf(x[i]), xj - mp.mpf(x[i + 1])
        slope = (mp.mpf(phi[i + 1]) - phi[i]) / (A0 - A1)
        if i == 0 and not sampled_first:
            slope = 0
        M0 = (A0**beta - A1**beta) / beta
        Q = (A0 ** (beta + 1) - A1 ** (beta + 1)) / (beta + 1)
        total += (phi[i] + slope * A0) * M0 - slope * Q
    return total


@pytest.mark.parametrize(
    "n_base, r, extra",
    [(32, 1.0, ()), (48, 4.0, (0.3,)), (40, 2.19, (0.5, 2.0 / 3.0)), (64, 10.4, (0.5,))],
)
def test_kernel_weight_rows_match_a_40_digit_reference(n_base, r, extra):
    # every row takes its near cells in closed form and its far cells by
    # the Gauss rule; on smooth phi both meet the exact product integral
    mp = pytest.importorskip("mpmath")
    m = build_mesh(0.0, 1.0, n_base, r, extra)
    x, n = m.x, len(m.x)
    phi = 2.0 + np.cos(3.0 * x)
    rows = sorted({1, 2, 3, n // 4, n // 2, n - 2, n - 1} | {m.index_of(e) for e in extra})
    assert np.any(x[n - 1] - x[1:] >= 16.0 * np.diff(x))   # the last row has far cells
    for beta in (0.1, 0.3, 0.5, 0.999, 1.0):
        for sampled in FIRST_CELL_MODELS:
            got = kernel_weights(x, beta, rows, sampled_first=sampled) @ phi
            with mp.workdps(40):
                for k, j in enumerate(rows):
                    want = _mp_kernel_row(mp, x, mp.mpf(beta), phi, j, sampled)
                    gap = abs(float((mp.mpf(got[k]) - want) / want))
                    assert gap <= 1e-15, (beta, sampled, j, gap)


def _soe_error(alpha, delta, points):
    lam, omega = fraccalc._soe(alpha, delta)
    x = np.geomspace(delta, 1.0, points)
    want = x ** (-alpha)
    return np.max(np.abs(np.exp(-np.outer(x, lam)) @ omega - want) / want)


# the last four are the worst cases of the grid of tools/soe_grid.py under
# the rule before the trapezoidal one (1.38e-15 at alpha = 0.005)
@pytest.mark.parametrize(
    "alpha, delta",
    list(itertools.product([0.001, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.999], [1e-2, 1e-6, 1e-12, 1e-15]))
    + [(0.005, 1e-14), (0.01, 1e-13), (0.94, 1e-15), (0.98, 1e-15)],
)
def test_soe_matches_the_power_on_its_range(alpha, delta):
    for points in (500, 2000):
        assert _soe_error(alpha, delta, points) <= 1e-15, points


@pytest.mark.parametrize("alpha", [0.001, 0.5, 0.99, 0.995])
def test_soe_rule_error_summed_exactly(alpha):
    # the rule's own error, its nodes and weights as rounded, the sum taken
    # in 30 digits: at most 3.0e-16 on these grids (alpha = 0.99, delta =
    # 1e-7), the rest of test_soe_matches_the_power_on_its_range's bound is
    # the rounding of the sum in double
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for delta in (1e-2, 1e-7, 1e-11, 1e-15):
            lam, omega = fraccalc._soe(alpha, delta)
            terms = [(mp.mpf(l), mp.mpf(w)) for l, w in zip(lam, omega)]
            for x in map(mp.mpf, np.geomspace(delta, 1.0, 60).tolist()):
                want = x ** -mp.mpf(alpha)
                got = mp.fsum(w * mp.exp(-l * x) for l, w in terms)
                gap = abs(float((got - want) / want))
                assert gap <= 4e-16, (delta, x, gap)


@pytest.mark.parametrize("far", [True, False], ids=["far", "dense"])
@pytest.mark.parametrize("r", [1.0, 4.0])
@pytest.mark.parametrize("n_base", [257, 1024, 2047])
def test_running_integral_matches_the_dense_reference(n_base, r, far, monkeypatch):
    # the crossover moved below or above the node count: with far cells
    # the SOE far field and the Gauss rule move the sums by rounding only;
    # without, the operator is the dense W itself
    monkeypatch.setattr(fraccalc, "_FAR_MIN_NODES", 0 if far else 1 << 30)
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    m, _ = _mesh_with_close_tau(n_base, r)
    phi = 2.0 + np.cos(3.0 * m.nodes)
    for beta in (0.3, order.mu, 0.999):
        for sampled in FIRST_CELL_MODELS:
            op = fraccalc._RunningIntegral(m.nodes, beta, sampled_first=sampled)
            assert (op.W is None) == far
            got = op @ phi
            want = kernel_weights(m.nodes, beta, sampled_first=sampled) @ phi
            assert got[0] == want[0] == 0.0
            if far:
                gap = np.max(np.abs(got[1:] - want[1:]) / want[1:])
                assert gap <= 1e-14, (beta, sampled, gap)
            else:
                assert np.array_equal(got, want), (beta, sampled)


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("eta", [-0.9, -0.5, 0.0])
def test_weighted_profile_recurrence_matches_two_betainc(eta, beta):
    # eta = -0.5 is gamma - 1 for mu = 1/3, nu = 1/4. Every mesh has scan
    # blocks without far cells; at n_base 16, and 64 with r = 4, no block
    # is far enough from a for the left-block series
    for n_base, r in [(512, 4.0), (16, 1.0), (16, 4.0), (64, 1.0), (64, 4.0), (96, 1.0), (96, 4.0)]:
        m, _ = _mesh_with_close_tau(n_base, r)
        w = 2.0 + np.cos(3.0 * m.nodes)
        got = _profile_weighted(m.nodes, beta, eta, w)
        want = _two_betainc_profile(m.nodes, beta, eta, w)
        assert got[0] == 0.0
        gap = np.max(np.abs(got[1:] - want[1:]) / np.abs(want[1:]))
        assert gap <= 1e-14, (n_base, r, gap)


@pytest.mark.parametrize("n_base", [511, 2047])
def test_weighted_profile_betainc_entries_are_linear_in_n(n_base, monkeypatch):
    # the far cells take Gauss points, so incomplete-Beta entries grow as
    # N times the near band, not as the N^2 / 2 of the whole triangle: the
    # band of each scan block without the cells right of its rows, and the
    # left block as the series wherever x_j >= 4 x_c0; with the left
    # block's betainc weights in every row it was over 100 N
    m, _ = _mesh_with_close_tau(n_base, 4.0)
    n = len(m.nodes)
    entries = []

    def counting(a, b, X):
        entries.append(np.size(X))
        return betainc(a, b, X)

    monkeypatch.setattr(fraccalc, "_betainc_reg", counting)
    _profile_weighted(m.nodes, 0.3, -0.5, np.cos(m.nodes))
    assert sum(entries) <= 40 * n


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.999])
@pytest.mark.parametrize("eta", [-0.9, -0.5, 0.0])
def test_weighted_profile_left_series_under_strong_grading(eta, beta):
    # r = 4.4 at n_base 2600 puts h_1 at 9.4e-16: the series rows meet
    # the two-betainc reference, and no power of 1/x_j overflows
    m, _ = _mesh_with_close_tau(2600, 4.4)
    x = m.nodes
    assert 5e-16 <= x[1] <= 2e-15
    w = 2.0 + np.cos(3.0 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _profile_weighted(x, beta, eta, w)
    rows = np.r_[1:200, 200:len(x):13, len(x) - 1]
    want = _two_betainc_profile(x, beta, eta, w, rows)
    assert np.max(np.abs(got[rows] - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("r", [1.0, 4.0])
@pytest.mark.parametrize("n_base", [16, 64, 512, 2048])
def test_weighted_profile_from_a_first_row_is_the_whole_profile_there(n_base, r):
    # the order-(1 - mu) profile of a verification, built from a first row
    # in the left block [0, c0), on a scan-block edge and past the first
    # series row (where the mesh has them): bit for bit the whole profile
    # from that row on, NaN below it; so is the derivative past it
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    m, _ = _mesh_with_close_tau(n_base, r)
    x, n = m.x, len(m.x)
    g = WeightedGrid(mesh=m, gamma=order.gamma, w=2.0 + np.cos(3.0 * m.nodes))
    beta, eta = 1.0 - order.mu, order.gamma - 1.0
    whole = _profile_weighted(x, beta, eta, g.w)
    derivative = _hilfer_profile(g, order)
    h = np.diff(x)
    c0 = 1 + np.flatnonzero(x[:-1] < fraccalc._FAR_WIDTHS * h)[-1]
    edges = [j0 for j0, _, _ in fraccalc._scan_blocks(x, h, c0)]
    j_series = next((j0 for j0 in edges if x[j0] >= fraccalc._SERIES_SPAN * x[c0]), n)
    firsts = {c0 // 2, c0 - 1, edges[len(edges) // 2], edges[-1], j_series + 5, n // 8 - 1}
    for first in sorted(j for j in firsts if 0 < j < n - 1):
        got = _profile_weighted(x, beta, eta, g.w, first)
        assert np.array_equal(got[first:], whole[first:]), first
        assert np.isnan(got[:first]).all(), first
        got = _hilfer_profile(g, order, first)
        assert np.array_equal(got[first + 1:], derivative[first + 1:], equal_nan=True), first


def _mp_profile_row(mp, x, beta, eta, w, j):
    """int_0^{x_j} (x_j - s)^{beta-1} s^eta w(s) ds, w linear on each
    cell, as incomplete Beta integrals in X = s / x_j at mp's precision."""
    xj, p, q = mp.mpf(x[j]), mp.mpf(eta) + 1, mp.mpf(beta)
    total = mp.mpf(0)
    for i in range(j):
        x0, x1, w0, w1 = (mp.mpf(v) for v in (x[i], x[i + 1], w[i], w[i + 1]))
        # w(s) = (w0 (x1 - s) + w1 (s - x0)) / (x1 - x0), s = xj X
        m0 = mp.betainc(p, q, x0 / xj, x1 / xj)
        m1 = mp.betainc(p + 1, q, x0 / xj, x1 / xj)
        total += ((w0 * x1 - w1 * x0) * m0 + (w1 - w0) * xj * m1) / (x1 - x0)
    return total * xj ** (p + q - 1)


def test_weighted_profile_matches_a_30_digit_reference():
    # independent of scipy's betainc; mu = 1/3, nu = 1/4 on its default
    # grading, the rows at and right of both tau nodes and t = b
    mp = pytest.importorskip("mpmath")
    order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
    m = build_mesh(0.0, 1.0, 256, 2.0 / order.gamma, [0.45, 0.55])
    x = m.nodes
    w = 2.0 + np.cos(3.0 * x)
    beta, eta = 1.0 - order.mu, order.gamma - 1.0
    got = _profile_weighted(x, beta, eta, w)
    rows = [m.index_of(0.45), m.index_of(0.45) + 1, m.index_of(0.55), m.index_of(0.55) + 1]
    for j in rows + [len(x) - 1]:
        with mp.workdps(30):
            want = _mp_profile_row(mp, x, beta, eta, w, j)
            assert abs(float((mp.mpf(got[j]) - want) / want)) <= 1e-15, j


def _factor_path_far(x, h, beta, eta, w, blocks, c0):
    """The profile's far field through the node factors F of
    _far_factors, as the running integral applies them."""
    rho = fraccalc._GAUSS_W[:, None] * h * (x[:-1] + h * fraccalc._GAUSS_X[:, None]) ** eta
    factors = fraccalc._far_factors(x, beta, rho, blocks, c0)
    return fraccalc._far_field(factors, len(x), lambda lo, f: w[lo:f + 1])


def _one_pass_against_factor_path(nodes, beta, eta, w, monkeypatch):
    one_pass, pairs = fraccalc._profile_far, []

    def both(*args):
        pairs.append((one_pass(*args), _factor_path_far(*args)))
        return pairs[-1][0]

    monkeypatch.setattr(fraccalc, "_profile_far", both)
    _profile_weighted(nodes, beta, eta, w)
    monkeypatch.undo()
    (got, want), = pairs
    rows = want != 0.0
    assert np.array_equal(got == 0.0, ~rows) and rows.sum() > len(nodes) // 2
    return np.max(np.abs(got[rows] - want[rows]) / np.abs(want[rows]))


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.999])
@pytest.mark.parametrize("eta", [-0.9, -0.5, 0.0])
@pytest.mark.parametrize("n_base, r", [(512, 4.0), (1024, 1.0), (2047, 2.0)])
def test_one_pass_far_field_matches_the_factor_path(n_base, r, eta, beta, monkeypatch):
    # the Gauss samples meet G directly, in place of F @ w: the far field
    # moves by rounding only
    m, _ = _mesh_with_close_tau(n_base, r)
    w = 2.0 + np.cos(3.0 * m.nodes)
    assert _one_pass_against_factor_path(m.nodes, beta, eta, w, monkeypatch) <= 2e-15


def test_one_pass_far_field_on_the_large_anchor(large_anchor, monkeypatch):
    # the ODE residual's profile at the benchmark's solve-large size
    from hilferbvp.solver import SolveConfig, problem_mesh

    mesh = problem_mesh(large_anchor, SolveConfig(n_base=2048))
    order = large_anchor.order
    w = 1.0 + mesh.nodes * np.sin(2.0 * mesh.nodes)
    gap = _one_pass_against_factor_path(
        mesh.nodes, 1.0 - order.mu, order.gamma - 1.0, w, monkeypatch
    )
    assert gap <= 2e-15


def test_far_field_keeps_few_soe_terms_on_the_large_anchor(large_anchor):
    # live SOE terms per scan block of the running integral (beta = mu) and
    # of the ODE residual's profile (beta = 1 - mu): a median of 54, where
    # the Gauss-Legendre panels in log(lambda) before the trapezoidal rule
    # kept 114
    from hilferbvp.solver import SolveConfig, problem_mesh

    x = problem_mesh(large_anchor, SolveConfig(n_base=2048)).x
    h = np.diff(x)
    mu = large_anchor.order.mu
    c0 = 1 + np.flatnonzero(x[:-1] < fraccalc._FAR_WIDTHS * h)[-1]
    live = [
        len(G)
        for beta, c in ((mu, 1), (1.0 - mu, c0))
        for _, _, _, _, _, G, _ in fraccalc._soe_geometry(x, beta, fraccalc._scan_blocks(x, h, c), c)
    ]
    assert np.median(live) <= 60


def _peak_arrays(build, n):
    """tracemalloc peak of build() in units of float64 (n-1) x n arrays."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((n - 1) * n * 8)


def test_moment_build_memory_is_bounded():
    m, _ = _mesh_with_close_tau(511, 4.0)
    n = len(m.nodes)
    assert n == 513
    rows = np.arange(n)
    # the output counts; the temporaries may add at most one more array
    assert _peak_arrays(lambda: kernel_weights(m.nodes, 0.3, rows), n) <= 2.0


def test_weighted_profile_memory_is_bounded():
    m, _ = _mesh_with_close_tau(511, 4.0)
    n = len(m.nodes)
    w = np.cos(m.nodes)
    # no N x N array is held: only block temporaries
    assert _peak_arrays(lambda: _profile_weighted(m.nodes, 0.3, -0.5, w), n) <= 1.0


@pytest.mark.parametrize("build", ["moments", "profile"])
@pytest.mark.parametrize("n_base", [511, 2047])
def test_builder_memory_is_bounded_on_many_cpus(n_base, build, monkeypatch):
    # as the two bounds above, with sixteen CPUs in the affinity mask: the
    # builds run in the calling thread, so neither their memory nor their
    # thread count grows with the CPUs the host reports
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    m, _ = _mesh_with_close_tau(n_base, 4.0)
    n = len(m.nodes)
    if build == "moments":
        run = lambda: kernel_weights(m.nodes, 0.3)  # noqa: E731
        bound = 2.0
    else:
        run = lambda: _profile_weighted(m.nodes, 0.3, -0.5, np.cos(m.nodes))  # noqa: E731
        bound = 1.0
    assert _peak_arrays(run, n) <= bound


def _three_point_weights(x0, x1, x2, xe):
    """Weights of the derivative of the quadratic through (x0, x1, x2) at xe."""
    w0 = (2.0 * xe - x1 - x2) / ((x0 - x1) * (x0 - x2))
    w1 = (2.0 * xe - x0 - x2) / ((x1 - x0) * (x1 - x2))
    w2 = (2.0 * xe - x0 - x1) / ((x2 - x0) * (x2 - x1))
    return w0, w1, w2


def _scalar_derivative_profile(nodes, F):
    n = len(nodes)
    d = np.full(n, np.nan)
    t = nodes
    w = _three_point_weights(t[1], t[2], t[3], t[1])
    d[1] = w[0] * F[1] + w[1] * F[2] + w[2] * F[3]
    for j in range(2, n - 2):
        w = _three_point_weights(t[j - 1], t[j], t[j + 1], t[j])
        d[j] = w[0] * F[j - 1] + w[1] * F[j] + w[2] * F[j + 1]
    w = _three_point_weights(t[n - 4], t[n - 3], t[n - 2], t[n - 2])
    d[n - 2] = w[0] * F[n - 4] + w[1] * F[n - 3] + w[2] * F[n - 2]
    return d


@pytest.mark.parametrize("n_base", [4, 5, 300])
def test_derivative_profile_equals_scalar_stencil_loop(n_base):
    # np.gradient sums the same stencils in another order: equal up to
    # rounding, and five nodes (four subintervals) are the fewest it takes
    m, _ = _mesh_with_close_tau(n_base, 3.0)
    F = np.random.default_rng(n_base).standard_normal(len(m.nodes))
    F[0] = np.nan  # never read
    F[-1] = np.nan
    for k in (5, len(m.nodes)):
        got = _derivative_profile(m.nodes[:k], F[:k])
        want = _scalar_derivative_profile(m.nodes[:k], F[:k])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        gap = np.nanmax(np.abs(got - want))
        assert gap <= 1e-13 * np.nanmax(np.abs(want)), (k, gap)
    with pytest.raises(DomainError):
        _derivative_profile(m.nodes[:4], F[:4])
