"""Tour of the fractional operators: graded meshes, weighted grids, the
product-integration quadrature, and the one- and two-parameter derivatives.

Run from the repository root:  python demos/fractional_operators.py
"""

import numpy as np

from hilferbvp import (
    FracOrder,
    WeightedGrid,
    build_mesh,
    gamma,
    hilfer_derivative_num,
    rl_integral_monomial,
    rl_integral_quad,
)

# A graded mesh clusters nodes at the left endpoint via (j/n)^r. With the
# default r = 2/gamma, a solution whose w(t) - w(a) ~ (t-a)^sigma is
# resolved to order min(r sigma, 2): second order only when sigma >= gamma.
mesh = build_mesh(0.0, 1.0, 8, 2.0, extra_nodes=[2.0 / 3.0])
print("graded mesh with an inserted nonlocal point 2/3:")
print(" ", np.array2string(mesh.nodes, precision=6))

# Functions are stored in weighted form w(t) = (t-a)^{1-gamma} z(t); for
# z = t^{-1/2} the weighted values are simply 1.
n = 256
mesh = build_mesh(0.0, 1.0, n, 1.0, [])
grid = WeightedGrid(mesh=mesh, gamma=0.5, w=np.ones(len(mesh.nodes)))

# The quadrature peels singular factors analytically, so monomials are
# integrated to machine precision even on a uniform mesh.
got = rl_integral_quad(grid, 0.5, 1.0)
want = rl_integral_monomial(0.5, 0.5, 0.0, 1.0)
print(f"\nI^0.5 of t^(-1/2) at t=1: quadrature {got:.15f}")
print(f"                         closed form {want:.15f}")
print(f"                         error {abs(got - want):.2e}")

# Smooth integrands sampled at the nodes converge at second order.
print("\nsecond-order convergence on a smooth integrand (phi = exp):")
previous = None
for n in (32, 64, 128, 256):
    m = build_mesh(0.0, 1.0, n, 1.0, [])
    value = rl_integral_quad(np.exp(m.nodes), 0.6, 1.0, m)
    line = f"  n = {n:4d}   I = {value:.12f}"
    if previous is not None:
        line += f"   diff = {abs(value - previous):.3e}"
    print(line)
    previous = value

# Riemann-Liouville derivative, the two-parameter derivative at nu = 0:
# D^mu annihilates t^{mu-1} and maps constants to c t^{-mu} / Gamma(1-mu).
mu = 0.5
rl = FracOrder(mu=mu, nu=0.0)
mesh = build_mesh(0.0, 1.0, 512, 4.0, [0.5])
power = WeightedGrid(mesh=mesh, gamma=mu, w=np.ones(len(mesh.nodes)))
print(f"\nD^{mu} of t^(mu-1) at t=0.5 (exactly zero in theory):",
      f"{hilfer_derivative_num(power, rl, 0.5):.2e}")

const = WeightedGrid(mesh=mesh, gamma=1.0, w=np.full(len(mesh.nodes), 1.0))
got = hilfer_derivative_num(const, rl, 0.5)
want = 0.5 ** (-mu) / gamma(1.0 - mu)
print(f"D^{mu} of 1 at t=0.5: {got:.8f}  (closed form {want:.8f})")

# The two-parameter derivative D^{mu,nu} interpolates between the
# Riemann-Liouville derivative (nu=0) and the Caputo derivative
# D^mu [z - z(a)] (nu=1); for the order pair below gamma = 1/2 and the
# derivative annihilates t^{gamma-1}.
order = FracOrder(mu=1.0 / 3.0, nu=1.0 / 4.0)
print(f"\norder pair mu={order.mu:.4f}, nu={order.nu}, gamma={order.gamma}")
probe_points = (0.25, 0.5, 0.9)
mesh = build_mesh(0.0, 1.0, 512, 4.0, probe_points)
endpoint_power = WeightedGrid(mesh=mesh, gamma=order.gamma, w=np.ones(len(mesh.nodes)))
for t in probe_points:
    value = hilfer_derivative_num(endpoint_power, order, t)
    print(f"  D^(mu,nu) t^(gamma-1) at t={t}: {value:.2e}")
