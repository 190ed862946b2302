"""Evaluate the existence certificate for the bundled problem instance.

The certificate hinges on two constants G and L*; both below 1 certifies a
solution. Their ingredients (the Beta-type constants Lambda and Delta, and
the L^p norm of the growth bound rho) depend on a Lebesgue exponent p that
must satisfy p > 1, p > 1/mu and p > 1/gamma. The file's own exponent
p = 1/2 violates all three, which the report flags instead of silently
producing numbers that certify nothing.

Run from the repository root:  python demos/existence_certificate.py
"""

from dataclasses import replace

from hilferbvp import certificate, derive_params, load_problem
from hilferbvp.existence import sweep_certificates
from hilferbvp.problemio import example_problem_path

spec = load_problem(str(example_problem_path()))
params = derive_params(spec)
print(f"instance: mu={spec.order.mu:.4f} nu={spec.order.nu} gamma={params.gamma}")
print(f"boundary weights c={spec.c}, d={spec.d}; nonlocal {spec.nonlocal_terms}")

# The exponent stored in the file (p = 1/2) is inadmissible.
literal = certificate(spec, params)
print(f"\nfile exponent p = {literal.p}: verdict = {literal.verdict}")
print("violated conditions:", ", ".join(literal.failed_conditions))
print(f"(the generalized rho functional still evaluates: {literal.rho_norm:.10f})")

# At an admissible exponent the certificate is conclusive.
rep = certificate(replace(spec, p=4.0), params)
print(f"\nexponent p = {rep.p} (conjugate q = {rep.q:.6f}):")
print(f"  Lambda = {rep.lambda_const:.12f}")
print(f"  Delta  = {rep.delta_const:.12f}")
print(f"  ||rho||_Lp = {rep.rho_norm:.12f}")
print(f"  G  = {rep.G:.12f}  (addends {[f'{t:.5f}' for t in rep.terms_G]})")
print(f"  L* = {rep.L_star:.12f}  (addends {[f'{t:.5f}' for t in rep.terms_L]})")
print(f"  verdict: {rep.verdict}  (G < 1 and L* < 1)")

# Sweeping a few admissible exponents shows how the constants move; the
# reported winner minimizes the binding constant max(G, L*).
reports, best = sweep_certificates(spec, params)
print("\nexponent sweep:")
for r in reports:
    print(f"  p = {r.p:4.0f}:  G = {r.G:.6f}  L* = {r.L_star:.6f}  {r.verdict}")
print(f"best exponent by max(G, L*): p = {best.p}")
