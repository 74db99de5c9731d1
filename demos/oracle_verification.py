"""Cross-validation of the closed-form spectral machinery.

The reduced eigenvalue equation rests on a closed-form expression for the
inner product R(lh) = <v_in(.; lh), v_p>.  This script rebuilds R from
scratch with a banded finite-difference resolvent solve of the underlying
Sturm-Liouville problem and checks the two routes agree, along with the
eigenvalue and eigenfunction identities the closed form is assembled from.

Runs in a few seconds.
"""

import numpy as np

from pulsectrl.oracle import (
    FastOperator,
    eigenfunction_identities,
    r_oracle,
    theta_inner_product,
    theta_reference,
    top_eigenvalues,
)
from pulsectrl.spectral import r_total

# discrete spectrum of L_f = d^2/dxi^2 - 1 + 3 sech^2(xi/2): {5/4, 0, -3/4}
eigs = top_eigenvalues(FastOperator(), 3)
print("discrete eigenvalues (second-order finite differences):")
for ev, ref in zip(eigs, (1.25, 0.0, -0.75)):
    print(f"  {ev:+.6f}  (exact {ref:+.2f}, error {abs(ev - ref):.2e})")
    assert abs(ev - ref) <= 1e-3

# closed-form R versus the brute-force resolvent solve
print("\nclosed form vs resolvent oracle:")
for lh in (2.0, 3.0 + 1.0j, 0.5 + 4.0j):
    closed = r_total(lh)
    brute = r_oracle(complex(lh))
    print(f"  lh = {lh}: closed {closed:+.6f}, "
          f"oracle {brute:+.6f}, diff {abs(closed - brute):.2e}")
    assert abs(closed - brute) <= 1e-4

# eigenfunction inner products behind the pole weights of R
print("\neigenfunction identity errors (quadrature vs closed form):")
records = eigenfunction_identities()
for name, rec in records.items():
    print(f"  {name:14s} {rec['abs_error']:.2e}")

# continuum side: the theta inner product on the essential spectrum
print("\ncontinuum inner product <v_p^2, theta(.; mu)>:")
for mu in (-1.5, -2.0, -5.0):
    quad = theta_inner_product(mu)
    ref = theta_reference(mu)
    print(f"  mu = {mu:+.1f}: quadrature {quad:+.8f}, "
          f"closed form {ref:+.8f}, diff {abs(quad - ref):.2e}")
    assert abs(quad - ref) <= 1e-6

print("\nall oracle cross-checks passed")
