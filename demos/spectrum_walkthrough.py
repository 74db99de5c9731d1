"""Point spectrum of a slow-fast pulse under proportional feedback.

Walks one parameter point end to end: reduce the model data to the
coefficients (alpha, beta), locate the eigenvalues of the uncontrolled
pulse, then find the weakest control slope that stabilizes it and confirm
the controlled spectrum sits in the left half plane.

Runs in a few seconds.
"""

from pulsectrl.model import ModelParams, reduced_coefficients
from pulsectrl.regions import min_control_gain
from pulsectrl.spectral import assemble_spectrum, r_total

# reference point: u* = 1, f(u*) = 1, f'(u*) = -3, T_o'/T_o = 8, so
# nu = 8 + 2*(-3) = 2 and (alpha, beta) = (2, -1)
params = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)
coeffs = reduced_coefficients(params)
print(f"alpha = {coeffs.alpha:+.4f}  beta = {coeffs.beta:+.4f}  "
      f"nu = {params.nu:+.4f}")

# the reduced eigenvalue equation reads
#   alpha + beta*sqrt(1 + lh + g) = R(lh),   lambda = lh + g,
# where g is the control slope and R collects the discrete-mode poles plus
# a small continuum correction
for lh in (0.0, 2.0, 0.5 + 4.0j):
    print(f"R({lh}) = {r_total(lh):+.6f}")
print()

# uncontrolled spectrum: a complex conjugate pair in the right half plane
report = assemble_spectrum(params)
print(f"uncontrolled verdict: {report.verdict}")
for z in sorted(report.eigenvalues, key=lambda z: (-z.real, z.imag)):
    print(f"  lambda = {z.real:+.6f} {z.imag:+.6f}i")
print(f"  essential spectrum edge: {report.essential_edge:+.2f}")
print()

# weakest stabilizing control slope (most negative-free)
gain = min_control_gain(params, tol=1e-4)
print(f"minimal stabilizing control slope: {gain:.4f}")

controlled = assemble_spectrum(params.with_control_slope(-3.0))
print(f"controlled verdict at slope -3.0: {controlled.verdict}")
for z in sorted(controlled.eigenvalues, key=lambda z: (-z.real, z.imag)):
    print(f"  lambda = {z.real:+.6f} {z.imag:+.6f}i")
assert controlled.verdict == "Stable"
assert max(z.real for z in controlled.eigenvalues) < 0.0

# deeper is not always better: with alpha > 0 and beta < 0 a real
# eigenvalue returns towards (alpha/beta)^2 - 1 as the slope goes to -inf
deep = assemble_spectrum(params.with_control_slope(-10.0))
print(f"\nverdict at slope -10.0: {deep.verdict} "
      f"(max Re lambda = {deep.max_real_part:+.4f}); "
      f"stable slopes form a finite window")

limit = (coeffs.alpha / coeffs.beta) ** 2 - 1.0
print(f"deep-slope limit of the returning eigenvalue: {limit:+.4f}")
assert 0.0 < deep.max_real_part < limit
