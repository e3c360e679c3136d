"""Explicit Gaussian kernels, their equation residuals, and bound envelopes.

The comparison operator with strength lambda has the Gaussian fundamental
solution with mean carried by the drift flow and covariance lambda * C(T-t).
We verify it numerically two independent ways (the finite-difference residual
of its equation, and the semigroup identity in closed form, which composes the
means by the flow and the covariances by C(t,T) = F C(t,s) F^T + C(s,T)), then
evaluate the dilated-norm upper envelope and covariance-form lower envelope
that bracket rough-coefficient kernels.  The same class, given a diffusion
matrix and a constant drift, is the exact law of any operator whose
coefficients depend on time only.
"""

import numpy as np

from kolmo import (
    GaussianKernel,
    aronson_upper_form,
    chapman_kolmogorov_residual,
    lower_bound_form,
    pde_residual,
    validate_structure,
)

langevin = validate_structure([[0.0, 0.0], [1.0, 0.0]], m=[1, 1])
kernel = GaussianKernel(langevin, lam=1.0)

print("peak value at the flow image:", np.exp(kernel.log_batch(0, [0, 0], 1, [0, 0]))[0])
print("log value far in the tail (no overflow):",
      kernel.log_batch(0, [0, 0], 1, [0, 60.0])[0])

print("\nfinite-difference residual of the kernel's own equation:")
for h in (1e-2, 5e-3, 2.5e-3):
    r = pde_residual(kernel, 0.0, [0.2, -0.1], 1.0, [0.0, 0.0], h=h)
    print(f"  h = {h:7.4f}: residual = {r:.3e}")
print("(halving h divides the residual by ~4: second-order stencils)")

print("\nsemigroup identity defect (closed form), next to the residual above:")
for s in (0.01, 0.5, 0.99):
    print(f"  s = {s:4.2f}: defect = {chapman_kolmogorov_residual(kernel, 0.0, s, 1.0):.2e}")

# The kernel's mean is the drift flow applied to the start: the expected
# endpoint of the terminal-value problem with an affine payoff.
t, x, T = 0.0, [0.5, -0.3], 1.0
mean = kernel.mean(t, x, T)
print("\nE[position at T=1 | v=0.5, x=-0.3] =", mean[1], "(drift alone gives x + vT = 0.2)")

# A constant input b on the velocity shifts the mean by J(T-t) b, and the
# kernel with that drift solves its own equation, transport term included.
pushed = GaussianKernel(langevin, lam=[[1.0]], drift=[0.7])
print("with a drift b = 0.7:", pushed.mean(t, x, T), "(adds [b T, b T^2 / 2] = [0.7, 0.35])")
print("its covariance equals the scalar kernel's:",
      np.allclose(pushed.covariance(t, T).C, kernel.covariance(t, T).C, rtol=1e-14, atol=0))
pushed = GaussianKernel(langevin, lam=1.0, drift=[0.7])
for h in (1e-2, 5e-3):
    r = pde_residual(pushed, 0.0, [0.2, -0.1], 1.0, [0.0, 0.0], h=h)
    print(f"  drifted kernel, h = {h:6.4f}: residual = {r:.3e}")

# Bound envelopes: at the peak the slow kernel exceeds the fast one, which is
# exactly why the comparison constants C-, C+ are needed.
print("\nenvelope forms at selected targets (c = 1):")
for y in ([0.0, 0.0], [1.0, 0.0], [2.0, 1.0]):
    lo = lower_bound_form(1.0, langevin, 0, [0, 0], 1, y)
    hi = aronson_upper_form(1.0, langevin, 0, [0, 0], 1, y)
    value = np.exp(kernel.log_batch(0, [0, 0], 1, y))[0]
    print(f"  y = {y}: lower-form {lo:.4e}  kernel {value:.4e}  upper-form {hi:.4e}")
