"""Covariance Gramians: closed forms, scaling laws, and comparison constants.

C(t) is computed through one augmented matrix exponential and cross-checked
by a Taylor series with semigroup doublings, which needs no exponential.  For drift matrices with nothing above the coupling
subdiagonal, C obeys an exact dilation scaling law; for general drifts the
homogeneous part C0 approximates C as t -> 0 with a linear-in-t determinant
gap.
"""

import numpy as np

from kolmo import (
    equivalence_constants,
    gramian,
    gramian_weighted,
    quadratic_form,
    validate_structure,
)
from kolmo.fields import TimeSinusoidField
from kolmo.gramian import dilation_scaling_defect

langevin = validate_structure([[0.0, 0.0], [1.0, 0.0]], m=[1, 1])

print("C(1) for the velocity/position system:")
g = gramian(langevin, 1.0)
print(g.C, "\nexpected [[1, 1/2], [1/2, 1/3]]; det =", np.exp(g.logdet), "= 1/12")

print("\nquadratic forms <C^-1 z, z> (no explicit inverse is formed):")
for z in ([1.0, 0.0], [0.0, 1.0]):
    print(f"  z = {z}: {quadratic_form(g, z):.12f}")

# Time-weighted covariance: the exact kernel covariance for a
# time-dependent diffusion strength, in closed form.
lam = TimeSinusoidField(base=1.25, amplitude=0.75)  # 1.25 + 0.75 sin(2 pi s)
heat = validate_structure([[0.0]], m=[1])
gw = gramian_weighted(heat, lam, 0.0, 1.0)
print("\nweighted variance over one period:", gw.C[0, 0], "(the sinusoid averages out)")

# Exact scaling of the homogeneous covariance, even at tiny horizons.
starful = validate_structure([[1.0, 0.0], [1.0, 0.0]], m=[1, 1])
print("\nscaling-law defect of C0 in the dilated frame:")
for tau in (1e-3, 1e-1, 1.0):
    print(f"  tau = {tau:6.0e}: {dilation_scaling_defect(starful, tau):.2e}")

# Comparison constants between C and C0 on a horizon grid.
rep = equivalence_constants(starful, tau_grid=[2.0**-k for k in range(1, 11)])
print("\ndet C / det C0 along tau -> 0:")
for tau, ratio in zip(rep.tau_grid, rep.det_ratio):
    print(f"  tau = {tau:8.6f}: ratio - 1 = {ratio - 1:.3e}")
print("quadratic-form ratio range (k5, k6), exact:", rep.k_quadratic)
print("dilation-norm eigenbounds (k1, k2):", rep.k_dilation)
