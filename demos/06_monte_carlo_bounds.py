"""Monte Carlo verification: sampled densities against two-sided envelopes.

Endpoints of the associated diffusion are sampled with an exactly-integrated
linear step (deterministic per seed, chunk-parallel safe), densities are
estimated with an anisotropic box kernel, and a rough-coefficient kernel is
sandwiched between slow and fast comparison kernels with fitted constants.
"""

import numpy as np

from kolmo import (
    SimConfig,
    estimate_density,
    mass_concentration,
    simulate_paths,
    validate_structure,
    verify_bounds,
)
from kolmo import fields
from kolmo.model import OperatorSpec

langevin = validate_structure([[0.0, 0.0], [1.0, 0.0]], m=[1, 1])


def comparison_spec(system, strength_field, mu):
    m0 = system.m0
    zero = fields.VectorField(tuple(fields.ConstantField(0.0) for _ in range(m0)))
    half = (
        fields.IsotropicMatrixField(strength_field, m0)
        if hasattr(strength_field, "space_dependent")
        else fields.ConstantMatrixField(strength_field / 2.0 * np.eye(m0))
    )
    return OperatorSpec(system=system, a=half, a_low=zero, b_low=zero,
                        c=fields.ConstantField(0.0), mu=mu, M_bound=0.0)


# Sample the degenerate diffusion and compare moments with the exact Gramian.
spec = comparison_spec(langevin, 1.0, mu=2.0)
config = SimConfig(n_paths=400_000, n_steps=2, seed=2024)
X = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
print("endpoint covariance (sampled):\n", np.round(np.cov(X.T), 4))
print("exact C(1):\n", np.array([[1.0, 0.5], [0.5, 1 / 3]]))

est = estimate_density(X, [0.0, 0.0], h=0.25, structure=langevin.structure, horizon=1.0)
print("\ndensity at the flow image:", round(est.value, 4),
      "+-", round(est.stderr, 4), " exact point density:", round(np.sqrt(12) / (2 * np.pi), 4),
      "(the box averages it down by about 4%)")

frac = mass_concentration(X, [0.0, 0.0], R=3.0, structure=langevin.structure, horizon=1.0)
print("mass within dilated radius 3 of the flow image:", frac)

# Two-sided bound for a genuinely variable operator: diffusion strength
# 1.25 + 0.75 sin(2 pi s) in [0.5, 2], compared against the extreme
# constant-strength kernels.
lam = fields.TimeSinusoidField(base=0.625, amplitude=0.375)  # half the strength
spec_var = comparison_spec(langevin, lam, mu=4.0)
grid = [np.zeros(2)]
for radius in (1.0, 2.0, 3.0):
    for angle in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        grid.append(radius * np.array([np.cos(angle), np.sin(angle)]))
report = verify_bounds(spec_var, 0.0, np.zeros(2), 1.0, np.array(grid), 0.5, 2.0)
print("\ntwo-sided bound report (exact weighted kernel):")
print("  fitted C- =", round(report.C_minus, 4), "  C+ =", round(report.C_plus, 4))
print("  covariance sandwich margins:", [f"{m:.2e}" for m in report.psd_margins])
print("  on-diagonal constants over horizons", report.diagonal_horizons, ":")
print("   ", [round(c, 4) for c in report.diagonal_c])
