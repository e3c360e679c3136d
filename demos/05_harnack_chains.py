"""Harnack chains: compounding a local inequality along an optimal trajectory.

The horizon is split at stopping times where either a fixed time budget
(tau * beta) or a fixed energy budget (epsilon = (r/kappa)^2) runs out.
Each stop lies in a fixed cone of the previous one, so a local two-cylinder
inequality with constant C multiplies into the global factor
C^(1/beta + V/epsilon), where V is the optimal steering energy.
"""

import numpy as np

from kolmo import (
    ControlProblem,
    HarnackConfig,
    build_chain,
    global_harnack_factor,
    kappa_estimate,
    validate_structure,
    verify_chain,
)

heat = validate_structure([[0.0]], m=[1])

# The textbook trace: unit transfer at cost rate one against budget 1/16
# gives sixteen equal steps and exponent 2 + 16 = 18.
config = HarnackConfig(C_harnack=10.0, beta=0.5, r=0.25, tau=1.0, kappa=1.0)
chain = build_chain(ControlProblem(heat, 0.0, 1.0, [0.0], [1.0]), config)
print("steps:", chain.J, " exponent:", chain.exponent)
print("first stops:", np.round(chain.times[:5], 6), "...")
print("clauses:", [s.clause for s in chain.steps[:3]], "...", chain.steps[-1].clause)
print("geometry verifies:", verify_chain(chain))

# Zero-energy chains only consume the time budget.
free = build_chain(ControlProblem(heat, 0.0, 1.0, [0.0], [0.0]), config)
print("\nzero-cost chain times:", free.times, " exponent:", free.exponent)

# On a degenerate system the certified kappa sets the energy budget.
langevin = validate_structure([[0.0, 0.0], [1.0, 0.0]], m=[1, 1])
cfg2 = HarnackConfig(
    C_harnack=10.0, beta=0.5, r=0.4, tau=1.0, kappa=kappa_estimate(langevin)
)
problem = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [0.8, 0.4])
chain2 = build_chain(problem, cfg2)
print("\ndegenerate-system chain: J =", chain2.J, " V =", round(chain2.V, 4),
      " verified =", verify_chain(chain2))

factor = global_harnack_factor(problem, cfg2)
print("constructive factor: exp(%.2f)" % factor.log_constructive,
      " statement form: exp(%.2f)" % factor.log_statement)
print("growing the target offset grows the factor quadratically in the offset:")
for scale in (0.5, 1.0, 2.0):
    p = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [0.8 * scale, 0.4 * scale])
    f = global_harnack_factor(p, cfg2)
    print(f"  offset x{scale:3.1f}: V = {f.cost:8.4f}  log factor = {f.log_constructive:8.2f}")
