"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and asserts its runtime budget.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from kolmo.chain import HarnackConfig, build_chain, verify_chain
from kolmo.control import (
    ConeSpec,
    ControlProblem,
    cone_membership,
    discrete_least_norm_control,
    kappa_estimate,
    optimal_control,
    trajectory,
)
from kolmo.gramian import dilation_scaling_defect, gramian, quadratic_form
from kolmo.kernel import (
    GaussianKernel,
    chapman_kolmogorov_residual,
    normalization_residual,
    pde_residual,
)
from kolmo.mc import SimConfig, estimate_density, mass_concentration, simulate_paths, verify_bounds
from kolmo.model import SpaceTimePoint, dilation_matrix, sigma_matrix, validate_structure

from conftest import adaptive_simpson, homogeneous_det_law_defect, make_spec, sinusoid_spec

LANGEVIN = validate_structure([[0.0, 0.0], [1.0, 0.0]], [1, 1])
HEAT1D = validate_structure([[0.0]], [1])
KINETIC21 = validate_structure(
    np.array([[0, 0, 0], [0, 0, 0], [1.0, 0, 0]]), [2, 1]
)
DEEP221 = validate_structure(
    np.block(
        [
            [np.zeros((2, 5))],
            [np.eye(2), np.zeros((2, 3))],
            [np.array([[0, 0, 1.0, 0, 0]])],
        ]
    ),
    [2, 2, 1],
)
STARFUL = validate_structure([[1.0, 0.0], [1.0, 0.0]], [1, 1])


@contextmanager
def criterion(number, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS ({elapsed:6.2f} s) — {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def random_problem(rng, system, tau_range=(0.2, 1.0), offset_range=(0.1, 1.0)):
    tau = rng.uniform(*tau_range)
    t = rng.uniform(-1.0, 1.0)
    x = rng.normal(size=system.d)
    eta = rng.normal(size=system.d)
    eta *= rng.uniform(*offset_range) / np.linalg.norm(eta)
    D = dilation_matrix(system.structure, np.sqrt(tau))
    y = expm(tau * system.B) @ x + D @ eta
    return ControlProblem(system, t, t + tau, x, y)


def test_criterion_1_gramian_correctness():
    with criterion(1, 1.0, "Langevin Gramian closed form; exponential vs quadrature"):
        for t in (0.1, 0.5, 1.0):
            g = gramian(LANGEVIN, t)  # cross-checks against semigroup doublings internally
            exact = np.array([[t, t**2 / 2], [t**2 / 2, t**3 / 3]])
            assert np.abs(g.C - exact).max() <= 1e-10 * np.abs(exact).max()
            sig = sigma_matrix(LANGEVIN.structure)

            def integrand(s):
                Es = expm(s * LANGEVIN.B) @ sig
                return Es @ Es.T

            C_quad = adaptive_simpson(integrand, 0.0, t)
            assert np.abs(C_quad - g.C).max() <= 1e-9 * np.abs(g.C).max()


def test_criterion_2_scaling_law():
    with criterion(2, 1.0, "homogeneous covariance scaling and determinant laws"):
        for system in (LANGEVIN, KINETIC21, DEEP221):
            for tau in (1e-3, 1e-1, 1.0):
                assert dilation_scaling_defect(system, tau) <= 1e-10
                assert homogeneous_det_law_defect(system, tau) <= 1e-10


def test_criterion_3_determinant_equivalence():
    with criterion(3, 1.0, "det ratio to homogeneous covariance: |ratio-1| <= 5 tau, decreasing"):
        gaps = []
        for k in range(10, 0, -1):
            tau = 2.0**-k
            g = STARFUL.propagator.factor(tau)
            g0 = validate_structure([[0.0, 0.0], [1.0, 0.0]], [1, 1]).propagator.factor(tau)
            ratio = math.exp(g.logdet - g0.logdet)
            assert abs(ratio - 1.0) <= 5.0 * tau
            gaps.append(abs(ratio - 1.0))
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))  # decreasing toward tau -> 0
        assert gaps[0] < 1e-3


def test_criterion_4_kernel_validity():
    with criterion(4, 30.0, "kernel solves its equation; semigroup and normalization"):
        k = GaussianKernel(LANGEVIN, 1.0)
        residuals = [
            pde_residual(k, 0.0, [0.2, -0.1], 1.0, [0.0, 0.0], h=h)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)
        ck = chapman_kolmogorov_residual(k, 0.0, [0.0, 0.0], 1.0, [0.3, 0.1], 0.5)
        assert ck <= 1e-5
        assert normalization_residual(k, 0.0, [0.2, -0.1], 1.0) <= 1e-7


def test_criterion_5_optimal_control():
    with criterion(5, 30.0, "steering identity, cost identity, brute-force convergence"):
        rng = np.random.default_rng(1005)
        for _ in range(20):
            p = random_problem(rng, LANGEVIN, offset_range=(0.2, 1.5))
            ctrl = optimal_control(p)
            hit = np.linalg.norm(trajectory(ctrl, p.T) - p.y)
            assert hit <= 1e-8 * (1 + np.linalg.norm(p.y))
            g = p.system.propagator.factor(p.horizon)
            offset = p.y - expm(p.horizon * p.system.B) @ p.x
            assert abs(ctrl.cost - quadratic_form(g, offset)) <= 1e-10 * max(ctrl.cost, 1.0)
            brute = discrete_least_norm_control(p, 1000)
            assert abs(brute - ctrl.cost) <= 1e-3 * max(ctrl.cost, 1e-12)


def test_criterion_6_cone_property():
    with criterion(6, 10.0, "trajectories confined to the certified cone: zero violations"):
        rng = np.random.default_rng(1006)
        violations = 0
        kappas = {id(s): kappa_estimate(s) for s in (LANGEVIN, KINETIC21)}
        for trial in range(100):
            system = (LANGEVIN, KINETIC21)[trial % 2]
            kappa = kappas[id(system)]
            p = random_problem(rng, system, offset_range=(0.1, 2.0))
            ctrl = optimal_control(p)
            radius = kappa * np.sqrt(ctrl.cost)
            cone = ConeSpec(1.0, radius, np.sqrt(p.horizon), SpaceTimePoint(p.t, p.x))
            for i in range(1, 65):
                s = p.t + p.horizon * i / 64
                pt = SpaceTimePoint(s, trajectory(ctrl, s))
                if not cone_membership(cone, pt, system):
                    violations += 1
        assert violations == 0


def test_criterion_7_harnack_chain():
    with criterion(7, 10.0, "chain geometry verifies; step-count bound; exact heat trace"):
        # Deterministic heat trace: sixteen cost-budget steps, exponent 18.
        cfg_heat = HarnackConfig(C_harnack=10.0, beta=0.5, r=0.25, tau=1.0, kappa=1.0)
        chain = build_chain(ControlProblem(HEAT1D, 0.0, 1.0, [0.0], [1.0]), cfg_heat)
        assert chain.J == 16
        assert abs(chain.exponent - 18.0) <= 1e-10
        np.testing.assert_allclose(chain.times, 0.0625 * np.arange(17), atol=1e-9)
        assert verify_chain(chain)

        rng = np.random.default_rng(1007)
        configs = {
            id(s): HarnackConfig(
                C_harnack=10.0, beta=0.5, r=0.4, tau=1.0, kappa=kappa_estimate(s)
            )
            for s in (LANGEVIN, KINETIC21, HEAT1D)
        }
        for trial in range(100):
            system = (LANGEVIN, KINETIC21, HEAT1D)[trial % 3]
            cfg = configs[id(system)]
            p = random_problem(rng, system, offset_range=(0.05, 0.8))
            chain = build_chain(p, cfg)
            assert verify_chain(chain)
            assert chain.J <= math.ceil(chain.exponent) + 1


def test_criterion_8_two_sided_bound():
    with criterion(8, 10.0, "exact sinusoid kernel sandwiched; PSD covariance sandwich"):
        lam_minus, lam_plus = 0.5, 2.0
        # Scalar case: grid of dilated offsets.
        spec1 = sinusoid_spec(HEAT1D)
        ys1 = np.linspace(-3.0, 3.0, 25)[:, None]
        rep1 = verify_bounds(spec1, 0.0, [0.0], 1.0, ys1, lam_minus, lam_plus)
        # Kinetic case: rings of dilated offsets.
        spec2 = sinusoid_spec(LANGEVIN)
        grid = [np.zeros(2)]
        for radius in (1.0, 2.0, 3.0):
            for angle in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                grid.append(radius * np.array([np.cos(angle), np.sin(angle)]))
        rep2 = verify_bounds(spec2, 0.0, np.zeros(2), 1.0, np.array(grid), lam_minus, lam_plus)
        for rep in (rep1, rep2):
            assert rep.exact
            assert 1e-3 <= rep.C_minus <= 1e3
            assert 1e-3 <= rep.C_plus <= 1e3
            assert all(margin >= -1e-10 for margin in rep.psd_margins)
            assert np.all(rep.C_minus * rep.gamma_minus <= rep.gamma * (1 + 1e-12))
            assert np.all(rep.gamma <= rep.C_plus * rep.gamma_plus * (1 + 1e-12))


def test_criterion_9_mc_consistency():
    with criterion(9, 120.0, "1e6-path density and covariance checks; bit-identical reruns"):
        spec_bm = make_spec(HEAT1D, lam=1.0)
        config = SimConfig(n_paths=1_000_000, n_steps=1, seed=90210)
        X = simulate_paths(spec_bm, 0.0, [0.0], 1.0, config)
        est = estimate_density(X, [0.0], 0.1, HEAT1D.structure, 1.0)
        assert abs(est.value - 0.398942) <= 3 * est.stderr

        spec_lv = make_spec(LANGEVIN, lam=1.0)
        config_lv = SimConfig(n_paths=1_000_000, n_steps=2, seed=90211)
        XL = simulate_paths(spec_lv, 0.0, [0.0, 0.0], 1.0, config_lv)
        C_hat = np.cov(XL.T)
        C = LANGEVIN.propagator.gramian(1.0)
        n = len(XL)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((C[i, i] * C[j, j] + C[i, j] ** 2) / n)
                assert abs(C_hat[i, j] - C[i, j]) <= 3 * se

        X2 = simulate_paths(spec_bm, 0.0, [0.0], 1.0, config)
        assert np.array_equal(X, X2)


def test_criterion_10_mass_concentration():
    with criterion(10, 60.0, "three-sigma mass reproduced; fraction monotone in radius"):
        spec = make_spec(HEAT1D, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(1_000_000, 1, seed=1010))
        frac = mass_concentration(X, [0.0], 3.0, HEAT1D.structure, 1.0)
        exact = 0.9973002039367398
        stderr = np.sqrt(exact * (1 - exact) / len(X))
        assert abs(frac - exact) <= 3 * stderr
        fracs = [
            mass_concentration(X, [0.0], R, HEAT1D.structure, 1.0)
            for R in (0.5, 1.0, 1.5, 2.0, 3.0)
        ]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_criterion_11_diagonal_estimate():
    with criterion(11, 60.0, "on-diagonal constant stable within a factor 2 across horizons"):
        for system in (HEAT1D, LANGEVIN):
            spec = sinusoid_spec(system)
            x = np.zeros(system.d)
            rep = verify_bounds(spec, 0.0, x, 1.0, x[None, :], 0.5, 2.0)
            assert max(rep.diagonal_c) / min(rep.diagonal_c) <= 2.0
            assert rep.diagonal_c_fit > 0
