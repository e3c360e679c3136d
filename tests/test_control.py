import numpy as np
import pytest
from scipy.linalg import expm

from kolmo.control import (
    ConeSpec,
    ControlProblem,
    cone_membership,
    control_value,
    discrete_least_norm_control,
    kappa_estimate,
    optimal_control,
    partial_cost,
    trajectory,
)
from kolmo.exceptions import GramianError
from kolmo.gramian import adaptive_simpson, quadratic_form
from kolmo.model import (
    SpaceTimePoint,
    dilation_exponents,
    dilation_matrix,
    group_compose,
    sigma_matrix,
    validate_structure,
)

FIXTURES = ["heat1d", "langevin", "kinetic21", "deep221", "starful"]


def random_langevin_problem(rng, system, tau_range=(0.3, 1.0), scale=1.0):
    tau = rng.uniform(*tau_range)
    t = rng.uniform(-1, 1)
    x = rng.normal(size=system.d)
    eta = rng.normal(size=system.d)
    eta *= scale * rng.uniform(0.1, 1.0) / np.linalg.norm(eta)
    D = dilation_matrix(system.structure, np.sqrt(tau))
    y = expm(tau * system.B) @ x + D @ eta
    return ControlProblem(system, t, t + tau, x, y)


class TestOptimalControl:
    def test_brownian_unit_transfer(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        ctrl = optimal_control(problem)
        assert np.isclose(ctrl.cost, 1.0, rtol=1e-12)
        for s in (0.0, 0.3, 0.9):
            assert np.isclose(control_value(ctrl, s)[0], 1.0, rtol=1e-12)

    def test_target_on_flow_is_free(self, langevin):
        x = np.array([0.7, -0.2])
        y = expm(1.0 * langevin.B) @ x
        ctrl = optimal_control(ControlProblem(langevin, 0.0, 1.0, x, y))
        assert ctrl.cost <= 1e-20
        assert np.abs(control_value(ctrl, 0.5)).max() <= 1e-10

    def test_langevin_costs(self, langevin):
        p1 = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [1.0, 0.0])
        p2 = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [0.0, 1.0])
        assert np.isclose(optimal_control(p1).cost, 4.0, rtol=1e-10)
        assert np.isclose(optimal_control(p2).cost, 12.0, rtol=1e-10)

    def test_cost_equals_quadratic_form(self, langevin, kinetic21):
        rng = np.random.default_rng(21)
        for system in (langevin, kinetic21):
            for _ in range(10):
                p = random_langevin_problem(rng, system)
                g = p.system.propagator.factor(p.horizon)
                offset = p.y - expm(p.horizon * p.system.B) @ p.x
                assert np.isclose(
                    optimal_control(p).cost, quadratic_form(g, offset), rtol=1e-10
                )

    def test_cost_matches_control_energy(self, langevin):
        rng = np.random.default_rng(22)
        p = random_langevin_problem(rng, langevin)
        ctrl = optimal_control(p)

        def energy(s):
            v = control_value(ctrl, s)
            return np.array([[float(v @ v)]])

        integral = adaptive_simpson(energy, p.t, p.T)[0, 0]
        assert np.isclose(integral, ctrl.cost, rtol=1e-8)

    def test_singular_system_rejected(self):
        from kolmo.model import BlockStructure, SystemMatrix

        broken = SystemMatrix(np.zeros((2, 2)), BlockStructure((1, 1)))
        with pytest.raises(GramianError):
            optimal_control(ControlProblem(broken, 0.0, 1.0, [0, 0], [1, 1]))

    def test_reversed_horizon_rejected(self, heat1d):
        with pytest.raises(ValueError):
            ControlProblem(heat1d, 1.0, 0.5, [0.0], [1.0])


class TestTrajectory:
    def test_endpoints(self, langevin):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_langevin_problem(rng, langevin)
            ctrl = optimal_control(p)
            np.testing.assert_allclose(trajectory(ctrl, p.t), p.x, atol=1e-12)
            err = np.linalg.norm(trajectory(ctrl, p.T) - p.y)
            assert err <= 1e-8 * (1 + np.linalg.norm(p.y))

    def test_straight_line_for_brownian(self, heat1d):
        ctrl = optimal_control(ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0]))
        assert np.isclose(trajectory(ctrl, 0.5)[0], 0.5, rtol=1e-12)

    def test_matches_quadrature_of_control(self, langevin):
        # gamma(s) = e^((s-t)B) x + int_t^s e^((s-u)B) sigma vbar(u) du.
        rng = np.random.default_rng(24)
        p = random_langevin_problem(rng, langevin)
        ctrl = optimal_control(p)
        sig = sigma_matrix(langevin.structure)
        s = 0.5 * (p.t + p.T)

        def integrand(u):
            return expm((s - u) * langevin.B) @ sig @ control_value(ctrl, u)[:, None]

        drift = expm((s - p.t) * langevin.B) @ p.x
        forced = adaptive_simpson(integrand, p.t, s)[:, 0]
        np.testing.assert_allclose(trajectory(ctrl, s), drift + forced, atol=1e-10)

    def test_out_of_range_rejected(self, heat1d):
        ctrl = optimal_control(ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0]))
        with pytest.raises(ValueError):
            trajectory(ctrl, 1.5)

    def test_partial_cost_additivity(self, langevin):
        rng = np.random.default_rng(25)
        p = random_langevin_problem(rng, langevin)
        ctrl = optimal_control(p)
        mid = 0.5 * (p.t + p.T)
        total = partial_cost(ctrl, p.t, mid) + partial_cost(ctrl, mid, p.T)
        assert np.isclose(total, ctrl.cost, rtol=1e-10)


class TestDiscreteLeastNorm:
    def test_exact_for_brownian(self, heat1d):
        p = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        for n in (2, 7, 50):
            assert np.isclose(discrete_least_norm_control(p, n), 1.0, rtol=1e-12)

    def test_langevin_converges(self, langevin):
        p = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [1.0, 0.0])
        cost = discrete_least_norm_control(p, 1000)
        assert abs(cost - 4.0) / 4.0 <= 1e-3

    def test_monotone_decrease_beyond_8(self, langevin):
        p = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [1.0, 0.0])
        costs = [discrete_least_norm_control(p, n) for n in (8, 16, 32, 64, 128, 256)]
        assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))

    def test_flow_target_is_free(self, langevin):
        x = np.array([0.3, 0.4])
        y = expm(0.8 * langevin.B) @ x
        p = ControlProblem(langevin, 0.0, 0.8, x, y)
        assert discrete_least_norm_control(p, 64) <= 1e-12

    def test_too_few_steps_rejected(self, heat1d):
        with pytest.raises(ValueError):
            discrete_least_norm_control(
                ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0]), 1
            )


class TestKappaEstimate:
    def test_brownian(self, heat1d):
        assert np.isclose(kappa_estimate(heat1d), 1.1, rtol=1e-9)

    def test_langevin_frozen_value(self, langevin):
        # Top eigenvalue of C0(1) = [[1, 1/2], [1/2, 1/3]] is (4 + sqrt(13))/6.
        expected = 1.1 * np.sqrt((4.0 + np.sqrt(13.0)) / 6.0)
        assert np.isclose(kappa_estimate(langevin), expected, rtol=1e-9)

    def test_doubled_coupling(self):
        system = validate_structure([[0.0, 0.0], [2.0, 0.0]], [1, 1])
        expected = 1.1 * np.sqrt((7.0 + np.sqrt(37.0)) / 6.0)
        assert np.isclose(kappa_estimate(system), expected, rtol=1e-9)

    @staticmethod
    def per_point_reference(system, s_grid):
        # One Van Loan exponential per grid point, as the estimate was first built.
        d = system.d
        sig = sigma_matrix(system.structure)
        M = np.zeros((2 * d, 2 * d))
        M[:d, :d] = -system.B
        M[:d, d:] = sig @ sig.T
        M[d:, d:] = system.B.T
        exps = dilation_exponents(system.structure).astype(float)
        top = 0.0
        for s in s_grid:
            E = expm(M * s)
            C = E[d:, d:].T @ E[:d, d:]
            D_inv = np.diag(s ** (-0.5 * exps))
            top = max(top, np.linalg.eigvalsh(D_inv @ (0.5 * (C + C.T)) @ D_inv)[-1])
        return 1.1 * np.sqrt(top)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_per_point_reference(self, name, request):
        system = request.getfixturevalue(name)
        grid = np.arange(1, 1025) / 1024.0
        ref = self.per_point_reference(system, grid)
        assert abs(kappa_estimate(system) - ref) <= 1e-12 * ref

    def test_certifies_trajectory_cone(self, langevin):
        # Every sampled optimal-trajectory point lies in the cone with radius
        # kappa * ||vbar||_L2 based at the start point.
        kappa = kappa_estimate(langevin)
        rng = np.random.default_rng(26)
        for _ in range(20):
            p = random_langevin_problem(rng, langevin, scale=2.0)
            ctrl = optimal_control(p)
            radius = kappa * np.sqrt(ctrl.cost)
            cone = ConeSpec(
                beta=1.0, r=radius, R=np.sqrt(p.horizon),
                base=SpaceTimePoint(p.t, p.x),
            )
            for i in range(1, 65):
                s = p.t + p.horizon * i / 64
                pt = SpaceTimePoint(s, trajectory(ctrl, s))
                assert cone_membership(cone, pt, langevin)


class TestConeMembership:
    def test_inside_point(self, langevin):
        cone = ConeSpec(0.5, 0.25, 1.0, SpaceTimePoint(0.0, [0.0, 0.0]))
        assert cone_membership(cone, SpaceTimePoint(0.5, [0.1, 0.0]), langevin)

    def test_scale_cap(self, langevin):
        cone = ConeSpec(0.5, 0.25, 1.0, SpaceTimePoint(0.0, [0.0, 0.0]))
        assert not cone_membership(cone, SpaceTimePoint(2.0, [0.0, 0.0]), langevin)

    def test_base_point_excluded(self, langevin):
        base = SpaceTimePoint(0.0, [0.0, 0.0])
        cone = ConeSpec(0.5, 0.25, 1.0, base)
        assert not cone_membership(cone, base, langevin)

    def test_translation_invariance(self, langevin):
        rng = np.random.default_rng(27)
        for _ in range(20):
            base = SpaceTimePoint(rng.uniform(-1, 1), rng.normal(size=2))
            p = SpaceTimePoint(base.t + rng.uniform(0.0, 1.2), rng.normal(size=2))
            zeta = SpaceTimePoint(rng.uniform(-1, 1), rng.normal(size=2))
            cone = ConeSpec(0.5, 0.4, 1.0, base)
            shifted = ConeSpec(
                0.5, 0.4, 1.0, group_compose(zeta, base, langevin)
            )
            assert cone_membership(cone, p, langevin) == cone_membership(
                shifted, group_compose(zeta, p, langevin), langevin
            )

    def test_invalid_cone(self):
        with pytest.raises(ValueError):
            ConeSpec(1.5, 0.25, 1.0, SpaceTimePoint(0.0, [0.0]))


class TestCostScaling:
    def test_dilation_invariance_star_free(self, langevin):
        # For star-free drift, V(delta_r(t,x); delta_r(T,y)) = V(t,x;T,y).
        rng = np.random.default_rng(28)
        for r in (0.5, 2.0):
            D = dilation_matrix(langevin.structure, r)
            for _ in range(5):
                p = random_langevin_problem(rng, langevin, tau_range=(0.1, 0.24))
                scaled = ControlProblem(
                    langevin, r**2 * p.t, r**2 * p.T, D @ p.x, D @ p.y
                )
                assert np.isclose(optimal_control(scaled).cost, optimal_control(p).cost, rtol=1e-9)
