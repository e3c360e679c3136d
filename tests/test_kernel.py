import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import multivariate_normal

from kolmo import fields
from kolmo.exceptions import CoefficientError, GramianError
from kolmo.gramian import gramian, gramian_weighted, strength_at
from kolmo.kernel import (
    GaussianKernel,
    aronson_upper_form,
    chapman_kolmogorov_residual,
    lower_bound_form,
    pde_residual,
)
from kolmo.model import (
    SpaceTimePoint,
    dilation_matrix,
    group_compose,
    homogeneous_dimension,
    sigma_matrix,
)

from conftest import (
    cauchy_solution,
    chapman_kolmogorov_quadrature,
    normalization_residual,
    payoff_polynomial,
)


FIXTURES = ["heat1d", "langevin", "kinetic21", "deep221", "starful"]


class TestEvalKernel:
    def test_standard_normal_peak(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)
        assert np.isclose(np.exp(k.log_batch(0.0, [0.0], 1.0, [0.0]))[0], 1 / np.sqrt(2 * np.pi))

    def test_langevin_peak(self, langevin):
        # det C(1) = 1/12, so the on-flow value is sqrt(12)/(2 pi).
        k = GaussianKernel(langevin, 1.0)
        val = np.exp(k.log_batch(0.0, [0.0, 0.0], 1.0, [0.0, 0.0]))[0]
        assert np.isclose(val, np.sqrt(12.0) / (2 * np.pi), rtol=1e-12)

    def test_lambda_two_off_peak(self, heat1d):
        k = GaussianKernel(heat1d, 2.0)
        val = np.exp(k.log_batch(0.0, [0.0], 1.0, [1.0]))[0]
        assert np.isclose(val, np.exp(-0.25) / np.sqrt(4 * np.pi), rtol=1e-12)

    def test_slow_kernel_exceeds_fast_at_peak(self, heat1d):
        # At the peak the slow kernel exceeds the fast one, which is why the
        # two-sided bound needs its constants C- and C+.
        slow = np.exp(GaussianKernel(heat1d, 0.5).log_batch(0.0, [0.0], 1.0, [0.0]))[0]
        fast = np.exp(GaussianKernel(heat1d, 2.0).log_batch(0.0, [0.0], 1.0, [0.0]))[0]
        assert np.isclose(slow, 1 / np.sqrt(np.pi), rtol=1e-12)
        assert np.isclose(fast, 1 / np.sqrt(4 * np.pi), rtol=1e-12)
        assert slow > fast

    def test_fast_kernel_dominates_in_tail(self, heat1d):
        slow = np.exp(GaussianKernel(heat1d, 0.5).log_batch(0.0, [0.0], 1.0, [8.0]))[0]
        fast = np.exp(GaussianKernel(heat1d, 2.0).log_batch(0.0, [0.0], 1.0, [8.0]))[0]
        assert fast > slow

    def test_reversed_times_rejected(self, heat1d):
        with pytest.raises(ValueError):
            GaussianKernel(heat1d, 1.0).log_batch(1.0, [0.0], 0.5, [0.0])

    def test_rank_deficient_system_rejected(self):
        from kolmo.exceptions import GramianError
        from kolmo.model import BlockStructure, SystemMatrix

        broken = SystemMatrix(np.zeros((2, 2)), BlockStructure((1, 1)))
        with pytest.raises(GramianError):
            GaussianKernel(broken, 1.0).log_batch(0.0, [0, 0], 1.0, [0, 0])


class TestTimeFieldStrength:
    """A strength that varies in time: a sinusoid or a table of times."""

    STRENGTHS = {
        "field": fields.TimeSinusoidField(base=1.25, amplitude=0.75),
        # 2.0 on [0, 0.5] and 0.5 on [0.5, 1]: mean 1.25 over [0, 1].
        "table": fields.TabulatedField((0.75, 0.25), (0.5, 2.0)),
    }

    @pytest.mark.parametrize("form", ["field", "table"])
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_covariance_is_the_weighted_gramian(self, form, name, request):
        system = request.getfixturevalue(name)
        lam = self.STRENGTHS[form]
        cov = GaussianKernel(system, lam).covariance(0.1, 0.7)
        ref = gramian_weighted(system, lam, 0.1, 0.7)
        np.testing.assert_array_equal(cov.C, ref.C)
        np.testing.assert_array_equal(cov.chol, ref.chol)

    @pytest.mark.parametrize("form", ["field", "table"])
    def test_heat_covariance_is_the_mean_strength(self, form, heat1d):
        # int_0^1 (1.25 + 0.75 sin(2 pi s)) ds = 1.25, as for the table.
        cov = GaussianKernel(heat1d, self.STRENGTHS[form]).covariance(0.0, 1.0)
        assert abs(cov.C[0, 0] - 1.25) <= 1e-10

    def test_lambda_at_reads_every_form(self, heat1d):
        for s in (0.0, 0.1, 0.37, 1.0):
            assert GaussianKernel(heat1d, 1.5).lambda_at(s) == 1.5
            for lam in self.STRENGTHS.values():
                assert GaussianKernel(heat1d, lam).lambda_at(s) == lam(s, None)

    @pytest.mark.parametrize(
        "lam",
        [
            fields.TimeSinusoidField(base=0.5, amplitude=1.0),
            fields.TabulatedField((0.0, 1.0), (1.0, -0.5)),
        ],
        ids=["field", "table"],
    )
    def test_nonpositive_strength_raises(self, lam, langevin):
        with pytest.raises(GramianError):
            GaussianKernel(langevin, lam).covariance(0.0, 1.0)

    def test_callable_strength_rejected(self, heat1d):
        with pytest.raises(CoefficientError, match="function"):
            GaussianKernel(heat1d, lambda s: 1.0)

    @pytest.mark.parametrize(
        "field",
        [
            fields.SpaceSinusoidField(1.0, 0.1, (1.0,)),
            fields.TabulatedField((0.0, 1.0), (1.0, 2.0), axis=0),
        ],
        ids=["space-sinusoid", "tabulated-space"],
    )
    def test_space_field_rejected_up_front(self, field, heat1d):
        with pytest.raises(CoefficientError, match=type(field).__name__):
            GaussianKernel(heat1d, field)
        with pytest.raises(CoefficientError, match=type(field).__name__):
            strength_at(field, 0.5)


class TestMatrixStrengthAndDrift:
    """A diffusion matrix on the leading block, and a constant input that shifts the mean."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_isotropic_matrix_is_the_number(self, name, request):
        # lam I goes through the diffusion propagator, lam through the
        # weighted Gramian: two exponentials of one covariance.
        system = request.getfixturevalue(name)
        d, lam = system.d, 1.3
        by_matrix = GaussianKernel(system, lam * np.eye(system.m0))
        by_number = GaussianKernel(system, lam)
        x = np.linspace(-0.5, 0.5, d)
        # The far targets reach |log G| ~ 1e9 on DEEP221 at 0.05, where the
        # absolute difference is ~5e-6: the bound is relative.
        Y = x + np.array([np.zeros(d), np.full(d, 0.3), np.linspace(1.0, -1.0, d)])
        for T in (0.05, 0.6, 1.0):
            C = by_number.covariance(0.0, T).C
            assert np.abs(by_matrix.covariance(0.0, T).C - C).max() <= 1e-14 * np.abs(C).max()
            np.testing.assert_allclose(
                by_matrix.log_batch(0.0, x, T, Y), by_number.log_batch(0.0, x, T, Y), rtol=1e-12
            )

    def test_matrix_covariance_is_the_diffusion_propagators(self, kinetic21):
        a = np.array([[1.2, 0.4], [0.4, 0.8]])
        k = GaussianKernel(kinetic21, a)
        np.testing.assert_array_equal(
            k.covariance(0.3, 1.1).C, kinetic21.diffusion_propagator(a).factor(0.8).C
        )
        assert chapman_kolmogorov_residual(k, 0.3, 0.6, 1.1) <= 1e-14

    @pytest.mark.parametrize("name", FIXTURES)
    def test_drift_mean_matches_quadrature(self, name, request):
        # e^(tau B) x + int_t^T e^((T-s)B) sigma b ds, by 64-point Gauss-Legendre.
        system = request.getfixturevalue(name)
        rng = np.random.default_rng(27)
        x, b = rng.normal(size=system.d), rng.normal(size=system.m0)
        t, T = 0.2, 1.1
        nodes, weights = np.polynomial.legendre.leggauss(64)
        s = 0.5 * (T - t) * nodes + 0.5 * (T + t)
        pushed = sum(w * expm((T - si) * system.B) for w, si in zip(weights, s))
        pushed = 0.5 * (T - t) * pushed @ sigma_matrix(system.structure) @ b
        ref = expm((T - t) * system.B) @ x + pushed
        mean = GaussianKernel(system, 1.0, drift=b).mean(t, x, T)
        assert np.abs(mean - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_zero_drift_mean_is_the_flow(self, langevin):
        x = np.array([0.4, -0.2])
        for k in (GaussianKernel(langevin, 1.0), GaussianKernel(langevin, 1.0, drift=[0.0])):
            np.testing.assert_array_equal(k.mean(0.1, x, 0.9), langevin.propagator.flow(0.8) @ x)

    def test_drift_shifts_log_batch(self, langevin):
        k = GaussianKernel(langevin, 1.0, drift=[0.7])
        x, y = np.array([0.4, -0.2]), np.array([0.1, 0.5])
        law = multivariate_normal(k.mean(0.0, x, 1.0), k.covariance(0.0, 1.0).C)
        assert np.isclose(k.log_batch(0.0, x, 1.0, [y])[0], law.logpdf(y), atol=1e-10)

    @pytest.mark.parametrize(
        "lam, drift",
        [
            (np.eye(2), None),
            (np.ones((1, 2)), None),
            (np.ones(3), None),
            (1.0, [0.1, 0.2]),
            (1.0, [[0.1]]),
            ([[1.0]], 0.5),
        ],
        ids=["square-too-big", "not-square", "one-d", "drift-too-long", "drift-2d", "drift-scalar"],
    )
    def test_shapes_rejected(self, langevin, lam, drift):
        with pytest.raises(ValueError, match="strength and an"):
            GaussianKernel(langevin, lam, drift)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, 0.0])
    def test_number_not_positive_and_finite_rejected(self, heat1d, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            GaussianKernel(heat1d, lam)


class TestLogKernel:
    def test_matches_log_of_value(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        cases = [
            ((0.0, [0.0, 0.0]), (1.0, [0.0, 0.0])),
            ((0.0, [0.2, -0.1]), (0.7, [0.5, 0.3])),
            ((0.1, [1.0, 1.0]), (0.9, [-1.0, 2.0])),
        ]
        for (t, x), (T, y) in cases:
            lg = k.log_batch(t, x, T, [y])[0]
            law = multivariate_normal(k.flow(T - t) @ x, k.covariance(t, T).C)
            assert np.isclose(lg, law.logpdf(y), atol=1e-10)

    def test_on_flow_is_normalization_only(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        x = np.array([0.4, -0.2])
        y = k.flow(1.0) @ x
        cov = k.covariance(0.0, 1.0)
        expected = -0.5 * (2 * np.log(2 * np.pi) + cov.logdet)
        assert np.isclose(k.log_batch(0.0, x, 1.0, [y])[0], expected, rtol=1e-12)

    def test_deep_tail_never_overflows(self, heat1d):
        # Quadratic form ~ 1e4 and beyond stays finite in log space.
        k = GaussianKernel(heat1d, 1.0)
        lg = k.log_batch(0.0, [0.0], 1.0, [100.0])[0]
        assert np.isfinite(lg)
        assert np.isclose(lg, -5000.0 - 0.5 * np.log(2 * np.pi), rtol=1e-10)
        assert np.isfinite(k.log_batch(0.0, [0.0], 1.0, [1000.0])[0])


class TestInvarianceProperties:
    def test_translation_invariance(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            zeta = SpaceTimePoint(rng.uniform(-1, 1), rng.normal(size=2))
            t, T = 0.2, 1.1
            x, y = rng.normal(size=2), rng.normal(size=2)
            z1 = group_compose(zeta, SpaceTimePoint(t, x), langevin)
            z2 = group_compose(zeta, SpaceTimePoint(T, y), langevin)
            ref = k.log_batch(t, x, T, [y])[0]
            shifted = k.log_batch(z1.t, z1.x, z2.t, [z2.x])[0]
            assert np.isclose(shifted, ref, atol=1e-10)

    def test_dilation_homogeneity_star_free(self, langevin):
        k = GaussianKernel(langevin, 1.3)
        Q = homogeneous_dimension(langevin.structure)
        rng = np.random.default_rng(9)
        for r in (0.5, 2.0):
            D = dilation_matrix(langevin.structure, r)
            for _ in range(5):
                t, T = 0.1, 0.8
                x, y = rng.normal(size=2), rng.normal(size=2)
                ref = np.exp(k.log_batch(t, x, T, [y]))[0]
                scaled = np.exp(k.log_batch(r**2 * t, D @ x, r**2 * T, [D @ y]))[0]
                assert np.isclose(scaled, r ** (-Q) * ref, rtol=1e-10)

    def test_normalization(self, langevin, heat1d):
        assert normalization_residual(GaussianKernel(heat1d, 1.0), 0.0, [0.1], 1.0) < 1e-7
        assert (
            normalization_residual(GaussianKernel(langevin, 1.0), 0.0, [0.2, -0.1], 1.0)
            < 1e-7
        )


class TestChapmanKolmogorov:
    """The closed-form composition law, and the pointwise quadrature oracle in d <= 2."""

    def test_brownian_midpoint(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)
        assert chapman_kolmogorov_quadrature(k, 0.0, [0.0], 1.0, [0.4], 0.5) <= 1e-6
        assert chapman_kolmogorov_residual(k, 0.0, 0.5, 1.0) <= 1e-14

    def test_langevin_midpoint(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        assert chapman_kolmogorov_quadrature(k, 0.0, [0.0, 0.0], 1.0, [0.3, 0.1], 0.5) <= 1e-5
        assert chapman_kolmogorov_residual(k, 0.0, 0.5, 1.0) <= 1e-14

    def test_near_initial_time(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        assert chapman_kolmogorov_quadrature(k, 0.0, [0.0, 0.0], 1.0, [0.3, 0.1], 0.01) <= 1e-4
        assert chapman_kolmogorov_residual(k, 0.0, 0.01, 1.0) <= 1e-14

    def test_closed_form_sees_a_wrong_covariance(self, langevin):
        # A kernel whose covariance is the Gramian at twice the horizon does
        # not compose: the law is not vacuous.
        k = GaussianKernel(langevin, 1.0)
        k._covariance = lambda t, T: langevin.propagator.factor(2.0 * (T - t))
        assert chapman_kolmogorov_residual(k, 0.0, 0.5, 1.0) > 1e-2

    def test_bad_intermediate_time(self, heat1d):
        for s in (1.5, 0.0, 1.0):
            with pytest.raises(ValueError):
                chapman_kolmogorov_residual(GaussianKernel(heat1d, 1.0), 0.0, s, 1.0)


class TestPdeResidual:
    def test_heat_kernel_small_residual(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)
        res = pde_residual(k, 0.0, [0.3], 1.0, [0.0], h=1e-3)
        assert res <= 1e-5

    def test_quadratic_convergence_langevin(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        rs = [
            pde_residual(k, 0.0, [0.2, -0.1], 1.0, [0.0, 0.0], h=h)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        orders = [np.log2(rs[i] / rs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)

    def test_wrong_drift_does_not_vanish(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        rs = [
            pde_residual(
                k, 0.0, [0.2, -0.1], 1.0, [0.3, 0.4], h=h, drift_matrix=2 * langevin.B
            )
            for h in (1e-2, 5e-3)
        ]
        assert min(rs) > 1e-2

    def test_horizon_too_small(self, heat1d):
        with pytest.raises(ValueError):
            pde_residual(GaussianKernel(heat1d, 1.0), 0.0, [0.0], 1e-5, [0.0], h=1e-2)

    def test_quadratic_convergence_with_drift(self, langevin):
        # The drift's transport term <sigma b, D G> is part of the equation:
        # without it the residual stays near 0.63 at every h.
        k = GaussianKernel(langevin, 1.0, drift=[0.7])
        rs = [
            pde_residual(k, 0.0, [0.2, -0.1], 1.0, [0.0, 0.0], h=h)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        orders = [np.log2(rs[i] / rs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)
        assert rs[-1] <= 1e-4

    def test_matrix_strength_has_no_scalar_equation(self, langevin):
        with pytest.raises(CoefficientError, match="ndarray"):
            pde_residual(GaussianKernel(langevin, [[1.0]]), 0.0, [0.2, -0.1], 1.0, [0.0, 0.0])


class TestCauchySolution:
    def test_constant_payoff_normalizes(self, langevin):
        k = GaussianKernel(langevin, 1.0)
        phi = payoff_polynomial(1.0, [0.0, 0.0], cap=10.0)
        u = cauchy_solution(k, phi, 0.0, [0.1, -0.2], 1.0)
        assert np.isclose(u, 1.0, atol=1e-8)

    def test_linear_payoff_is_martingale_mean(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)
        phi = payoff_polynomial(0.0, [1.0], cap=1e9)
        u = cauchy_solution(k, phi, 0.0, [0.37], 1.0)
        assert np.isclose(u, 0.37, atol=1e-8)

    def test_langevin_position_mean(self, langevin):
        # E[y2] = x + v*T under the deterministic flow of the mean.
        k = GaussianKernel(langevin, 1.0)
        phi = payoff_polynomial(0.0, [0.0, 1.0], cap=1e9)
        v, pos, T = 0.5, -0.3, 1.0
        u = cauchy_solution(k, phi, 0.0, [v, pos], T)
        assert np.isclose(u, pos + v * T, atol=1e-8)

    def test_terminal_value_recovered(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)

        def phi(y):  # a Gaussian bump of width 0.5 at 0.2
            return float(np.exp(-0.5 * (y[0] - 0.2) ** 2 / 0.5**2))

        T = 1.0
        u = cauchy_solution(k, phi, T - 1e-4, [0.1], T)
        assert abs(u - phi([0.1])) < 1e-3

    def test_smoothed_indicator_bounded(self, heat1d):
        k = GaussianKernel(heat1d, 1.0)

        def phi(y):  # a logistic step of sharpness 20 from 1 inside |y| < 1 to 0
            return float(1.0 / (1.0 + np.exp(-20.0 * (1.0 - abs(y[0])))))

        u = cauchy_solution(k, phi, 0.0, [0.0], 1.0)
        assert 0.0 < u < 1.0


class TestBoundForms:
    def test_aronson_peak_value(self, heat1d):
        assert np.isclose(
            aronson_upper_form(1.0, heat1d, 0.0, [0.0], 1.0, [0.0]), 1.0, rtol=1e-12
        )

    def test_aronson_on_flow_prefactor(self, langevin):
        Q = homogeneous_dimension(langevin.structure)
        tau = 0.5
        x = np.array([0.3, 0.1])
        y = expm(tau * langevin.B) @ x
        val = aronson_upper_form(2.0, langevin, 0.0, x, tau, y)
        assert np.isclose(val, 2.0 * tau ** (-Q / 2), rtol=1e-12)

    def test_aronson_langevin_exponent(self, langevin):
        val = aronson_upper_form(1.0, langevin, 0.0, [0.0, 0.0], 1.0, [1.0, 1.0])
        assert np.isclose(val, np.exp(-2.0), rtol=1e-12)

    def test_lower_form_langevin(self, langevin):
        # quadratic form of (1, 0) under C(1)^-1 is 4.
        val = lower_bound_form(1.0, langevin, 0.0, [0.0, 0.0], 1.0, [1.0, 0.0])
        assert np.isclose(val, np.exp(-4.0), rtol=1e-10)

    def test_lower_form_brownian(self, heat1d):
        val = lower_bound_form(1.0, heat1d, 0.0, [0.0], 1.0, [1.0])
        assert np.isclose(val, np.exp(-1.0), rtol=1e-12)

    def test_aronson_without_drift_is_the_heat_form(self, heat1d):
        # With zero drift in d=1 the dilated norm is the covariance quadratic
        # form y^2 / t, so the envelope is t^(-1/2) exp(-y^2 / t).
        for t, y in ((0.3, 0.4), (1.0, -1.2)):
            a = aronson_upper_form(1.0, heat1d, 0.0, [0.0], t, [y])
            assert np.isclose(a, np.exp(-y * y / t) / np.sqrt(t), rtol=1e-12)

    def test_horizon_restriction(self, heat1d):
        for form in (aronson_upper_form, lower_bound_form):
            with pytest.raises(ValueError):
                form(1.0, heat1d, 0.0, [0.0], 1.5, [0.0])

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_nonpositive_constant_rejected(self, heat1d, c):
        for form in (aronson_upper_form, lower_bound_form):
            for y in ([0.5], [[0.5], [0.0]]):
                with pytest.raises(ValueError, match="positive constant"):
                    form(c, heat1d, 0.0, [0.0], 1.0, y)

    def test_fitted_forms_sandwich_kernel(self, langevin):
        # Fit c_D and c_A on a grid so the two forms bracket the exact kernel.
        k = GaussianKernel(langevin, 1.0)
        tau = 1.0
        Q = homogeneous_dimension(langevin.structure)
        D = dilation_matrix(langevin.structure, tau**-0.5)
        g = gramian(langevin, tau)
        ys, zs, vals = [], [], []
        rng = np.random.default_rng(12)
        for _ in range(40):
            y = rng.normal(size=2) * 1.5
            ys.append(y)
            zs.append(float(np.sum((D @ y) ** 2)))
            vals.append(np.exp(k.log_batch(0.0, [0.0, 0.0], tau, [y]))[0])
        G = np.array(vals) * tau ** (Q / 2)
        zs = np.array(zs)
        c_D = 0.99 * float(G.min())
        # c * exp(-z/c) is increasing in c, so the smallest admissible c_A is
        # found by bisection on the worst constraint.
        lo, hi = float(G.max()), 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.all(mid * np.exp(-zs / mid) >= G):
                hi = mid
            else:
                lo = mid
        c_A = hi * 1.01
        for y, v in zip(ys, vals):
            lo = lower_bound_form(c_D, langevin, 0.0, [0.0, 0.0], tau, y)
            hi = aronson_upper_form(c_A, langevin, 0.0, [0.0, 0.0], tau, y)
            assert lo <= v <= hi

    @pytest.mark.parametrize("name", FIXTURES)
    def test_rows_equal_one_target_calls(self, name, request):
        system = request.getfixturevalue(name)
        for forms in bound_forms_both_ways(system, np.random.default_rng(5)):
            assert_rows_equal_one_target_calls(*forms)


def bound_forms_both_ways(system, rng):
    """Both bound forms at 40 targets, as rows and one target at a time.

    Yields, for ``c`` in 0.5 and 2, the Aronson form's rows and one-target
    values, the lower form's, and the lower form's exponent
    ``<C^-1 offset, offset> / c``.  The targets lie two standard deviations
    out, where no form underflows.
    """
    t, T = 0.1, 0.7
    x = rng.normal(size=system.d)
    mean = system.propagator.flow(T - t) @ x
    Y = mean + 2.0 * rng.normal(size=(40, system.d)) @ system.propagator.factor(T - t).chol.T
    prefactor = (T - t) ** (-homogeneous_dimension(system.structure) / 2.0)
    for c in (0.5, 2.0):
        lower = np.array([lower_bound_form(c, system, t, x, T, y) for y in Y])
        yield (
            aronson_upper_form(c, system, t, x, T, Y),
            np.array([aronson_upper_form(c, system, t, x, T, y) for y in Y]),
            lower_bound_form(c, system, t, x, T, Y),
            lower,
            -np.log(lower / (c * prefactor)),
        )


def assert_rows_equal_one_target_calls(upper_rows, upper, lower_rows, lower, exponent):
    """Aronson bit for bit; the lower form within 1e-14 relative in its exponent.

    The lower form's rows take a multi-column triangular solve, which rounds
    the exponent differently; the value's relative error is the exponent's
    absolute error.
    """
    assert upper_rows.shape == lower_rows.shape == upper.shape
    np.testing.assert_array_equal(upper_rows, upper)
    assert np.all(np.abs(lower_rows / lower - 1.0) <= 1e-14 * np.maximum(1.0, exponent))
