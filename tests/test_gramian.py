import math
import sys

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from kolmo import fields
from kolmo.control import ControlProblem, optimal_control
from kolmo.exceptions import CoefficientError, GramianError
from kolmo.gramian import (
    Gramian,
    Propagator,
    _doubling_gramian,
    dilation_scaling_defect,
    equivalence_constants,
    gramian,
    gramian_homogeneous,
    gramian_weighted,
    input_response,
    quadratic_form,
)
from kolmo.kernel import lower_bound_form
from kolmo.model import (
    BlockStructure,
    SystemMatrix,
    dilation_matrix,
    sigma_matrix,
    validate_structure,
)

from conftest import adaptive_simpson, homogeneous_det_law_defect

FIXTURES = ["heat1d", "langevin", "kinetic21", "deep221", "starful"]

# Hand values for the velocity/position system: C(t) = [[t, t^2/2], [t^2/2, t^3/3]].
LANGEVIN_C1 = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])


@pytest.fixture
def expm_calls(monkeypatch):
    """Counts the exponentials `kolmo.gramian` computes."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return expm(*args, **kwargs)

    monkeypatch.setattr(sys.modules["kolmo.gramian"], "expm", counting)
    return calls


class TestGramian:
    def test_scalar_brownian(self, heat1d):
        g = gramian(heat1d, 2.0)
        np.testing.assert_allclose(g.C, [[2.0]], rtol=1e-12)

    def test_langevin_c1(self, langevin):
        g = gramian(langevin, 1.0)
        np.testing.assert_allclose(g.C, LANGEVIN_C1, rtol=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_langevin_determinant(self, langevin, t):
        g = gramian(langevin, t)
        # Symbolic integration gives det C(t) = t^4 / 12.
        assert np.isclose(np.exp(g.logdet), t**4 / 12.0, rtol=1e-10)

    def test_block_exponential_matches_quadrature(self, kinetic21):
        sig = sigma_matrix(kinetic21.structure)

        def integrand(s):
            Es = expm(s * kinetic21.B) @ sig
            return Es @ Es.T

        C_quad = adaptive_simpson(integrand, 0.0, 0.8)
        C_exp = kinetic21.propagator.gramian(0.8)
        assert np.abs(C_quad - C_exp).max() <= 1e-9 * np.abs(C_exp).max()

    def test_cross_check_runs_by_default(self, starful):
        gramian(starful, 0.7)  # raises on disagreement

    def test_nonpositive_horizon(self, langevin):
        with pytest.raises(ValueError):
            gramian(langevin, 0.0)

    def test_cholesky_reconstruction(self, deep221):
        g = gramian(deep221, 0.5)
        np.testing.assert_allclose(g.chol @ g.chol.T, g.C, rtol=1e-10)
        assert np.all(np.diag(g.chol) > 0)


class TestPropagator:
    @pytest.mark.parametrize("name", ["langevin", "deep221", "starful"])
    def test_one_exponential_gives_flows_and_gramian(self, name, request, expm_calls):
        system = request.getfixturevalue(name)
        inv_flow, flow, C = system.propagator.at(0.7)
        assert expm_calls[0] == 1
        np.testing.assert_allclose(flow, expm(0.7 * system.B), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(inv_flow @ flow, np.eye(system.d), atol=1e-13)
        np.testing.assert_array_equal(C, gramian(system, 0.7).C)
        for a in (inv_flow, flow, C):
            assert not a.flags.writeable

    def test_diffusion_matrix_scales_gramian(self, kinetic21):
        sig = sigma_matrix(kinetic21.structure)
        doubled = Propagator(kinetic21.B, 2.0 * sig @ sig.T)
        np.testing.assert_allclose(
            doubled.gramian(0.4), 2.0 * kinetic21.propagator.gramian(0.4), rtol=1e-14
        )

    @pytest.mark.parametrize("name", ["langevin", "kinetic21", "deep221", "starful"])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_grid_matches_per_point(self, name, uniform, request):
        system = request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        if uniform:
            grid = np.concatenate([np.arange(1, 301) / 256.0, [0.5]])
        else:
            grid = np.concatenate([rng.uniform(0.01, 1.0, 40), [0.5, 0.5, 1.0]])
        rng.shuffle(grid)
        sig = sigma_matrix(system.structure)
        fresh = Propagator(system.B, sig @ sig.T)
        stacked = fresh.gramians(grid)
        for s, C in zip(grid, stacked):
            ref = system.propagator.gramian(s)
            assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_grid_costs_one_exponential_per_distinct_step(self, langevin, expm_calls):
        langevin.propagator.gramians([0.75, 0.25, 0.5, 1.0, 0.25])
        assert expm_calls[0] == 1
        # Steps 0.125, 0.25, 0.125, 0.125: only 0.125 is new.
        langevin.propagator.gramians([0.625, 0.125, 0.375, 0.5])
        assert expm_calls[0] == 2

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_batched_flows_are_flow_bit_for_bit(self, name, request, expm_calls):
        system = request.getfixturevalue(name)
        prop = system.propagator
        grid = np.concatenate([np.random.default_rng(5).uniform(1e-4, 1.0, 50), [0.0, 0.5, 0.5]])
        before = prop._at.cache_info()
        flows = prop.flows(grid)
        assert prop._at.cache_info() == before
        assert expm_calls[0] == 1
        assert flows.shape == (len(grid), system.d, system.d)
        for s, F in zip(grid, flows):
            np.testing.assert_array_equal(F, prop.flow(s))

    def test_cache_is_bounded(self, langevin, expm_calls):
        prop = langevin.propagator
        horizons = np.linspace(0.01, 1.0, 200)
        for s in horizons:
            prop.at(s)
        assert expm_calls[0] == 200
        prop.at(horizons[-1])
        assert expm_calls[0] == 200
        prop.at(horizons[0])
        assert expm_calls[0] == 201


class TestInputResponse:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("s", [1e-3, 0.3, 1.0])
    def test_flow_block_is_the_propagator_flow(self, name, s, request):
        system = request.getfixturevalue(name)
        flow, _ = input_response(system, s)
        ref = system.propagator.flow(s)
        assert np.abs(flow - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("name", FIXTURES)
    def test_response_matches_gauss_legendre(self, name, request):
        # J(s) = int_0^s e^(uB) sigma du by 64-point Gauss-Legendre.
        system = request.getfixturevalue(name)
        s = 0.7
        nodes, wts = np.polynomial.legendre.leggauss(64)
        sig = sigma_matrix(system.structure)
        ref = sum(
            0.5 * s * w * expm(0.5 * s * (u + 1.0) * system.B) @ sig for u, w in zip(nodes, wts)
        )
        _, J = input_response(system, s)
        assert np.abs(J - ref).max() <= 1e-14 * np.abs(ref).max()


class TestFactor:
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    @pytest.mark.parametrize("s", [0.05, 0.7, 1.0])
    def test_factor_is_the_cholesky_of_the_gramian(self, name, s, request):
        system = request.getfixturevalue(name)
        g = system.propagator.factor(s)
        np.testing.assert_array_equal(g.chol, np.linalg.cholesky(system.propagator.gramian(s)))
        np.testing.assert_array_equal(g.C, system.propagator.gramian(s))
        assert g.logdet == gramian(system, s).logdet

    def test_repeated_horizon_is_cached_and_read_only(self, langevin):
        g = langevin.propagator.factor(0.7)
        assert langevin.propagator.factor(0.7) is g
        assert not g.C.flags.writeable and not g.chol.flags.writeable

    def test_rank_deficient_system_raises(self):
        broken = SystemMatrix(np.zeros((2, 2)), BlockStructure((1, 1)))
        with pytest.raises(GramianError):
            broken.propagator.factor(1.0)

    def test_nonpositive_horizon(self, langevin):
        with pytest.raises(ValueError):
            langevin.propagator.factor(0.0)

    def test_grid_of_targets_factors_once(self, langevin, monkeypatch):
        calls = []
        original = Gramian.from_matrix.__func__

        def counting(cls, C):
            calls.append(1)
            return original(cls, C)

        monkeypatch.setattr(Gramian, "from_matrix", classmethod(counting))
        x = np.array([0.2, -0.1])
        for y in np.random.default_rng(3).normal(size=(20, 2)):
            lower_bound_form(1.0, langevin, 0.0, x, 0.6, y)
            optimal_control(ControlProblem(langevin, 0.0, 0.6, x, y))
        assert len(calls) == 1


class TestCheckedGramianCost:
    # The cross-check takes no exponential: the Van Loan one is all.
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_expm_calls(self, name, request, expm_calls):
        system = request.getfixturevalue(name)
        counts = []
        for t in (0.01, 0.5, 1.0):
            expm_calls[0] = 0
            gramian(system, t)
            counts.append(expm_calls[0])
        assert counts == [1, 1, 1]
        gramian(system, 0.5)  # a cached horizon
        assert expm_calls[0] == 1


def nilpotent_gramian(system, t):
    """``C(t)`` of a nilpotent drift: ``sum_(i,j<d) B^i S (B^T)^j t^(i+j+1) / (i! j! (i+j+1))``."""
    sig = sigma_matrix(system.structure)
    powers = [np.linalg.matrix_power(system.B, i) / math.factorial(i) for i in range(system.d)]
    return sum(
        Pi @ sig @ sig.T @ Pj.T * t ** (i + j + 1) / (i + j + 1)
        for i, Pi in enumerate(powers)
        for j, Pj in enumerate(powers)
    )


class TestDoublingGramian:
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221"])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    def test_matches_nilpotent_closed_form(self, name, t, request):
        system = request.getfixturevalue(name)
        ref = nilpotent_gramian(system, t)
        assert np.abs(_doubling_gramian(system, t) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestMutation:
    """A Van Loan ``C`` moved by a symmetric ``delta`` is refused by the check.

    On HEAT1D, and at LANGEVIN's ``C_22``, ``delta`` lies in the kernel of the
    Lyapunov map ``delta -> B delta + delta B^T``, where a residual test is blind.
    """

    CASES = [
        ("heat1d", (0, 0)),
        ("langevin", (0, 0)),
        ("langevin", (1, 1)),
        ("kinetic21", (0, 0)),
        ("deep221", (0, 0)),
    ]

    def perturbed_system(self, system, entry, rel, monkeypatch):
        original = Propagator._exponentiate

        def perturbed(self, s):
            inv_flow, flow, C = original(self, s)
            C = C.copy()
            i, j = entry
            delta = rel * np.abs(C).max()
            C[i, j] += delta
            if i != j:
                C[j, i] += delta
            return inv_flow, flow, C

        monkeypatch.setattr(Propagator, "_exponentiate", perturbed)
        return validate_structure(system.B, system.structure.m)

    @pytest.mark.parametrize("name, entry", CASES)
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_both_checks_refuse_1e_8(self, name, entry, t, request, monkeypatch):
        fresh = self.perturbed_system(request.getfixturevalue(name), entry, 1e-8, monkeypatch)
        with pytest.raises(GramianError, match="disagree"):
            gramian(fresh, t)
        sig = sigma_matrix(fresh.structure)

        def integrand(s):
            Es = expm(s * fresh.B) @ sig
            return Es @ Es.T

        C = fresh.propagator.gramian(t)
        assert np.abs(C - adaptive_simpson(integrand, 0.0, t)).max() > 1e-9 * np.abs(C).max()

    @pytest.mark.parametrize("name, entry", CASES)
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_check_passes_1e_11(self, name, entry, t, request, monkeypatch):
        fresh = self.perturbed_system(request.getfixturevalue(name), entry, 1e-11, monkeypatch)
        gramian(fresh, t)


class TestFiniteGuard:
    def test_non_finite_matrix_refused(self):
        with pytest.raises(GramianError, match="not finite"):
            Gramian.from_matrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_overflowing_horizon_raises(self, starful):
        # e^(400) squared overflows; the NaN C(400) is refused where it is factored.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GramianError, match="not finite"):
                starful.propagator.factor(400.0)
            with pytest.raises(GramianError, match="not finite"):
                gramian(starful, 400.0)


class TestWeightedGramian:
    def test_unit_weight_reduces_to_gramian(self, langevin):
        g = gramian_weighted(langevin, fields.ConstantField(1.0), 0.25, 1.0)
        ref = gramian(langevin, 0.75)
        np.testing.assert_allclose(g.C, ref.C, rtol=1e-10)

    def test_constant_scaling(self, heat1d):
        g = gramian_weighted(heat1d, 2.0, 0.0, 1.0)
        np.testing.assert_allclose(g.C, [[2.0]], rtol=1e-10)

    def test_sinusoid_integrates_to_mean(self, heat1d):
        lam = fields.TimeSinusoidField(base=1.25, amplitude=0.75)
        g = gramian_weighted(heat1d, lam, 0.0, 1.0)
        np.testing.assert_allclose(g.C, [[1.25]], rtol=1e-10)

    def test_empty_horizon_rejected(self, heat1d):
        with pytest.raises(ValueError):
            gramian_weighted(heat1d, 1.0, 1.0, 1.0)

    def test_nonpositive_weight_rejected(self, heat1d):
        with pytest.raises(GramianError):
            gramian_weighted(heat1d, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "field",
        [
            fields.SpaceSinusoidField(1.0, 0.1, (1.0,)),
            fields.TabulatedField((0.0, 1.0), (1.0, 2.0), axis=0),
        ],
        ids=["space-sinusoid", "tabulated-space"],
    )
    def test_space_field_rejected_before_quadrature(self, field, heat1d, expm_calls):
        with pytest.raises(CoefficientError, match=type(field).__name__):
            gramian_weighted(heat1d, field, 0.0, 1.0)
        assert expm_calls[0] == 0


def gauss_legendre_weighted(system, lam, t, T, cuts=()):
    """``int_t^T lam(s) (e^((T-s)B) sigma)(...)^T ds`` by 64-point Gauss-Legendre.

    One rule per piece between ``t``, the ``cuts`` inside ``(t, T)`` and
    ``T``, so a piecewise-constant weight is integrated exactly.
    """
    sig = sigma_matrix(system.structure)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    edges = [t, *sorted(c for c in cuts if t < c < T), T]
    out = np.zeros((system.d, system.d))
    for a, b in zip(edges[:-1], edges[1:]):
        for u, w in zip(nodes, wts):
            s = 0.5 * (b - a) * u + 0.5 * (a + b)
            Es = expm((T - s) * system.B) @ sig
            out += 0.5 * (b - a) * w * lam(s, None) * (Es @ Es.T)
    return out


# Unsorted, with a duplicate point (the first of the two values wins).
TABLE = fields.TabulatedField((0.9, 0.1, 0.5, -0.2, 0.5), (1.0, 2.0, 0.5, 1.5, 3.0))
TABLE_CUTS = (-0.05, 0.3, 0.7)  # midpoints between the distinct sorted points
SINUSOIDS = {
    f"sin-f{f}": fields.TimeSinusoidField(0.625, 0.375, frequency=f, phase=p)
    for f, p in ((0.0, 0.7), (1.0, 0.3), (2.5, -1.1))
}
INTERVALS = [(0.0, 1.0), (0.2, 0.21), (-0.43, 0.0067), (0.3, 0.7), (-0.5, 1.5)]


class TestClosedFormWeightedGramian:
    @pytest.mark.parametrize("t, T", INTERVALS)
    @pytest.mark.parametrize("form", [*SINUSOIDS, "table"])
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_matches_gauss_legendre(self, name, form, t, T, request):
        system = request.getfixturevalue(name)
        lam, cuts = (TABLE, TABLE_CUTS) if form == "table" else (SINUSOIDS[form], ())
        C = gramian_weighted(system, lam, t, T).C
        ref = gauss_legendre_weighted(system, lam, t, T, cuts)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(C - ref) <= 1e-12 * scale)

    def test_sinusoid_sampled_at_its_own_period(self, heat1d):
        # 1.05 + sin(8 pi s + pi/2) averages to 1.05 over [0, 1]; five
        # equally spaced nodes all read its peak 2.05.
        lam = fields.TimeSinusoidField(1.05, 1.0, 4.0, np.pi / 2)
        C = gramian_weighted(heat1d, lam, 0.0, 1.0).C
        assert abs(C[0, 0] - 1.05) <= 1e-14

    def test_sinusoid_negative_between_nodes_rejected(self, heat1d):
        lam = fields.TimeSinusoidField(0.05, 1.0, 4.0, np.pi / 2)
        with pytest.raises(GramianError):
            gramian_weighted(heat1d, lam, 0.0, 1.0)

    def test_sinusoid_minimum_is_exact(self, heat1d):
        # 1 + sin(2 pi s) has its trough 0 at s = 0.75, inside [0.7, 0.8] only.
        lam = fields.TimeSinusoidField(1.0, 1.0)
        gramian_weighted(heat1d, lam, 0.0, 0.7)
        gramian_weighted(heat1d, lam, 0.8, 1.0)
        with pytest.raises(GramianError):
            gramian_weighted(heat1d, lam, 0.7, 0.8)

    def test_nonpositive_table_stretch_rejected(self, heat1d):
        table = fields.TabulatedField((0.0, 0.5, 1.0), (1.0, 0.0, 1.0))
        gramian_weighted(heat1d, table, 0.0, 0.2)
        with pytest.raises(GramianError):
            gramian_weighted(heat1d, table, 0.0, 1.0)

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_constant_is_the_scaled_gramian(self, name, request):
        # A number, a constant field and a one-point table, bit for bit.
        system = request.getfixturevalue(name)
        ref = 1.7 * system.propagator.gramian(0.9 - 0.1)
        for lam in (1.7, fields.ConstantField(1.7), fields.TabulatedField((0.5,), (1.7,))):
            np.testing.assert_array_equal(gramian_weighted(system, lam, 0.1, 0.9).C, ref)

    @pytest.mark.parametrize("form", SINUSOIDS)
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "deep221"])
    def test_sinusoid_expm_count(self, name, form, request, expm_calls):
        system = request.getfixturevalue(name)
        gramian_weighted(system, SINUSOIDS[form], 0.1, 0.9)
        assert expm_calls[0] <= 2

    @pytest.mark.parametrize("t, T, stretches", [(0.0, 1.0, 3), (-0.5, 1.5, 4), (0.2, 0.21, 1)])
    @pytest.mark.parametrize("name", ["heat1d", "langevin", "deep221"])
    def test_table_expm_count(self, name, t, T, stretches, request, expm_calls):
        system = request.getfixturevalue(name)
        gramian_weighted(system, TABLE, t, T)
        assert expm_calls[0] <= stretches + 1

    def test_callable_strength_rejected(self, heat1d, expm_calls):
        with pytest.raises(CoefficientError, match="function"):
            gramian_weighted(heat1d, lambda s: 1.0, 0.0, 1.0)
        assert expm_calls[0] == 0


class TestHomogeneousGramian:
    def test_star_free_unchanged(self, langevin):
        np.testing.assert_allclose(
            gramian_homogeneous(langevin, 0.7).C, gramian(langevin, 0.7).C, rtol=1e-12
        )

    def test_star_blocks_zeroed(self, starful):
        ref = validate_structure([[0.0, 0.0], [1.0, 0.0]], [1, 1])
        np.testing.assert_allclose(
            gramian_homogeneous(starful, 0.6).C, gramian(ref, 0.6).C, rtol=1e-12
        )

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
    def test_scaling_identity(self, starful, tau):
        assert dilation_scaling_defect(starful, tau) <= 1e-10

    @pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0])
    def test_determinant_law(self, deep221, tau):
        assert homogeneous_det_law_defect(deep221, tau) <= 1e-10


class TestQuadraticForm:
    def test_identity_covariance(self, heat1d):
        g = gramian(heat1d, 1.0)
        assert np.isclose(quadratic_form(g, [1.5]), 2.25)

    def test_langevin_hand_inverse(self, langevin):
        # C(1)^-1 = [[4, -6], [-6, 12]] by hand inversion.
        g = gramian(langevin, 1.0)
        assert np.isclose(quadratic_form(g, [1.0, 0.0]), 4.0, rtol=1e-10)
        assert np.isclose(quadratic_form(g, [0.0, 1.0]), 12.0, rtol=1e-10)

    def test_zero_only_at_zero(self, langevin):
        g = gramian(langevin, 0.5)
        assert quadratic_form(g, [0.0, 0.0]) == 0.0
        assert quadratic_form(g, [1e-8, 0.0]) > 0.0

    def test_dimension_mismatch(self, langevin):
        with pytest.raises(ValueError):
            quadratic_form(gramian(langevin, 1.0), [1.0, 0.0, 0.0])


class TestEquivalenceConstants:
    def test_star_free_trivial(self, langevin):
        rep = equivalence_constants(langevin, [0.1, 0.5, 1.0])
        np.testing.assert_allclose(rep.det_ratio, 1.0, rtol=1e-9)
        assert np.isclose(rep.k_quadratic[0], 1.0, rtol=1e-9)
        assert np.isclose(rep.k_quadratic[1], 1.0, rtol=1e-9)

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221"])
    def test_homogeneous_drifts_give_one(self, name, request):
        rep = equivalence_constants(request.getfixturevalue(name), [0.1, 0.5, 1.0])
        np.testing.assert_allclose(rep.k_quadratic, 1.0, rtol=1e-12, atol=0)

    def test_starful_is_the_pencil_extreme(self, starful):
        # scipy's generalized solver is an independent route to the pencil
        # (C, C0); the 64 directions of 0.10.0 sampled k5 as 0.3895.
        taus = [0.1, 0.5, 1.0]
        k5, k6 = equivalence_constants(starful, taus).k_quadratic
        eigs = np.concatenate(
            [eigh(gramian(starful, tau).C, gramian_homogeneous(starful, tau).C,
                  eigvals_only=True) for tau in taus]
        )
        assert np.isclose(k5, 1.0 / eigs.max(), rtol=1e-12)
        assert np.isclose(k6, 1.0 / eigs.min(), rtol=1e-12)
        assert k5 < 0.3895

    def test_langevin_dilation_eigenvalues(self, langevin):
        # Eigenvalues of C0(1)^-1 = [[4, -6], [-6, 12]] are 8 -+ sqrt(52).
        rep = equivalence_constants(langevin, [1.0])
        assert np.isclose(rep.k_dilation[0], 8.0 - np.sqrt(52.0), rtol=1e-9)
        assert np.isclose(rep.k_dilation[1], 8.0 + np.sqrt(52.0), rtol=1e-9)

    def test_starful_det_ratio_decreases_to_one(self, starful):
        taus = [2.0**-k for k in range(1, 11)]
        rep = equivalence_constants(starful, taus)
        gaps = [abs(r - 1.0) for r in rep.det_ratio]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2

    def test_det_gap_linear_in_tau(self, starful):
        taus = [2.0**-k for k in range(1, 11)]
        rep = equivalence_constants(starful, taus)
        K = max(abs(r - 1.0) / tau for r, tau in zip(rep.det_ratio, rep.tau_grid))
        assert np.isfinite(K) and K < 5.0

    def test_dilation_norm_bounds(self, starful):
        # k1 |D(tau^-1/2) z|^2 <= <C0(tau)^-1 z, z> <= k2 |D(tau^-1/2) z|^2.
        rep = equivalence_constants(starful, [1.0])
        k1, k2 = rep.k_dilation
        rng = np.random.default_rng(5)
        for tau in (0.05, 0.3, 1.0):
            g0 = gramian_homogeneous(starful, tau)
            Dinv = dilation_matrix(starful.structure, tau**-0.5)
            for _ in range(16):
                z = rng.normal(size=2)
                dn = float(np.sum((Dinv @ z) ** 2))
                qf = quadratic_form(g0, z)
                assert k1 * dn <= qf * (1 + 1e-9)
                assert qf <= k2 * dn * (1 + 1e-9)

    def test_empty_grid_rejected(self, langevin):
        with pytest.raises(ValueError):
            equivalence_constants(langevin, [])

    def test_out_of_range_tau_rejected(self, langevin):
        with pytest.raises(ValueError):
            equivalence_constants(langevin, [1.5])
