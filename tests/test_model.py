import numpy as np
import pytest

from kolmo import fields
from kolmo.exceptions import CoefficientError, GramianError, StructureError
from kolmo.gramian import gramian
from kolmo.model import (
    BlockStructure,
    SpaceTimePoint,
    SystemMatrix,
    coefficient_bounds,
    default_sample_grid,
    dilation_matrix,
    ellipticity_check,
    group_compose,
    group_inverse,
    homogeneous_dimension,
    kalman_rank,
    scaled_system,
    spec_from_config,
    spec_to_config,
    validate_structure,
)

from conftest import make_spec, langevin_config


class TestValidateStructure:
    def test_langevin_valid(self):
        system = validate_structure([[0, 0], [1, 0]], [1, 1])
        assert system.d == 2 and system.structure.nu == 1

    def test_zero_subdiagonal_rejected(self):
        with pytest.raises(StructureError) as exc:
            validate_structure([[0, 0], [0, 0]], [1, 1])
        assert exc.value.clause == "subdiagonal-rank"
        assert exc.value.indices == (1, 0)

    def test_below_subdiagonal_rejected(self):
        B = [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
        with pytest.raises(StructureError) as exc:
            validate_structure(B, [1, 1, 1])
        assert exc.value.clause == "zero-block"
        assert exc.value.indices == (2, 0)

    def test_monotonicity_rejected(self):
        with pytest.raises(StructureError) as exc:
            validate_structure(np.zeros((3, 3)), [1, 2])
        assert exc.value.clause == "m-monotonicity"

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError) as exc:
            validate_structure(np.zeros((3, 3)), [1, 1])
        assert exc.value.clause == "dimension-mismatch"

    def test_rank_deficient_wide_block(self):
        # m = [2, 2] needs a rank-2 subdiagonal block.
        B = np.zeros((4, 4))
        B[2:, :2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(StructureError) as exc:
            validate_structure(B, [2, 2])
        assert exc.value.clause == "subdiagonal-rank"


class TestKalmanRank:
    def test_langevin(self, langevin):
        assert kalman_rank(langevin) == 2

    def test_full_diffusion_block(self):
        system = validate_structure(np.zeros((2, 2)), [2])
        assert kalman_rank(system) == 2

    def test_uncoupled_second_coordinate(self):
        # Deliberately broken: B = 0 with m0 = 1 never reaches x2.
        system = SystemMatrix(np.zeros((2, 2)), BlockStructure((1, 1)))
        assert kalman_rank(system) == 1

    def test_rank_iff_positive_definite(self, langevin, kinetic21, deep221):
        for system in (langevin, kinetic21, deep221):
            assert kalman_rank(system) == system.d
            assert np.linalg.eigvalsh(system.propagator.gramian(1.0)).min() > 1e-10
        broken = SystemMatrix(np.zeros((2, 2)), BlockStructure((1, 1)))
        assert kalman_rank(broken) < broken.d
        assert np.linalg.eigvalsh(broken.propagator.gramian(1.0)).min() <= 1e-10
        with pytest.raises(GramianError):
            gramian(broken, 1.0)


class TestHomogeneousDimension:
    @pytest.mark.parametrize(
        "m,expected", [((1, 1), 4), ((3,), 3), ((2, 1), 5), ((2, 2, 1), 13)]
    )
    def test_values(self, m, expected):
        assert homogeneous_dimension(BlockStructure(m)) == expected


class TestDilations:
    def test_langevin_r2(self):
        D = dilation_matrix(BlockStructure((1, 1)), 2.0)
        np.testing.assert_allclose(D, np.diag([2.0, 8.0]))

    def test_identity_at_one(self):
        D = dilation_matrix(BlockStructure((2, 2, 1)), 1.0)
        np.testing.assert_array_equal(D, np.eye(5))

    def test_kinetic_r3(self):
        D = dilation_matrix(BlockStructure((2, 1)), 3.0)
        np.testing.assert_allclose(D, np.diag([3.0, 3.0, 27.0]))

    def test_group_property_exact(self):
        s = BlockStructure((2, 1))
        left = dilation_matrix(s, 2.0) @ dilation_matrix(s, 3.0)
        np.testing.assert_array_equal(left, dilation_matrix(s, 6.0))

    def test_determinant_is_rQ(self):
        s = BlockStructure((2, 2, 1))
        Q = homogeneous_dimension(s)
        for r in (0.3, 1.7):
            assert np.isclose(np.linalg.det(dilation_matrix(s, r)), r**Q, rtol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dilation_matrix(BlockStructure((1, 1)), 0.0)


class TestGroupOps:
    def test_euclidean_when_drift_vanishes(self):
        system = validate_structure(np.zeros((2, 2)), [2])
        z = group_compose(
            SpaceTimePoint(0.3, [1.0, 2.0]), SpaceTimePoint(0.5, [0.1, 0.2]), system
        )
        assert z.t == 0.8
        np.testing.assert_allclose(z.x, [1.1, 2.2])

    def test_langevin_composition(self, langevin):
        z = group_compose(
            SpaceTimePoint(1.0, [1.0, 0.0]), SpaceTimePoint(1.0, [0.0, 0.0]), langevin
        )
        assert z.t == 2.0
        np.testing.assert_allclose(z.x, [1.0, 1.0], atol=1e-14)

    def test_identity_element(self, langevin):
        z = SpaceTimePoint(0.7, [0.3, -0.4])
        out = group_compose(SpaceTimePoint(0.0, [0.0, 0.0]), z, langevin)
        assert out.t == z.t
        np.testing.assert_allclose(out.x, z.x)

    def test_inverse_closed_form_zero_drift(self):
        system = validate_structure(np.zeros((2, 2)), [2])
        z = SpaceTimePoint(0.8, [1.0, -2.0])
        zi = group_inverse(z, system)
        assert zi.t == -0.8
        np.testing.assert_allclose(zi.x, [-1.0, 2.0])

    def test_inverse_property(self, starful):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = SpaceTimePoint(rng.uniform(-2, 2), rng.normal(size=2))
            zi = group_inverse(z, starful)
            out = group_compose(zi, z, starful)
            assert abs(out.t) < 1e-12
            np.testing.assert_allclose(out.x, 0.0, atol=1e-12)

    def test_associativity(self, starful):
        rng = np.random.default_rng(4)
        for _ in range(20):
            zs = [SpaceTimePoint(rng.uniform(-1, 1), rng.normal(size=2)) for _ in range(3)]
            left = group_compose(group_compose(zs[0], zs[1], starful), zs[2], starful)
            right = group_compose(zs[0], group_compose(zs[1], zs[2], starful), starful)
            assert abs(left.t - right.t) < 1e-12
            np.testing.assert_allclose(left.x, right.x, atol=1e-12)


class TestScaledSystem:
    def test_langevin_invariant(self, langevin):
        for r in (0.5, 2.0, 7.3):
            np.testing.assert_array_equal(scaled_system(langevin, r).B, langevin.B)

    def test_starful_example(self, starful):
        out = scaled_system(starful, 2.0)
        np.testing.assert_allclose(out.B, [[4.0, 0.0], [1.0, 0.0]])

    def test_identity_at_one(self, starful):
        np.testing.assert_array_equal(scaled_system(starful, 1.0).B, starful.B)

    def test_round_trip(self, starful):
        out = scaled_system(scaled_system(starful, 3.7), 1 / 3.7)
        np.testing.assert_allclose(out.B, starful.B, atol=1e-12)

    def test_result_is_valid_structure(self, starful):
        out = scaled_system(starful, 2.0)
        validate_structure(out.B, out.structure.m)


class TestEllipticityCheck:
    def test_identity_coefficient(self, heat1d):
        spec = make_spec(heat1d, lam=2.0)  # a = I
        mu_low, mu_high = ellipticity_check(spec)
        assert np.isclose(mu_low, 1.0) and np.isclose(mu_high, 1.0)

    def test_comparison_operator_within_declared_mu(self, langevin):
        # a = (lam/2) I declares mu = max(lam/2, 2/lam), the tightest constant.
        for lam in (0.3, 1.0, 5.0):
            spec = make_spec(langevin, lam=lam)
            mu_low, mu_high = ellipticity_check(spec)
            assert mu_low <= spec.mu + 1e-12 and mu_high <= spec.mu + 1e-12

    def test_time_sinusoid_extremes(self, heat1d):
        a = fields.IsotropicMatrixField(
            fields.TimeSinusoidField(base=1.25, amplitude=0.75), 1
        )
        spec = make_spec(heat1d, a=a, mu=2.0)
        mu_low, mu_high = ellipticity_check(spec)
        # The default time grid hits the sinusoid extremes 0.5 and 2 exactly.
        assert np.isclose(mu_low, 2.0, atol=1e-12)
        assert np.isclose(mu_high, 2.0, atol=1e-12)

    def test_negative_eigenvalue_rejected(self, heat1d):
        spec = make_spec(heat1d, a=fields.ConstantMatrixField([[-1.0]]))
        with pytest.raises(CoefficientError):
            ellipticity_check(spec)

    def test_nonsymmetric_rejected(self, langevin):
        kinetic = validate_structure(
            np.array([[0, 0, 0], [0, 0, 0], [1.0, 0, 0]]), [2, 1]
        )
        spec = make_spec(kinetic, a=fields.ConstantMatrixField([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(CoefficientError):
            ellipticity_check(spec)

    def test_empty_samples_rejected(self, heat1d):
        with pytest.raises(ValueError):
            ellipticity_check(make_spec(heat1d), sample_points=[])


def old_sample_grid(structure):
    """Reference: the sample grid as the list of ``(t, x)`` pairs it once was."""
    rng = np.random.default_rng(0)
    times = np.arange(32) / 32
    xs = rng.uniform(-1.0, 1.0, size=(32, structure.d))
    xs[0] = 0.0
    return [(float(t), x) for t in times for x in xs]


def ellipticity_loop(spec, sample_points):
    """Reference: the checks one sample at a time, in sample order."""
    lo = hi = -np.inf
    for t, x in sample_points:
        a_val = np.asarray(spec.a(t, x), dtype=float)
        if not np.all(np.isfinite(a_val)):
            raise CoefficientError(f"non-finite diffusion coefficient at (t={t}, x={x})")
        if not np.allclose(a_val, a_val.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a_val).max())):
            raise CoefficientError(f"nonsymmetric diffusion coefficient at (t={t}, x={x})")
        eigs = np.linalg.eigvalsh(a_val)
        emin, emax = eigs[0], eigs[-1]
        if emin <= 0:
            raise CoefficientError(
                f"diffusion coefficient not positive definite at (t={t}, x={x})"
            )
        lo, hi = max(lo, 1.0 / emin), max(hi, emax)
    return lo, hi


def coefficient_bounds_loop(spec, sample_points):
    """Reference: the sup norms one sample at a time, in sample order."""
    sup_a = sup_b = sup_c = 0.0
    for t, x in sample_points:
        va, vb, vc = spec.a_low(t, x), spec.b_low(t, x), spec.c(t, x)
        if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb)) and np.isfinite(vc)):
            raise CoefficientError(f"non-finite lower-order coefficient at (t={t}, x={x})")
        sup_a = max(sup_a, float(np.abs(va).max()))
        sup_b = max(sup_b, float(np.abs(vb).max()))
        sup_c = max(sup_c, abs(float(vc)))
    return sup_a, sup_b, sup_c


def outcome(fn, *args):
    try:
        return fn(*args)
    except CoefficientError as exc:
        return str(exc)


class TestBatchedValidation:
    """The batched checks give the per-sample loop's results bit for bit."""

    @staticmethod
    def specs(system):
        d, m0 = system.d, system.m0
        wave = tuple(0.5 * (i + 1) / d for i in range(d))
        space = fields.SpaceSinusoidField(base=0.6, amplitude=0.3, wave=wave, phase=0.2)
        time = fields.TimeSinusoidField(base=0.625, amplitude=0.375, frequency=2.0)
        tab_time = fields.TabulatedField((0.0, 0.3, 0.7), (0.5, 0.9, 1.3))
        tab_space = fields.TabulatedField((-0.5, 0.0, 0.5), (0.7, 1.1, 0.4), axis=d - 1)
        low = fields.VectorField(tuple([space, time, tab_space][: m0] + [tab_time] * (m0 - 3)))
        spd = np.eye(m0) + 0.3 * np.ones((m0, m0))
        return [
            make_spec(system, lam=1.5),
            make_spec(system, a=fields.ConstantMatrixField(spd), b_low=low, c=tab_time),
            make_spec(system, a=fields.IsotropicMatrixField(time, m0), a_low=low, c=space),
            make_spec(system, a=fields.IsotropicMatrixField(space, m0), c=time),
            make_spec(system, a=fields.IsotropicMatrixField(tab_space, m0), b_low=low),
            make_spec(system, a=fields.IsotropicMatrixField(tab_time, m0)),
        ]

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221"])
    def test_bitwise_equal_to_loop(self, name, request):
        system = request.getfixturevalue(name)
        rng = np.random.default_rng(41)
        mixed = [(float(t), x) for t, x in zip(rng.uniform(-1, 1, 200), rng.normal(size=(200, system.d)))]
        for spec in self.specs(system):
            for samples in (old_sample_grid(system.structure), mixed):
                ref = ellipticity_loop(spec, samples)
                got = ellipticity_check(spec, samples)
                assert got == ref and type(got[0]) is type(ref[0])
                assert coefficient_bounds(spec, samples) == coefficient_bounds_loop(spec, samples)
            assert coefficient_bounds(spec, []) == coefficient_bounds_loop(spec, [])

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221"])
    def test_default_grid_equal_to_loop(self, name, request):
        # With no sample list the checks read the cached arrays; the loops
        # run over the grid's old list of pairs.  The diffusion depends on
        # space and ``c`` on time, so both arrays are read.
        system = request.getfixturevalue(name)
        samples = old_sample_grid(system.structure)
        spec = self.specs(system)[3]
        assert ellipticity_check(spec) == ellipticity_loop(spec, samples)
        assert coefficient_bounds(spec) == coefficient_bounds_loop(spec, samples)

    def test_default_grid_failure_named(self, kinetic21):
        # The first offending sample of the default grid is named as the loop
        # over the old list names it: the field is NaN wherever x0 < -0.5.
        field = fields.TabulatedField((-1.0, 0.0), (1.0, 1.0), axis=0)
        object.__setattr__(field, "values", (float("nan"), 1.0))
        spec = make_spec(kinetic21, a=fields.IsotropicMatrixField(field, 2), c=field)
        samples = old_sample_grid(kinetic21.structure)
        for check, loop in ((ellipticity_check, ellipticity_loop),
                            (coefficient_bounds, coefficient_bounds_loop)):
            expected = outcome(loop, spec, samples)
            assert isinstance(expected, str) and "(t=" in expected
            assert outcome(check, spec) == expected

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221"])
    def test_default_sample_grid_is_old_list(self, name, request):
        structure = request.getfixturevalue(name).structure
        ts, X = grid = default_sample_grid(structure)
        old = old_sample_grid(structure)
        assert ts.shape == (1024,) and X.shape == (1024, structure.d)
        assert ts.tolist() == [t for t, _ in old]
        assert X.tolist() == [x.tolist() for _, x in old]
        assert not ts.flags.writeable and not X.flags.writeable
        again = default_sample_grid(BlockStructure(structure.m))
        assert again is grid or (again[0] is ts and again[1] is X)

    def test_first_offending_sample_named(self, kinetic21):
        # Sample 1 is not positive definite and sample 2 not finite; either
        # order must report the earlier one, as the loop does.  A table
        # rejects a NaN value when built, so it is set afterwards: the
        # sampled checks must catch a non-finite value from any source.
        field = fields.TabulatedField((-1.0, 0.0, 1.0), (1.0, -1.0, 1.0), axis=0)
        object.__setattr__(field, "values", (float("nan"), -1.0, 1.0))
        spec = make_spec(kinetic21, a=fields.IsotropicMatrixField(field, 2), c=field)
        samples = [(0.0, np.array([0.9, 0.0, 0.0])), (0.5, np.array([0.1, 0.2, 0.0])),
                   (0.25, np.array([-0.9, 0.0, 0.0]))]
        for order in (samples, samples[::-1], samples[:1] + samples[2:]):
            expected = outcome(ellipticity_loop, spec, order)
            assert isinstance(expected, str)
            assert outcome(ellipticity_check, spec, order) == expected
            assert outcome(coefficient_bounds, spec, order) == outcome(
                coefficient_bounds_loop, spec, order
            )

    def test_unknown_field_type_named(self, langevin):
        class Doubled:  # a field of no known kind
            time_dependent = space_dependent = False

            def __call__(self, t, x):
                return 2.0 * np.eye(1)

        with pytest.raises(CoefficientError, match="Doubled"):
            ellipticity_check(make_spec(langevin, a=Doubled()))
        with pytest.raises(CoefficientError, match="Doubled"):
            fields.batch_scalar(Doubled(), 0.0, np.zeros((3, 2)))
        with pytest.raises(CoefficientError, match="TimeSinusoidField"):
            fields.batch_value_and_gradient(
                fields.TimeSinusoidField(1.0, 0.5), np.zeros((3, 2)), 1
            )


class TestConfigRoundTrip:
    def test_langevin_round_trip(self):
        spec = spec_from_config(langevin_config())
        cfg = spec_to_config(spec)
        spec2 = spec_from_config(cfg)
        np.testing.assert_array_equal(spec.system.B, spec2.system.B)
        assert spec.mu == spec2.mu
        x = np.zeros(2)
        np.testing.assert_allclose(spec.a(0.3, x), spec2.a(0.3, x))

    def test_sinusoid_fields_round_trip(self):
        cfg = langevin_config()
        cfg["coefficients"]["a"] = {
            "kind": "time-sinusoid", "base": 0.625, "amplitude": 0.375,
        }
        cfg["mu"] = 4.0
        spec = spec_from_config(cfg)
        spec2 = spec_from_config(spec_to_config(spec))
        for t in (0.0, 0.25, 0.8):
            np.testing.assert_allclose(spec.a(t, np.zeros(2)), spec2.a(t, np.zeros(2)))

    def test_tabulated_axis_normalized(self):
        for axis in (1, 1.0, "1"):
            cfg = {"kind": "tabulated", "points": [0, 1], "values": [1, 2], "axis": axis}
            field = fields.scalar_field_from_config(cfg)
            assert field.axis == 1 and type(field.axis) is int
            assert fields.scalar_field_to_config(field)["axis"] == 1
        cfg = {"kind": "tabulated", "points": [0, 1], "values": [1, 2]}
        assert fields.scalar_field_from_config(cfg).axis == "time"

    def test_invalid_structure_rejected(self):
        cfg = langevin_config()
        cfg["blocks"] = [1, 2]
        cfg["B"] = np.zeros((3, 3)).tolist()
        with pytest.raises(StructureError):
            spec_from_config(cfg)
