import numpy as np
import pytest
from scipy.optimize import minimize

from kolmo import fields
from kolmo.exceptions import CoefficientError, GramianError, StructureError
from kolmo.gramian import gramian
from kolmo.model import (
    BlockStructure,
    SpaceTimePoint,
    SystemMatrix,
    OperatorSpec,
    coefficient_bounds,
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
        for r in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="must be positive"):
                dilation_matrix(BlockStructure((1, 1)), r)


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

    def test_nonpositive_rejected(self, langevin):
        for r in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="must be positive"):
                scaled_system(langevin, r)


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
        # The closed form reads the sinusoid's extremes 0.5 and 2 exactly.
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

    @pytest.mark.parametrize("coefficient", ["a", "c"])
    def test_nan_table_value_rejected(self, kinetic21, coefficient):
        # A table refuses a NaN value when built, so it is set afterwards:
        # the checks must catch a non-finite value from any source.
        field = fields.TabulatedField((-1.0, 0.0, 1.0), (1.0, 0.5, 1.0), axis=0)
        object.__setattr__(field, "values", (1.0, float("nan"), 1.0))
        if coefficient == "a":
            spec = make_spec(kinetic21, a=fields.IsotropicMatrixField(field, 2))
            check = ellipticity_check
        else:
            spec = make_spec(kinetic21, c=field)
            check = coefficient_bounds
        with pytest.raises(CoefficientError, match=f"coefficient {coefficient}"):
            check(spec)

    def test_non_finite_matrix_rejected(self, heat1d):
        spec = make_spec(heat1d, a=fields.ConstantMatrixField([[float("inf")]]))
        with pytest.raises(CoefficientError, match="non-finite"):
            ellipticity_check(spec)

    def test_non_finite_lower_order_named(self, kinetic21):
        bad = fields.TimeSinusoidField(base=0.0, amplitude=1.0, frequency=float("nan"))
        low = fields.VectorField((fields.ConstantField(0.1), bad))
        with pytest.raises(CoefficientError, match=r"coefficient b_low\[1\]"):
            coefficient_bounds(make_spec(kinetic21, b_low=low))

    def test_unknown_field_type_named(self, kinetic21):
        # A field of no known kind is refused when the spec is built, with
        # the coefficient and the type named.
        class Doubled:
            space_dependent = False

            def __call__(self, t, x):
                return 2.0

            def value_range(self):
                return 2.0, 2.0

            eigenvalue_range = value_range

        zero = fields.ConstantField(0.0)
        cases = [
            ("a", Doubled(), "a"),
            ("a", fields.IsotropicMatrixField(Doubled(), 2), "a"),
            ("a_low", fields.VectorField((zero, Doubled())), r"a_low\[1\]"),
            ("b_low", fields.VectorField((Doubled(), zero)), r"b_low\[0\]"),
            ("c", Doubled(), "c"),
        ]
        for coefficient, value, name in cases:
            with pytest.raises(CoefficientError, match=f"coefficient {name}: .*Doubled"):
                make_spec(kinetic21, **{coefficient: value})


def brute_force_range(field, d, seed):
    """The least and largest value of a scalar field, found without its closed form.

    The field at 100 times and 1,000 state rows drawn uniformly from
    ``[-10, 10]``: 1e5 points ``(t, x)``.  The best sample of each sign is
    then polished by Nelder-Mead over ``(t, x)``.  Returns the sampled
    values and the two polished extremes.
    """
    rng = np.random.default_rng(seed)
    ts, X = rng.uniform(-10.0, 10.0, 100), rng.uniform(-10.0, 10.0, (1000, d))
    values = np.array([np.broadcast_to(field(t, X), len(X)) for t in ts])
    extremes = []
    for sign in (-1.0, 1.0):
        i, j = np.unravel_index(np.argmax(sign * values), values.shape)
        res = minimize(
            lambda z: -sign * float(field(z[0], z[1:])),
            np.concatenate([[ts[i]], X[j]]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 20000},
        )
        extremes.append(max(sign * values[i, j], -res.fun) * sign)
    return values, extremes[0], extremes[1]


SCALAR_FIELDS = {
    "constant": fields.ConstantField(-0.7),
    "time-sinusoid": fields.TimeSinusoidField(base=0.5, amplitude=0.45, frequency=0.5),
    "time-sinusoid-negative": fields.TimeSinusoidField(
        base=-0.2, amplitude=-1.3, frequency=3.0, phase=0.4
    ),
    "time-sinusoid-still": fields.TimeSinusoidField(
        base=1.0, amplitude=0.5, frequency=0.0, phase=0.7
    ),
    "space-sinusoid": fields.SpaceSinusoidField(
        base=0.6, amplitude=0.3, wave=(0.05, -0.13, 0.0), phase=0.2
    ),
    "space-sinusoid-still": fields.SpaceSinusoidField(
        base=0.6, amplitude=0.3, wave=(0.0, 0.0, 0.0), phase=-1.1
    ),
    "table-time": fields.TabulatedField((0.0, 0.3, 0.7, -4.0), (0.5, 0.9, 1.3, 0.25)),
    # The second point 0.0 is never returned: argmin picks the first of equal points.
    "table-space-duplicate": fields.TabulatedField(
        (-0.5, 0.0, 0.0, 0.5), (0.7, 1.1, 9.0, -0.4), axis=2
    ),
}


class TestRowsAndStates:
    """Each kind evaluates rows ``(n, d)`` bit for bit as it does each row alone."""

    @pytest.mark.parametrize("kind", sorted(fields._SCALAR_KINDS))
    def test_rows_are_single_states(self, kind):
        examples = [f for f in SCALAR_FIELDS.values() if type(f) is fields._SCALAR_KINDS[kind]]
        assert examples, f"no example of the kind {kind!r}"
        rng = np.random.default_rng(11)
        X = rng.uniform(-10.0, 10.0, (200, 3))
        for field in examples:
            for t in rng.uniform(-10.0, 10.0, 5):
                rows = np.broadcast_to(field(t, X), len(X))
                # The runner's layout: a transposed view of coordinate-major states.
                view = np.broadcast_to(field(t, np.ascontiguousarray(X.T).T), len(X))
                single = np.array([field(t, x) for x in X])
                assert rows.tobytes() == single.tobytes() == view.tobytes()
                if not field.space_dependent:
                    assert np.ndim(field(t, X)) == 0 and field(t, None) == field(t, X)

    def test_tables_cover_both_axes(self):
        axes = {f.axis for f in SCALAR_FIELDS.values() if isinstance(f, fields.TabulatedField)}
        assert "time" in axes and axes - {"time"}


class TestExactRanges:
    """Each field kind's closed-form range against a brute-force search."""

    @pytest.mark.parametrize("name", sorted(SCALAR_FIELDS))
    def test_scalar_range_is_brute_force_range(self, name):
        field = SCALAR_FIELDS[name]
        lo, hi = field.value_range()
        values, found_lo, found_hi = brute_force_range(field, 3, seed=len(name))
        assert lo <= values.min() and values.max() <= hi
        assert lo <= found_lo and found_hi <= hi
        # Every kind attains its extremes, so the search meets them.
        assert abs(found_lo - lo) <= 1e-12 and abs(found_hi - hi) <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCALAR_FIELDS))
    def test_isotropic_eigenvalues_are_scalar_range(self, name):
        field = SCALAR_FIELDS[name]
        assert fields.IsotropicMatrixField(field, 2).eigenvalue_range() == field.value_range()

    def test_constant_matrix_range_holds_every_rayleigh_quotient(self):
        rng = np.random.default_rng(17)
        root = rng.normal(size=(3, 3))
        matrix = root @ root.T + 0.1 * np.eye(3)
        lo, hi = fields.ConstantMatrixField(matrix).eigenvalue_range()
        u = rng.normal(size=(100_000, 3))
        quotients = np.einsum("ni,ij,nj->n", u, matrix, u) / np.einsum("ni,ni->n", u, u)
        assert lo <= quotients.min() and quotients.max() <= hi
        eigs = np.sort(np.linalg.eigvals(matrix).real)
        assert abs(eigs[0] - lo) <= 1e-12 * eigs[-1] and abs(eigs[-1] - hi) <= 1e-12 * eigs[-1]

    def test_checks_read_the_ranges(self, kinetic21):
        space = SCALAR_FIELDS["space-sinusoid"]
        table = SCALAR_FIELDS["table-space-duplicate"]
        low = fields.VectorField((SCALAR_FIELDS["constant"], SCALAR_FIELDS["table-time"]))
        spec = make_spec(
            kinetic21, a=fields.IsotropicMatrixField(space, 2), a_low=low, c=table, mu=4.0
        )
        assert ellipticity_check(spec) == (1.0 / (0.6 - 0.3), 0.6 + 0.3)
        assert coefficient_bounds(spec) == (1.3, 0.0, 1.1)


ZERO = fields.ConstantField(0.0)


class TestFieldShapes:
    """A table axis or a wave that does not fit the state is refused at construction."""

    @pytest.mark.parametrize(
        "coefficient, field, match",
        [
            ("a", fields.TabulatedField((0.0, 1.0), (1.0, 2.0), axis=3), "axis=3"),
            ("c", fields.TabulatedField((0.0, 1.0), (1.0, 2.0), axis=-1), "axis=-1"),
            ("b_low", fields.SpaceSinusoidField(1.0, 0.5, wave=(1.0, 0.0)), "wave=(1.0, 0.0)"),
            ("a_low", fields.SpaceSinusoidField(1.0, 0.5, wave=(1.0,) * 4), "wave=(1.0, 1.0,"),
        ],
    )
    def test_misfit_field_rejected(self, kinetic21, coefficient, field, match):
        value = {
            "a": fields.IsotropicMatrixField(field, 2),
            "a_low": fields.VectorField((fields.ConstantField(0.0), field)),
            "b_low": fields.VectorField((field, fields.ConstantField(0.0))),
            "c": field,
        }[coefficient]
        with pytest.raises(CoefficientError) as exc:
            make_spec(kinetic21, **{coefficient: value})
        assert f"coefficient {coefficient}" in str(exc.value) and match in str(exc.value)
        assert "3-d state" in str(exc.value)

    @pytest.mark.parametrize(
        "coefficient, value, match",
        [
            ("a", fields.IsotropicMatrixField(ZERO, 3), r"a: must be 2x2, got \(3, 3\)"),
            ("a", fields.ConstantMatrixField(0.5 * np.eye(3)), r"a: must be 2x2, got \(3, 3\)"),
            ("a", fields.ConstantMatrixField([0.5, 0.5]), r"a: must be 2x2, got \(2,\)"),
            ("a_low", ZERO, "a_low: need a vector field of 2 components, got ConstantField"),
            ("b_low", fields.VectorField((ZERO,)), "b_low: need .* 2 components, got 1"),
            ("a_low", fields.VectorField((ZERO,) * 3), "a_low: need .* 2 components, got 3"),
        ],
        ids=["isotropic-dim-3", "matrix-3x3", "matrix-1d", "a-low-scalar", "b-low-1", "a-low-3"],
    )
    def test_misfit_shape_rejected(self, kinetic21, coefficient, value, match):
        # KINETIC21 has m0 = 2: a is 2x2, and a_low and b_low have two components.
        with pytest.raises(CoefficientError, match=f"^coefficient {match}$"):
            make_spec(kinetic21, **{coefficient: value})

    def test_fitting_fields_accepted(self, kinetic21):
        table = fields.TabulatedField((0.0, 1.0), (1.0, 2.0), axis=2)
        wave = fields.SpaceSinusoidField(1.0, 0.5, wave=(1.0, 0.0, 0.5))
        spec = make_spec(kinetic21, a=fields.IsotropicMatrixField(table, 2), c=wave, mu=2.0)
        assert isinstance(spec, OperatorSpec)


class TestSpaceGradient:
    @pytest.mark.parametrize("m", [1, 2])
    def test_gradient_is_central_difference(self, m):
        field = fields.SpaceSinusoidField(base=0.6, amplitude=0.3, wave=(0.7, -1.3, 0.4), phase=0.2)
        X = np.random.default_rng(3).uniform(-2.0, 2.0, (50, 3))
        value, grad = field.value_and_gradient(X, m)
        np.testing.assert_array_equal(value, field(0.0, X))
        assert grad.shape == (m, 50)
        h = 1e-6
        for i in range(m):
            step = np.zeros(3)
            step[i] = h
            diff = field(0.0, X + step) - field(0.0, X - step)
            np.testing.assert_allclose(grad[i], diff / (2 * h), rtol=0, atol=1e-8)


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
