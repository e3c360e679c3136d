"""Seeded property tests over random valid block structures.

Each structure has non-increasing block sizes with ``d <= 8``, random
full-rank subdiagonal couplings and random blocks on and above the
diagonal.  The paper's identities are checked at the tolerances the
hand-picked fixtures use.
"""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from kolmo import fields
from kolmo.control import ControlProblem, optimal_control, trajectory
from kolmo.exceptions import GramianError
from kolmo.gramian import (
    dilation_scaling_defect,
    homogeneous_det_law_defect,
    quadratic_form,
)
from kolmo.model import (
    BlockStructure,
    OperatorSpec,
    dilation_exponents,
    dilation_matrix,
    dilation_scales,
    homogeneous_dimension,
    spec_from_config,
    spec_to_config,
    validate_structure,
)

SEEDS = range(24)


def random_system(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 4))]
    while rng.random() < 0.75:
        size = int(rng.integers(1, sizes[-1] + 1))
        if sum(sizes) + size > 8:
            break
        sizes.append(size)
    d = sum(sizes)
    slices = BlockStructure(tuple(sizes)).block_slices()
    B = np.zeros((d, d))
    for i, rows in enumerate(slices):
        for j in range(i, len(sizes)):
            B[rows, slices[j]] = rng.normal(scale=0.5, size=(sizes[i], sizes[j]))
        if i > 0:
            # Orthonormal rows with scales in [0.5, 2]: full rank and well conditioned.
            q = np.linalg.qr(rng.normal(size=(sizes[i - 1], sizes[i])))[0].T
            B[rows, slices[i - 1]] = rng.uniform(0.5, 2.0, size=(sizes[i], 1)) * q
    return validate_structure(B, sizes), rng


def test_random_structures_cover_the_range():
    sizes = [random_system(seed)[0].structure.m for seed in SEEDS]
    assert max(sum(m) for m in sizes) >= 7
    assert max(len(m) for m in sizes) >= 4
    assert any(m[0] > 1 and len(m) > 1 for m in sizes)


@pytest.mark.parametrize("seed", SEEDS)
def test_dilation_scales(seed):
    system, rng = random_system(seed)
    structure = system.structure
    Q = homogeneous_dimension(structure)
    assert Q == sum((2 * j + 1) * mj for j, mj in enumerate(structure.m))
    assert Q == dilation_exponents(structure).sum()
    for r in rng.uniform(0.05, 5.0, size=3):
        scales = dilation_scales(structure, r)
        np.testing.assert_array_equal(dilation_matrix(structure, r), np.diag(scales))
        assert np.isclose(np.prod(scales), r**Q, rtol=1e-12)
    rs = rng.uniform(0.05, 5.0, size=(2, 3))
    grid = dilation_scales(structure, rs)
    assert grid.shape == (2, 3, system.d)
    for idx in np.ndindex(rs.shape):
        np.testing.assert_array_equal(grid[idx], dilation_scales(structure, rs[idx]))


# The Van Loan covariance of a cascade with four or more levels loses its
# smallest entries at short horizons: C0(tau) is then not numerically
# positive definite, and both laws fail (ROADMAP item 3).
_DEEP = pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, GramianError),
    reason="Van Loan C0(tau) inaccurate for nu >= 3 at short horizons",
)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(seed, marks=[_DEEP] if random_system(seed)[0].structure.nu >= 3 else [])
        for seed in SEEDS
    ],
)
def test_homogeneous_gramian_laws(seed):
    system, _ = random_system(seed)
    for tau in (1e-3, 1e-1, 1.0):
        assert dilation_scaling_defect(system, tau) <= 1e-10
        assert homogeneous_det_law_defect(system, tau) <= 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_row_quadratic_form_matches_vector_calls(seed):
    system, rng = random_system(seed)
    g = system.propagator.factor(rng.uniform(0.1, 1.0))
    Z = rng.normal(size=(7, system.d))
    rows = quadratic_form(g, Z)
    assert rows.shape == (7,)
    np.testing.assert_allclose(rows, [quadratic_form(g, z) for z in Z], rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_steering_and_cost_identities(seed):
    system, rng = random_system(seed)
    for _ in range(3):
        tau = rng.uniform(0.2, 1.0)
        t = rng.uniform(-1.0, 1.0)
        x = rng.normal(size=system.d)
        eta = rng.normal(size=system.d)
        y = expm(tau * system.B) @ x + dilation_scales(system.structure, np.sqrt(tau)) * eta
        p = ControlProblem(system, t, t + tau, x, y)
        ctrl = optimal_control(p)
        assert np.linalg.norm(trajectory(ctrl, p.T) - p.y) <= 1e-8 * (1 + np.linalg.norm(p.y))
        g = system.propagator.factor(tau)
        offset = p.y - expm(tau * system.B) @ p.x
        assert abs(ctrl.cost - quadratic_form(g, offset)) <= 1e-10 * max(ctrl.cost, 1.0)


def _every_kind(rng, d):
    """One scalar field of each kind, with the tabulated one on both axes."""
    return [
        fields.ConstantField(float(rng.uniform(0.5, 1.0))),
        fields.TimeSinusoidField(0.7, 0.2, float(rng.uniform(0.5, 3.0)), float(rng.normal())),
        fields.TimeSinusoidField(0.7, 0.2),
        fields.SpaceSinusoidField(0.7, 0.1, tuple(rng.normal(size=d)), float(rng.normal())),
        fields.TabulatedField((0.0, 0.5, 1.0), tuple(rng.uniform(0.5, 1.0, size=3))),
        fields.TabulatedField((-1.0, 1.0), (0.6, 0.9), axis=int(rng.integers(d))),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_spec_config_round_trip(seed):
    system, rng = random_system(seed)
    m0 = system.m0
    kinds = _every_kind(rng, system.d)
    L = rng.normal(size=(m0, m0))
    diffusions = [fields.IsotropicMatrixField(k, m0) for k in kinds]
    for a in diffusions + [fields.ConstantMatrixField(L @ L.T + np.eye(m0))]:
        low = fields.VectorField(tuple(kinds[int(k)] for k in rng.integers(len(kinds), size=m0)))
        spec = OperatorSpec(
            system=system,
            a=a,
            a_low=low,
            b_low=low,
            c=kinds[int(rng.integers(len(kinds)))],
            mu=3.0,
            M_bound=2.0,
        )
        cfg = json.loads(json.dumps(spec_to_config(spec)))
        back = spec_from_config(cfg)
        assert spec_to_config(back) == cfg
        np.testing.assert_array_equal(back.system.B, system.B)
        assert back.system.structure == system.structure
        assert (back.a_low, back.b_low, back.c) == (spec.a_low, spec.b_low, spec.c)
        assert (back.mu, back.M_bound) == (spec.mu, spec.M_bound)
        x = rng.normal(size=system.d)
        np.testing.assert_array_equal(back.a(0.3, x), spec.a(0.3, x))
