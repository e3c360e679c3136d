"""Seeded property tests over random valid block structures.

Each structure has non-increasing block sizes with ``d <= 8``, random
full-rank subdiagonal couplings and random blocks on and above the
diagonal.  The paper's identities are checked at the tolerances the
hand-picked fixtures use.
"""

import functools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from kolmo import fields
from kolmo.chain import HarnackConfig, build_chain, verify_chain
from kolmo.control import ControlProblem, kappa_estimate, optimal_control, trajectory
from kolmo.exceptions import GramianError
from kolmo.gramian import (
    _doubling_gramian,
    dilation_scaling_defect,
    equivalence_constants,
    gramian,
    quadratic_form,
)
from kolmo.kernel import GaussianKernel, chapman_kolmogorov_residual
from kolmo.model import (
    BlockStructure,
    OperatorSpec,
    dilation_exponents,
    dilation_matrix,
    dilation_scales,
    homogeneous_dimension,
    homogeneous_system,
    kalman_rank,
    spec_from_config,
    spec_to_config,
    validate_structure,
)

from conftest import homogeneous_det_law_defect, oracle_gaps
from test_gramian import nilpotent_gramian
from test_kernel import assert_rows_equal_one_target_calls, bound_forms_both_ways

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


# Cascades of four or more levels.
DEEP_SEEDS = [seed for seed in SEEDS if random_system(seed)[0].structure.nu >= 3]


def _seeds_marked(mark, marked):
    return [pytest.param(seed, marks=[mark] if seed in marked else []) for seed in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_homogeneous_gramian_laws(seed):
    system, _ = random_system(seed)
    for tau in (1e-3, 1e-1, 1.0):
        assert dilation_scaling_defect(system, tau) <= 1e-10
        assert homogeneous_det_law_defect(system, tau) <= 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_dilated_homogeneous_gramian_matches_nilpotent_polynomial(seed):
    # The propagator reads C0(tau) in the dilated frame, where the laws above
    # hold by construction; the nilpotent polynomial is an independent oracle
    # for D^-1 C0(tau) D^-1, with D = D(sqrt(tau)).
    h_system = homogeneous_system(random_system(seed)[0])
    for tau in (1e-3, 1e-1, 1.0):
        inv = dilation_scales(h_system.structure, tau**-0.5)
        got = inv[:, None] * h_system.propagator.gramian(tau) * inv
        ref = inv[:, None] * nilpotent_gramian(h_system, tau) * inv
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("seed", SEEDS)
def test_doubling_gramian_matches_van_loan(seed):
    # The checked gramian's cross-check against the raw Van Loan C(t); the
    # largest gap measured over these structures is 1.1e-13.
    system, _ = random_system(seed)
    for t in (1e-3, 0.01, 0.1, 0.5, 1.0, 3.0):
        ref = system.propagator.gramian(t)
        assert np.abs(_doubling_gramian(system, t) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lost_definiteness_names_the_eigenvalues_not_the_coupling():
    # Seed 0 has full Kalman rank, yet at tau = 20 rounding leaves C(tau)
    # with a negative eigenvalue: the message reports the spectrum.
    system, _ = random_system(0)
    assert kalman_rank(system) == system.d
    with pytest.raises(GramianError) as exc:
        gramian(system, 20.0)
    message = str(exc.value)
    assert "rank-deficient" not in message
    C = system.propagator.gramian(20.0)
    eigs = np.linalg.eigvalsh(0.5 * (C + C.T))  # the symmetric part, as it is factored
    assert f"{eigs[0]:.3e}" in message and f"{eigs[-1]:.3e}" in message
    assert eigs[0] < 0


@pytest.mark.parametrize("seed", SEEDS)
def test_row_quadratic_form_matches_vector_calls(seed):
    system, rng = random_system(seed)
    g = system.propagator.factor(rng.uniform(0.1, 1.0))
    Z = rng.normal(size=(7, system.d))
    rows = quadratic_form(g, Z)
    assert rows.shape == (7,)
    np.testing.assert_allclose(rows, [quadratic_form(g, z) for z in Z], rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_row_aronson_form_is_one_target_calls_bit_for_bit(seed):
    system, rng = random_system(seed)
    for upper_rows, upper, *_ in bound_forms_both_ways(system, rng):
        np.testing.assert_array_equal(upper_rows, upper)


# The multi-column solve rounds the lower form's exponent by about
# cond(L) * 1e-16 relative: within 1e-14 where the Cholesky factor's
# condition number is below about 1e3, and up to 6e-14 on seed 20
# (cond 7e5).  At T - t = 0.6 the dilated frame barely helps: the dilated
# factor's condition number is still 2.7e3 to 6.5e4 on these five seeds.
_ILL_CONDITIONED = pytest.mark.xfail(
    strict=False, reason="C(tau) ill-conditioned in original coordinates for nu >= 3"
)


@pytest.mark.parametrize("seed", _seeds_marked(_ILL_CONDITIONED, [11, 16, 20, 21, 23]))
def test_row_bound_forms_match_one_target_calls(seed):
    system, rng = random_system(seed)
    for forms in bound_forms_both_ways(system, rng):
        assert_rows_equal_one_target_calls(*forms)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_flows_are_flow_bit_for_bit(seed):
    system, rng = random_system(seed)
    prop = system.propagator
    grid = rng.uniform(1e-4, 1.0, size=20)
    before = prop._at.cache_info()
    flows = prop.flows(grid)
    assert prop._at.cache_info() == before
    for s, F in zip(grid, flows):
        np.testing.assert_array_equal(F, prop.flow(s))


# A constant, a time sinusoid and a 4-point time table, positive on [0, 1].
STRENGTHS = [
    fields.ConstantField(0.8),
    fields.TimeSinusoidField(1.25, 0.75, 1.3, 0.4),
    fields.TabulatedField((0.0, 0.3, 0.6, 0.9), (0.5, 2.0, 1.0, 1.5)),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_chapman_kolmogorov_composition(seed):
    system, _ = random_system(seed)
    for lam in STRENGTHS:
        assert chapman_kolmogorov_residual(GaussianKernel(system, lam), 0.05, 0.42, 0.97) <= 1e-13


def test_chapman_kolmogorov_in_five_dimensions(deep221):
    for lam in STRENGTHS:
        assert chapman_kolmogorov_residual(GaussianKernel(deep221, lam), 0.05, 0.42, 0.97) <= 1e-13


TAUS = (0.1, 0.5, 1.0)


def _form_ratios(system, tau, Z):
    """``<C^-1 z, z> / <C0^-1 z, z>`` at the rows of ``Z``."""
    g0 = homogeneous_system(system).propagator.factor(tau)
    return quadratic_form(system.propagator.factor(tau), Z) / quadratic_form(g0, Z)


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_constants_bound_every_direction(seed):
    system, rng = random_system(seed)
    k5, k6 = equivalence_constants(system, TAUS).k_quadratic
    for tau in TAUS:
        ratios = _form_ratios(system, tau, rng.normal(size=(10_000, system.d)))
        assert ratios.min() >= k5 * (1 - 1e-9)
        assert ratios.max() <= k6 * (1 + 1e-9)


@pytest.mark.parametrize("seed", [seed for seed in SEEDS if seed not in DEEP_SEEDS])
def test_pencil_eigenvectors_attain_the_constants(seed):
    # With C0 = L0 L0^T, the eigenvectors u of L0^-1 C L0^-T give the
    # directions z = L0 u where the ratio is extreme.
    system, _ = random_system(seed)
    k5, k6 = equivalence_constants(system, TAUS).k_quadratic
    attained = []
    for tau in TAUS:
        L0 = homogeneous_system(system).propagator.factor(tau).chol
        L0_inv = np.linalg.inv(L0)
        _, U = np.linalg.eigh(L0_inv @ system.propagator.gramian(tau) @ L0_inv.T)
        attained.append(_form_ratios(system, tau, (L0 @ U).T))
    attained = np.concatenate(attained)
    assert abs(attained.min() - k5) <= 1e-12 * k5
    assert abs(attained.max() - k6) <= 1e-12 * k6


@functools.lru_cache(maxsize=None)
def steered_chain(seed):
    """A chain over ``[0, 1]`` whose steering energy is 58 budgets: exponent 60."""
    system, rng = random_system(seed)
    cfg = HarnackConfig(C_harnack=10.0, beta=0.5, r=0.4, tau=1.0, kappa=kappa_estimate(system))
    x = rng.normal(size=system.d)
    offset = rng.normal(size=system.d)
    offset *= math.sqrt(58 * cfg.epsilon / quadratic_form(system.propagator.factor(1.0), offset))
    problem = ControlProblem(system, 0.0, 1.0, x, system.propagator.flow(1.0) @ x + offset)
    return build_chain(problem, cfg)


# Seed 20's C(1) has condition number 5.7e9, so the steering solve's w
# spends w^T C(1) w = V (1 + 2.3e-11): about 1.3e-9 of a budget beyond the
# 58 the offset was scaled to.  The last step, whose stop falls within the
# 1e-9 snap of T, carries it.
_DEEP_CHAIN = pytest.mark.xfail(
    strict=False,
    reason="steering solve on an ill-conditioned C(1) overspends V (ROADMAP item 2)",
)


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_invariants(seed):
    chain = steered_chain(seed)
    assert chain.J <= math.ceil(chain.exponent) + 1
    np.testing.assert_array_equal(chain.points[0], chain.problem.x)
    np.testing.assert_array_equal(chain.points[-1], chain.problem.y)
    assert chain.times[-1] == chain.problem.T


@pytest.mark.parametrize("seed", _seeds_marked(_DEEP_CHAIN, [20]))
def test_chain_step_costs_within_budget(seed):
    chain = steered_chain(seed)
    assert max(step.cost for step in chain.steps) <= chain.config.epsilon * (1 + 1e-9)


# The first three shallow seeds with more than one block.
@pytest.mark.parametrize("seed", [0, 2, 4])
def test_chain_stops_match_bisection_oracle(seed):
    cost_steps = [s for s in steered_chain(seed).steps if s.clause == "cost-budget"]
    assert max(oracle_gaps(steered_chain(seed), cost_steps[::20] + cost_steps[-1:])) <= 2e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_verifies(seed):
    assert verify_chain(steered_chain(seed))


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
