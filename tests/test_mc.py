import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from kolmo import fields
from kolmo.exceptions import CoefficientError, SettingError
from kolmo.gramian import Propagator, gramian_weighted
from kolmo.kernel import GaussianKernel
from kolmo.model import dilation_scales, sigma_matrix, validate_structure
from kolmo.mc import (
    SimConfig,
    _chunk_generator,
    _lane_count,
    _run_lanes,
    _step_grid,
    estimate_density,
    mass_concentration,
    route,
    simulate_paths,
    summarize_paths,
    verify_bounds,
)

from conftest import make_spec, mass_concentration_dual, sinusoid_spec
from test_random_structures import SEEDS, random_system

FIXTURES = ["heat1d", "langevin", "kinetic21", "deep221", "starful"]
# Not a multiple of the 2**14-path chunk: the last chunk is partly kept.
N_ODD = 2 * 2**14 + 123


def cov_stderr(C, n):
    """Entrywise standard error of a Gaussian sample covariance."""
    d = C.shape[0]
    out = np.empty_like(C)
    for i in range(d):
        for j in range(d):
            out[i, j] = np.sqrt((C[i, i] * C[j, j] + C[i, j] ** 2) / n)
    return out


def count_exponentials(monkeypatch):
    """Patch every kolmo module's ``expm``; the list gets each call's number of matrices."""
    matrices = []
    for name, module in list(sys.modules.items()):
        if name.startswith("kolmo.") and hasattr(module, "expm"):

            def counting(M, *args, expm=module.expm, **kwargs):
                matrices.append(len(M) if np.ndim(M) == 3 else 1)
                return expm(M, *args, **kwargs)

            monkeypatch.setattr(module, "expm", counting)
    return matrices


def space_spec(system, amplitude=0.1):
    """Isotropic strength ``1 + 2 amplitude sin(2 pi <wave, x>)``: the stepped route."""
    wave = tuple(0.5 / (i + 1) for i in range(system.d))
    a = fields.IsotropicMatrixField(
        fields.SpaceSinusoidField(base=0.5, amplitude=amplitude, wave=wave), system.m0
    )
    return make_spec(system, a=a, mu=2.5)


def box_mass(C, h):
    """Mass of ``N(0, C)``, C 2x2, on the box ``|z|_inf <= h/2``.

    Integrates the conditional normal CDF of ``z1`` given ``z0`` over ``z0``
    by 32-point Gauss-Legendre.
    """
    slope = C[1, 0] / C[0, 0]
    cond_sd = np.sqrt(C[1, 1] - C[1, 0] * slope)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    x0 = 0.5 * h * nodes
    inner = ndtr((0.5 * h - slope * x0) / cond_sd) - ndtr((-0.5 * h - slope * x0) / cond_sd)
    outer = np.exp(-0.5 * x0**2 / C[0, 0]) / np.sqrt(2 * np.pi * C[0, 0])
    return 0.5 * h * np.sum(weights * outer * inner)


class TestSimulatePaths:
    def test_brownian_moments(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        config = SimConfig(n_paths=200_000, n_steps=1, seed=101)
        X = simulate_paths(spec, 0.0, [0.3], 1.0, config)
        assert abs(X.mean() - 0.3) <= 3 * X.std() / np.sqrt(len(X))
        var = X.var()
        assert abs(var - 1.0) <= 3 * np.sqrt(2.0 / len(X))

    def test_langevin_endpoint_covariance(self, langevin):
        spec = make_spec(langevin, lam=1.0)
        config = SimConfig(n_paths=200_000, n_steps=3, seed=202)
        X = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
        C_hat = np.cov(X.T)
        C = langevin.propagator.gramian(1.0)
        np.testing.assert_array_less(np.abs(C_hat - C), 3 * cov_stderr(C, len(X)) + 1e-12)
        mean_se = np.sqrt(np.diag(C) / len(X))
        assert np.all(np.abs(X.mean(axis=0)) <= 3 * mean_se)

    def test_step_count_invariance_constant_coefficients(self, langevin):
        # The per-step transition is exact for constant coefficients, so
        # one step and many steps sample the same distribution.
        spec = make_spec(langevin, lam=1.5)
        X1 = simulate_paths(spec, 0.0, [0.1, 0.2], 1.0, SimConfig(50_000, 1, seed=7))
        X2 = simulate_paths(spec, 0.0, [0.1, 0.2], 1.0, SimConfig(50_000, 64, seed=8))
        C = 1.5 * langevin.propagator.gramian(1.0)
        se = cov_stderr(C, 50_000)
        np.testing.assert_array_less(np.abs(np.cov(X1.T) - np.cov(X2.T)), 6 * se)
        mean_se = np.sqrt(np.diag(C) / 50_000)
        assert np.all(np.abs(X1.mean(0) - X2.mean(0)) <= 6 * mean_se)

    def test_seed_reproducibility(self, langevin):
        spec = make_spec(langevin, lam=1.0)
        config = SimConfig(n_paths=10_000, n_steps=4, seed=999)
        X1 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
        X2 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
        assert np.array_equal(X1, X2)
        X3 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(10_000, 4, seed=1000))
        assert not np.array_equal(X1, X3)

    def test_path_prefix_independent_of_count(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X1 = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(50, 2, seed=5))
        X2 = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(100, 2, seed=5))
        assert np.array_equal(X1, X2[:50])

    def test_worker_count_does_not_change_endpoints(self, langevin, monkeypatch):
        spec = make_spec(langevin, lam=1.0)
        config = SimConfig(n_paths=40_000, n_steps=2, seed=44)
        X1 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
        monkeypatch.setenv("KOLMO_THREADS", "4")
        X2 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, config)
        assert np.array_equal(X1, X2)

    def test_stepped_route_prefix_and_worker_count(self, langevin, monkeypatch):
        # Space-dependent diffusion takes the stepped route.
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.1, wave=(0.5, 0.25)), 1
        )
        spec = make_spec(langevin, a=a, mu=2.5)
        X1 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(40_000, 2, seed=44))
        assert np.array_equal(
            X1[:50], simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(50, 2, seed=44))
        )
        monkeypatch.setenv("KOLMO_THREADS", "4")
        X2 = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(40_000, 2, seed=44))
        assert np.array_equal(X1, X2)

    def test_lower_order_drift_shifts_mean(self, heat1d):
        shift = fields.VectorField((fields.ConstantField(0.7),))
        spec = make_spec(heat1d, lam=1.0, a_low=shift, M_bound=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(100_000, 8, seed=55))
        assert abs(X.mean() - 0.7) <= 3 / np.sqrt(len(X)) + 1e-12

    def test_time_sinusoid_strength_matches_weighted_gramian(self, heat1d):
        spec = sinusoid_spec(heat1d)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(100_000, 256, seed=66))
        lam = fields.TimeSinusoidField(base=1.25, amplitude=0.75)
        target = gramian_weighted(heat1d, lam, 0.0, 1.0).C[0, 0]
        assert abs(X.var() - target) <= 3 * np.sqrt(2.0 / len(X)) * target

    @pytest.mark.parametrize("make", [make_spec, sinusoid_spec], ids=["constant", "sinusoid"])
    def test_one_shot_ignores_step_count(self, langevin, make):
        spec = make(langevin)
        X1 = simulate_paths(spec, 0.0, [0.1, 0.2], 1.0, SimConfig(20_000, 1, seed=9))
        X64 = simulate_paths(spec, 0.0, [0.1, 0.2], 1.0, SimConfig(20_000, 64, seed=9))
        assert np.array_equal(X1, X64)

    def test_one_shot_time_sinusoid_deep_cascade(self, deep221):
        # One step draws from the exact law, not the strength frozen at t.
        spec = sinusoid_spec(deep221)
        X = simulate_paths(spec, 0.0, np.zeros(5), 1.0, SimConfig(200_000, 1, seed=31))
        lam = fields.TimeSinusoidField(base=1.25, amplitude=0.75)
        C = gramian_weighted(deep221, lam, 0.0, 1.0).C
        np.testing.assert_array_less(np.abs(np.cov(X.T) - C), 6 * cov_stderr(C, len(X)))

    def test_one_shot_constant_matrix_covariance(self, kinetic21):
        a = np.array([[0.6, 0.2], [0.2, 0.4]])
        spec = make_spec(kinetic21, a=fields.ConstantMatrixField(a), mu=5.0)
        X = simulate_paths(spec, 0.3, np.zeros(3), 1.1, SimConfig(200_000, 16, seed=32))
        # B is nilpotent: e^(sB) = I + sB, so C(tau) is a cubic in tau.
        B, Q, tau = kinetic21.B, np.zeros((3, 3)), 0.8
        Q[:2, :2] = 2.0 * a
        C = tau * Q + tau**2 / 2 * (B @ Q + Q @ B.T) + tau**3 / 3 * (B @ Q @ B.T)
        np.testing.assert_array_less(np.abs(np.cov(X.T) - C), 4 * cov_stderr(C, len(X)))

    def test_one_shot_constant_drift_mean(self, langevin):
        low = fields.VectorField((fields.ConstantField(0.2),))
        high = fields.VectorField((fields.ConstantField(0.3),))
        spec = make_spec(langevin, a_low=low, b_low=high, M_bound=1.0)
        x, tau, b = np.array([0.4, -0.1]), 0.7, 0.5
        X = simulate_paths(spec, 0.2, x, 0.2 + tau, SimConfig(200_000, 16, seed=33))
        # e^(tau B) x + int_0^tau e^(uB) sigma du b for B = [[0, 0], [1, 0]].
        mean = np.array([x[0] + tau * b, x[1] + tau * x[0] + tau**2 / 2 * b])
        se = np.sqrt(np.diag(langevin.propagator.gramian(tau)) / len(X))
        assert np.all(np.abs(X.mean(axis=0) - mean) <= 4 * se)

    def test_stepped_strength_not_finite_rejected(self, langevin):
        # Far out the sinusoid's phase overflows and the strength is NaN,
        # which a test for values not above zero would let through.
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.1, wave=(0.5, 0.25)), 1
        )
        spec = make_spec(langevin, a=a, mu=2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(CoefficientError, match="not finite at s=0.0"):
                simulate_paths(spec, 0.0, [1e308, 1e308], 1.0, SimConfig(100, 4, seed=3))

    def test_one_shot_strength_negative_between_steps(self, heat1d):
        # 0.05 + sin(2 pi s + pi/2) is positive at s = 0 and negative at s = 0.5.
        a = fields.IsotropicMatrixField(
            fields.TimeSinusoidField(base=0.05, amplitude=1.0, phase=np.pi / 2), 1
        )
        spec = make_spec(heat1d, a=a, mu=40.0)
        with pytest.raises(CoefficientError):
            simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(10, 1, seed=1))

    def test_one_shot_matrix_not_positive_definite(self, kinetic21):
        # A matrix strength's law fails to factor as a time-only one does.
        a = fields.ConstantMatrixField(np.array([[0.5, 0.0], [0.0, -0.1]]))
        spec = make_spec(kinetic21, a=a, mu=10.0)
        with pytest.raises(CoefficientError, match="diffusion strength"):
            simulate_paths(spec, 0.0, np.zeros(3), 1.0, SimConfig(10, 1, seed=1))

    def test_stepped_and_one_shot_routes_agree(self, heat1d):
        # A zero-amplitude space sinusoid is a constant the stepped route runs.
        stepped = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.0, wave=(1.0,)), 1
        )
        one_shot = fields.IsotropicMatrixField(fields.ConstantField(0.5), 1)
        n = 100_000
        Xs = simulate_paths(make_spec(heat1d, a=stepped), 0.0, [0.2], 1.0, SimConfig(n, 16, seed=34))
        Xo = simulate_paths(make_spec(heat1d, a=one_shot), 0.0, [0.2], 1.0, SimConfig(n, 16, seed=35))
        assert abs(Xs.mean() - Xo.mean()) <= 4 * np.sqrt(2.0 / n)
        assert abs(Xs.var() - Xo.var()) <= 4 * np.sqrt(4.0 / n)

    @pytest.mark.parametrize("n_steps", [4, 16])
    @pytest.mark.parametrize("name", ["langevin", "kinetic21"])
    def test_space_dependent_step_is_unbiased(self, request, name, n_steps):
        # A zero-amplitude space sinusoid is the constant strength 1 in
        # disguise, so every frozen step is exact and the endpoint
        # covariance is C(tau) at any step count.
        system = request.getfixturevalue(name)
        spec = space_spec(system, amplitude=0.0)
        n = 100_000
        X = simulate_paths(spec, 0.2, np.zeros(system.d), 1.0, SimConfig(n, n_steps, seed=36))
        C = 2.0 * 0.5 * system.propagator.gramian(0.8)
        np.testing.assert_array_less(np.abs(np.cov(X.T) - C), 6 * cov_stderr(C, n))

    def test_space_sinusoid_runs_with_analytic_divergence(self, heat1d):
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.1, wave=(1.0,)), 1
        )
        spec = make_spec(heat1d, a=a, mu=2.5)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(20_000, 64, seed=77))
        # Variance bracketed by the extreme diffusion strengths 2a.
        assert 0.8 * 0.8 <= X.var() <= 1.2 * 1.2

    def test_rejects_zeroth_order_coefficient(self, heat1d):
        spec = make_spec(heat1d, c=fields.ConstantField(0.5))
        with pytest.raises(ValueError):
            simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(10, 1, seed=1))

    def test_rejects_tabulated_space_diffusion(self, heat1d):
        a = fields.IsotropicMatrixField(
            fields.TabulatedField(points=(0.0, 1.0), values=(0.5, 1.0), axis=0), 1
        )
        spec = make_spec(heat1d, a=a)
        with pytest.raises(CoefficientError):
            simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(10, 1, seed=1))

    def test_rejects_bad_horizon(self, heat1d):
        with pytest.raises(ValueError):
            simulate_paths(make_spec(heat1d), 1.0, [0.0], 1.0, SimConfig(10, 1, seed=1))

    def test_stepped_run_exponentiates_two_matrices_per_step_length(self, monkeypatch):
        # Per distinct step length, one exponential gives the step's flow and
        # its input response, and one its covariance factor; a homogeneous
        # drift's covariance factors share one exponential.
        horizons = [0.25, 1.0]  # 2 steps of 0.125, then 8 of 0.09375
        _, lengths, _ = _step_grid(0.0, horizons, 10)
        assert len(set(lengths)) == 2
        matrices = count_exponentials(monkeypatch)
        for B, covariances in (([[1.0, 0.0], [1.0, 0.0]], 2), ([[0.0, 0.0], [1.0, 0.0]], 1)):
            system = validate_structure(B, [1, 1])  # empty caches
            matrices.clear()
            config = SimConfig(100, 10, seed=1)
            simulate_paths(space_spec(system), 0.0, np.zeros(2), horizons, config)
            assert sum(matrices) == len(set(lengths)) + covariances


class TestSnapshots:
    """One run, many end times: each slice is the run stopped at its horizon."""

    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("name", ["langevin", "kinetic21"])
    def test_stepped_slices_equal_shorter_runs(self, request, monkeypatch, name, threads):
        monkeypatch.setenv("KOLMO_THREADS", threads)
        system = request.getfixturevalue(name)
        spec = space_spec(system)
        t, T, x = -0.3, 0.5, np.linspace(0.1, -0.2, system.d)
        tau = T - t
        horizons = [t + 0.25 * tau, t + 0.5 * tau, T]
        runs = simulate_paths(spec, t, x, horizons, SimConfig(N_ODD, 16, seed=41))
        assert runs.shape == (3, N_ODD, system.d)
        # The 16-step grid puts the horizons after 4, 8 and 16 steps.
        for k, h, run in zip((4, 8), horizons, runs):
            alone = simulate_paths(spec, t, x, h, SimConfig(N_ODD, k, seed=41))
            np.testing.assert_allclose(run, alone, rtol=1e-12, atol=1e-14)
        whole = simulate_paths(spec, t, x, T, SimConfig(N_ODD, 16, seed=41))
        assert np.array_equal(runs[-1], whole)

    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize(
        "spec_of",
        [
            make_spec,
            sinusoid_spec,
            lambda s: make_spec(
                s, b_low=fields.VectorField(tuple(fields.ConstantField(0.3) for _ in range(s.m0))),
                M_bound=1.0,
            ),
        ],
        ids=["constant", "sinusoid", "drift"],
    )
    def test_one_shot_slices_equal_separate_calls(self, kinetic21, monkeypatch, spec_of, threads):
        monkeypatch.setenv("KOLMO_THREADS", threads)
        spec = spec_of(kinetic21)
        t, x, config = 0.1, np.array([0.2, -0.1, 0.3]), SimConfig(N_ODD, 16, seed=42)
        horizons = (0.2, 0.35, 0.9)
        runs = simulate_paths(spec, t, x, horizons, config)
        for h, run in zip(horizons, runs):
            assert np.array_equal(run, simulate_paths(spec, t, x, h, config))

    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_uneven_step_counts_end_a_step_at_each_horizon(self, langevin, n_steps):
        t, T = -0.3, 0.5
        horizons = [t + 0.2, t + 0.4, T]
        starts, lengths, ends = _step_grid(t, horizons, n_steps)
        assert len(starts) == len(lengths) == ends[-1] >= n_steps
        assert all(a < b for a, b in zip([0, *ends], ends))  # no stretch without a step
        step_ends = starts + np.array(lengths)
        np.testing.assert_allclose(step_ends[np.array(ends) - 1], horizons, rtol=0, atol=1e-15)
        np.testing.assert_allclose(starts[1:], step_ends[:-1], rtol=0, atol=1e-15)
        # The first horizon's slice is a run of its own steps.
        spec = space_spec(langevin)
        x = np.array([0.1, -0.2])
        runs = simulate_paths(spec, t, x, horizons, SimConfig(N_ODD, n_steps, seed=43))
        alone = simulate_paths(spec, t, x, horizons[0], SimConfig(N_ODD, ends[0], seed=43))
        np.testing.assert_allclose(runs[0], alone, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_uneven_step_counts_sample_each_horizon(self, langevin, n_steps):
        # Exact frozen steps (zero amplitude): every slice has the law at its horizon.
        spec = space_spec(langevin, amplitude=0.0)
        horizons = [0.2, 0.4, 1.0]
        n = 100_000
        runs = simulate_paths(spec, 0.0, np.zeros(2), horizons, SimConfig(n, n_steps, seed=44))
        for h, run in zip(horizons, runs):
            C = langevin.propagator.gramian(h)
            np.testing.assert_array_less(np.abs(np.cov(run.T) - C), 6 * cov_stderr(C, n))

    def test_uniform_grid_when_horizons_lie_on_it(self):
        t, T = -0.4, 0.6
        starts, lengths, ends = _step_grid(t, [t + 0.25, t + 0.5, T], 16)
        dt = (T - t) / 16
        assert np.array_equal(starts, t + dt * np.arange(16))
        assert lengths == [dt] * 16 and ends == [4, 8, 16]

    @pytest.mark.parametrize("T", [[0.5, 0.5], [0.7, 0.5], [0.0, 0.5], [], [[0.5]]])
    def test_rejects_bad_horizons(self, heat1d, T):
        with pytest.raises(ValueError):
            simulate_paths(make_spec(heat1d), 0.0, [0.0], T, SimConfig(10, 4, seed=1))


class TestLanes:
    """Chunks run on lanes; nothing a lane computes depends on how many there are."""

    @pytest.mark.parametrize("route", ["one-shot", "stepped"])
    def test_endpoints_independent_of_lane_count(self, langevin, monkeypatch, route):
        spec = make_spec(langevin) if route == "one-shot" else space_spec(langevin)
        x, horizons, config = np.array([0.1, -0.2]), [0.25, 0.5, 1.0], SimConfig(N_ODD, 8, seed=45)
        monkeypatch.delenv("KOLMO_THREADS", raising=False)
        reference = simulate_paths(spec, 0.0, x, horizons, config)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("KOLMO_THREADS", threads)
            assert np.array_equal(simulate_paths(spec, 0.0, x, horizons, config), reference)

    def test_lane_count(self, monkeypatch):
        monkeypatch.delenv("KOLMO_THREADS", raising=False)
        assert _lane_count(10_000) == len(os.sched_getaffinity(0))
        assert _lane_count(1) == 1
        monkeypatch.setenv("KOLMO_THREADS", "1000")
        assert _lane_count(3) == 3  # never more lanes than chunks
        monkeypatch.setenv("KOLMO_THREADS", " 2 ")
        assert _lane_count(3) == 2

    def test_lane_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("KOLMO_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _lane_count(4) == 4 and _lane_count(9) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _lane_count(9) == 1

    @pytest.mark.parametrize("threads", ["0", "-3", "2.5", "many", ""])
    def test_malformed_thread_count_rejected(self, heat1d, monkeypatch, threads):
        monkeypatch.setenv("KOLMO_THREADS", threads)
        with pytest.raises(SettingError, match="KOLMO_THREADS"):
            _lane_count(4)
        with pytest.raises(SettingError, match="KOLMO_THREADS"):
            simulate_paths(make_spec(heat1d), 0.0, [0.0], 1.0, SimConfig(10, 1, seed=1))

    def test_error_in_a_helper_lane_propagates(self):
        helper_failed = threading.Event()

        def run_chunk(index, rows):
            if threading.current_thread() is threading.main_thread():
                helper_failed.wait(timeout=10)  # the helper lane takes the next chunk
            else:
                helper_failed.set()
                raise CoefficientError(f"chunk {index}")

        with pytest.raises(CoefficientError, match="chunk"):
            _run_lanes(run_chunk, [(c, None) for c in range(50)], 2)
        assert helper_failed.is_set()

    def test_every_chunk_runs_once_under_contention(self):
        # More lanes than cores and a short switch interval: a chunk taken
        # twice or never would show in its count.
        runs = np.zeros(2000, dtype=int)

        def run_chunk(index, rows):
            runs[index] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_lanes(run_chunk, [(c, None) for c in range(len(runs))], 8)
        finally:
            sys.setswitchinterval(interval)
        assert runs.tolist() == [1] * len(runs)

    def test_earliest_error_is_raised(self, langevin, monkeypatch):
        # The strength turns negative in the tails, which every chunk reaches
        # at some step; each lane count raises what one lane raises.
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.6, wave=(0.5, 0.25)), 1
        )
        spec = make_spec(langevin, a=a, mu=2.5)
        config = SimConfig(4 * 2**14, 16, seed=46)
        messages = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("KOLMO_THREADS", threads)
            with pytest.raises(CoefficientError, match="not positive") as err:
                simulate_paths(spec, 0.0, [0.0, 0.0], 4.0, config)
            messages.add(str(err.value))
        assert len(messages) == 1


class TestSummarizePaths:
    """Chunk reductions merged in chunk order: the statistics of `simulate_paths`' endpoints."""

    ROUTES = {
        "one-shot-deep221-sinusoid": ("deep221", sinusoid_spec),
        "one-shot-langevin-constant": ("langevin", make_spec),
        "stepped-kinetic21-space": ("kinetic21", space_spec),
    }

    # 200,003 paths end in a partial chunk; 5,000 are less than one chunk.
    @pytest.mark.parametrize("n", [200_003, 5_000])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_matches_the_endpoint_matrix(self, request, monkeypatch, route, n):
        name, spec_of = self.ROUTES[route]
        spec = spec_of(request.getfixturevalue(name))
        d = spec.system.d
        t, T, x, config = 0.1, 0.8, np.linspace(0.1, -0.2, d), SimConfig(n, 16, seed=47)
        X = simulate_paths(spec, t, x, T, config)
        y = X[0] + 0.05
        mean_ref, cov_ref = X.mean(axis=0), np.cov(X.T)
        density_ref = estimate_density(X, y, 0.3, spec.structure, T - t)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("KOLMO_THREADS", threads)
            runs.append(summarize_paths(spec, t, x, T, config, y, bandwidth=0.3))
        for mean, cov, density in runs:
            sd = np.sqrt(np.diag(cov_ref))
            np.testing.assert_allclose(mean, mean_ref, rtol=1e-12, atol=1e-12 * sd.max())
            np.testing.assert_allclose(cov, cov_ref, rtol=1e-12, atol=1e-12 * np.abs(cov_ref).max())
            assert density.n_hits == density_ref.n_hits > 0
            assert density == density_ref
        # The merge runs in chunk order, so the lane count changes no bit.
        assert all(np.array_equal(a, b) for a, b in zip(runs[0][:2], runs[1][:2]))

    @pytest.mark.parametrize(
        "route",
        [
            ("one-shot-heat1d", "heat1d", make_spec),
            ("stepped-kinetic21-space", "kinetic21", space_spec),
        ],
        ids=lambda route: route[0],
    )
    def test_lane_buffers_under_contention(self, request, monkeypatch, route):
        # More lanes than cores and a short switch interval: a buffer shared
        # between lanes, or a chunk's result lost, would change the result.
        _, name, spec_of = route
        spec = spec_of(request.getfixturevalue(name))
        config = SimConfig(40 * 2**14 - 7, 1, seed=49)
        x, y = [0.2] * spec.system.d, [0.3] * spec.system.d
        monkeypatch.setenv("KOLMO_THREADS", "1")
        reference = summarize_paths(spec, 0.0, x, 1.0, config, y=y)
        monkeypatch.setenv("KOLMO_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            contended = summarize_paths(spec, 0.0, x, 1.0, config, y=y)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(reference[:2], contended[:2]))
        assert contended[2] == reference[2]

    # Less than one chunk, and two chunks the second of which is partly kept.
    @pytest.mark.parametrize("n", [1_000, 2**14 + 77])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_shot_random_structures(self, seed, n):
        # Constant isotropic diffusion over the horizon 1: every path is
        # ``mean + chol Z`` from its chunk's own normals, whatever the layout
        # the lanes hold the chunk in.
        system, rng = random_system(seed)
        spec, d = make_spec(system), system.d
        x, config = rng.uniform(-1.0, 1.0, d), SimConfig(n, 1, seed=50 + seed)
        law = route(spec).law
        mean, cov = law.mean(0.0, x, 1.0), law.covariance(0.0, 1.0)
        X = simulate_paths(spec, 0.0, x, 1.0, config)
        for c in range(-(-n // 2**14)):
            Z = _chunk_generator(config.seed, c).standard_normal((min(2**14, n - c * 2**14), d))
            # A d-term sum rounds by at most (d + 1) eps of its summed
            # magnitudes, and d <= 8.
            bound = 1e-14 * (np.abs(mean) + np.abs(Z) @ np.abs(cov.chol).T)
            block = X[c * 2**14 : (c + 1) * 2**14]
            assert np.all(np.abs(block - (mean + Z @ cov.chol.T)) <= bound)
        y = X[0] + 0.05
        summary = summarize_paths(spec, 0.0, x, 1.0, config, y, bandwidth=1.0)
        mean_ref, cov_ref = X.mean(axis=0), np.cov(X.T)
        sd = np.sqrt(np.diag(cov_ref))
        np.testing.assert_allclose(summary[0], mean_ref, rtol=1e-12, atol=1e-12 * sd.max())
        np.testing.assert_allclose(
            summary[1], cov_ref, rtol=1e-12, atol=1e-12 * np.abs(cov_ref).max()
        )
        assert summary[2] == estimate_density(X, y, 1.0, spec.structure, 1.0)

    def test_without_target_no_density(self, langevin):
        mean, cov, density = summarize_paths(
            make_spec(langevin), 0.0, [0.1, -0.2], 1.0, SimConfig(3000, 1, seed=48)
        )
        assert density is None and mean.shape == (2,) and cov.shape == (2, 2)

    def test_rejects_what_has_no_summary(self, langevin):
        spec, x = make_spec(langevin), [0.0, 0.0]
        with pytest.raises(ValueError, match="n_paths >= 2"):
            summarize_paths(spec, 0.0, x, 1.0, SimConfig(1, 1, seed=1))
        with pytest.raises(ValueError, match="one end time"):
            summarize_paths(spec, 0.0, x, [0.5, 1.0], SimConfig(10, 1, seed=1))
        with pytest.raises(ValueError, match="increasing end times"):
            summarize_paths(spec, 0.0, x, 0.0, SimConfig(10, 1, seed=1))
        with pytest.raises(ValueError, match="target"):
            summarize_paths(spec, 0.0, x, 1.0, SimConfig(10, 1, seed=1), y=[0.0])
        for h in (0.0, np.nan):
            with pytest.raises(ValueError, match="bandwidth"):
                summarize_paths(spec, 0.0, x, 1.0, SimConfig(10, 1, seed=1), y=x, bandwidth=h)


def full_scan_hits(endpoints, y, h, structure, horizon):
    """Rows inside the box, by testing every coordinate of every row."""
    scale = dilation_scales(structure, horizon**-0.5)
    return sum(
        all(abs((row[j] - y[j]) * scale[j]) <= h / 2.0 for j in range(len(row)))
        for row in endpoints
    )


def box_endpoints(structure, y, h, horizon, rng, n=600):
    """Rows in and around the box at ``y``, a third of their coordinates on a face."""
    half = (h / 2.0) / dilation_scales(structure, horizon**-0.5)
    X = y + rng.uniform(-1.5, 1.5, size=(n, len(y))) * half
    faces = rng.random(X.shape) < 1 / 3
    X[faces] = (y + rng.choice([-1.0, 1.0], size=X.shape) * half)[faces]
    return X


class TestEstimateDensity:
    def test_standard_normal_value(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(400_000, 1, seed=11))
        est = estimate_density(X, [0.0], 0.1, heat1d.structure, 1.0)
        assert abs(est.value - 1 / np.sqrt(2 * np.pi)) <= 3 * est.stderr + 2e-4

    def test_deep_tail_no_hits(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(100_000, 1, seed=12))
        est = estimate_density(X, [12.0], 0.1, heat1d.structure, 1.0)
        assert est.n_hits == 0 and est.value == 0.0

    def test_bandwidth_halving_doubles_stderr(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(400_000, 1, seed=13))
        e1 = estimate_density(X, [0.0], 0.2, heat1d.structure, 1.0)
        e2 = estimate_density(X, [0.0], 0.1, heat1d.structure, 1.0)
        assert 1.2 <= e2.stderr / e1.stderr <= 2.5
        assert abs(e1.value - e2.value) <= 3 * (e1.stderr + e2.stderr)

    def test_anisotropic_box_langevin(self, langevin):
        spec = make_spec(langevin, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(400_000, 2, seed=14))
        h = 0.25
        est = estimate_density(X, [0.0, 0.0], h, langevin.structure, 1.0)
        # The box's exact Gaussian mass over its volume: the box averages the
        # point density sqrt(12)/(2 pi) down by 4%.  The mass integrates the
        # conditional normal CDF of x1 given x0 over x0 by Gauss-Legendre.
        exact = box_mass(langevin.propagator.gramian(1.0), h) / h**2
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_input_validation(self, heat1d):
        with pytest.raises(ValueError):
            estimate_density(np.empty((0, 1)), [0.0], 0.1, heat1d.structure, 1.0)
        for h in (0.0, np.nan):
            with pytest.raises(ValueError, match="bandwidth"):
                estimate_density(np.zeros((5, 1)), [0.0], h, heat1d.structure, 1.0)

    @pytest.mark.parametrize("horizon", [1.0, 0.25, 0.37])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_prefilter_counts_equal_full_scan_fixtures(self, request, name, horizon):
        structure = request.getfixturevalue(name).structure
        self._check_counts(structure, horizon, np.random.default_rng(len(name)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefilter_counts_equal_full_scan_random(self, seed):
        system, rng = random_system(seed)
        for horizon in (1.0, 0.25, 0.37):
            self._check_counts(system.structure, horizon, rng)

    @staticmethod
    def _check_counts(structure, horizon, rng):
        d = structure.d
        # Dyadic targets and bandwidths: at horizons 1 and 1/4 the scales are
        # powers of two, so face rows sit exactly on the box faces.
        y = rng.integers(-8, 9, size=d) / 8.0
        # Far out on the first axis, the face rows' first coordinates round
        # on ulps of |y0|: the sorted windows must still hold every hit.
        far = y + np.eye(d)[0] * 1e6
        for h, sign in ((0.5, 1.0), (0.125, -1.0)):
            far[0] = sign * abs(far[0])
            X = np.vstack([box_endpoints(structure, c, h, horizon, rng) for c in (y, far)])
            est = estimate_density(X, y, h, structure, horizon)
            assert est.n_hits == full_scan_hits(X, y, h, structure, horizon)
            targets = np.array([y, far, y + 0.5 * h, far - 0.5 * h])
            rows = estimate_density(X, targets, h, structure, horizon)
            full = [full_scan_hits(X, target, h, structure, horizon) for target in targets]
            assert rows.n_hits.tolist() == full
            assert rows.n_hits[1] > 0
        assert est.n_hits > 0
        # A box around every row.
        assert estimate_density(X, y, 1e9, structure, horizon).n_hits == len(X)
        assert estimate_density(X, [y], 1e9, structure, horizon).n_hits.tolist() == [len(X)]

    def test_face_rows_are_hits(self, langevin):
        for y0 in (0.25, 1e6 + 0.25, -1e6 - 0.25):
            y, h = np.array([y0, -0.5]), 0.5
            half = (h / 2.0) / dilation_scales(langevin.structure, 2.0)
            X = y + np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]) * half
            outside = np.nextafter(X[0], X[0] + 1.0)
            X = np.vstack([X, outside])
            assert estimate_density(X, y, h, langevin.structure, 0.25).n_hits == 4
            rows = estimate_density(X, np.array([y, y]), h, langevin.structure, 0.25)
            assert rows.n_hits.tolist() == [4, 4]

    def test_windows_hold_rows_past_the_rounded_faces(self, langevin):
        # First coordinates a few floats either side of y0 -+ (h/2)/s0: at
        # non-dyadic horizons the rounded test counts some rows past those
        # rounded faces, and each window must still hold them.
        h, past = 0.5, 0
        for y0 in (0.0, 0.3, 1e6 + 0.3, -1e6 - 0.3):
            y = np.array([y0, 0.0])
            for horizon in np.linspace(0.3, 1.7, 29):
                scale0 = dilation_scales(langevin.structure, horizon**-0.5)[0]
                faces = y0 + np.array([-1.0, 1.0]) * (h / 2.0) / scale0
                first = (faces[:, None] + np.spacing(faces)[:, None] * np.arange(-4, 5)).ravel()
                X = np.column_stack([first, np.zeros_like(first)])
                hits = full_scan_hits(X, y, h, langevin.structure, horizon)
                rows = estimate_density(X, [y], h, langevin.structure, horizon)
                assert rows.n_hits.tolist() == [hits]
                outside = X[(first < faces[0]) | (first > faces[1])]
                past += full_scan_hits(outside, y, h, langevin.structure, horizon)
        assert past > 0

    def test_rows_equal_single_targets(self, langevin):
        X = simulate_paths(make_spec(langevin), 0.0, [0.0, 0.0], 1.0, SimConfig(N_ODD, 1, seed=17))
        targets = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 0.25], [9.0, 9.0]])
        rows = estimate_density(X, targets, 0.25, langevin.structure, 1.0)
        for i, y in enumerate(targets):
            one = estimate_density(X, y, 0.25, langevin.structure, 1.0)
            assert rows.value[i] == one.value and rows.stderr[i] == one.stderr
            assert rows.n_hits[i] == one.n_hits
        assert rows.n_hits[-1] == 0

    def test_target_shape_checked(self, heat1d):
        with pytest.raises(ValueError):
            estimate_density(np.zeros((5, 1)), [0.0, 0.0], 0.1, heat1d.structure, 1.0)
        with pytest.raises(ValueError):
            estimate_density(np.zeros((5, 1)), np.zeros((2, 2)), 0.1, heat1d.structure, 1.0)


class TestMassConcentration:
    def test_three_sigma_fraction(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(1_000_000, 1, seed=15))
        frac = mass_concentration(X, [0.0], 3.0, heat1d.structure, 1.0)
        exact = 0.9973002039367398
        assert abs(frac - exact) <= 3 * np.sqrt(exact * (1 - exact) / len(X))

    def test_monotone_in_radius(self, langevin):
        spec = make_spec(langevin, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(100_000, 2, seed=16))
        fracs = [
            mass_concentration(X, [0.0, 0.0], R, langevin.structure, 1.0)
            for R in (0.5, 1.0, 2.0, 3.0, 5.0)
        ]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_radius_to_zero(self, heat1d):
        spec = make_spec(heat1d, lam=1.0)
        X = simulate_paths(spec, 0.0, [0.0], 1.0, SimConfig(50_000, 1, seed=17))
        assert mass_concentration(X, [0.0], 1e-4, heat1d.structure, 1.0) <= 1e-3

    def test_dual_quadrature_matches_simulation(self, langevin):
        # Integral over sources at fixed target vs endpoint fraction: equal
        # for the reversible dilated ball up to MC error.
        spec = make_spec(langevin, lam=1.0)
        kernel = GaussianKernel(langevin, 1.0)
        R = 2.26  # two Mahalanobis units of the dilated covariance
        dual = mass_concentration_dual(kernel, 0.0, 1.0, np.zeros(2), R)
        X = simulate_paths(spec, 0.0, [0.0, 0.0], 1.0, SimConfig(200_000, 2, seed=18))
        frac = mass_concentration(X, [0.0, 0.0], R, langevin.structure, 1.0)
        assert dual >= 0.5
        assert abs(dual - frac) <= 3 * np.sqrt(frac * (1 - frac) / len(X)) + 1e-3

    def test_dual_brownian_exact(self, heat1d):
        from scipy.special import erf

        kernel = GaussianKernel(heat1d, 1.0)
        val = mass_concentration_dual(kernel, 0.0, 1.0, np.zeros(1), 3.0)
        assert np.isclose(val, erf(3.0 / np.sqrt(2.0)), rtol=1e-8)

    def test_invalid_radius(self, heat1d):
        for R in (0.0, np.nan):
            with pytest.raises(ValueError, match="radius"):
                mass_concentration(np.zeros((5, 1)), [0.0], R, heat1d.structure, 1.0)


class TestVerifyBounds:
    def test_exact_sinusoid_brownian(self, heat1d):
        spec = sinusoid_spec(heat1d)
        ys = np.linspace(-3, 3, 25)[:, None]
        report = verify_bounds(spec, 0.0, [0.0], 1.0, ys, 0.25, 4.0)
        assert report.exact
        assert 1e-3 <= report.C_minus <= 1e3
        assert 1e-3 <= report.C_plus <= 1e3
        assert all(m >= -1e-10 for m in report.psd_margins)
        # Sandwich holds on the grid with the fitted constants.
        assert np.all(report.C_minus * report.gamma_minus <= report.gamma * (1 + 1e-12))
        assert np.all(report.gamma <= report.C_plus * report.gamma_plus * (1 + 1e-12))

    def test_exact_sinusoid_langevin(self, langevin):
        spec = sinusoid_spec(langevin)
        grid = [np.zeros(2)]
        for radius in (1.0, 2.0, 3.0):
            for angle in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                grid.append(radius * np.array([np.cos(angle), np.sin(angle)]))
        report = verify_bounds(spec, 0.0, np.zeros(2), 1.0, np.array(grid), 0.25, 4.0)
        assert report.exact
        assert 1e-3 <= report.C_minus <= 1e3
        assert 1e-3 <= report.C_plus <= 1e3
        assert all(m >= -1e-10 for m in report.psd_margins)

    def test_self_comparison_is_unit(self, langevin):
        # The comparison operator against itself: C- = C+ = 1.
        spec = make_spec(langevin, lam=1.5, mu=1.5)
        ys = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 1.0]])
        report = verify_bounds(spec, 0.0, np.zeros(2), 1.0, ys, 1.5, 1.5)
        assert np.isclose(report.C_minus, 1.0, rtol=1e-10)
        assert np.isclose(report.C_plus, 1.0, rtol=1e-10)

    def test_diagonal_constant_stable(self, heat1d, langevin):
        for system in (heat1d, langevin):
            spec = sinusoid_spec(system)
            x = np.zeros(system.d)
            report = verify_bounds(spec, 0.0, x, 1.0, x[None, :], 0.25, 4.0)
            cs = report.diagonal_c
            assert max(cs) / min(cs) <= 2.0

    # LANGEVIN from a start off the origin: B x != 0, so the diagonal of
    # G(t, x; t+h, .) sits at e^(hB) x, not at x.  There the dilated density is
    # that of N(0, C(1)) at 0, sqrt(12) / (2 pi), at every horizon.
    DIAGONAL_START = np.array([0.8, -0.3])

    def test_diagonal_at_flow_image_exact(self, langevin):
        spec = make_spec(langevin, lam=1.0)
        x = self.DIAGONAL_START
        report = verify_bounds(spec, 0.0, x, 0.7, x[None, :], 0.5, 2.0)
        assert report.exact
        np.testing.assert_allclose(report.diagonal_c, np.sqrt(12.0) / (2 * np.pi), rtol=1e-12)
        assert report.diagonal_c_fit == min(report.diagonal_c)

    def test_diagonal_at_flow_image_monte_carlo(self, langevin):
        # A zero-amplitude space sinusoid is constant strength 1 on the
        # stepped route, whose exact steps keep the law N(e^(hB) x, C(h)).
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.0, wave=(0.5, 0.25)), 1
        )
        spec = make_spec(langevin, a=a, mu=2.0)
        x = self.DIAGONAL_START
        n, bandwidth = 200_000, 0.2
        report = verify_bounds(
            spec, 0.0, x, 0.7, x[None, :], 0.5, 2.0,
            sim_config=SimConfig(n, 8, seed=29), bandwidth=bandwidth,
        )
        assert not report.exact
        for h, c in zip(report.diagonal_horizons, report.diagonal_c):
            # The dilated box around the flow image holds the mass of
            # N(0, D^-1 C(h) D^-1); c is that mass over the box's dilated volume.
            scale = dilation_scales(langevin.structure, h**-0.5)
            p = box_mass(scale[:, None] * langevin.propagator.gramian(h) * scale, bandwidth)
            stderr = np.sqrt(p * (1 - p) / n) / bandwidth**2
            assert abs(c - p / bandwidth**2) <= 6 * stderr

    def test_cancelling_lower_order_terms_stay_monte_carlo(self, langevin):
        # The exact clause reads each of a_low and b_low, not their sum: the
        # constants 0.3 and -0.3 cancel, so paths are drawn in one shot, bit
        # for bit those of the operator without them, but the density is
        # still estimated.
        a_low = fields.VectorField((fields.ConstantField(0.3),))
        b_low = fields.VectorField((fields.ConstantField(-0.3),))
        spec = make_spec(langevin, a_low=a_low, b_low=b_low, M_bound=0.3)
        law, exact, refusal = route(spec)
        assert law is not None and not exact and refusal is None
        x, config = np.array([0.1, -0.2]), SimConfig(3000, 4, seed=37)
        X = simulate_paths(spec, 0.0, x, 1.0, config)
        assert np.array_equal(X, simulate_paths(make_spec(langevin), 0.0, x, 1.0, config))
        report = verify_bounds(spec, 0.0, x, 1.0, X[:5], 0.5, 2.0, sim_config=config)
        assert not report.exact and report.psd_margins == () and np.any(report.stderr > 0)

    def test_exact_route_non_isotropic_constant_matrix(self, kinetic21):
        # The endpoint law of a constant, non-isotropic diffusion matrix is
        # Gaussian with covariance C of the drift and sigma 2A sigma^T.
        A = np.array([[0.6, 0.2], [0.2, 0.4]])
        spec = make_spec(kinetic21, a=fields.ConstantMatrixField(A), mu=4.0)
        t, T = 0.1, 0.9
        x = np.array([0.3, -0.2, 0.5])
        rng = np.random.default_rng(31)
        mean = kinetic21.propagator.flow(T - t) @ x
        ys = mean + rng.normal(size=(12, 3)) * dilation_scales(kinetic21.structure, 0.6)
        report = verify_bounds(spec, t, x, T, ys, 0.5, 2.0)
        assert report.exact
        sig = sigma_matrix(kinetic21.structure)
        C = Propagator(kinetic21.B, sig @ (2.0 * A) @ sig.T, kinetic21.structure).gramian(T - t)
        delta = ys - mean
        log_ref = -0.5 * (
            3 * np.log(2 * np.pi)
            + np.linalg.slogdet(C)[1]
            + np.einsum("ij,ij->i", delta, np.linalg.solve(C, delta.T).T)
        )
        np.testing.assert_allclose(np.log(report.gamma), log_ref, rtol=1e-12, atol=1e-12)
        assert all(m >= -1e-12 for m in report.psd_margins)

    def test_zero_estimate_ratio_not_exponentiated(self, deep221):
        # A short horizon from a far start: on 16 of the 125 dilated targets
        # gamma underflows to 0, where exponentiating the floored log ratio
        # would overflow.  Those ratios are 0 and no warning is raised.
        spec = make_spec(deep221)
        t, T = -0.43093901672327806, 0.04897290996526199
        x = np.array([-0.7176682673461952, 0.2144354123978789, -0.06533375882359205,
                      -0.8657190378390542, -0.3381238797788766])
        lam_minus, lam_plus = 0.6266832744897999, 1.9971925592639856
        scale = dilation_scales(deep221.structure, (T - t) ** 0.5)
        ys = np.tile(deep221.propagator.flow(T - t) @ x, (5, 25, 1))
        for axis in range(5):
            ys[axis, :, axis] += np.linspace(-3.0, 3.0, 25) * scale[axis]
        ys = ys.reshape(-1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_bounds(spec, t, x, T, ys, lam_minus, lam_plus)
        zero = report.gamma == 0
        assert report.exact and zero.sum() == 16
        for ratio, lam in ((report.ratio_minus, lam_minus), (report.ratio_plus, lam_plus)):
            assert np.all(ratio[zero] == 0) and np.isfinite(ratio).all()
            # The kept ratios are those of exponentiating at every target.
            log_g = GaussianKernel(deep221, lam).log_batch(t, x, T, ys)
            with np.errstate(over="ignore"):
                full = np.exp(np.log(np.maximum(report.gamma, 1e-300)) - log_g)
            assert ratio[~zero].tobytes() == full[~zero].tobytes()

    def test_constant_matrix_propagator_kept(self, kinetic21, monkeypatch):
        A = np.array([[0.6, 0.2], [0.2, 0.4]])
        spec = make_spec(kinetic21, a=fields.ConstantMatrixField(A), mu=4.0)
        x, ys = np.array([0.3, -0.2, 0.5]), np.array([[0.2, 0.1, 0.4], [0.0, 0.0, 0.0]])
        first = verify_bounds(spec, 0.1, x, 0.9, ys, 0.5, 2.0)
        calls = count_exponentials(monkeypatch)
        second = verify_bounds(spec, 0.1, x, 0.9, ys, 0.5, 2.0)
        assert calls == []
        assert np.array_equal(first.gamma, second.gamma)
        assert first.diagonal_c == second.diagonal_c

    def test_mc_route_flags_zero_hits(self, heat1d):
        spec = make_spec(heat1d, lam=1.0, mu=2.0)
        # Break the exact route with a lower-order coefficient of zero size?
        # Constant-identity diffusion is exact; force MC by a space field.
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.05, wave=(1.0,)), 1
        )
        spec = make_spec(heat1d, a=a, mu=2.5)
        ys = np.array([[0.0], [1.0], [30.0]])
        report = verify_bounds(
            spec, 0.0, [0.0], 1.0, ys, 1 / 2.5, 2.5,
            sim_config=SimConfig(50_000, 32, seed=19), bandwidth=0.2,
        )
        assert not report.exact
        assert 2 in report.zero_hit_indices
        assert np.isfinite(report.C_minus) and report.C_minus > 0

    def test_mc_route_reuses_the_full_horizon_run(self, heat1d, monkeypatch):
        calls = []

        def counting(spec, t, x, T, config):
            calls.append(T)
            return simulate_paths(spec, t, x, T, config)

        monkeypatch.setattr(sys.modules["kolmo.mc"], "simulate_paths", counting)
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.05, wave=(1.0,)), 1
        )
        spec = make_spec(heat1d, a=a, mu=2.5)
        config = SimConfig(20_000, 8, seed=23)
        report = verify_bounds(
            spec, -0.4, [0.0], 0.6, np.zeros((1, 1)), 1 / 2.5, 2.5, sim_config=config
        )
        # One run, snapshotted at the three diagonal horizons.
        assert calls == [[-0.4 + 0.25, -0.4 + 0.5, 0.6]]
        full = estimate_density(
            simulate_paths(spec, -0.4, [0.0], 0.6, config), [0.0], 0.2, heat1d.structure, 1.0
        )
        assert report.diagonal_c[-1] == full.value
        assert report.gamma[0] == full.value

    def test_mc_route_grid_equals_per_target_estimates(self, langevin):
        spec = space_spec(langevin)
        t, T, x = -0.2, 0.6, np.array([0.1, -0.1])
        config = SimConfig(N_ODD, 8, seed=29)
        ys = np.array([[0.1, 0.0], [0.5, 0.3], [-0.4, -0.2], [0.1, 0.05], [3.0, 3.0], [-3.0, 1.5]])
        report = verify_bounds(spec, t, x, T, ys, 1 / 2.5, 2.5, sim_config=config, bandwidth=0.25)
        endpoints = simulate_paths(spec, t, x, T, config)
        ests = [estimate_density(endpoints, y, 0.25, langevin.structure, T - t) for y in ys]
        assert report.gamma.tolist() == [e.value for e in ests]
        assert report.stderr.tolist() == [e.stderr for e in ests]
        assert report.zero_hit_indices == tuple(i for i, e in enumerate(ests) if e.n_hits == 0)
        assert report.zero_hit_indices == (4, 5)

    def test_mc_route_requires_config(self, heat1d):
        a = fields.IsotropicMatrixField(
            fields.SpaceSinusoidField(base=0.5, amplitude=0.05, wave=(1.0,)), 1
        )
        spec = make_spec(heat1d, a=a, mu=2.5)
        with pytest.raises(ValueError):
            verify_bounds(spec, 0.0, [0.0], 1.0, np.zeros((1, 1)), 1 / 2.5, 2.5)

    def test_exact_range_is_admissible(self, heat1d):
        # The sinusoid strength spans exactly [0.5, 2].
        spec = sinusoid_spec(heat1d)
        report = verify_bounds(spec, 0.0, [0.0], 1.0, np.zeros((1, 1)), 0.5, 2.0)
        assert report.exact and report.C_minus > 0

    def test_inconsistent_lambda_range_rejected(self, heat1d):
        spec = sinusoid_spec(heat1d)  # strength range [0.5, 2]
        with pytest.raises(ValueError):
            verify_bounds(spec, 0.0, [0.0], 1.0, np.zeros((1, 1)), 0.6, 4.0)
        with pytest.raises(ValueError):
            verify_bounds(spec, 0.0, [0.0], 1.0, np.zeros((1, 1)), 0.25, 1.9)
