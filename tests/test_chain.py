import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from kolmo.chain import (
    HarnackConfig,
    _stopping_time,
    build_chain,
    global_harnack_factor,
    verify_chain,
)
from kolmo.control import ControlProblem, kappa_estimate, optimal_control
from kolmo.exceptions import ChainError
from kolmo.model import dilation_matrix

from conftest import bisection_stop, oracle_gaps

# LANGEVIN steering problems whose chains once overshot the cost budget: a
# step of a bisection stopped on a 1e-12 time tolerance spent more than
# eps + 1e-9 where the energy rate is large.  Endpoints are (t, x1, x2).
OVERSHOOT_PROBLEMS = [
    (
        [0.31523465405947115, -0.1185112058536042, -0.3035092352562141],
        [0.5822327130432137, 1.828988847423185, 0.2682656596473897],
    ),
    (
        [-0.42352458167261076, -0.6772742797667823, 0.24027585999239798],
        [-0.1298854587553157, 1.7497871025035412, 0.017566991823318612],
    ),
]


def heat_config(**kwargs):
    defaults = dict(C_harnack=10.0, beta=0.5, r=0.25, tau=1.0, kappa=1.0)
    defaults.update(kwargs)
    return HarnackConfig(**defaults)


class TestHarnackConfig:
    def test_epsilon_derived(self):
        cfg = heat_config()
        assert cfg.epsilon == 0.0625

    def test_cylinder_disjointness(self):
        # r^2 > beta: the two cylinders would overlap in time.
        with pytest.raises(ValueError):
            heat_config(beta=0.04, r=0.25)
        # beta + r^2 > 1: the offset cylinder leaves the unit cylinder.
        with pytest.raises(ValueError):
            heat_config(beta=0.9, r=0.5)

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ValueError):
            heat_config(C_harnack=0.5)
        with pytest.raises(ValueError):
            heat_config(beta=1.0)
        for name, shown in (("C_harnack", "C"), ("kappa", "kappa")):
            with pytest.raises(ValueError, match=f"need {shown}"):
                heat_config(**{name: math.nan})


class TestBuildChainDeterministic:
    def test_zero_cost_heat_chain(self, heat1d):
        # No control needed: only the time budget binds, two half steps.
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [0.0])
        chain = build_chain(problem, heat_config())
        np.testing.assert_allclose(chain.times, [0.0, 0.5, 1.0], atol=1e-12)
        assert chain.J == 2
        assert chain.V <= 1e-12
        assert [s.clause for s in chain.steps] == ["time-budget", "terminal"]

    def test_unit_transfer_heat_chain(self, heat1d):
        # Cost rate 1 against budget 0.0625: sixteen equal steps.
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        chain = build_chain(problem, heat_config())
        assert chain.J == 16
        np.testing.assert_allclose(chain.times, 0.0625 * np.arange(17), atol=1e-9)
        assert np.isclose(chain.exponent, 18.0, atol=1e-10)
        assert all(s.clause == "cost-budget" for s in chain.steps[:-1])
        assert chain.steps[-1].clause == "terminal"

    def test_flow_target_points_stay_on_flow(self, langevin):
        x = np.array([0.5, -0.3])
        y = expm(1.0 * langevin.B) @ x
        problem = ControlProblem(langevin, 0.0, 1.0, x, y)
        chain = build_chain(problem, heat_config(kappa=kappa_estimate(langevin)))
        for t_j, pt in zip(chain.times, chain.points):
            flow = expm((t_j - problem.t) * langevin.B) @ x
            assert np.linalg.norm(pt - flow) <= 1e-8

    def test_single_step_fast_path(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 0.4, [0.0], [0.05])
        chain = build_chain(problem, heat_config())
        assert chain.J == 1
        assert chain.steps[0].clause == "terminal"
        assert verify_chain(chain)

    def test_horizon_exceeding_tau_rejected(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.5, [0.0], [0.0])
        with pytest.raises(ValueError):
            build_chain(problem, heat_config())


class TestVerifyChain:
    def test_deterministic_chains_verify(self, heat1d):
        cfg = heat_config()
        for target in (0.0, 1.0):
            problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [target])
            chain = build_chain(problem, cfg)
            assert verify_chain(chain)

    def test_perturbed_chain_fails(self, heat1d):
        cfg = heat_config()
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        chain = build_chain(problem, cfg)
        # Push one interior point by 2r in the first coordinate at scale
        # sqrt(tau): far outside the cone radius.
        D = dilation_matrix(heat1d.structure, np.sqrt(cfg.tau))
        bad_points = list(chain.points)
        bad_points[5] = bad_points[5] + D @ np.array([2 * cfg.r])
        from dataclasses import replace

        bad = replace(chain, points=tuple(bad_points))
        assert not verify_chain(bad)

    def test_randomized_problems_verify(self, langevin, kinetic21):
        rng = np.random.default_rng(31)
        for system in (langevin, kinetic21):
            kappa = kappa_estimate(system)
            cfg = heat_config(r=0.4, kappa=kappa)
            for _ in range(10):
                tau = rng.uniform(0.3, 1.0)
                t = rng.uniform(-1, 1)
                x = rng.normal(size=system.d)
                eta = rng.normal(size=system.d)
                eta *= rng.uniform(0.1, 0.8) / np.linalg.norm(eta)
                D = dilation_matrix(system.structure, np.sqrt(tau))
                y = expm(tau * system.B) @ x + D @ eta
                problem = ControlProblem(system, t, t + tau, x, y)
                chain = build_chain(problem, cfg)
                assert verify_chain(chain)
                assert chain.J <= math.ceil(chain.exponent) + 1

    def test_cost_additivity(self, langevin):
        cfg = heat_config(r=0.4, kappa=kappa_estimate(langevin))
        problem = ControlProblem(langevin, 0.0, 1.0, [0.0, 0.0], [0.8, 0.4])
        chain = build_chain(problem, cfg)
        assert np.isclose(sum(s.cost for s in chain.steps), chain.V, atol=1e-9)


class TestChainBoundExponent:
    def test_heat_trace_exponent(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        chain = build_chain(problem, heat_config())
        assert np.isclose(chain.exponent, 18.0, atol=1e-10)
        assert chain.J == 16

    def test_zero_cost_exponent(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [0.0])
        chain = build_chain(problem, heat_config())
        assert np.isclose(chain.exponent, 2.0, atol=1e-12)
        assert chain.J == 2

    def test_wide_cone_single_step(self, heat1d):
        # beta near 1: a short horizon fits one application.
        cfg = HarnackConfig(C_harnack=10.0, beta=0.9, r=0.25, tau=1.0, kappa=1.0)
        problem = ControlProblem(heat1d, 0.0, 0.9, [0.0], [0.0])
        chain = build_chain(problem, cfg)
        assert chain.J == 1
        assert np.isclose(chain.exponent, 1 / 0.9, rtol=1e-12)

    def test_quadratic_cost_growth(self, heat1d):
        # Doubling the offset quadruples V and adds 3 V_old / eps to the exponent.
        cfg = heat_config()
        e1 = build_chain(ControlProblem(heat1d, 0.0, 1.0, [0.0], [0.5]), cfg)
        e2 = build_chain(ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0]), cfg)
        assert np.isclose(e2.V, 4 * e1.V, rtol=1e-10)
        assert np.isclose(
            e2.exponent - e1.exponent, 3 * e1.V / cfg.epsilon, rtol=1e-10
        )


class TestGlobalHarnackFactor:
    def test_zero_cost_collapses(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [0.0])
        out = global_harnack_factor(problem, heat_config())
        assert np.isclose(out.constructive, 10.0 ** (1 / 0.5), rtol=1e-10)

    def test_heat_example_exponent_18(self, heat1d):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        out = global_harnack_factor(problem, heat_config())
        assert np.isclose(out.log_constructive, 18.0 * np.log(10.0), rtol=1e-10)

    def test_constructive_below_statement_form(self, heat1d):
        for target in (0.0, 0.3, 1.0, 2.0):
            problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [target])
            out = global_harnack_factor(problem, heat_config())
            assert out.log_constructive <= out.log_statement + 1e-12

    def test_monotone_in_cost(self, heat1d):
        logs = []
        for target in (0.0, 0.25, 0.5, 1.0, 1.5):
            problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [target])
            logs.append(global_harnack_factor(problem, heat_config()).log_constructive)
        assert all(b >= a - 1e-12 for a, b in zip(logs, logs[1:]))

    def test_log_form_survives_overflow(self, heat1d):
        # A far target makes the plain factor overflow; the log stays usable.
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [5.0])
        out = global_harnack_factor(problem, heat_config())
        assert np.isinf(out.constructive)
        assert np.isfinite(out.log_constructive)
        assert out.log_constructive <= out.log_statement


def overshoot_chain(langevin, index):
    frm, to = OVERSHOOT_PROBLEMS[index]
    problem = ControlProblem(langevin, frm[0], to[0], frm[1:], to[1:])
    cfg = heat_config(r=0.4, kappa=kappa_estimate(langevin))
    return problem, cfg


class TestStoppingTimes:
    @pytest.mark.parametrize("index", [0, 1])
    def test_overshoot_problems_build_and_verify(self, langevin, index):
        problem, cfg = overshoot_chain(langevin, index)
        chain = build_chain(problem, cfg)
        assert verify_chain(chain)
        assert chain.J <= math.ceil(chain.exponent) + 1
        bound = cfg.epsilon + 1e-12 * max(1.0, cfg.epsilon)
        assert all(step.cost <= bound for step in chain.steps)

    @pytest.mark.parametrize("index", [0, 1])
    def test_newton_matches_bisection_oracle(self, langevin, index):
        problem, cfg = overshoot_chain(langevin, index)
        chain = build_chain(problem, cfg)
        ctrl = optimal_control(problem)
        cost_steps = [s for s in chain.steps if s.clause == "cost-budget"]
        assert len(cost_steps) >= 100
        # Every 20th step and the last: each oracle solve costs ~50 exponentials.
        for step in cost_steps[::20] + cost_steps[-1:]:
            right = min(step.t_start + cfg.tau * cfg.beta, problem.T)
            oracle = bisection_stop(ctrl, step.t_start, right, cfg.epsilon)
            assert abs(oracle - step.t_end) <= 2e-12

    def test_starful_matches_bisection_oracle(self, starful):
        # Not nilpotent: the Taylor model only gives the solve its first iterate.
        cfg = heat_config(r=0.4, kappa=kappa_estimate(starful))
        chain = build_chain(ControlProblem(starful, 0.0, 1.0, [0.2, -0.1], [1.5, 0.5]), cfg)
        cost_steps = [s for s in chain.steps if s.clause == "cost-budget"]
        assert len(cost_steps) >= 20
        assert max(oracle_gaps(chain, cost_steps[::5] + cost_steps[-1:])) <= 2e-12

    @staticmethod
    def jump_state(at):
        # Energy spent jumps from 0 to 0.9 at time ``at``, with zero rate:
        # no float meets the residual, so every step bisects.
        return lambda s: (0.9 if s >= at else 0.0, 0.0, 0.0, s)

    def test_collapsed_bracket_takes_smaller_residual(self):
        state = self.jump_state(0.3)
        s, at_s = _stopping_time(state, 0.0, state(0.0), 1.0, eps=0.5, first=1.0)
        # Residuals -0.5 before the jump and +0.4 after: the later end wins.
        assert s == at_s[3] and s >= 0.3 and np.nextafter(s, 0.0) < 0.3

    def test_stalled_solve_raises(self):
        # Near zero, floats are too dense for the bracket to collapse in time.
        state = self.jump_state(1e-200)
        with pytest.raises(ChainError):
            _stopping_time(state, 0.0, state(0.0), 1.0, eps=0.5, first=1.0)

    def test_heat_trace_matches_bisection_oracle(self, heat1d):
        cfg = heat_config()
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        chain = build_chain(problem, cfg)
        ctrl = optimal_control(problem)
        for step in chain.steps[:-1]:
            oracle = bisection_stop(ctrl, step.t_start, step.t_start + 0.5, cfg.epsilon)
            assert abs(oracle - step.t_end) <= 2e-12


class TestExponentialCount:
    """Counts of exponentiated matrices, not times: one propagator serves every consumer.

    ``expm_calls`` lists each ``expm`` call's number of matrices, so a
    stacked call of ``n`` counts ``n``.  On a homogeneous drift the steering
    solve, every chain step and verification read one exponential.
    Otherwise a chain step costs one exponential where the Taylor model of
    the spent energy is exact, and verification is one stacked call of the
    distinct step flows.
    """

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(1 if np.ndim(a) == 2 else len(a))
            return expm(a, *args, **kwargs)

        for name in ("gramian", "control", "kernel", "model", "mc"):
            module = sys.modules[f"kolmo.{name}"]
            if hasattr(module, "expm"):
                monkeypatch.setattr(module, "expm", counting)
        return calls

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "kinetic21", "deep221", "starful"])
    def test_default_kappa_grid_is_one_exponential(self, name, request, expm_calls):
        kappa_estimate(request.getfixturevalue(name))
        assert expm_calls == [1]

    @staticmethod
    def assert_one_exponential_in_all(problem, cfg, expm_calls):
        # A homogeneous drift is its own dilated drift: the propagator's first
        # exponential serves the steering solve, every step and verification.
        expm_calls.clear()
        chain = build_chain(problem, cfg)
        assert verify_chain(chain)
        assert sum(expm_calls) <= 1
        assert problem.system.propagator._vanloan.cache_info().currsize == 1
        return chain

    def test_heat_trace_per_step(self, heat1d, expm_calls):
        problem = ControlProblem(heat1d, 0.0, 1.0, [0.0], [1.0])
        chain = self.assert_one_exponential_in_all(problem, heat_config(), expm_calls)
        assert chain.J == 16

    @pytest.mark.parametrize("index", [0, 1])
    def test_langevin_chain_per_step(self, langevin, index, expm_calls):
        problem, cfg = overshoot_chain(langevin, index)
        self.assert_one_exponential_in_all(problem, cfg, expm_calls)

    def test_starful_chain_per_step(self, starful, expm_calls):
        # Not homogeneous: each solve's iterates take one exponential apiece,
        # and verification is one stacked call of the distinct step flows.
        cfg = heat_config(r=0.4, kappa=kappa_estimate(starful))
        problem = ControlProblem(starful, 0.0, 1.0, [0.2, -0.1], [1.5, 0.5])
        expm_calls.clear()
        chain = build_chain(problem, cfg)
        assert sum(expm_calls) <= 1.1 * chain.J + 3
        expm_calls.clear()
        assert verify_chain(chain)
        assert expm_calls == [len(set(np.diff(chain.times)))]

    @pytest.mark.parametrize("name", ["heat1d", "langevin", "deep221"])
    def test_one_step_chain_takes_only_the_steering_exponential(self, name, request, expm_calls):
        system = request.getfixturevalue(name)
        problem = ControlProblem(system, 0.0, 0.4, np.zeros(system.d), np.full(system.d, 1e-3))
        expm_calls.clear()
        chain = build_chain(problem, heat_config())
        assert expm_calls == [1]
        assert chain.J == 1 and chain.steps[0].clause == "terminal"
        assert chain.steps[0].cost == pytest.approx(chain.V, rel=1e-12)
