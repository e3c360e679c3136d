"""Harnack chains: stopping-time partitions that multiply a local inequality.

A chain splits ``[t, T]`` at times where either a fixed fraction of the
oscillation window (``tau * beta``) or a fixed control-energy budget
(``epsilon = (r / kappa)**2``) is exhausted, following the optimal steering
trajectory.  Each consecutive pair then sits inside a fixed cone of its
predecessor, so a local two-cylinder inequality with constant ``C`` compounds
to the factor ``C ** (1/beta + V/epsilon)`` across the whole chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .control import in_cones, optimal_control
from .exceptions import ChainError

__all__ = [
    "HarnackConfig",
    "HarnackChain",
    "StepRecord",
    "HarnackFactor",
    "build_chain",
    "verify_chain",
    "global_harnack_factor",
]

_TIME_TOL = 1e-12
# Iterations a stopping-time solve may take before it counts as failed (the
# Taylor model's own solve stops there too).  Newton from the model's root
# needs one evaluation where the model is exact; a solve that cannot meet its
# residual falls back to bisection and, for times of order one, runs out of
# floats between the bracket ends within about 60 halvings.
_NEWTON_MAX = 200
# Terms of the Taylor model of the control that gives each solve its first
# iterate: exact for a nilpotent drift of index at most this.
_TAYLOR_TERMS = 10


@dataclass(frozen=True)
class HarnackConfig:
    """Constants of the local inequality and the derived chain budgets.

    ``epsilon`` is the read-only ``(r / kappa)**2``.  The two cylinders at
    scale ``r`` with time offsets 0 and ``beta`` must be disjoint and
    contained in the unit cylinder, which for these axis-aligned cylinders
    means ``r**2 <= beta`` and ``beta + r**2 <= 1``.
    """

    C_harnack: float
    beta: float
    r: float
    tau: float
    kappa: float

    def __post_init__(self):
        if self.C_harnack < 1:
            raise ValueError(f"need C >= 1, got {self.C_harnack}")
        if not 0 < self.beta < 1:
            raise ValueError(f"need 0 < beta < 1, got {self.beta}")
        if not 0 < self.r < 1:
            raise ValueError(f"need 0 < r < 1, got {self.r}")
        if not 0 < self.tau <= 1:
            raise ValueError(f"need 0 < tau <= 1, got {self.tau}")
        if self.kappa <= 0:
            raise ValueError(f"need kappa > 0, got {self.kappa}")
        if self.r**2 > self.beta or self.beta + self.r**2 > 1:
            raise ValueError(
                "cylinders at scale r with offsets 0 and beta are not disjoint "
                f"inside the unit cylinder (r^2={self.r ** 2}, beta={self.beta})"
            )

    @property
    def epsilon(self):
        """The per-step energy budget ``(r / kappa)**2``."""
        return (self.r / self.kappa) ** 2


@dataclass(frozen=True)
class StepRecord:
    """One chain step: its interval, consumed energy, and the binding budget."""

    t_start: float
    t_end: float
    cost: float
    clause: str  # 'time-budget' | 'cost-budget' | 'terminal'


@dataclass(frozen=True)
class HarnackChain:
    """The stopping-time partition with its points and the bound exponent."""

    problem: object
    config: HarnackConfig
    times: tuple
    points: tuple
    steps: tuple
    V: float
    exponent: float

    @property
    def J(self):
        return len(self.times) - 1


def build_chain(problem, config):
    """Construct the chain for a steering problem with ``T - t <= tau``.

    Each next time is ``(t_j + tau*beta) ^ inf{s : energy on [t_j, s] >= eps}``
    capped at ``T``.  The infimum is found by safeguarded Newton on the
    energy spent since ``t_j``, whose derivative is the closed-form rate
    ``|sigma^T e^((T-s)B^T) w|^2``, and is accepted once the spent energy is
    within ``1e-12 * max(1, eps)`` of ``eps``.  The first iterate is the root
    of a Taylor model of the spent energy: with ``u_j = e^((T-t_j)B^T) w``
    from the state at ``t_j`` and ``a_k = sigma^T (-B^T)^k u_j / k!``,
    ``F(delta) = sum_(i,j<10) (a_i . a_j) delta^(i+j+1) / (i+j+1)``, exact for
    a drift nilpotent of index at most 10 and needing no new exponential.
    Acceptance is still decided by the exact state, so the model moves only
    where the solve starts: where it is exact, a step costs one exponential.
    The energy left, its rate and the trajectory point
    ``e^(-(T-s)B) (y - C(T-s) w)`` at each iterate all come from one
    exponential of the system's propagator.  Times within
    ``1e-9 * (T - t)`` of ``T`` snap to ``T``.  When the whole horizon fits a
    single time budget and the total energy is within one cost budget, the
    single-step fast path is taken verbatim.

    Raises
    ------
    ValueError
        If the horizon exceeds ``tau``.
    GramianError
        If the steering problem is unsolvable (singular covariance).
    ChainError
        If a Newton solve does not converge, or a constructed chain violates
        its own step-count bound.
    """
    if problem.horizon > config.tau + _TIME_TOL:
        raise ValueError(
            f"chain construction needs T - t <= tau, got {problem.horizon} > {config.tau}"
        )
    ctrl = optimal_control(problem)
    V = ctrl.cost
    eps = config.epsilon
    step_cap = config.tau * config.beta
    t, T = problem.t, problem.T
    snap = 1e-9 * problem.horizon
    exponent = 1.0 / config.beta + V / eps
    propagator = problem.system.propagator
    m0 = problem.system.m0
    forms = _energy_forms(problem.system.B, m0)

    def state(s):
        # The energy left after s (w^T C(T - s) w, decreasing in s), the rate
        # |sigma^T u|^2 at which it is spent, u = e^((T-s)B^T) w, and
        # gamma(s), all from the exponential at T - s.
        if s >= T:
            u, left, point = ctrl.w, 0.0, problem.y
        else:
            inv_flow, flow, C = propagator.at(T - s)
            Cw = C @ ctrl.w
            u, left, point = flow.T @ ctrl.w, float(ctrl.w @ Cw), inv_flow @ (problem.y - Cw)
        v = u[:m0]
        return left, float(v @ v), u, point

    times = [t]
    points = [problem.x]
    steps = []

    if T <= t + step_cap + _TIME_TOL and V <= eps:
        times.append(T)
        points.append(problem.y)
        steps.append(StepRecord(t, T, V, "terminal"))
    else:
        max_steps = math.ceil(exponent) + 8
        at_j = state(t)
        while times[-1] < T:
            if len(steps) > max_steps:
                raise ChainError(
                    f"chain exceeded {max_steps} steps; stopping rule is not advancing"
                )
            t_j = times[-1]
            right = min(t_j + step_cap, T)
            first = _model_root(forms, at_j[2], eps, t_j, right)
            t_next, at_next = _stopping_time(state, t_j, at_j, right, eps, first)
            step_cost = at_j[0] - at_next[0]
            if t_next == right and step_cost < eps:
                clause = "terminal" if right >= T - snap else "time-budget"
            else:
                clause = "cost-budget"
            if T - t_next <= snap:
                t_next = T
                clause = "terminal"
                step_cost = at_j[0]
            times.append(t_next)
            points.append(problem.y if t_next == T else at_next[3])
            steps.append(StepRecord(t_j, t_next, step_cost, clause))
            at_j = at_next

    chain = HarnackChain(
        problem=problem,
        config=config,
        times=tuple(times),
        points=tuple(points),
        steps=tuple(steps),
        V=V,
        exponent=exponent,
    )
    _check_chain_invariants(chain)
    return chain


def _energy_forms(B, m0):
    """Forms ``Q_n`` of the Taylor model ``F(delta) = sum_n (u^T Q_n u) delta**(n+1)``.

    ``F`` is the energy spent from ``t_j`` to ``t_j + delta`` when
    ``u = e^((T-t_j)B^T) w``: with ``T_k = sigma^T (-B^T)^k / k!``, ``k < 10``,
    the control there is ``sum_k delta^k T_k u``, so ``Q_n`` sums
    ``T_i^T T_j / (n+1)`` over the anti-diagonal ``i + j = n``.  Trailing
    zero forms, the whole tail of a nilpotent drift, are dropped; the forms
    are stacked as ``(n d, d)`` rows.
    """
    K, d = _TAYLOR_TERMS, len(B)
    terms = [np.eye(d)[:m0]]
    for k in range(1, K):
        terms.append(terms[-1] @ -B.T / k)
    T = np.array(terms)
    i, j = np.divmod(np.arange(K * K), K)
    antidiagonals = (np.arange(2 * K - 1)[:, None] == i + j) / (i + j + 1.0)
    forms = antidiagonals @ np.einsum("imk,jml->ijkl", T, T).reshape(K * K, d * d)
    return forms[: np.flatnonzero(forms.any(axis=1))[-1] + 1].reshape(-1, d)


def _model_root(forms, u, eps, t_j, right):
    """The time ``t_j + delta`` where the Taylor model of the spent energy reaches ``eps``.

    The model ``F(delta) = sum_n c[n] delta**(n+1)``, ``c[n] = u^T Q_n u``
    (see `_energy_forms`), is nondecreasing, its derivative being a squared
    norm, so ``right`` is returned when ``F(right - t_j) < eps``.  Otherwise
    safeguarded Newton from the model's quadratic part runs until ``F`` is
    within ``1e-13 * max(1, eps)`` of ``eps`` or the bracket collapses.
    """
    c = ((forms @ u).reshape(-1, len(u)) @ u).tolist()
    slopes = [(n + 1) * cn for n, cn in enumerate(c)]

    def residual(x):
        f = df = 0.0
        for cn, sn in zip(reversed(c), reversed(slopes)):
            f = f * x + cn
            df = df * x + sn
        return f * x - eps, df

    lo, hi = 0.0, right - t_j
    if residual(hi)[0] < 0:
        return right
    tol = 1e-13 * max(1.0, eps)
    c0, c1 = (c + [0.0])[:2]
    reach = c0 + math.sqrt(max(c0 * c0 + 4.0 * c1 * eps, 0.0))
    x = 2.0 * eps / reach if reach > 0 else hi
    for _ in range(_NEWTON_MAX):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        f, df = residual(x)
        if abs(f) <= tol:
            break
        if f < 0:
            lo = x
        else:
            hi = x
        x = x - f / df if df > 0 else hi
    return t_j + x


def _stopping_time(state, lo, at_lo, hi, eps, first):
    """The time in ``(lo, hi]`` where the energy spent since ``lo`` reaches ``eps``.

    ``state(s)`` returns ``(energy left, spending rate, ..., gamma(s))``.
    The solve starts at ``first`` (at ``hi`` if ``first`` is outside
    ``(lo, hi)``); later steps are Newton steps.  ``hi`` is evaluated only
    when a step reaches it, and a step that leaves the bracket is replaced
    by bisection.
    Returns the time and its state once the spent energy is within
    ``1e-12 * max(1, eps)`` of ``eps``; ``hi`` if less than ``eps`` is spent
    by then; or, if the bracket shrinks to adjacent floats first, the end
    with the smaller residual.
    """
    tol = 1e-12 * max(1.0, eps)
    left_lo = at_lo[0]
    f_lo, f_hi, at_hi = -eps, None, None
    s = first
    for _ in range(_NEWTON_MAX):
        if not lo < s < hi:
            if at_hi is None:
                s = hi
            else:
                s = 0.5 * (lo + hi)
                if not lo < s < hi:
                    return (lo, at_lo) if abs(f_lo) < abs(f_hi) else (hi, at_hi)
        at_s = state(s)
        f = left_lo - at_s[0] - eps
        if abs(f) <= tol or (s == hi and f < 0):
            return s, at_s
        if f < 0:
            lo, at_lo, f_lo = s, at_s, f
        else:
            hi, at_hi, f_hi = s, at_s, f
        s = s - f / at_s[1] if at_s[1] > 0 else hi
    raise ChainError(
        f"stopping-time solve did not converge in {_NEWTON_MAX} iterations "
        f"(bracket [{lo!r}, {hi!r}], residuals {f_lo:.3e}, {f_hi})"
    )


def _check_chain_invariants(chain):
    cfg = chain.config
    p = chain.problem
    for step in chain.steps:
        if step.t_end - step.t_start > cfg.tau * cfg.beta + 1e-9:
            raise ChainError(f"step [{step.t_start}, {step.t_end}] exceeds the time budget")
        if step.cost > cfg.epsilon + 1e-9 * max(1.0, cfg.epsilon):
            raise ChainError(f"step at {step.t_start} exceeds the cost budget")
    if np.linalg.norm(chain.points[0] - p.x) > 1e-8 * (1 + np.linalg.norm(p.x)):
        raise ChainError("chain does not start at x")
    if np.linalg.norm(chain.points[-1] - p.y) > 1e-8 * (1 + np.linalg.norm(p.y)):
        raise ChainError("chain does not end at y")
    if chain.J > math.ceil(chain.exponent) + 1:
        raise ChainError(
            f"J={chain.J} exceeds ceil(1/beta + V/eps) + 1 = {math.ceil(chain.exponent) + 1}"
        )


def verify_chain(chain):
    """Check the chaining geometry: every step lands in its predecessor's cone.

    Tests each ``(t_{j+1}, gamma(t_{j+1}))`` against the cone with opening
    ``beta``, radius ``r``, and scale cap ``sqrt(tau)`` of ``chain.config``,
    based at ``(t_j, gamma(t_j))`` over the chain's own system, plus the
    time-budget condition.  The ``J`` step flows come from one batched
    exponential and every step is tested at once.  By construction each
    step's energy is at most ``epsilon = (r/kappa)**2``, so the dilated
    offset is below ``r`` with a 1/1.1 margin from the certified ``kappa``.
    """
    cfg = chain.config
    system = chain.problem.system
    dt = np.diff(chain.times)
    points = np.asarray(chain.points)
    offsets = points[1:] - np.einsum("jik,jk->ji", system.propagator.flows(dt), points[:-1])
    inside = in_cones(system.structure, cfg.beta, cfg.r, np.sqrt(cfg.tau), dt, offsets)
    return bool(np.all(inside & (dt <= cfg.tau * cfg.beta + 1e-9)))


class HarnackFactor(NamedTuple):
    constructive: float
    statement_form: float
    log_constructive: float
    log_statement: float
    exponent: float
    cost: float


def global_harnack_factor(problem, config):
    """Constructive and statement-form global Harnack factors.

    The constructive factor is ``C ** (1/beta + V/eps)`` from the chain; the
    statement form is ``c * exp(c V)`` with ``c = max(C**(1/beta), ln C / eps)``,
    which dominates the constructive factor for every ``V >= 0``.  Both are
    also returned in log form since the plain values overflow for large
    energies.
    """
    chain = build_chain(problem, config)
    C = config.C_harnack
    log_constructive = chain.exponent * math.log(C)
    c = max(C ** (1.0 / config.beta), math.log(C) / config.epsilon)
    log_statement = math.log(c) + c * chain.V
    with np.errstate(over="ignore"):
        constructive = float(np.exp(log_constructive))
        statement = float(np.exp(log_statement))
    return HarnackFactor(
        constructive=constructive,
        statement_form=statement,
        log_constructive=log_constructive,
        log_statement=log_statement,
        exponent=chain.exponent,
        cost=chain.V,
    )
