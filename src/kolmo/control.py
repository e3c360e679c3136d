"""Minimum-energy steering of the linear system and the cone geometry it fills.

The energy-optimal control reaching ``y`` at time ``T`` from ``(t, x)`` is
represented through the Gramian-solved coefficient ``w``:

    C(T - t) w = y - e^((T-t)B) x,      vbar(s) = (e^((T-s)B) sigma)^T w,

which hits the target identically (``gamma(T) = y`` is the Gramian identity)
and whose cost is the covariance quadratic form.  This convention reproduces
the classical cost formula; textbook displays of the control itself differ
by reversible sign/time conventions that do not affect the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .exceptions import GramianError
from .gramian import input_response
from .model import SpaceTimePoint, dilation_scales, sigma_matrix

__all__ = [
    "ControlProblem",
    "OptimalControl",
    "ConeSpec",
    "optimal_control",
    "trajectory",
    "control_value",
    "partial_cost",
    "discrete_least_norm_control",
    "kappa_estimate",
    "cone_membership",
    "in_cones",
]


@dataclass(frozen=True)
class ControlProblem:
    """Endpoints ``(t, x) -> (T, y)`` over a drift system."""

    system: object
    t: float
    T: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not self.T > self.t:
            raise ValueError(f"need T > t, got t={self.t}, T={self.T}")
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.shape != (self.system.d,) or y.shape != (self.system.d,):
            raise ValueError(
                f"endpoints must have dimension {self.system.d}, got {x.shape}, {y.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def horizon(self):
        return self.T - self.t


@dataclass(frozen=True)
class OptimalControl:
    """The Gramian-solved minimum-energy control and its cost."""

    problem: ControlProblem
    w: np.ndarray
    cost: float


def optimal_control(problem):
    """Solve the minimum-energy steering problem.

    Raises `GramianError` when the covariance is too badly conditioned at
    the horizon to factor.
    """
    tau = problem.horizon
    propagator = problem.system.propagator
    offset = problem.y - propagator.flow(tau) @ problem.x
    g = propagator.factor(tau)
    # w = C^-1 offset via the Cholesky factor, cost = <C^-1 offset, offset>.
    w = cho_solve((g.chol, True), offset)
    cost = float(offset @ w)
    return OptimalControl(problem=problem, w=w, cost=max(cost, 0.0))


def control_value(ctrl, s):
    """``vbar(s) = (e^((T-s)B) sigma)^T w`` on the control horizon."""
    p = ctrl.problem
    if not p.t <= s <= p.T:
        raise ValueError(f"s={s} outside [{p.t}, {p.T}]")
    sig = sigma_matrix(p.system.structure)
    return (p.system.propagator.flow(p.T - s) @ sig).T @ ctrl.w


def trajectory(ctrl, s):
    """Controlled state ``gamma(s) = e^(-(T-s)B) (y - C(T-s) w)``.

    This is ``e^((s-t)B) x + C(s-t) e^((T-s)B^T) w`` rewritten with the
    semigroup identity for ``C(T-t)``, so it needs the single exponential at
    ``T - s``; ``gamma(t) = x`` and ``gamma(T) = y`` hold identically.
    """
    p = ctrl.problem
    if not p.t <= s <= p.T:
        raise ValueError(f"s={s} outside [{p.t}, {p.T}]")
    if s == p.t:
        return p.x.copy()
    inv_flow, _, C = p.system.propagator.at(p.T - s)
    return inv_flow @ (p.y - C @ ctrl.w)


def partial_cost(ctrl, s_lo, s_hi):
    """Energy spent on ``[s_lo, s_hi]``: ``w^T [C(T - s_lo) - C(T - s_hi)] w``."""
    p = ctrl.problem
    if not p.t <= s_lo <= s_hi <= p.T:
        raise ValueError(f"need t <= s_lo <= s_hi <= T, got {s_lo}, {s_hi}")
    if s_lo == s_hi:
        return 0.0
    C_hi = p.system.propagator.gramian(p.T - s_lo)
    C_lo = (
        p.system.propagator.gramian(p.T - s_hi) if s_hi < p.T else np.zeros_like(C_hi)
    )
    return max(float(ctrl.w @ (C_hi - C_lo) @ ctrl.w), 0.0)


def discrete_least_norm_control(problem, n_steps):
    """Brute-force oracle: least-norm piecewise-constant control cost.

    The control is held constant on ``n_steps`` uniform intervals and the
    within-step flow is integrated exactly (zero-order hold), so the discrete
    reachability equation is a plain least-squares system; its minimum-norm
    solution cost converges to the optimal cost as ``n_steps`` grows.  This
    route never touches the Gramian solve it is used to check.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 steps, got {n_steps}")
    p = problem
    d, m0 = p.system.d, p.system.m0
    dt = p.horizon / n_steps
    A, G = input_response(p.system, dt)

    M = np.zeros((d, n_steps * m0))
    Apow = np.eye(d)
    for k in range(n_steps - 1, -1, -1):
        M[:, k * m0 : (k + 1) * m0] = Apow @ G
        Apow = Apow @ A
    b = p.y - Apow @ p.x
    v, _, rank, _ = np.linalg.lstsq(M, b, rcond=None)
    if np.linalg.norm(M @ v - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise GramianError("discrete reachability map is singular; target unreachable")
    return float(v @ v) * dt


def kappa_estimate(system):
    """Certified cone constant for controlled trajectories.

    For any control ``v`` on ``[t, t + s]``, the dilated reachable offset is
    bounded by ``kappa_raw(s) * ||v||_L2`` where ``kappa_raw(s)`` is the
    operator norm of the input-to-dilated-state map, i.e. the square root of
    the top eigenvalue of ``D(1/sqrt(s)) C(s) D(1/sqrt(s))``.  The returned
    value is the maximum over the grid ``s = k/1024``, ``k = 1..1024``, with a
    1.1 safety factor, so sampled trajectory points of any finite-energy
    control stay strictly inside the cone of that radius.

    The grid's Gramians come from the system's propagator, one exponential
    for the uniform step, for any drift, and the top eigenvalues from one
    batched ``eigvalsh``.
    """
    h, n = 1.0 / 1024, 1024
    s_grid = h * np.arange(1, n + 1)
    scale = dilation_scales(system.structure, s_grid**-0.5)
    dilated = scale[:, :, None] * system.propagator.gramians(h, n) * scale[:, None, :]
    top = np.linalg.eigvalsh(dilated)[:, -1].max()
    return 1.1 * float(np.sqrt(max(top, 0.0)))


@dataclass(frozen=True)
class ConeSpec:
    """The cone ``{base o delta_l(beta, xi): |xi| < r, 0 < l <= R}``.

    Chain cones use ``beta < 1``; the trajectory-confinement cone uses
    ``beta = 1``, so the full range ``(0, 1]`` is accepted.
    """

    beta: float
    r: float
    R: float
    base: SpaceTimePoint

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError(f"need 0 < beta <= 1, got {self.beta}")
        if not (self.r > 0 and self.R > 0):
            raise ValueError("cone radii must be positive")


def cone_membership(cone, p, system):
    """Whether ``p`` lies in the cone: dilation scale in range, dilated offset small.

    Solves ``l = sqrt((t_p - t_base) / beta)`` and tests ``0 < l <= R`` and
    ``|D(1/l)(x_p - e^((t_p - t_base) B) x_base)| < r`` through `in_cones`.
    Points at or before the base time are simply not members (no error).
    """
    dt = p.t - cone.base.t
    offset = p.x - system.propagator.flow(dt) @ cone.base.x
    return bool(in_cones(system.structure, cone.beta, cone.r, cone.R, dt, offset))


def in_cones(structure, beta, r, R, dt, offsets):
    """The cone test on offsets ``x_p - e^(dt B) x_base`` over time steps ``dt``.

    One step (a number and a ``(d,)`` offset) or rows of them (``(n,)`` and
    ``(n, d)``, giving ``(n,)``): a step is inside when ``dt > 0``,
    ``l = sqrt(dt / beta) <= R`` and ``|D(1/l) offset| < r``.  The one
    dilated-offset test, behind `cone_membership` and `chain.verify_chain`.
    """
    dt = np.asarray(dt, dtype=float)
    lam = np.sqrt(np.abs(dt) / beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = dilation_scales(structure, 1.0 / lam) * offsets
        radius = np.sqrt(np.einsum("...i,...i->...", xi, xi))
    return (dt > 0) & (lam <= R) & (radius < r)
