"""Explicit Gaussian fundamental solutions and the two-sided bound envelopes.

For a comparison operator with diffusion strength ``lambda``, the
fundamental solution is the Gaussian with mean ``e^((T-t)B) x`` and the
time-weighted covariance `kolmo.gramian.gramian_weighted`: ``lambda C(T-t)``
for a constant strength, a closed form for one that varies in time.  All
density work happens in log space; ratios of kernels are exponent
differences, so tails never overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gramian import (
    gramian_weighted,
    is_time_field,
    log_density,
    quadratic_form,
    strength_at,
)
from .model import dilation_scales, homogeneous_dimension

__all__ = [
    "GaussianKernel",
    "eval_kernel",
    "eval_log_kernel",
    "chapman_kolmogorov_residual",
    "normalization_residual",
    "pde_residual",
    "cauchy_solution",
    "aronson_upper_form",
    "lower_bound_form",
    "payoff_polynomial",
]


# Tensor Gauss-Legendre on the dilation-adapted box
# ``|D((T-t)^(-1/2)) (z - mean)|_inf <= 8``, with 160 nodes per axis; the
# Gaussian mass outside is negligible for diffusion strengths up to about 1.
_BOX_RADIUS = 8.0
_QUAD_NODES = 160


class GaussianKernel:
    """Gaussian fundamental solution of a comparison operator.

    Parameters
    ----------
    system : SystemMatrix
        Drift system; must satisfy the full-rank coupling condition, else
        covariance construction raises `GramianError`.
    lam : float or scalar field
        Diffusion strength: a positive number, which gives covariance
        ``lam * C(T-t)``, or a constant, time-sinusoid or time-tabulated
        scalar field, which gives the exact time-weighted covariance.  A
        strength that is not positive somewhere on ``[t, T]`` raises
        `GramianError` there; a field that depends on space, or a strength
        of any other type, raises `CoefficientError` here.

    Flows come from the system's propagator.  The covariances of the last
    32 ``(t, T)`` pairs are cached with their Cholesky factors; the cache is
    safe to share between threads.
    """

    def __init__(self, system, lam=1.0):
        self.system = system
        self.lam = lam
        if not is_time_field(lam) and strength_at(lam, 0.0) <= 0:
            raise ValueError(f"diffusion strength must be positive, got {lam}")
        self._covariance = lru_cache(maxsize=32)(self._build_covariance)

    @property
    def d(self):
        return self.system.d

    def lambda_at(self, t):
        """Diffusion strength at time ``t``."""
        return strength_at(self.lam, t)

    def flow(self, dt):
        return self.system.propagator.flow(dt)

    def covariance(self, t, T):
        """The covariance Gramian of the transition from ``t`` to ``T``."""
        if not T > t:
            raise ValueError(f"need T > t, got t={t}, T={T}")
        return self._covariance(float(t), float(T))

    def _build_covariance(self, t, T):
        return gramian_weighted(self.system, self.lam, t, T)

    def log_batch(self, t, x, T, Y):
        """Log density at targets ``Y`` (n, d) from a single source ``(t, x)``."""
        mean = self.flow(T - t) @ np.asarray(x, dtype=float)
        return log_density(self.covariance(t, T), np.atleast_2d(Y) - mean[None, :])

    def log_batch_sources(self, t, X, T, y):
        """Log density at a single target ``y`` from sources ``X`` (n, d)."""
        delta = np.asarray(y, dtype=float)[None, :] - np.atleast_2d(X) @ self.flow(T - t).T
        return log_density(self.covariance(t, T), delta)


def eval_log_kernel(kernel, t, x, T, y):
    """Log of the Gaussian fundamental solution; stable arbitrarily far in the tail."""
    return float(kernel.log_batch(t, x, T, np.asarray(y, dtype=float)[None, :])[0])


def eval_kernel(kernel, t, x, T, y):
    """Gaussian fundamental solution value, computed as ``exp`` of the log form."""
    return float(np.exp(eval_log_kernel(kernel, t, x, T, y)))


def _dilated_box(system, center, scale):
    """Gauss-Legendre nodes/weights on the dilation-adapted box around ``center``."""
    nodes, wts = np.polynomial.legendre.leggauss(_QUAD_NODES)
    half = _BOX_RADIUS * dilation_scales(system.structure, scale)
    axes = [center[i] + half[i] * nodes for i in range(system.d)]
    waxes = [half[i] * wts for i in range(system.d)]
    if system.d == 1:
        return axes[0][:, None], waxes[0]
    if system.d == 2:
        Z1, Z2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        W = np.outer(waxes[0], waxes[1]).ravel()
        return np.stack([Z1.ravel(), Z2.ravel()], axis=1), W
    raise ValueError(f"quadrature supported for d <= 2, got d={system.d}")


def chapman_kolmogorov_residual(kernel, t, x, T, y, s):
    """Relative defect of the semigroup identity at intermediate time ``s``.

    Computes ``|int G(t,x;s,z) G(s,z;T,y) dz - G(t,x;T,y)| / G(t,x;T,y)``
    by tensor Gauss-Legendre over the dilated box of the first factor.
    Supported in dimension at most 2.
    """
    if not (t < s < T):
        raise ValueError(f"need t < s < T, got t={t}, s={s}, T={T}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mean = kernel.flow(s - t) @ x
    Z, W = _dilated_box(kernel.system, mean, np.sqrt(s - t))
    f1 = np.exp(kernel.log_batch(t, x, s, Z))
    f2 = np.exp(kernel.log_batch_sources(s, Z, T, y))
    integral = float(np.sum(W * f1 * f2))
    ref = eval_kernel(kernel, t, x, T, y)
    return abs(integral - ref) / ref


def normalization_residual(kernel, t, x, T):
    """``|int G(t,x;T,y) dy - 1|`` by quadrature (d <= 2)."""
    x = np.asarray(x, dtype=float)
    mean = kernel.flow(T - t) @ x
    Z, W = _dilated_box(kernel.system, mean, np.sqrt(T - t))
    return abs(float(np.sum(W * np.exp(kernel.log_batch(t, x, T, Z)))) - 1.0)


def pde_residual(kernel, t, x, T, y, h=None, drift_matrix=None):
    """Centered finite-difference residual of the kernel's own equation.

    Evaluates ``(lam(t)/2) sum_i d^2_{x_i} G + <B x, D G> + d_t G`` at
    ``(t, x)``, normalized by ``G``.  The time step is ``h**2`` and the step
    for a coordinate in block ``j`` is ``h**(2j+1)``, matching the
    anisotropic smoothness scale; the default ``h`` is
    ``1e-3 * sqrt(T - t)``.  ``drift_matrix`` overrides the drift used in
    the operator (not in the kernel), for negative-control experiments.

    Requires ``T - t > 10 h**2`` so the stencil stays inside the domain.
    """
    if h is None:
        h = 1e-3 * np.sqrt(T - t)
    if not T - t > 10.0 * h * h:
        raise ValueError(f"horizon T-t={T - t} too small for time step h^2={h * h}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    system = kernel.system
    B = system.B if drift_matrix is None else np.asarray(drift_matrix, dtype=float)
    m0 = system.m0
    steps = dilation_scales(system.structure, h)

    def g(tt, xx):
        return float(np.exp(kernel.log_batch(tt, xx, T, y[None, :])[0]))

    center = g(t, x)
    ht = h * h
    dt_g = (g(t + ht, x) - g(t - ht, x)) / (2.0 * ht)

    lap = 0.0
    grad = np.zeros(system.d)
    for i in range(system.d):
        hi = steps[i]
        e = np.zeros(system.d)
        e[i] = hi
        gp, gm = g(t, x + e), g(t, x - e)
        grad[i] = (gp - gm) / (2.0 * hi)
        if i < m0:
            lap += (gp - 2.0 * center + gm) / (hi * hi)

    residual = 0.5 * kernel.lambda_at(t) * lap + float((B @ x) @ grad) + dt_g
    return abs(residual) / center


def cauchy_solution(kernel, phi, t, x, T):
    """Terminal-value representation ``u(t,x) = int G(t,x;T,y) phi(y) dy``.

    ``phi`` must be bounded and continuous for the representation to solve
    the terminal-value problem; `payoff_polynomial` is a serializable choice.
    Quadrature supported for d <= 2.
    """
    x = np.asarray(x, dtype=float)
    mean = kernel.flow(T - t) @ x
    Z, W = _dilated_box(kernel.system, mean, np.sqrt(T - t))
    vals = np.array([phi(z) for z in Z], dtype=float)
    return float(np.sum(W * np.exp(kernel.log_batch(t, x, T, Z)) * vals))


def payoff_polynomial(constant, linear, cap):
    """Affine payoff ``clip(c0 + <linear, y>, -cap, cap)``."""
    linear = np.asarray(linear, dtype=float)

    def phi(y):
        return float(np.clip(constant + linear @ np.asarray(y, dtype=float), -cap, cap))

    return phi


def _bound_offset(c, system, t, x, T, y):
    """``T - t``, the prefactor ``(T-t)^(-Q/2)`` and the offset ``y - e^((T-t)B) x``.

    ``y`` is one target ``(d,)`` or target rows ``(n, d)``; the offset has its
    shape.  The bound forms hold on unit horizons only, with a positive
    constant ``c``.
    """
    if not 0 < T - t <= 1:
        raise ValueError(f"bound forms require 0 < T - t <= 1, got {T - t}")
    if not c > 0:
        raise ValueError(f"bound forms require a positive constant, got {c}")
    tau = T - t
    Q = homogeneous_dimension(system.structure)
    offset = np.asarray(y, float) - system.propagator.flow(tau) @ np.asarray(x, float)
    return tau, tau ** (-Q / 2.0), offset


def aronson_upper_form(c_A, system, t, x, T, y):
    """Dilated-norm upper envelope ``c_A (T-t)^(-Q/2) exp(-|D((T-t)^(-1/2)) offset|^2 / c_A)``.

    ``y`` is one target ``(d,)``, giving a float, or target rows ``(n, d)``,
    giving an ``(n,)`` array, each entry bit for bit its row's one-target value.
    """
    tau, prefactor, offset = _bound_offset(c_A, system, t, x, T, y)
    z = dilation_scales(system.structure, tau**-0.5) * offset
    # A row times its column is the same inner product as the 1-d ``z @ z``.
    sq = (z[..., None, :] @ z[..., :, None])[..., 0, 0]
    value = c_A * prefactor * np.exp(-sq / c_A)
    return value if offset.ndim == 2 else float(value)


def lower_bound_form(c_D, system, t, x, T, y):
    """Covariance-form lower envelope ``c_D (T-t)^(-Q/2) exp(-<C^-1 offset, offset> / c_D)``.

    ``y`` is one target ``(d,)``, giving a float, or target rows ``(n, d)``,
    giving an ``(n,)`` array.
    """
    tau, prefactor, offset = _bound_offset(c_D, system, t, x, T, y)
    q = quadratic_form(system.propagator.factor(tau), offset)
    value = c_D * prefactor * np.exp(-q / c_D)
    return value if offset.ndim == 2 else float(value)
