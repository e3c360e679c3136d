"""Explicit Gaussian fundamental solutions and the two-sided bound envelopes.

For a comparison operator with diffusion strength ``lambda``, the
fundamental solution is the Gaussian with mean ``e^((T-t)B) x`` and the
time-weighted covariance `kolmo.gramian.gramian_weighted`: ``lambda C(T-t)``
for a constant strength, a closed form for one that varies in time; a
matrix strength and a drift give `kolmo.mc` its exact laws.  All density
work happens in log space; ratios of kernels are exponent differences, so
tails never overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gramian import (
    gramian_weighted,
    input_response,
    is_time_field,
    log_density,
    quadratic_form,
    strength_at,
)
from .model import dilation_scales, homogeneous_dimension

__all__ = [
    "GaussianKernel",
    "chapman_kolmogorov_residual",
    "pde_residual",
    "aronson_upper_form",
    "lower_bound_form",
]


class GaussianKernel:
    """Gaussian fundamental solution of a comparison operator, or of any time-only one.

    Parameters
    ----------
    system : SystemMatrix
        Drift system; covariance construction raises `GramianError` at a
        horizon where the covariance is too badly conditioned to factor.
    lam : float, scalar field or (m0, m0) array_like
        Diffusion strength: a positive, finite number (covariance
        ``lam * C(T-t)``); a constant, time-sinusoid or time-tabulated scalar
        field (the exact time-weighted covariance); or a matrix (the noise
        ``sigma lam sigma^T``).  A strength that is not positive somewhere on
        ``[t, T]`` raises `GramianError` there; a field that depends on
        space, or a strength of any other type, raises `CoefficientError`.
    drift : (m0,) array_like, optional
        A constant input on the diffusion block, which shifts the `mean`.

    Flows come from the system's propagator.  The covariances of the last
    32 ``(t, T)`` pairs are cached with their Cholesky factors; the cache is
    safe to share between threads.
    """

    def __init__(self, system, lam=1.0, drift=None):
        m0 = system.m0
        self.system = system
        self.lam = np.asarray(lam, dtype=float) if np.ndim(lam) == 2 else lam
        self.drift = np.zeros(m0) if drift is None else np.asarray(drift, dtype=float)
        if np.shape(self.lam) not in ((), (m0, m0)) or self.drift.shape != (m0,):
            raise ValueError(f"need an ({m0}, {m0}) strength and an ({m0},) drift")
        if np.ndim(lam) == 0 and not is_time_field(lam) and not 0 < strength_at(lam, 0.0) < np.inf:
            raise ValueError(f"diffusion strength must be positive and finite, got {lam}")
        self._covariance = lru_cache(maxsize=32)(self._build_covariance)

    @property
    def d(self):
        return self.system.d

    def lambda_at(self, t):
        """Diffusion strength at time ``t``; a matrix strength raises `CoefficientError`."""
        return strength_at(self.lam, t)

    def flow(self, dt):
        return self.system.propagator.flow(dt)

    def mean(self, t, x, T):
        """``e^((T-t)B) x + J(T-t) drift``, ``J`` the input response of `input_response`."""
        mean = self.flow(T - t) @ np.asarray(x, dtype=float)
        if np.any(self.drift):
            mean = mean + input_response(self.system, T - t)[1] @ self.drift
        return mean

    def covariance(self, t, T):
        """The covariance Gramian of the transition from ``t`` to ``T``."""
        if not T > t:
            raise ValueError(f"need T > t, got t={t}, T={T}")
        return self._covariance(float(t), float(T))

    def _build_covariance(self, t, T):
        if np.ndim(self.lam) == 2:
            return self.system.diffusion_propagator(self.lam).factor(T - t)
        return gramian_weighted(self.system, self.lam, t, T)

    def log_batch(self, t, x, T, Y):
        """Log density at targets ``Y`` (n, d) from a single source ``(t, x)``."""
        mean = self.mean(t, x, T)
        return log_density(self.covariance(t, T), np.atleast_2d(Y) - mean[None, :])


def chapman_kolmogorov_residual(kernel, t, s, T):
    """Relative defect of the semigroup identity at intermediate time ``s``.

    Gaussian kernels compose into a Gaussian kernel: the means by the flow,
    ``e^((T-s)B) e^((s-t)B) = e^((T-t)B)``, and the covariances by
    ``C_w(t,T) = F C_w(t,s) F^T + C_w(s,T)`` with ``F = e^((T-s)B)``.
    Returns the larger of the two max-norm defects, each relative to the
    max norm of its right-hand side.  Holds in every dimension and for every
    strength the kernel accepts.
    """
    if not t < s < T:
        raise ValueError(f"need t < s < T, got t={t}, s={s}, T={T}")
    F = kernel.flow(T - s)
    C = kernel.covariance(t, T).C
    composed = F @ kernel.covariance(t, s).C @ F.T + kernel.covariance(s, T).C
    E = kernel.flow(T - t)
    return max(
        float(np.abs(composed - C).max() / np.abs(C).max()),
        float(np.abs(F @ kernel.flow(s - t) - E).max() / np.abs(E).max()),
    )


def pde_residual(kernel, t, x, T, y, h=None, drift_matrix=None):
    """Centered finite-difference residual of the kernel's own equation.

    Evaluates ``(lam(t)/2) sum_i d^2_{x_i} G + <B x + sigma drift, D G> + d_t G``
    at ``(t, x)``, normalized by ``G``.  The time step is ``h**2`` and the
    step for a coordinate in block ``j`` is ``h**(2j+1)``, matching the
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

    transport = float((B @ x) @ grad + kernel.drift @ grad[:m0])
    residual = 0.5 * kernel.lambda_at(t) * lap + transport + dt_g
    return abs(residual) / center


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
