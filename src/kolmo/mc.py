"""Path simulation, density estimation, and two-sided bound verification.

The simulated diffusion matches the operator written in divergence form: the
squared diffusion coefficient on the first ``m0`` coordinates is ``2 a`` (for
a comparison operator with strength ``lambda``, ``a = (lambda/2) I`` gives the
factor ``sqrt(lambda)``), and the drift picks up the divergence correction
``sum_j d_j a_ij`` plus the first-order coefficients.  Paths take one of
two routes:

- *One shot.*  Where the diffusion depends on time only and every
  lower-order coefficient is a constant, the endpoint law is exactly
  Gaussian, ``N(e^(tau B) x + J(tau) b, C_w)`` with ``C_w`` the time-weighted
  covariance in closed form; each path draws its endpoint from ``d``
  normals, and the step count is not used.
- *Stepped.*  Elsewhere (space-dependent diffusion, lower-order
  coefficients that vary), linear drift and additive noise are integrated
  exactly within each step with coefficients frozen at the step start; the
  scheme coincides with Euler-Maruyama at weak order one.

Randomness is counter-partitioned: paths are processed in fixed blocks of
``2**14`` and block ``i`` draws from its own region of a Philox stream keyed
by the seed, so endpoints are bit-identical for a given seed regardless of
worker count or path count.  One-shot blocks draw only the rows they keep;
stepped blocks simulate all ``2**14`` paths.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from . import fields
from .exceptions import CoefficientError, GramianError
from .gramian import (
    Gramian,
    Propagator,
    gramian_matrix,
    gramian_weighted,
    quadratic_form,
)
from .kernel import GaussianKernel
from .model import (
    dilation_scales,
    ellipticity_check,
    homogeneous_dimension,
    sigma_matrix,
)

__all__ = [
    "SimConfig",
    "DensityEstimate",
    "BoundReport",
    "simulate_paths",
    "estimate_density",
    "mass_concentration",
    "mass_concentration_dual",
    "verify_bounds",
]

_CHUNK = 1 << 14
# Horizons of the on-diagonal fit, as fractions of ``T - t``.
_DIAGONAL_FRACTIONS = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class SimConfig:
    """Path count, step count and seed of a simulation run."""

    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need n_paths >= 1 and n_steps >= 1")


def _is_zero_scalar(f):
    return f is None or (isinstance(f, fields.ConstantField) and f.value == 0.0)


def _chunk_generator(seed, chunk_index):
    # Each chunk owns counter block [0, 0, chunk, 0]: streams never overlap.
    bg = np.random.Philox(key=int(seed) & ((1 << 64) - 1), counter=[0, 0, chunk_index, 0])
    return np.random.Generator(bg)


def simulate_paths(spec, t, x, T, config):
    """Sample endpoint states of the operator's diffusion at time ``T``.

    Where the endpoint law is exactly Gaussian (see `_gaussian_endpoint`)
    each path draws its endpoint in one shot and ``config.n_steps`` is not
    used; elsewhere paths take ``config.n_steps`` frozen-coefficient steps.

    Parameters
    ----------
    spec : OperatorSpec
        Operator with vanishing zeroth-order coefficient (a potential term
        breaks the transition-density interpretation of the samples).
    t, T : float
        Start and end times, ``T > t``.
    x : (d,) array_like
        Common initial state.
    config : SimConfig

    Returns
    -------
    (n_paths, d) ndarray
    """
    if T <= t:
        raise ValueError(f"need T > t, got t={t}, T={T}")
    if not _is_zero_scalar(spec.c):
        raise ValueError("simulation requires a vanishing zeroth-order coefficient")
    d = spec.system.d
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},), got {x.shape}")

    law = _gaussian_endpoint(spec, t, x, T)
    if law is None:
        run_chunk = _stepped_chunk_runner(spec, t, x, T, config)
    else:
        mean, L = law

        def run_chunk(chunk_index, rows):
            Z = _chunk_generator(config.seed, chunk_index).standard_normal((len(rows), d))
            np.matmul(Z, L.T, out=rows)
            rows += mean

    n = config.n_paths
    out = np.empty((n, d))
    chunks = [(c, out[c * _CHUNK : (c + 1) * _CHUNK]) for c in range(-(-n // _CHUNK))]
    workers = int(os.environ.get("KOLMO_THREADS", "1"))
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda job: run_chunk(*job), chunks))
    else:
        for c, rows in chunks:
            run_chunk(c, rows)
    return out


def _input_response(system, s):
    """``int_0^s e^(uB) sigma du``, the state's response to a unit constant input."""
    d, m0 = system.d, system.m0
    aug = np.zeros((d + m0, d + m0))
    aug[:d, :d] = system.B
    aug[:d, d:] = sigma_matrix(system.structure)
    return expm(aug * s)[:d, d:]


def _gaussian_endpoint(spec, t, x, T):
    """Mean and covariance factor of the endpoint law where it is exactly Gaussian.

    It is where the diffusion does not depend on space and every lower-order
    coefficient is a constant, summing to ``b``: the endpoint is then
    ``N(e^(tau B) x + J(tau) b, C_w)`` with ``J`` from `_input_response` and
    ``C_w`` the covariance of the linear diffusion with squared coefficient
    ``2 a`` on the leading block.  Elsewhere returns None.
    """
    a = spec.a
    low = spec.a_low.components + spec.b_low.components
    if a.space_dependent or not all(isinstance(c, fields.ConstantField) for c in low):
        return None
    system = spec.system
    tau = T - t
    if isinstance(a, fields.ConstantMatrixField):
        sig = sigma_matrix(system.structure)
        C = Propagator(system.B, sig @ (2.0 * a.matrix) @ sig.T).gramian(tau)
        cov = Gramian.from_matrix(C, tau, system)
    else:
        try:
            cov = gramian_weighted(system, _doubled(a.scalar), t, T)
        except GramianError as exc:  # a strength not positive on [t, T]
            raise CoefficientError(f"diffusion strength: {exc}") from exc
    mean = system.propagator.flow(tau) @ x
    b = np.add([c.value for c in spec.a_low.components], [c.value for c in spec.b_low.components])
    if np.any(b):
        mean = mean + _input_response(system, tau) @ b
    return mean, cov.chol


def _stepped_chunk_runner(spec, t, x, T, config):
    """Chunk simulation by ``config.n_steps`` steps with coefficients frozen at each start.

    Returns ``run_chunk(chunk_index, rows)``, which fills the ``rows`` view
    with that chunk's endpoints.  Every chunk simulates ``2**14`` paths.
    """
    system = spec.system
    d, m0 = system.d, system.m0
    a_field = spec.a
    space_dep = a_field.space_dependent
    if space_dep:
        if isinstance(getattr(a_field, "scalar", None), fields.TabulatedField):
            raise CoefficientError(
                "tabulated space-dependent diffusion is piecewise constant; "
                "the scheme has no convergence guarantees there"
            )
        if not isinstance(a_field, fields.IsotropicMatrixField):
            raise CoefficientError(
                "space-dependent diffusion must be an isotropic scalar field"
            )

    dt = (T - t) / config.n_steps
    step_times = t + dt * np.arange(config.n_steps)
    sig = sigma_matrix(system.structure)
    A = expm(dt * system.B)
    J_dt = _input_response(system, dt)

    L_base = None
    L_const = None
    if not space_dep:
        if isinstance(a_field, fields.ConstantMatrixField):
            Q = sig @ (2.0 * a_field.matrix) @ sig.T
            L_const = np.linalg.cholesky(Propagator(system.B, Q).gramian(dt))
        else:
            # Isotropic: per-step covariance is 2*alpha(s_k) * C(dt).
            L_base = np.linalg.cholesky(gramian_matrix(system, dt))

    def low_drift_batch(s, X):
        """Divergence correction plus first-order coefficients, (n, m0)."""
        out = np.stack(
            [fields.batch_scalar(c, s, X) for c in spec.a_low.components], axis=1
        )
        out += np.stack(
            [fields.batch_scalar(c, s, X) for c in spec.b_low.components], axis=1
        )
        if space_dep:
            out += fields.batch_gradient(a_field.scalar, X)[:, :m0]
        return out

    def run_chunk(chunk_index, rows):
        rng = _chunk_generator(config.seed, chunk_index)
        X = np.tile(x, (_CHUNK, 1))
        for s_k in step_times:
            if space_dep:
                Z = rng.standard_normal((_CHUNK, m0))
                alpha = fields.batch_scalar(a_field.scalar, s_k, X)
                if np.any(alpha <= 0):
                    raise CoefficientError(f"diffusion strength not positive at s={s_k}")
                noise = (np.sqrt(2.0 * alpha * dt)[:, None] * Z) @ sig.T
            else:
                Z = rng.standard_normal((_CHUNK, d))
                if L_const is not None:
                    noise = Z @ L_const.T
                else:
                    lam_k = 2.0 * float(a_field.scalar(s_k, None))
                    if lam_k <= 0:
                        raise CoefficientError(f"diffusion strength not positive at s={s_k}")
                    noise = math.sqrt(lam_k) * (Z @ L_base.T)
            X = X @ A.T + low_drift_batch(s_k, X) @ J_dt.T + noise
        rows[:] = X[: len(rows)]

    return run_chunk


@dataclass(frozen=True)
class DensityEstimate:
    """Box-kernel density value with exact binomial error bars."""

    value: float
    stderr: float
    n_hits: int
    bandwidth: float


def estimate_density(endpoints, y, h, structure, horizon):
    """Anisotropic box-kernel estimate of the transition density at ``y``.

    The box is ``|D(horizon^(-1/2)) (X - y)|_inf <= h/2``, whose volume in
    original coordinates is ``h**d * horizon**(Q/2)``; the estimate is the
    hit fraction over that volume and the stderr is binomial.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    if endpoints.ndim != 2 or endpoints.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) endpoint matrix")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    n, d = endpoints.shape
    scale = dilation_scales(structure, horizon**-0.5)
    # In place after the one subtraction: no further (n, d) temporaries.
    scaled = endpoints - np.asarray(y, float)[None, :]
    scaled *= scale
    np.abs(scaled, out=scaled)
    hits = int(np.sum(np.all(scaled <= h / 2.0, axis=1)))
    Q = homogeneous_dimension(structure)
    volume = h**d * horizon ** (Q / 2.0)
    p = hits / n
    return DensityEstimate(
        value=p / volume,
        stderr=math.sqrt(p * (1.0 - p) / n) / volume,
        n_hits=hits,
        bandwidth=h,
    )


def mass_concentration(endpoints, flow_point, R, structure, horizon):
    """Fraction of endpoints in the dilated ball of radius ``R`` at the flow image."""
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    endpoints = np.asarray(endpoints, dtype=float)
    scale = dilation_scales(structure, horizon**-0.5)
    scaled = (endpoints - np.asarray(flow_point, float)[None, :]) * scale
    return float(np.mean(np.linalg.norm(scaled, axis=1) <= R))


def mass_concentration_dual(kernel, t, T, y, R):
    """Source-side mass near the backward flow: quadrature check of the dual form.

    Computes ``int G(t, x; T, y) dx`` over
    ``|D((T-t)^(-1/2)) (y - e^((T-t)B) x)| <= R`` by substituting the dilated
    offset, for constant-coefficient kernels in dimension at most 2: 128
    Gauss-Legendre radial nodes, and 256 equispaced angles in dimension 2.
    """
    n_radial, n_angular = 128, 256
    system = kernel.system
    d = system.d
    tau = T - t
    cov = kernel.covariance(t, T)
    scales = dilation_scales(system.structure, tau**0.5)
    # dx = e^(-tau tr B) det D(sqrt(tau)) dz
    jac = math.exp(-tau * float(np.trace(system.B))) * float(np.prod(scales))
    norm = (2.0 * math.pi) ** (-d / 2.0) * math.exp(-0.5 * cov.logdet)

    def density_of_z(Z):
        return norm * np.exp(-0.5 * quadratic_form(cov, Z * scales))

    if d == 1:
        nodes, wts = np.polynomial.legendre.leggauss(n_radial)
        Z = (R * nodes)[:, None]
        return jac * float(np.sum(R * wts * density_of_z(Z)))
    if d == 2:
        nodes, wts = np.polynomial.legendre.leggauss(n_radial)
        r = 0.5 * R * (nodes + 1.0)
        wr = 0.5 * R * wts
        theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
        wt = 2.0 * math.pi / n_angular
        Rg, Tg = np.meshgrid(r, theta, indexing="ij")
        Z = np.stack([(Rg * np.cos(Tg)).ravel(), (Rg * np.sin(Tg)).ravel()], axis=1)
        f = density_of_z(Z).reshape(n_radial, n_angular)
        return jac * float(np.sum(wr[:, None] * Rg * f) * wt)
    raise ValueError(f"dual quadrature supported for d <= 2, got d={d}")


@dataclass(frozen=True)
class BoundReport:
    """Per-point kernel comparison against the two comparison kernels.

    ``C_minus`` is the smallest sampled ratio against the slow kernel and
    ``C_plus`` the largest against the fast one, so the two-sided sandwich
    holds on the grid by construction whenever both are positive and finite.
    Monte Carlo estimates widen the ratios by three standard errors.
    """

    y_grid: np.ndarray
    gamma: np.ndarray
    stderr: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    ratio_minus: np.ndarray
    ratio_plus: np.ndarray
    C_minus: float
    C_plus: float
    lambda_minus: float
    lambda_plus: float
    exact: bool
    zero_hit_indices: tuple
    psd_margins: tuple
    diagonal_horizons: tuple
    diagonal_c: tuple
    diagonal_c_fit: float
    seed: int


def _exact_comparison_kernel(spec):
    """The exact Gaussian kernel when the diffusion is time-only, no lower order."""
    a = spec.a
    if not (_is_zero_scalar(spec.c) and spec.a_low.is_zero() and spec.b_low.is_zero()):
        return None
    if isinstance(a, fields.ConstantMatrixField):
        m = a.matrix
        if np.allclose(m, m[0, 0] * np.eye(m.shape[0]), rtol=0, atol=1e-14):
            return GaussianKernel(spec.system, 2.0 * float(m[0, 0]))
        return None
    if isinstance(a, fields.IsotropicMatrixField) and not a.space_dependent:
        return GaussianKernel(spec.system, lam=_doubled(a.scalar))
    return None


def _doubled(f):
    """The time-only scalar field ``2 f``, of the same kind."""
    if isinstance(f, fields.TabulatedField):
        return replace(f, values=tuple(2.0 * v for v in f.values))
    if isinstance(f, fields.TimeSinusoidField):
        return replace(f, base=2.0 * f.base, amplitude=2.0 * f.amplitude)
    return replace(f, value=2.0 * f.value)


def verify_bounds(
    spec,
    t,
    x,
    T,
    y_grid,
    lambda_minus,
    lambda_plus,
    sim_config=None,
    bandwidth=0.2,
):
    """Fit two-sided comparison constants on a target grid.

    When the operator's diffusion is a time-only multiple of the identity
    with no lower-order terms, the exact time-weighted Gaussian kernel is
    used; otherwise the density is estimated by simulation (``sim_config``
    required) and the fitted constants are widened by three standard errors.
    Also fits the on-diagonal constant ``c`` in
    ``G(t, x; t+h, x) >= c * h**(-Q/2)`` at ``h`` a quarter, a half and all
    of ``T - t``, and, on the exact route, checks the positive-semidefinite
    covariance sandwich ``lambda- C <= C_w <= lambda+ C``.

    The comparison range must cover the operator's sampled diffusion
    strength: ``lambda- <= 2 min_eig(a)`` and ``2 max_eig(a) <= lambda+``
    over the coefficient sample grid (the comparison operator against
    itself, ``lambda- = lambda+ = lambda``, is the boundary case).
    """
    if not (0 < lambda_minus <= lambda_plus):
        raise ValueError("need 0 < lambda- <= lambda+")
    mu_low, mu_high = ellipticity_check(spec)
    strength_lo, strength_hi = 2.0 / mu_low, 2.0 * mu_high
    if lambda_minus > strength_lo * (1 + 1e-9) or lambda_plus < strength_hi * (1 - 1e-9):
        raise ValueError(
            "inconsistent comparison range: sampled diffusion strength is "
            f"[{strength_lo}, {strength_hi}] but requested "
            f"[{lambda_minus}, {lambda_plus}]"
        )
    system = spec.system
    x = np.asarray(x, dtype=float)
    y_grid = np.atleast_2d(np.asarray(y_grid, dtype=float))
    tau = T - t
    Q = homogeneous_dimension(system.structure)

    kernel_lo = GaussianKernel(system, lambda_minus)
    kernel_hi = GaussianKernel(system, lambda_plus)
    log_g_minus = kernel_lo.log_batch(t, x, T, y_grid)
    log_g_plus = kernel_hi.log_batch(t, x, T, y_grid)
    g_minus = np.exp(log_g_minus)
    g_plus = np.exp(log_g_plus)

    exact_kernel = _exact_comparison_kernel(spec)
    psd_margins = ()
    zero_hits = ()
    seed = -1
    if exact_kernel is not None:
        gamma = np.exp(exact_kernel.log_batch(t, x, T, y_grid))
        stderr = np.zeros_like(gamma)
        gamma_lo_conf, gamma_hi_conf = gamma, gamma
        C_w = exact_kernel.covariance(t, T).C
        C_base = gramian_matrix(system, tau)
        psd_margins = (
            float(np.linalg.eigvalsh(C_w - lambda_minus * C_base).min()),
            float(np.linalg.eigvalsh(lambda_plus * C_base - C_w).min()),
        )
        diag_gamma = [
            float(np.exp(exact_kernel.log_batch(t, x, t + f * tau, x[None, :])[0]))
            for f in _DIAGONAL_FRACTIONS
        ]
    else:
        if sim_config is None:
            raise ValueError("sim_config is required when no exact kernel is available")
        seed = sim_config.seed
        endpoints = simulate_paths(spec, t, x, T, sim_config)
        ests = [
            estimate_density(endpoints, y, bandwidth, system.structure, tau)
            for y in y_grid
        ]
        gamma = np.array([e.value for e in ests])
        stderr = np.array([e.stderr for e in ests])
        zero_hits = tuple(int(i) for i, e in enumerate(ests) if e.n_hits == 0)
        gamma_lo_conf = np.maximum(gamma - 3.0 * stderr, 0.0)
        gamma_hi_conf = gamma + 3.0 * stderr
        diag_gamma = []
        for f in _DIAGONAL_FRACTIONS:
            # The full horizon is the main run's: reuse its endpoints.
            ep = endpoints if f == 1.0 else simulate_paths(spec, t, x, t + f * tau, sim_config)
            diag_gamma.append(
                estimate_density(ep, x, bandwidth, system.structure, f * tau).value
            )

    live = [i for i in range(len(y_grid)) if i not in zero_hits]
    # Ratios through log space: comparison kernels never underflow there,
    # and zero estimates give a zero ratio rather than 0/0.
    with np.errstate(divide="ignore"):
        ratio_minus = np.where(
            gamma_lo_conf > 0, np.exp(np.log(np.maximum(gamma_lo_conf, 1e-300)) - log_g_minus), 0.0
        )
        ratio_plus = np.where(
            gamma_hi_conf > 0, np.exp(np.log(np.maximum(gamma_hi_conf, 1e-300)) - log_g_plus), 0.0
        )
    C_minus = float(np.min(ratio_minus[live])) if live else float("nan")
    C_plus = float(np.max(ratio_plus[live])) if live else float("nan")

    diagonal_c = tuple(
        g * (f * tau) ** (Q / 2.0) for g, f in zip(diag_gamma, _DIAGONAL_FRACTIONS)
    )
    return BoundReport(
        y_grid=y_grid,
        gamma=gamma,
        stderr=stderr,
        gamma_minus=g_minus,
        gamma_plus=g_plus,
        ratio_minus=ratio_minus,
        ratio_plus=ratio_plus,
        C_minus=C_minus,
        C_plus=C_plus,
        lambda_minus=float(lambda_minus),
        lambda_plus=float(lambda_plus),
        exact=exact_kernel is not None,
        zero_hit_indices=zero_hits,
        psd_margins=psd_margins,
        diagonal_horizons=tuple(f * tau for f in _DIAGONAL_FRACTIONS),
        diagonal_c=diagonal_c,
        diagonal_c_fit=float(min(diagonal_c)),
        seed=seed,
    )
