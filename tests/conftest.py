import json
import math

import numpy as np
import pytest

from kolmo import fields
from kolmo.control import optimal_control
from kolmo.gramian import log_density
from kolmo.model import (
    OperatorSpec,
    dilation_scales,
    homogeneous_dimension,
    homogeneous_system,
    validate_structure,
)


@pytest.fixture
def langevin():
    """Velocity/position system: diffusion in the first coordinate only."""
    return validate_structure([[0.0, 0.0], [1.0, 0.0]], [1, 1])


@pytest.fixture
def heat1d():
    """Non-degenerate scalar system (zero drift)."""
    return validate_structure([[0.0]], [1])


@pytest.fixture
def kinetic21():
    """m = [2, 1]: two diffusive coordinates coupled into one."""
    B = np.zeros((3, 3))
    B[2, 0] = 1.0
    return validate_structure(B, [2, 1])


@pytest.fixture
def deep221():
    """m = [2, 2, 1]: a three-level cascade."""
    B = np.zeros((5, 5))
    B[2:4, 0:2] = np.eye(2)
    B[4, 2:4] = [1.0, 0.0]
    return validate_structure(B, [2, 2, 1])


@pytest.fixture
def starful():
    """2x2 system with a nonzero diagonal block above the coupling."""
    return validate_structure([[1.0, 0.0], [1.0, 0.0]], [1, 1])


def make_spec(system, lam=1.0, **kwargs):
    """Comparison-operator spec with constant diffusion strength ``lam``."""
    m0 = system.m0
    zero = fields.VectorField(tuple(fields.ConstantField(0.0) for _ in range(m0)))
    defaults = dict(
        system=system,
        a=fields.ConstantMatrixField((lam / 2.0) * np.eye(m0)),
        a_low=zero,
        b_low=zero,
        c=fields.ConstantField(0.0),
        mu=max(lam / 2.0, 2.0 / lam),
        M_bound=0.0,
    )
    defaults.update(kwargs)
    return OperatorSpec(**defaults)


def sinusoid_spec(system):
    """The time-sinusoid comparison operator: strength 1.25 + 0.75 sin(2 pi s).

    The diffusion coefficient is half the strength, so the declared
    ellipticity constant is 4 and the admissible comparison range is
    [1/4, 4].
    """
    m0 = system.m0
    zero = fields.VectorField(tuple(fields.ConstantField(0.0) for _ in range(m0)))
    a = fields.IsotropicMatrixField(
        fields.TimeSinusoidField(base=0.625, amplitude=0.375), m0
    )
    return OperatorSpec(
        system=system, a=a, a_low=zero, b_low=zero,
        c=fields.ConstantField(0.0), mu=4.0, M_bound=0.0,
    )


def langevin_config(lam=1.0):
    return {
        "blocks": [1, 1],
        "B": [[0.0, 0.0], [1.0, 0.0]],
        "coefficients": {"a": {"kind": "constant", "value": lam / 2.0}},
        "mu": max(lam / 2.0, 2.0 / lam),
        "M": 0.0,
    }


@pytest.fixture
def langevin_model_path(tmp_path):
    path = tmp_path / "langevin.json"
    path.write_text(json.dumps(langevin_config()))
    return str(path)


def bisection_stop(ctrl, t_j, right, eps):
    """First float in ``(t_j, right]`` where the energy spent since ``t_j`` reaches eps."""
    p = ctrl.problem

    def left(s):
        return 0.0 if s >= p.T else float(ctrl.w @ p.system.propagator.gramian(p.T - s) @ ctrl.w)

    left_j = left(t_j)
    lo, hi = t_j, right
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if left_j - left(mid) >= eps:
            hi = mid
        else:
            lo = mid
    return hi


def oracle_gaps(chain, steps):
    """``|bisection_stop - t_end|`` for each of the chain's ``steps``."""
    cfg, p = chain.config, chain.problem
    ctrl = optimal_control(p)
    rights = [min(s.t_start + cfg.tau * cfg.beta, p.T) for s in steps]
    return [
        abs(bisection_stop(ctrl, s.t_start, right, cfg.epsilon) - s.t_end)
        for s, right in zip(steps, rights)
    ]


def _simpson_panel(f, a, fa, b, fb, m, fm, whole, depth, tol):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = np.abs(left + right - whole).max()
    if err <= tol or depth >= 40:
        return left + right + (left + right - whole) / 15.0
    return _simpson_panel(f, a, fa, m, fm, lm, flm, left, depth + 1, tol) + _simpson_panel(
        f, m, fm, b, fb, rm, frm, right, depth + 1, tol
    )


def adaptive_simpson(f, a, b):
    """Adaptive Simpson quadrature for matrix-valued integrands: a test oracle.

    Bisection depth is capped at 40; a panel is accepted when its max-norm
    error estimate is at most 1e-10 times the max norm of the first
    whole-interval estimate, or at most 1e-14.  A non-finite integrand never
    meets the tolerance and bisects to that depth, so call it on finite
    integrands only.
    """
    rel_tol, abs_floor = 1e-10, 1e-14
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(np.abs(whole).max(), abs_floor)
    tol = 15.0 * max(rel_tol * scale, abs_floor)
    return _simpson_panel(f, a, fa, b, fb, m, fm, whole, 0, tol)


def homogeneous_det_law_defect(system, tau):
    """Relative defect of ``det C0(tau) = tau**Q det C0(1)``, in log space."""
    h_prop = homogeneous_system(system).propagator
    Q = homogeneous_dimension(system.structure)
    ld_tau = h_prop.factor(tau).logdet
    ld_1 = h_prop.factor(1.0).logdet
    return float(abs(ld_tau - (Q * np.log(tau) + ld_1)))


# Tensor Gauss-Legendre on the dilation-adapted box
# ``|D((T-t)^(-1/2)) (z - mean)|_inf <= 8``, with 160 nodes per axis; the
# Gaussian mass outside is negligible for diffusion strengths up to about 1.
_BOX_RADIUS = 8.0
_QUAD_NODES = 160


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


def chapman_kolmogorov_quadrature(kernel, t, x, T, y, s):
    """Pointwise semigroup defect by quadrature: a test oracle (d <= 2).

    Computes ``|int G(t,x;s,z) G(s,z;T,y) dz - G(t,x;T,y)| / G(t,x;T,y)``
    by tensor Gauss-Legendre over the dilated box of the first factor.
    """
    if not (t < s < T):
        raise ValueError(f"need t < s < T, got t={t}, s={s}, T={T}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Z, W = _dilated_box(kernel.system, kernel.flow(s - t) @ x, np.sqrt(s - t))
    f1 = np.exp(kernel.log_batch(t, x, s, Z))
    # The second factor at one target from every node as a source.
    f2 = np.exp(log_density(kernel.covariance(s, T), y[None, :] - Z @ kernel.flow(T - s).T))
    integral = float(np.sum(W * f1 * f2))
    ref = float(np.exp(kernel.log_batch(t, x, T, y[None, :])[0]))
    return abs(integral - ref) / ref


def normalization_residual(kernel, t, x, T):
    """``|int G(t,x;T,y) dy - 1|`` by quadrature: a test oracle (d <= 2)."""
    x = np.asarray(x, dtype=float)
    Z, W = _dilated_box(kernel.system, kernel.flow(T - t) @ x, np.sqrt(T - t))
    return abs(float(np.sum(W * np.exp(kernel.log_batch(t, x, T, Z)))) - 1.0)


def cauchy_solution(kernel, phi, t, x, T):
    """Terminal-value representation ``u(t,x) = int G(t,x;T,y) phi(y) dy``: a test oracle (d <= 2).

    ``phi`` must be bounded and continuous for the representation to solve
    the terminal-value problem.
    """
    x = np.asarray(x, dtype=float)
    Z, W = _dilated_box(kernel.system, kernel.flow(T - t) @ x, np.sqrt(T - t))
    vals = np.array([phi(z) for z in Z], dtype=float)
    return float(np.sum(W * np.exp(kernel.log_batch(t, x, T, Z)) * vals))


def payoff_polynomial(constant, linear, cap):
    """Affine payoff ``clip(c0 + <linear, y>, -cap, cap)``."""
    linear = np.asarray(linear, dtype=float)

    def phi(y):
        return float(np.clip(constant + linear @ np.asarray(y, dtype=float), -cap, cap))

    return phi


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

    def density_of_z(Z):
        return np.exp(log_density(cov, Z * scales))

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
