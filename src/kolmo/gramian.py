"""Controllability Gramians, their factorizations, and scaling equivalences.

The covariance ``C(t) = int_0^t e^(sB) sigma sigma^T e^(sB^T) ds`` is computed
by the augmented block-exponential identity (Van Loan, IEEE TAC 23(3), 1978)

    expm(t * [[-B, sigma sigma^T], [0, B^T]]) = [[e(-t B), H], [0, e(t B^T)]],
    C(t) = e(t B^T)^T  H,

which is exact up to the accuracy of the matrix exponential.  Each system
owns one `Propagator` (``system.propagator``) that reads the inverse flow,
the flow and ``C(t)`` off that single exponential and keeps the last few
horizons in a small bounded cache; a grid of horizons costs one exponential
per distinct step through the semigroup identity
``C(s + h) = C(h) + e(hB) C(s) e(hB^T)``.

The propagator also keeps the factored `Gramian` of each cached horizon
(``propagator.factor(s)``), the one unchecked route to ``C(t)`` with its
Cholesky factor: the steering cost, the bound forms and the equivalence
constants all read it, so a horizon is factored once however often it is
revisited.  `input_response` reads a step's flow and its response to a
constant input off one exponential of its own.  `gramian_weighted` reads
the time-weighted covariance off propagators in closed form.  The checked
`gramian` compares ``C(t)`` with a Taylor series at ``t / 2**m`` carried to
``t`` by ``m`` semigroup doublings, with no exponential and no quadrature.
Quadratic forms and Gaussian log densities go through the Cholesky factor;
the inverse is never formed explicitly, since the conditioning of ``C(t)``
degrades like ``t**-(2 nu)`` as ``t -> 0``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, solve_triangular

from .exceptions import CoefficientError, GramianError
from .fields import ConstantField, TabulatedField, TimeSinusoidField
from .model import (
    dilation_matrix,
    homogeneous_system,
    sigma_matrix,
)

__all__ = [
    "Propagator",
    "Gramian",
    "EquivalenceReport",
    "gramian",
    "gramian_weighted",
    "gramian_homogeneous",
    "input_response",
    "is_time_field",
    "strength_at",
    "quadratic_form",
    "log_density",
    "equivalence_constants",
]


@dataclass(frozen=True)
class Gramian:
    """A positive-definite covariance matrix with its Cholesky factor.

    Fields: the matrix ``C``, the lower-triangular factor ``chol`` with
    ``chol @ chol.T == C``, and the log-determinant; both arrays are
    read-only.
    """

    C: np.ndarray
    chol: np.ndarray
    logdet: float

    @classmethod
    def from_matrix(cls, C):
        C = np.asarray(C, dtype=float)
        if not np.isfinite(C).all():
            raise GramianError("covariance is not finite")
        asym = np.abs(C - C.T).max()
        if asym > 1e-12 * max(1.0, np.abs(C).max()):
            raise GramianError(f"covariance asymmetric by {asym:.3e}")
        C = 0.5 * (C + C.T)
        try:
            chol = np.linalg.cholesky(C)
        except np.linalg.LinAlgError as exc:
            eigs = np.linalg.eigvalsh(C)
            raise GramianError(
                f"covariance is not positive definite: eigenvalues from {eigs[0]:.3e} "
                f"to {eigs[-1]:.3e}"
            ) from exc
        C.setflags(write=False)
        chol.setflags(write=False)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return cls(C=C, chol=chol, logdet=logdet)

    @property
    def d(self):
        return self.C.shape[0]


# Horizons a propagator keeps: enough for the points one chain step or one
# control sample revisits, few enough that float keys never pile up.
_CACHE_SIZE = 64


class Propagator:
    """Flow ``e^(sB)`` and covariance ``int_0^s e^(uB) Q e^(uB^T) du`` of one drift.

    One Van Loan exponential at ``s`` gives all three of ``e^(-sB)`` (its
    top-left block), ``e^(sB)`` (its bottom-right block, transposed) and the
    covariance.  The last 64 horizons are cached and their arrays returned
    read-only, and so are the last 64 factored covariances; both caches are
    safe to share between threads.  A system's own propagator, with
    ``Q = sigma sigma^T``, is ``system.propagator``.
    """

    def __init__(self, B, Q):
        d = B.shape[0]
        M = np.zeros((2 * d, 2 * d), dtype=B.dtype)
        M[:d, :d] = -B
        M[:d, d:] = Q
        M[d:, d:] = B.T
        self._M = M
        self._at = lru_cache(maxsize=_CACHE_SIZE)(self._exponentiate)
        self._factor = lru_cache(maxsize=_CACHE_SIZE)(self._factorize)

    def _exponentiate(self, s):
        d = self._M.shape[0] // 2
        E = expm(self._M * s)
        C = E[d:, d:].T @ E[:d, d:]
        C = 0.5 * (C + C.T)
        # Contiguous copies: products with a strided view round differently.
        out = (np.ascontiguousarray(E[:d, :d]), np.ascontiguousarray(E[d:, d:].T), C)
        for a in out:
            a.setflags(write=False)
        return out

    def at(self, s):
        """``(e^(-sB), e^(sB), C(s))`` from one exponential."""
        return self._at(float(s))

    def flow(self, s):
        """``e^(sB)``."""
        return self.at(s)[1]

    def flows(self, s_grid):
        """``e^(sB)`` at every horizon of a grid, as an ``(n, d, d)`` array.

        One exponential call on the stacked Van Loan matrices, each slice bit
        for bit ``flow(s)``; the cache is neither read nor filled.
        """
        s = np.asarray(s_grid, dtype=float)
        d = self._M.shape[0] // 2
        E = expm(self._M * s[:, None, None])
        return np.ascontiguousarray(E[:, d:, d:].swapaxes(1, 2))

    def gramian(self, s):
        """The covariance ``C(s)``, symmetrized."""
        return self.at(s)[2]

    def _factorize(self, s):
        if not s > 0:
            raise ValueError(f"horizon must be positive, got {s}")
        return Gramian.from_matrix(self.gramian(s))

    def factor(self, s):
        """The `Gramian` of ``C(s)``, factored once per cached horizon.

        Raises `GramianError` where ``C(s)`` is not finite or not positive
        definite (a horizon whose covariance is too badly conditioned for
        floats), and ``ValueError`` for ``s <= 0``.
        """
        return self._factor(float(s))

    def gramians(self, s_grid):
        """``C(s)`` at every horizon of a grid, as an ``(n, d, d)`` array.

        Walks the sorted distinct horizons with the semigroup identity
        ``C(s + h) = C(h) + e^(hB) C(s) e^(hB^T)``, so the grid costs one
        exponential per distinct step between consecutive horizons.  A
        uniform grid ``h, 2h, ..., nh`` unrolls the walk into the batched sum
        ``C(kh) = sum_(i<k) e^(ihB) C(h) e^(ihB^T)``.
        """
        knots, where = np.unique(np.asarray(s_grid, dtype=float), return_inverse=True)
        steps, step_of = np.unique(np.diff(knots, prepend=0.0), return_inverse=True)
        pieces = [self.at(h)[1:] for h in steps]
        d = self._M.shape[0] // 2
        n = len(knots)
        out = np.empty((n, d, d))
        if len(steps) == 1:
            E, C_h = pieces[0]
            out[0] = np.eye(d)
            k = 1
            while k < n:  # powers e^(ihB) by doubling
                m = min(k, n - k)
                out[k : k + m] = out[:m] @ (out[k - 1] @ E)
                k += m
            return np.cumsum(out @ C_h @ out.swapaxes(1, 2), axis=0)[where]
        C = np.zeros((d, d))
        for k, j in enumerate(step_of):
            E, C_h = pieces[j]
            C = C_h + E @ C @ E.T
            out[k] = C
        return out[where]


def input_response(system, s):
    """The flow ``e^(sB)`` and the response ``J(s) = int_0^s e^(uB) sigma du``.

    ``J(s)`` is the state's response to a unit constant input; both blocks
    are read off one exponential of ``s [[B, sigma], [0, 0]]``.
    """
    d, m0 = system.d, system.m0
    aug = np.zeros((d + m0, d + m0))
    aug[:d, :d] = system.B
    aug[:d, d:] = sigma_matrix(system.structure)
    E = expm(aug * s)
    return E[:d, :d], E[:d, d:]


_TAYLOR_TERMS = 18
_TAYLOR_WEIGHTS = 1.0 / (np.arange(_TAYLOR_TERMS)[:, None] + np.arange(_TAYLOR_TERMS) + 1)


def _doubling_gramian(system, t):
    """``C(t)`` by a Taylor series and semigroup doublings, with no exponential.

    With ``h = t / 2**m``, ``m`` least such that ``h |B|_1 <= 1/2``: 18 terms
    of ``e^(hB)`` and of ``C(h) = sum_(k,l) h^(k+l+1) B^k S (B^T)^l / ((k+l+1) k! l!)``,
    exact for a drift nilpotent of index at most 18, then ``m`` doublings
    ``C(2s) = C(s) + e^(sB) C(s) e^(sB^T)``.
    """
    B = system.B
    sig = sigma_matrix(system.structure)
    norm = np.abs(B).sum(axis=0).max()
    h, m = float(t), 0
    while h * norm > 0.5:
        h, m = 0.5 * h, m + 1
    P = np.empty((_TAYLOR_TERMS,) + B.shape)  # P[k] = (hB)^k / k!
    P[0] = np.eye(system.d)
    for k in range(1, _TAYLOR_TERMS):
        P[k] = P[k - 1] @ (h / k * B)
    W = np.tensordot(_TAYLOR_WEIGHTS, P, axes=1)  # W[k] = sum_l P[l] / (k + l + 1)
    C = h * np.einsum("kia,kja->ij", P @ sig @ sig.T, W)
    E = P.sum(axis=0)
    for _ in range(m):
        C = C + E @ C @ E.T
        E = E @ E
    return C


def gramian(system, t):
    """Covariance Gramian ``C(t)`` at horizon ``t > 0``, checked.

    The propagator's factored ``C(t)`` (see `Propagator.factor`), verified
    against `_doubling_gramian`, which takes no exponential; disagreement
    beyond 1e-9 of the largest entry, or a NaN, raises.

    Raises
    ------
    ValueError
        If ``t <= 0``.
    GramianError
        If the covariance is not finite, is not positive definite (a horizon
        too badly conditioned for floats), or the two routes disagree.
    """
    g = system.propagator.factor(t)
    if not np.abs(g.C - _doubling_gramian(system, t)).max() <= 1e-9 * np.abs(g.C).max():
        raise GramianError("block-exponential and doubling Gramians disagree beyond 1e-9")
    return g


def is_time_field(lam):
    """Whether a diffusion strength is a scalar coefficient field of ``(t, x)``.

    Such a field is read at ``x = None``, so it must not depend on space: a
    field that does raises `CoefficientError` naming it.  A number gives
    False.
    """
    if not hasattr(lam, "space_dependent"):
        return False
    if lam.space_dependent:
        raise CoefficientError(f"diffusion strength must depend on time only, got {lam!r}")
    return True


def strength_at(lam, s):
    """A diffusion strength at time ``s``.

    ``lam`` is a number or a scalar coefficient field of ``(t, x)`` that
    depends on time only (see `is_time_field`); anything else raises
    `CoefficientError` naming its type.
    """
    if is_time_field(lam):
        return float(lam(s, None))
    if isinstance(lam, numbers.Real):
        return float(lam)
    raise CoefficientError(f"unsupported diffusion strength of type {type(lam).__name__}")


def _stretches(lam, t, T):
    """Edges of the stretches of ``[t, T]`` where a step strength is constant, and its values.

    A time table splits where its nearest point changes; each value is read
    at its stretch's midpoint.
    """
    if isinstance(lam, TabulatedField) and is_time_field(lam):
        pts = np.unique(np.asarray(lam.points, dtype=float))
        mids = 0.5 * (pts[1:] + pts[:-1])
        edges = np.concatenate(([t], mids[(mids > t) & (mids < T)], [T]))
    elif isinstance(lam, (ConstantField, numbers.Real)):
        edges = np.array([t, T], dtype=float)
    else:
        is_time_field(lam)  # a field that depends on space is named as such
        raise CoefficientError(f"no closed form for a strength of type {type(lam).__name__}")
    return edges, [strength_at(lam, s) for s in 0.5 * (edges[1:] + edges[:-1])]


def gramian_weighted(system, lam, t, T):
    """Time-weighted covariance ``int_t^T lam(s) (e^((T-s)B) sigma)(...)^T ds``.

    Exact covariance of the linear diffusion whose squared diffusion
    coefficient is ``lam(s) I`` on the diffusion block, in closed form with
    no quadrature; ``C`` is the system's Gramian.  A `TimeSinusoidField`
    ``b + a sin(omega s + phi)`` gives ``b C(T-t) + a Im(e^(i(omega T + phi)) G)``,
    ``G`` the Gramian of the drift ``B - (i omega / 2) I`` at ``T - t``.  A
    number, a `ConstantField` or a time-axis `TabulatedField` takes values
    ``v_k`` on stretches ``[e_k, e_(k+1)]`` and gives
    ``sum_k v_k [C(T - e_k) - C(T - e_(k+1))]``.

    Raises
    ------
    ValueError
        If ``T <= t``.
    CoefficientError
        If ``lam`` is a field that depends on space, or of any other type.
    GramianError
        If the weight is not positive and finite everywhere on ``[t, T]``.
    """
    if T <= t:
        raise ValueError(f"need T > t, got t={t}, T={T}")
    if isinstance(lam, TimeSinusoidField):
        omega = 2.0 * np.pi * lam.frequency
        sig = sigma_matrix(system.structure)
        G = Propagator(system.B - 0.5j * omega * np.eye(system.d), sig @ sig.T).gramian(T - t)
        rotated = np.exp(1j * (omega * T + lam.phase)) * G
        C = lam.base * system.propagator.gramian(T - t) + lam.amplitude * rotated.imag
        # The weight is least at an end, or at a trough of the sine between.
        lo, hi = sorted((omega * t + lam.phase, omega * T + lam.phase))
        trough = -np.copysign(0.5 * np.pi, lam.amplitude)
        passes = trough + 2.0 * np.pi * np.ceil((lo - trough) / (2.0 * np.pi)) <= hi
        weights = [lam(t, None), lam(T, None)] + [lam.base - abs(lam.amplitude)] * bool(passes)
    else:
        edges, weights = _stretches(lam, t, T)
        Cs = system.propagator.gramians(T - edges[:-1])
        C = np.einsum("k,kij->ij", weights, Cs - np.concatenate((Cs[1:], np.zeros_like(Cs[:1]))))
    if not all(w > 0 and np.isfinite(w) for w in weights):
        low = np.min(weights)
        raise GramianError(f"weight must be positive and finite on [{t}, {T}], least {low}")
    return Gramian.from_matrix(C)


def gramian_homogeneous(system, t):
    """Gramian of the system with every block above the subdiagonal zeroed.

    Satisfies the exact scaling law
    ``C0(tau) = D(sqrt(tau)) C0(1) D(sqrt(tau))``.
    """
    return homogeneous_system(system).propagator.factor(t)


def quadratic_form(g, z):
    """``<C^-1 z, z>`` through a triangular solve on the Cholesky factor.

    ``z`` is one vector ``(d,)``, giving a float, or rows ``(n, d)``, giving
    an ``(n,)`` array with one form per row.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim > 2 or z.shape[-1:] != (g.d,):
        raise ValueError(f"vector has shape {z.shape}, expected ({g.d},) or (n, {g.d})")
    W = solve_triangular(g.chol, z.T, lower=True)
    if z.ndim == 1:
        return float(W @ W)
    return np.einsum("ij,ij->j", W, W)


def log_density(g, delta):
    """Log density of ``N(0, g.C)`` at the rows of ``delta`` (n, d)."""
    return -0.5 * (g.d * np.log(2.0 * np.pi) + g.logdet) - 0.5 * quadratic_form(g, delta)


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison constants between ``C`` and its homogeneous part ``C0``.

    ``det_ratio[i] = det C(tau_i) / det C0(tau_i)``; ``k_quadratic`` holds the
    exact extremes over all ``z`` (and over the grid) of the ratio of the two
    quadratic forms ``<C^-1 z, z> / <C0^-1 z, z>``; ``k_dilation`` the
    extreme eigenvalues of ``C0(1)^-1``, which bound the homogeneous form
    against the dilated Euclidean norm.
    """

    tau_grid: tuple
    det_ratio: tuple
    k_quadratic: tuple
    k_dilation: tuple

    def __post_init__(self):
        k5, k6 = self.k_quadratic
        k1, k2 = self.k_dilation
        if not (k5 > 0 and k6 > 0 and k1 > 0 and k2 > 0):
            raise GramianError("equivalence constants must be positive")
        if k5 > k6 or k1 > k2:
            raise GramianError("equivalence constants must be ordered")


def equivalence_constants(system, tau_grid):
    """The determinant and quadratic-form comparison constants on a grid.

    Parameters
    ----------
    system : SystemMatrix
    tau_grid : sequence of float in (0, 1]

    With ``C0 = L0 L0^T``, the form ratio at ``z = L0 u`` is
    ``<M^-1 u, u> / |u|^2`` for ``M = L0^-1 C L0^-T``, so its extremes over
    all ``z`` are the reciprocals of the extreme eigenvalues of ``M``, those
    of the pencil ``(C, C0)``.  ``M`` is read off the two cached factors by
    triangular solves, with no factorization of its own.
    """
    tau_grid = tuple(float(v) for v in tau_grid)
    if len(tau_grid) == 0:
        raise ValueError("tau grid must be nonempty")
    if any(v <= 0 or v > 1 for v in tau_grid):
        raise ValueError("tau grid must lie in (0, 1]")
    h_prop = homogeneous_system(system).propagator
    det_ratio = []
    k5, k6 = np.inf, -np.inf
    for tau in tau_grid:
        g = system.propagator.factor(tau)
        g0 = h_prop.factor(tau)
        det_ratio.append(float(np.exp(g.logdet - g0.logdet)))
        X = solve_triangular(g0.chol, g.C, lower=True)
        M = solve_triangular(g0.chol, X.T, lower=True)
        eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
        k5 = min(k5, 1.0 / eigs[-1])
        k6 = max(k6, 1.0 / eigs[0])
    eigs = np.linalg.eigvalsh(h_prop.factor(1.0).C)
    k_dilation = (1.0 / eigs[-1], 1.0 / eigs[0])
    return EquivalenceReport(
        tau_grid=tau_grid,
        det_ratio=tuple(det_ratio),
        k_quadratic=(float(k5), float(k6)),
        k_dilation=(float(k_dilation[0]), float(k_dilation[1])),
    )


def dilation_scaling_defect(system, tau):
    """Max-abs defect of ``C0(tau) - D(sqrt(tau)) C0(1) D(sqrt(tau))`` in dilated frame.

    The comparison is performed on ``D(1/sqrt(tau)) C0(tau) D(1/sqrt(tau))``
    against ``C0(1)`` so that all entries are O(1) and the defect is a
    meaningful relative quantity for tiny ``tau``.
    """
    h_prop = homogeneous_system(system).propagator
    C_tau = h_prop.gramian(tau)
    C_1 = h_prop.gramian(1.0)
    D_inv = dilation_matrix(system.structure, tau ** -0.5)
    lhs = D_inv @ C_tau @ D_inv
    return float(np.abs(lhs - C_1).max() / np.abs(C_1).max())
