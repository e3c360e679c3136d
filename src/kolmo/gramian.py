"""Controllability Gramians, their factorizations, and scaling equivalences.

The covariance ``C(t) = int_0^t e^(sB) sigma sigma^T e^(sB^T) ds`` is computed
in the paper's dilated frame by the augmented block-exponential identity
(Van Loan, IEEE TAC 23(3), 1978).  With ``D = D(sqrt(t))`` and the dilated
drift ``B~ = t D^-1 B D``,

    expm([[-B~, sigma sigma^T], [0, B~^T]]) = [[e(-B~), H], [0, e(B~^T)]],
    C(t) = D C~ D,  C~ = e(B~^T)^T H,  e^(tB) = D e(B~) D^-1,

which is exact up to the accuracy of the matrix exponential, whose argument
stays of order one as ``t -> 0``.  Each system owns one `Propagator`
(``system.propagator``) that reads the inverse flow, the flow and ``C(t)``
off that exponential, keeps each exponential under its dilated drift and
the last few horizons in small bounded caches.  A homogeneous drift is its
own dilated drift, so one exponential serves every horizon; a uniform grid
of horizons costs one exponential, at its step, through the semigroup
identity ``C(s + h) = C(h) + e(hB) C(s) e(hB^T)``.

The propagator also keeps the factored `Gramian` of each cached horizon
(``propagator.factor(s)``), the one unchecked route to ``C(t)`` with its
Cholesky factor ``D chol(C~)``: the steering cost, the bound forms and the
equivalence constants all read it, so a horizon is factored once however
often it is revisited, and a homogeneous drift's horizons share one
factorization.  `input_response` reads a step's flow and its response to a
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
from .fields import _SCALAR_KINDS, ConstantField, TabulatedField, TimeSinusoidField
from .model import (
    dilated_drift,
    dilation_matrix,
    dilation_scales,
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

    Every horizon is read in the paper's dilated frame.  With
    ``D = dilation_scales(structure, sqrt(s))`` and the dilated drift
    ``B~ = s D^-1 B D`` (`kolmo.model.dilated_drift`), one Van Loan
    exponential of ``[[-B~, Q], [0, B~^T]]`` gives ``e^(-B~)``, ``e^(B~)`` and
    the horizon-1 covariance ``C~``, and then

        e^(+-sB) = D e^(+-B~) D^-1,    C(s) = D C~ D,

    since ``Q`` lives on block 0, where ``s D^-1 Q D^-1 = Q``.  The
    exponential and the Cholesky factor of ``C~`` are cached by the bytes of
    that Van Loan matrix.  A homogeneous drift is its own dilated drift at
    every horizon, so all its horizons share one exponential and one
    factorization.  Any other drift costs one exponential per horizon, and
    past ``s = 1``, where dilating would grow its blocks above the couplings
    like ``s^(nu + 1)``, it is exponentiated in the plain frame ``D = I``,
    ``B~ = sB``, ``Q~ = sQ``.  The scaled results of the last 64 horizons are
    cached too and returned read-only; every cache is bounded and safe to
    share between threads.  A uniform grid ``h, 2h, ..., nh`` (`gramians`)
    costs the one exponential at ``h``.  A system's own propagator, with
    ``Q = sigma sigma^T``, is ``system.propagator``.
    """

    def __init__(self, B, Q, structure):
        m0 = structure.m0
        if Q[m0:].any() or Q[:, m0:].any():
            raise ValueError("the noise Q must live on block 0")
        d = len(B)
        M = np.zeros((2 * d, 2 * d), dtype=B.dtype)
        M[:d, :d] = -B
        M[:d, d:] = Q
        M[d:, d:] = B.T
        self._B, self._M, self._structure = B, M, structure
        self._homogeneous = np.array_equal(dilated_drift(B, structure, 2.0), B)
        self._key = M.tobytes()
        self._vanloan = lru_cache(maxsize=_CACHE_SIZE)(self._exponentiate)
        self._dilated_factor = lru_cache(maxsize=_CACHE_SIZE)(self._factorize_dilated)
        self._at = lru_cache(maxsize=_CACHE_SIZE)(self._scaled)
        self._factor = lru_cache(maxsize=_CACHE_SIZE)(self._factorize)

    def _frame(self, s):
        """``D`` at the horizon ``|s| > 0``, and the bytes of the Van Loan matrix there."""
        a, d = abs(s), len(self._B)
        if self._homogeneous:  # its own dilated drift
            return dilation_scales(self._structure, np.sqrt(a)), self._key
        if a <= 1:
            B = dilated_drift(self._B, self._structure, a)
            M = self._M.copy()
            M[:d, :d], M[d:, d:] = -B, B.T
            return dilation_scales(self._structure, np.sqrt(a)), M.tobytes()
        return np.ones(d), (a * self._M).tobytes()  # the plain frame

    def _exponentiate(self, key):
        """``(e^(-B~), e^(B~), C~)`` off the Van Loan matrix whose bytes are ``key``."""
        d = len(self._B)
        E = expm(np.frombuffer(key, dtype=self._M.dtype).reshape(2 * d, 2 * d))
        C = E[d:, d:].T @ E[:d, d:]
        C = 0.5 * (C + C.T)
        # Contiguous copies: products with a strided view round differently.
        out = (np.ascontiguousarray(E[:d, :d]), np.ascontiguousarray(E[d:, d:].T), C)
        for a in out:
            a.setflags(write=False)
        return out

    def dilated(self, s):
        """``(D, e^(-B~), e^(B~), C~)`` at a horizon ``s > 0``, unscaled.

        ``e^(-sB) = D e^(-B~) D^-1``, ``e^(sB) = D e^(B~) D^-1`` and
        ``C(s) = D C~ D``; the blocks are the cached exponential's own arrays.
        """
        D, key = self._frame(s)
        return (D, *self._vanloan(key))

    def _scaled(self, s):
        d = len(self._B)
        if s == 0:
            out = (np.eye(d), np.eye(d), np.zeros((d, d)))
        else:
            D, inv_hat, flow_hat, C_hat = self.dilated(s)
            ratio = D[:, None] / D
            out = (ratio * inv_hat, ratio * flow_hat, np.outer(D, D) * C_hat)
            if s < 0:  # C(-s) = -e^(-sB) C(s) e^(-sB^T)
                inv_flow, flow, C = out
                C = -(inv_flow @ C @ inv_flow.T)
                out = (flow, inv_flow, 0.5 * (C + C.T))
        for a in out:
            a.setflags(write=False)
        return out

    def at(self, s):
        """``(e^(-sB), e^(sB), C(s))``, read off the dilated exponential at ``|s|``.

        ``at(0)`` is ``(I, I, 0)``, and ``at(-s)`` the inverse pair with
        ``C(-s) = -e^(-sB) C(s) e^(-sB^T)``.
        """
        return self._at(float(s))

    def flow(self, s):
        """``e^(sB)``."""
        return self.at(s)[1]

    def flows(self, s_grid):
        """``e^(sB)`` at every horizon of a grid, as an ``(n, d, d)`` array.

        One exponential call on the stacked Van Loan matrices of the grid's
        distinct dilated drifts (the cached one, on a homogeneous drift), each
        slice bit for bit ``flow(s)``; the per-horizon cache is neither read
        nor filled.
        """
        s = np.asarray(s_grid, dtype=float)
        d = len(self._B)
        moving = np.flatnonzero(s)
        frames = [self._frame(v) for v in s[moving]]
        D = np.array([D for D, _ in frames]).reshape(-1, d)
        keys = [key for _, key in frames]
        distinct = list(dict.fromkeys(keys))
        if len(distinct) > 1:
            stacked = np.frombuffer(b"".join(distinct), dtype=self._M.dtype)
            E = expm(stacked.reshape(-1, 2 * d, 2 * d))
            blocks = {
                key: (np.ascontiguousarray(e[:d, :d]), np.ascontiguousarray(e[d:, d:].T))
                for key, e in zip(distinct, E)
            }
        else:  # one dilated drift: its cached exponential
            blocks = {key: self._vanloan(key) for key in distinct}
        hats = np.array([blocks[key][int(v > 0)] for key, v in zip(keys, s[moving])])
        out = np.empty((len(s), d, d), dtype=self._M.dtype)
        out[s == 0] = np.eye(d)
        out[moving] = (D[:, :, None] / D[:, None, :]) * hats.reshape(-1, d, d)
        return out

    def gramian(self, s):
        """The covariance ``C(s)``, symmetrized."""
        return self.at(s)[2]

    def _factorize_dilated(self, key):
        return Gramian.from_matrix(self._vanloan(key)[2])

    def _factorize(self, s):
        if not s > 0:
            raise ValueError(f"horizon must be positive, got {s}")
        D, key = self._frame(s)
        g = self._dilated_factor(key)
        C, chol = np.outer(D, D) * g.C, D[:, None] * g.chol
        if not np.isfinite(C).all():
            raise GramianError("covariance is not finite")
        C.setflags(write=False)
        chol.setflags(write=False)
        return Gramian(C=C, chol=chol, logdet=g.logdet + 2.0 * float(np.log(D).sum()))

    def factor(self, s):
        """The `Gramian` of ``C(s) = D C~ D``, factored once per cached horizon.

        ``C~`` is factored, with every check of `Gramian.from_matrix`, once
        per dilated drift; then ``chol = D chol~`` and
        ``logdet = logdet C~ + 2 sum log D``.  Raises `GramianError` where
        ``C~`` is not finite or not positive definite (a horizon whose
        covariance is too badly conditioned for floats) or ``D C~ D``
        overflows, and ``ValueError`` for ``s <= 0``.
        """
        return self._factor(float(s))

    def gramians(self, h, n):
        """``C(kh)`` for ``k = 1, ..., n``, as an ``(n, d, d)`` array.

        One exponential at ``h``: the powers ``e^(ihB)`` come by doubling and
        ``C(kh) = sum_(i<k) e^(ihB) C(h) e^(ihB^T)`` by a cumulative sum.
        """
        _, E, C_h = self.at(h)
        d = len(E)
        out = np.empty((n, d, d))
        out[0] = np.eye(d)
        k = 1
        while k < n:  # powers e^(ihB) by doubling
            m = min(k, n - k)
            out[k : k + m] = out[:m] @ (out[k - 1] @ E)
            k += m
        return np.cumsum(out @ C_h @ out.swapaxes(1, 2), axis=0)


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


def _time_strength(lam):
    """A diffusion strength as a scalar field of time only: a number becomes a `ConstantField`.

    Anything but a number or a constant, time-sinusoid or time-axis table
    raises `CoefficientError` naming its type.
    """
    if isinstance(lam, numbers.Real):
        return ConstantField(float(lam))
    if type(lam) in _SCALAR_KINDS.values() and not lam.space_dependent:
        return lam
    raise CoefficientError(
        f"diffusion strength must be a number or a field of time only, got {type(lam).__name__}"
    )


def _stretches(lam, t, T):
    """Edges of the stretches of ``[t, T]`` where a step strength is constant, and its values.

    A time table splits where its nearest point changes; each value is read
    at its stretch's midpoint.
    """
    if isinstance(lam, TabulatedField):
        pts = np.unique(np.asarray(lam.points, dtype=float))
        mids = 0.5 * (pts[1:] + pts[:-1])
        edges = np.concatenate(([t], mids[(mids > t) & (mids < T)], [T]))
    else:
        edges = np.array([t, T], dtype=float)
    return edges, [float(lam(s, None)) for s in 0.5 * (edges[1:] + edges[:-1])]


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
        Unless ``T > t`` (a NaN end included).
    CoefficientError
        If ``lam`` is a field that depends on space, or of any other type.
    GramianError
        If the weight is not positive and finite everywhere on ``[t, T]``.
    """
    lam = _time_strength(lam)
    if not T > t:
        raise ValueError(f"need T > t, got t={t}, T={T}")
    if isinstance(lam, TimeSinusoidField):
        omega = 2.0 * np.pi * lam.frequency
        sig = sigma_matrix(system.structure)
        drift = system.B - 0.5j * omega * np.eye(system.d)
        G = Propagator(drift, sig @ sig.T, system.structure).gramian(T - t)
        rotated = np.exp(1j * (omega * T + lam.phase)) * G
        C = lam.base * system.propagator.gramian(T - t) + lam.amplitude * rotated.imag
        # The weight is least at an end, or at a trough of the sine between.
        lo, hi = sorted((omega * t + lam.phase, omega * T + lam.phase))
        trough = -np.copysign(0.5 * np.pi, lam.amplitude)
        passes = trough + 2.0 * np.pi * np.ceil((lo - trough) / (2.0 * np.pi)) <= hi
        weights = [lam(t, None), lam(T, None)] + [lam.base - abs(lam.amplitude)] * bool(passes)
    else:
        edges, weights = _stretches(lam, t, T)
        Cs = [system.propagator.gramian(T - e) for e in edges[:-1]] + [0.0]
        C = sum(w * (C_e - C_next) for w, C_e, C_next in zip(weights, Cs, Cs[1:]))
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
    if not all(0 < v <= 1 for v in tau_grid):
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
