"""Block-structured degenerate drift systems and their group/dilation calculus.

A system couples an ``m0``-dimensional diffusion into ``d`` state variables
through a constant drift matrix ``B`` whose block structure (full-rank
subdiagonal blocks, zeros below them) makes the pair ``(B, sigma)``
controllable.  This module validates that structure and provides the
associated non-Euclidean translations, anisotropic dilations, and the
operator class with bounded measurable coefficients on the diffusion block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields
from .exceptions import CoefficientError, StructureError

__all__ = [
    "BlockStructure",
    "SystemMatrix",
    "OperatorSpec",
    "SpaceTimePoint",
    "validate_structure",
    "sigma_matrix",
    "kalman_rank",
    "homogeneous_dimension",
    "dilation_matrix",
    "dilation_scales",
    "dilation_exponents",
    "group_compose",
    "group_inverse",
    "scaled_system",
    "homogeneous_system",
    "ellipticity_check",
    "coefficient_bounds",
    "spec_from_config",
    "spec_to_config",
]

# Relative singular-value threshold for numerical rank decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class BlockStructure:
    """The block sizes ``(m0, ..., m_nu)`` of the state decomposition.

    Sizes must be positive and non-increasing; ``d`` is their sum and ``nu``
    the number of subdiagonal levels.
    """

    m: tuple

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        object.__setattr__(self, "m", m)
        if len(m) == 0 or any(v < 1 for v in m):
            raise StructureError("m-monotonicity", f"block sizes must be >= 1, got {m}")
        if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
            raise StructureError(
                "m-monotonicity", f"block sizes must be non-increasing, got {m}"
            )

    @property
    def d(self):
        return sum(self.m)

    @property
    def nu(self):
        return len(self.m) - 1

    @property
    def m0(self):
        return self.m[0]

    def block_slices(self):
        """Slice of the state vector occupied by each block."""
        out, lo = [], 0
        for size in self.m:
            out.append(slice(lo, lo + size))
            lo += size
        return out

    def coordinate_blocks(self):
        """Block index of each of the ``d`` coordinates."""
        return np.repeat(np.arange(len(self.m)), self.m)

    @cached_property
    def _exponents(self):  # built once: the dilation helpers run per chain step
        exps = 2 * self.coordinate_blocks() + 1
        exps.setflags(write=False)
        return exps


def dilation_exponents(structure):
    """Per-coordinate dilation exponents ``2j+1``, read-only and built once per structure."""
    return structure._exponents


def dilation_scales(structure, r):
    """The diagonal of the dilation ``delta_r``: ``r**(2j+1)`` on block ``j``.

    ``r`` must be positive.  For an array ``r`` the scales run along a new
    last axis, so ``dilation_scales(s, r)[..., i]`` scales coordinate ``i``.
    """
    return np.asarray(r, dtype=float)[..., None] ** dilation_exponents(structure)


@dataclass(frozen=True)
class SystemMatrix:
    """A drift matrix together with its block structure.

    Use :func:`validate_structure` to construct one with the structural
    requirements enforced; the raw constructor only checks dimensions, so
    that deliberately broken systems can still be probed (e.g. by
    :func:`kalman_rank`).
    """

    B: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        B = np.array(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise StructureError("dimension-mismatch", f"B must be square, got {B.shape}")
        if B.shape[0] != self.structure.d:
            raise StructureError(
                "dimension-mismatch",
                f"B is {B.shape[0]}x{B.shape[0]} but block sizes sum to {self.structure.d}",
            )
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def d(self):
        return self.structure.d

    @property
    def m0(self):
        return self.structure.m0

    @cached_property
    def propagator(self):
        """The system's `kolmo.gramian.Propagator`: flow and Gramian, built on first use."""
        sig = sigma_matrix(self.structure)
        return gramian.Propagator(self.B, sig @ sig.T)

    @cached_property
    def _diffusion_propagators(self):
        return {}

    def diffusion_propagator(self, a):
        """The `Propagator` of this drift with noise ``sigma a sigma^T``, one per matrix ``a``."""
        a = np.asarray(a, dtype=float)
        key = a.tobytes()
        if key not in self._diffusion_propagators:
            sig = sigma_matrix(self.structure)
            self._diffusion_propagators[key] = gramian.Propagator(self.B, sig @ a @ sig.T)
        return self._diffusion_propagators[key]


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point ``(t, x)`` in time-state space."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.x, dtype=float))
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))


def _numerical_rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def validate_structure(B, m):
    """Validate a drift matrix against the block-form requirements.

    Checks, in order: non-increasing positive block sizes summing to the
    matrix dimension, exact zeros strictly below the first subdiagonal of
    blocks, and full numerical rank of every subdiagonal block.

    Parameters
    ----------
    B : (d, d) array_like
        Constant drift matrix.
    m : sequence of int
        Block sizes ``(m0, ..., m_nu)``.

    Returns
    -------
    SystemMatrix

    Raises
    ------
    StructureError
        With ``clause`` naming the violated requirement and ``indices`` the
        offending block position.
    """
    structure = BlockStructure(tuple(m))
    system = SystemMatrix(np.asarray(B, dtype=float), structure)
    slices = structure.block_slices()
    n = len(structure.m)
    for i in range(n):
        for j in range(n):
            block = system.B[slices[i], slices[j]]
            if i >= j + 2 and np.any(block != 0.0):
                raise StructureError(
                    "zero-block",
                    f"block ({i},{j}) lies below the first subdiagonal and must vanish",
                    indices=(i, j),
                )
            if i == j + 1:
                rank = _numerical_rank(block)
                if rank < structure.m[i]:
                    raise StructureError(
                        "subdiagonal-rank",
                        f"subdiagonal block {i} has rank {rank} < {structure.m[i]}",
                        indices=(i, j),
                    )
    return system


def sigma_matrix(structure):
    """The ``d x m0`` input matrix ``(I_{m0}; 0)``."""
    sig = np.zeros((structure.d, structure.m0))
    sig[: structure.m0, : structure.m0] = np.eye(structure.m0)
    return sig


def kalman_rank(system):
    """Rank of the controllability matrix ``[sigma, B sigma, ..., B^(d-1) sigma]``.

    Equals ``d`` exactly when the covariance of the associated linear
    diffusion is positive definite for positive times.
    """
    sig = sigma_matrix(system.structure)
    blocks, cur = [], sig
    for _ in range(system.d):
        blocks.append(cur)
        cur = system.B @ cur
    return _numerical_rank(np.hstack(blocks))


def homogeneous_dimension(structure):
    """``Q = m0 + 3 m1 + ... + (2 nu + 1) m_nu``, the dilation Jacobian exponent."""
    return int(dilation_exponents(structure).sum())


def dilation_matrix(structure, r):
    """Diagonal anisotropic dilation ``diag(r I_{m0}, r^3 I_{m1}, ...)``."""
    if r <= 0:
        raise ValueError(f"dilation parameter must be positive, got {r}")
    return np.diag(dilation_scales(structure, r))


def group_compose(zeta, z, system):
    """Non-Euclidean left translation ``(tau, xi) o (t, x) = (t + tau, x + e^(tB) xi)``."""
    if zeta.x.shape != z.x.shape or zeta.x.shape[0] != system.d:
        raise ValueError("dimension mismatch in group composition")
    flow = system.propagator.flow(z.t)
    return SpaceTimePoint(z.t + zeta.t, z.x + flow @ zeta.x)


def group_inverse(zeta, system):
    """Group inverse, solved from the composition identity ``inv(zeta) o zeta = 0``.

    The time part is ``-tau``; the space part solves ``xi + e^(tau B) xi' = 0``
    with a linear solve rather than a second exponential, so the defining
    identity holds to rounding accuracy regardless of sign conventions.
    """
    flow = system.propagator.flow(zeta.t)
    return SpaceTimePoint(-zeta.t, -np.linalg.solve(flow, zeta.x))


def scaled_system(system, r):
    """Rescale the drift so that the dilated solution solves the rescaled equation.

    Block ``(i, j)`` is multiplied by ``r**(2(j - i + 1))``: subdiagonal
    blocks are untouched and the scaling is the identity at ``r = 1``.
    """
    if r <= 0:
        raise ValueError(f"scaling parameter must be positive, got {r}")
    jblk = system.structure.coordinate_blocks()
    powers = 2.0 * (jblk[None, :] - jblk[:, None] + 1)
    return SystemMatrix(system.B * float(r) ** powers, system.structure)


def homogeneous_system(system):
    """Zero every block above the subdiagonal, keeping only the couplings."""
    slices = system.structure.block_slices()
    B0 = np.zeros_like(system.B)
    for i in range(1, len(slices)):
        B0[slices[i], slices[i - 1]] = system.B[slices[i], slices[i - 1]]
    return SystemMatrix(B0, system.structure)


@dataclass(frozen=True)
class OperatorSpec:
    """A member of the operator class: diffusion block coefficients over a drift system.

    ``a`` is the ``m0 x m0`` symmetric diffusion coefficient field, ``a_low``
    and ``b_low`` the first-order coefficient vectors on the diffusion block,
    ``c`` the zeroth-order coefficient.  ``mu`` is the declared ellipticity
    constant (``mu**-1 |xi|^2 <= <a xi, xi> <= mu |xi|^2``) and ``M_bound``
    the declared sup-norm bound on the lower-order coefficients.
    """

    system: SystemMatrix
    a: object
    a_low: fields.VectorField
    b_low: fields.VectorField
    c: object
    mu: float
    M_bound: float

    def __post_init__(self):
        if self.mu <= 0:
            raise CoefficientError(f"ellipticity constant must be positive, got {self.mu}")
        if self.M_bound < 0:
            raise CoefficientError(f"coefficient bound must be >= 0, got {self.M_bound}")
        d = self.system.d
        for name, field in _scalar_fields(self):
            axis, wave = getattr(field, "axis", "time"), getattr(field, "wave", range(d))
            if not (axis == "time" or 0 <= axis < d) or len(wave) != d:
                raise CoefficientError(f"coefficient {name}: {field} does not fit a {d}-d state")

    @property
    def structure(self):
        return self.system.structure


def _scalar_fields(spec):
    """``(name, field)`` for every scalar field in ``a``, ``a_low``, ``b_low`` and ``c``.

    An isotropic ``a`` contributes its scalar; a constant matrix, none.
    """
    if isinstance(spec.a, fields.IsotropicMatrixField):
        yield "a", spec.a.scalar
    for vec in ("a_low", "b_low"):
        for i, comp in enumerate(getattr(spec, vec).components):
            yield f"{vec}[{i}]", comp
    yield "c", spec.c


def _range(name, field):
    """The exact ``(lo, hi)`` of coefficient ``name``: its values, or its eigenvalues for ``a``.

    Raises `CoefficientError` naming the coefficient for a field of no known
    kind or a range that is not finite.
    """
    bounds = getattr(field, "eigenvalue_range" if name == "a" else "value_range", None)
    if bounds is None:
        raise CoefficientError(f"coefficient {name}: no range for {type(field).__name__}")
    lo, hi = bounds()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CoefficientError(f"non-finite coefficient {name}")
    return float(lo), float(hi)


def ellipticity_check(spec):
    """Exact ellipticity constants of the diffusion coefficient over every ``(t, x)``.

    Returns ``(mu_low, mu_high)``: ``1 / min lambda_min(a)``, the smallest
    constant for the lower bound, and ``max lambda_max(a)``, the smallest
    for the upper bound.  An isotropic coefficient's eigenvalue is its
    scalar's value, whose range each field kind gives in closed form; a
    constant matrix takes one ``eigvalsh``.

    Raises
    ------
    CoefficientError
        If the coefficient ``a`` is non-finite, nonsymmetric, not positive
        definite, or of no known kind.
    """
    lo, hi = _range("a", spec.a)
    if not lo > 0:
        raise CoefficientError(
            f"diffusion coefficient a not positive definite: least eigenvalue {lo}"
        )
    return 1.0 / lo, hi


def coefficient_bounds(spec):
    """Exact sup norms of the lower-order coefficients ``(a_i, b_i, c)`` over every ``(t, x)``.

    A non-finite coefficient raises `CoefficientError` naming it
    (``a_low[i]``, ``b_low[i]`` or ``c``).
    """
    sup = dict.fromkeys(("a_low", "b_low", "c"), 0.0)
    for name, field in _scalar_fields(spec):
        key = name.partition("[")[0]
        if key in sup:
            lo, hi = _range(name, field)
            sup[key] = max(sup[key], abs(lo), abs(hi))
    return tuple(sup.values())


def spec_from_config(cfg):
    """Build a validated operator spec from its JSON dict form.

    The document carries ``blocks``, the row-major drift matrix ``B``, the
    enumerated ``coefficients`` (``a`` required; ``a_low``, ``b_low``, ``c``
    optional), and the declared constants ``mu`` and ``M``.  A missing key
    raises `KeyError` and a value of the wrong type `TypeError`, both naming
    the key.
    """
    B = fields.json_value(lambda v: np.asarray(v, dtype=float), cfg["B"], "B")
    blocks = fields.json_value(lambda v: [int(u) for u in v], cfg["blocks"], "blocks")
    system = validate_structure(B, blocks)
    m0 = system.m0
    coeffs = cfg.get("coefficients", {})
    return OperatorSpec(
        system=system,
        a=fields.matrix_field_from_config(coeffs.get("a"), m0),
        a_low=fields.vector_field_from_config(coeffs.get("a_low"), m0),
        b_low=fields.vector_field_from_config(coeffs.get("b_low"), m0),
        c=fields.scalar_field_from_config(coeffs.get("c")),
        mu=fields.json_value(float, cfg["mu"], "mu"),
        M_bound=fields.json_value(float, cfg.get("M", 0.0), "M"),
    )


def spec_to_config(spec):
    """The JSON dict form of a spec, read back by `spec_from_config`.

    Every coefficient appears in its one serialized form, so the run
    manifest hashes this dict as the model's content.
    """
    return {
        "blocks": list(spec.structure.m),
        "B": spec.system.B.tolist(),
        "coefficients": {
            "a": fields.matrix_field_to_config(spec.a),
            "a_low": fields.vector_field_to_config(spec.a_low),
            "b_low": fields.vector_field_to_config(spec.b_low),
            "c": fields.scalar_field_to_config(spec.c),
        },
        "mu": spec.mu,
        "M": spec.M_bound,
    }


# Last, so that gramian, which imports names from here, may be imported first.
from . import gramian  # noqa: E402
