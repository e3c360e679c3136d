"""Coefficient fields for variable-coefficient operators.

Coefficients are supplied as a closed enumeration of serializable forms —
constant, time-sinusoid, space-sinusoid, and tabulated with nearest-point
lookup — rather than arbitrary measurable functions, which cannot round-trip
through a config file.  Every field is evaluated pointwise at ``(t, x)``, and
each kind gives the exact range of its values over all ``(t, x)``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .exceptions import CoefficientError

__all__ = [
    "ConstantField",
    "TimeSinusoidField",
    "SpaceSinusoidField",
    "TabulatedField",
    "IsotropicMatrixField",
    "ConstantMatrixField",
    "VectorField",
    "batch_scalar",
    "batch_value_and_gradient",
    "json_value",
    "scalar_field_from_config",
    "scalar_field_to_config",
    "matrix_field_from_config",
    "matrix_field_to_config",
    "vector_field_from_config",
    "vector_field_to_config",
]


@dataclass(frozen=True)
class ConstantField:
    value: float

    space_dependent = False

    def __call__(self, t, x):
        return self.value

    def value_range(self):
        return self.value, self.value


@dataclass(frozen=True)
class TimeSinusoidField:
    """``base + amplitude * sin(2*pi*frequency*t + phase)``."""

    base: float
    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    space_dependent = False

    def __call__(self, t, x):
        return self.base + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * t + self.phase
        )

    def value_range(self):
        return _sinusoid_range(self, (self.frequency,))


@dataclass(frozen=True)
class SpaceSinusoidField:
    """``base + amplitude * sin(2*pi*<wave, x> + phase)``."""

    base: float
    amplitude: float
    wave: tuple
    phase: float = 0.0

    space_dependent = True

    def __call__(self, t, x):
        k = np.asarray(self.wave, dtype=float)
        return self.base + self.amplitude * np.sin(
            2.0 * np.pi * float(k @ np.asarray(x, dtype=float)) + self.phase
        )

    def value_range(self):
        return _sinusoid_range(self, self.wave)


def _sinusoid_range(field, wave):
    """Range of ``base + amplitude sin(2 pi <wave, .> + phase)`` over every argument.

    ``base -+ |amplitude|``, or the one value ``base + amplitude sin(phase)``
    when the wave is all zeros; NaN when a parameter is not finite.
    """
    if not all(map(math.isfinite, (field.base, field.amplitude, field.phase, *wave))):
        return np.nan, np.nan
    if not any(wave):
        value = float(field.base + field.amplitude * np.sin(field.phase))
        return value, value
    return field.base - abs(field.amplitude), field.base + abs(field.amplitude)


@dataclass(frozen=True)
class TabulatedField:
    """Nearest-point lookup on a 1-d grid over time or one space coordinate.

    ``axis`` is ``"time"`` or a 0-based space coordinate index.
    """

    points: tuple
    values: tuple
    axis: object = "time"

    def __post_init__(self):
        if len(self.points) != len(self.values) or len(self.points) == 0:
            raise CoefficientError("tabulated field needs matching, nonempty grids")
        # A NaN point would win every nearest-point lookup.
        grids = (np.asarray(self.points, dtype=float), np.asarray(self.values, dtype=float))
        if not all(np.all(np.isfinite(g)) for g in grids):
            raise CoefficientError("tabulated field needs finite points and values")
        if self.axis != "time":
            object.__setattr__(self, "axis", json_value(int, self.axis, "axis"))

    @property
    def space_dependent(self):
        return self.axis != "time"

    def __call__(self, t, x):
        coord = t if self.axis == "time" else np.asarray(x, dtype=float)[self.axis]
        pts = np.asarray(self.points, dtype=float)
        return float(np.asarray(self.values, dtype=float)[np.argmin(np.abs(pts - coord))])

    def value_range(self):
        """The first value at each distinct point: ``argmin`` never returns a later duplicate."""
        _, first = np.unique(np.asarray(self.points, dtype=float), return_index=True)
        reached = np.asarray(self.values, dtype=float)[first]
        return float(reached.min()), float(reached.max())


@dataclass(frozen=True)
class IsotropicMatrixField:
    """Scalar field times the identity, as an ``dim x dim`` matrix field."""

    scalar: object
    dim: int

    @property
    def space_dependent(self):
        return self.scalar.space_dependent

    def __call__(self, t, x):
        return float(self.scalar(t, x)) * np.eye(self.dim)

    def eigenvalue_range(self):
        return self.scalar.value_range()


@dataclass(frozen=True)
class ConstantMatrixField:
    matrix: np.ndarray

    space_dependent = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, t, x):
        return self.matrix

    def eigenvalue_range(self):
        """Least and largest eigenvalue; the matrix must be finite and symmetric."""
        m = self.matrix
        if not np.isfinite(m).all():
            raise CoefficientError("non-finite diffusion coefficient a")
        asym = np.abs(m - m.T).max()
        if asym > 1e-12 * max(1.0, np.abs(m).max()):
            raise CoefficientError(f"diffusion coefficient a is asymmetric by {asym:.3e}")
        eigs = np.linalg.eigvalsh(m)
        return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class VectorField:
    """A vector of scalar fields, evaluated componentwise."""

    components: tuple

    @property
    def space_dependent(self):
        return any(c.space_dependent for c in self.components)

    def __call__(self, t, x):
        return np.array([c(t, x) for c in self.components], dtype=float)

    def is_zero(self):
        return all(
            isinstance(c, ConstantField) and c.value == 0.0 for c in self.components
        )


def batch_scalar(field, t, X):
    """Evaluate a scalar field at one time and many states, vectorized where possible."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(field, ConstantField):
        return np.full(len(X), field.value)
    if isinstance(field, TimeSinusoidField):
        return np.full(len(X), float(field(t, None)))
    if isinstance(field, SpaceSinusoidField):
        k = np.asarray(field.wave, dtype=float)
        return field.base + field.amplitude * np.sin(2.0 * np.pi * (X @ k) + field.phase)
    if isinstance(field, TabulatedField):
        if field.axis == "time":
            return np.full(len(X), float(field(t, np.zeros(X.shape[1]))))
        pts = np.asarray(field.points, dtype=float)
        vals = np.asarray(field.values, dtype=float)
        idx = np.argmin(np.abs(pts[None, :] - X[:, field.axis][:, None]), axis=1)
        return vals[idx]
    raise CoefficientError(f"no batch evaluation for {type(field).__name__}")


def batch_value_and_gradient(field, X, m):
    """A space-sinusoid field and its gradient in the leading ``m`` coordinates, at many states.

    The phase ``2 pi <wave, x> + phase`` is computed once for both; the
    values are `batch_scalar`'s float expression.
    """
    if not isinstance(field, SpaceSinusoidField):
        raise CoefficientError(f"no space gradient for {type(field).__name__}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = np.asarray(field.wave, dtype=float)
    arg = 2.0 * np.pi * (X @ k) + field.phase
    value = field.base + field.amplitude * np.sin(arg)
    return value, field.amplitude * 2.0 * np.pi * np.cos(arg)[:, None] * k[None, :m]


_SCALAR_KINDS = {
    "constant": ConstantField,
    "time-sinusoid": TimeSinusoidField,
    "space-sinusoid": SpaceSinusoidField,
    "tabulated": TabulatedField,
}

# How a JSON value becomes a field parameter, by the parameter's annotation.
_FROM_JSON = {
    "float": float,
    "tuple": lambda v: tuple(float(u) for u in v),
    "object": lambda v: v,
}


def json_value(convert, value, key):
    """``convert(value)`` for the JSON value under ``key``.

    A value of the wrong type raises `TypeError` naming the key.
    """
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{key!r}: {exc}") from exc


def scalar_field_from_config(cfg):
    """Build a scalar field from its JSON dict form.

    ``kind`` names an entry of `_SCALAR_KINDS`; the other keys are that
    class's dataclass fields, and a field left out takes its default.  A
    missing field with no default raises `KeyError` naming it, and a value
    of the wrong type a `TypeError` naming it.
    """
    if cfg is None:
        return ConstantField(0.0)
    if isinstance(cfg, (int, float)):
        return ConstantField(float(cfg))
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _SCALAR_KINDS:
        raise CoefficientError(f"unknown scalar field kind: {kind!r}")
    cls = _SCALAR_KINDS[kind]
    params = [f for f in fields(cls) if f.name in cfg or f.default is MISSING]
    return cls(**{f.name: json_value(_FROM_JSON[f.type], cfg[f.name], f.name) for f in params})


def scalar_field_to_config(f):
    """The JSON dict form of a scalar field, read back by `scalar_field_from_config`."""
    for kind, cls in _SCALAR_KINDS.items():
        if type(f) is cls:
            params = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(f).items()}
            return {"kind": kind, **params}
    raise CoefficientError(f"cannot serialize field of type {type(f).__name__}")


def matrix_field_from_config(cfg, dim):
    """Build the diffusion-block matrix field.

    A scalar (or scalar field config) multiplies the identity; an explicit
    matrix value gives a constant matrix field.
    """
    if cfg is None:
        raise CoefficientError("diffusion coefficient 'a' is required")
    if isinstance(cfg, dict) and cfg.get("kind") == "constant" and np.ndim(cfg["value"]) == 2:
        m = json_value(lambda v: np.array(v, dtype=float), cfg["value"], "value")
        if m.shape != (dim, dim):
            raise CoefficientError(f"'a' must be {dim}x{dim}, got {m.shape}")
        return ConstantMatrixField(m)
    return IsotropicMatrixField(scalar_field_from_config(cfg), dim)


def matrix_field_to_config(f):
    if isinstance(f, ConstantMatrixField):
        return {"kind": "constant", "value": f.matrix.tolist()}
    if isinstance(f, IsotropicMatrixField):
        return scalar_field_to_config(f.scalar)
    raise CoefficientError(f"cannot serialize field of type {type(f).__name__}")


def vector_field_from_config(cfg, dim):
    if cfg is None:
        return VectorField(tuple(ConstantField(0.0) for _ in range(dim)))
    if isinstance(cfg, dict) and "components" in cfg:
        comps = tuple(scalar_field_from_config(c) for c in cfg["components"])
    elif isinstance(cfg, dict) and cfg.get("kind") == "constant" and np.ndim(cfg["value"]) == 1:
        comps = tuple(ConstantField(json_value(float, v, "value")) for v in cfg["value"])
    else:
        comps = tuple(scalar_field_from_config(cfg) for _ in range(dim))
    if len(comps) != dim:
        raise CoefficientError(f"vector field needs {dim} components, got {len(comps)}")
    return VectorField(comps)


def vector_field_to_config(f):
    return {"components": [scalar_field_to_config(c) for c in f.components]}
