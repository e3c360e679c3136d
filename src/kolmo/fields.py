"""Coefficient fields for variable-coefficient operators.

Coefficients are supplied as a closed enumeration of serializable forms —
constant, time-sinusoid, space-sinusoid, and tabulated with nearest-point
lookup — rather than arbitrary measurable functions, which cannot round-trip
through a config file.  Every field is evaluated at ``(t, x)`` at one state
or at rows: ``x`` is a state ``(d,)``, rows ``(n, d)`` or, for a field of time
only, None.  A field of space gives each row its value at that row alone, bit
for bit; one of time gives one number, which broadcasts.  Each kind gives the
exact range of its values over all ``(t, x)``.
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

    def _arg(self, x):
        """``2 pi <wave, x> + phase``, the inner product summed coordinate by coordinate.

        Unlike a matrix product, whose rounding depends on the layout and the
        row count, this gives each row its value alone.
        """
        x = np.asarray(x, dtype=float)
        inner = x[..., 0] * self.wave[0]
        for i in range(1, len(self.wave)):
            inner = inner + x[..., i] * self.wave[i]
        return 2.0 * np.pi * inner + self.phase

    def __call__(self, t, x):
        return self.base + self.amplitude * np.sin(self._arg(x))

    def value_and_gradient(self, X, m):
        """The values at rows ``X``, bit for bit ``self(t, X)``, and the gradient ``(m, n)``.

        The gradient runs over the leading ``m`` coordinates, one row each; the
        phase is computed once for both.
        """
        arg = self._arg(X)
        k = np.asarray(self.wave[:m], dtype=float)
        return self.base + self.amplitude * np.sin(arg), np.multiply.outer(
            k, self.amplitude * 2.0 * np.pi * np.cos(arg)
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
        coord = t if self.axis == "time" else np.asarray(x, dtype=float)[..., self.axis]
        pts = np.asarray(self.points, dtype=float)
        nearest = np.argmin(np.abs(pts - np.asarray(coord)[..., None]), axis=-1)
        return np.asarray(self.values, dtype=float)[nearest]

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



def is_zero(field):
    """Whether a coefficient vanishes: a zero `ConstantField` or a `VectorField` of them."""
    if isinstance(field, VectorField):
        return all(map(is_zero, field.components))
    return isinstance(field, ConstantField) and field.value == 0.0


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
    return VectorField(comps)


def vector_field_to_config(f):
    return {"components": [scalar_field_to_config(c) for c in f.components]}
