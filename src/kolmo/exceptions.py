"""Exception types shared across the package."""

__all__ = [
    "KolmoError",
    "StructureError",
    "CoefficientError",
    "GramianError",
    "ChainError",
    "SettingError",
]


class KolmoError(Exception):
    """Base class for all package-specific errors."""


class StructureError(KolmoError):
    """A drift matrix violates the block-triangular structure requirements.

    Parameters
    ----------
    clause : str
        Machine-readable identifier of the violated requirement, one of
        ``"m-monotonicity"``, ``"dimension-mismatch"``, ``"zero-block"``,
        ``"subdiagonal-rank"``.
    indices : tuple, optional
        Block indices involved in the violation, when applicable.
    """

    def __init__(self, clause, message, indices=None):
        super().__init__(message)
        self.clause = clause
        self.indices = indices


class CoefficientError(KolmoError):
    """A coefficient field failed validation (ellipticity, symmetry, finiteness)."""


class GramianError(KolmoError):
    """Covariance computation failed (not finite, singular, cross-check mismatch)."""


class ChainError(KolmoError):
    """A Harnack chain violates its construction guarantees."""


class SettingError(KolmoError):
    """An environment setting, such as ``KOLMO_THREADS``, holds a malformed value."""
