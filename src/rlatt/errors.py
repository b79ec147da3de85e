"""Exception types shared across the package."""


class RlattError(Exception):
    """Base class for package-specific failures."""


class TruncationViolationError(RlattError):
    """Parameters fell outside the regime where the lattice truncates cleanly.

    Raised when a coefficient denominator collapses or no positive weights
    exist: a weight, or the amplitude of a move against its reverse's, has the wrong sign.
    """


class GenericityViolationError(RlattError):
    """A coefficient denominator vanished for the supplied weight point."""


class DegenerateSpectrumError(RlattError):
    """Joint eigenvectors could not be separated to tolerance."""


class LabelingError(RlattError):
    """Spectrum labels could not be assigned unambiguously."""


class ContinuationError(RlattError):
    """Label propagation along the nome sweep lost track of an eigenvector."""


class NormalizationError(RlattError):
    """An eigenvector has a vanishing component at the empty partition."""


class ConsistencyError(RlattError):
    """An internal identity the construction relies on failed numerically."""


class DegenerateSpecializationError(RlattError):
    """Two triangular-solve eigenvalues collided at the requested (q, t)."""
