"""Exception types raised by the library.

Everything derives from :class:`ValueError` so callers that do not care
about the distinction can catch a single base class. An integer index
past the end of its range raises plain :class:`IndexError` instead.
"""


class InvalidInputError(ValueError):
    """An argument fails a documented precondition."""


class DimensionMismatchError(InvalidInputError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitianError(InvalidInputError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotPSDError(InvalidInputError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class DegenerateSpectrumError(InvalidInputError):
    """Assigned measurement eigenvalues are too close to be distinguishable."""


class EigensolverError(RuntimeError):
    """The underlying eigenvalue routine failed to converge."""
