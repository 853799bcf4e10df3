"""Exception types shared across the package."""


class QsepError(Exception):
    """Base class for all package errors."""


class NotHermitian(QsepError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(QsepError):
    """Eigensolver failed to converge."""


class NotPSD(QsepError):
    """Matrix has a significantly negative eigenvalue."""


class DimensionMismatch(QsepError):
    """Matrix shape does not match the declared qubit count."""


class BadQubitCount(QsepError):
    """Qubit count outside the supported range."""


class BadParameter(QsepError):
    """Parameter outside its documented domain."""


class SupportViolation(QsepError):
    """First operator has weight outside the support of the second."""


class BadSchmidt(QsepError):
    """Schmidt coefficients must satisfy 1 >= u1 >= u2 >= 0."""


class NoSignChange(QsepError):
    """Criterion margin keeps one sign over the whole scan range."""


class MultipleRoots(QsepError):
    """Criterion margin changes sign more than once over the scan range."""


class NanMargin(QsepError):
    """Criterion margin evaluated to NaN; infinite margins are legal."""
