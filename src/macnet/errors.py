"""Exception hierarchy shared across the package.

The three branches map onto the CLI exit codes: usage errors (1),
data/contract errors (2), and numerical failures (3).
"""


class MacnetError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class UsageError(MacnetError):
    """Bad command-line arguments or option combinations."""

    exit_code = 1


class DataError(MacnetError):
    """Invalid or inconsistent input data / arguments."""

    exit_code = 2


class NumericalError(MacnetError):
    """A numerical routine failed or detected an invalid matrix."""

    exit_code = 3


# --- data / contract errors -------------------------------------------------

class LengthMismatch(DataError):
    pass


class ZeroVariance(DataError):
    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InsufficientSamples(DataError):
    pass


class EmptyInput(DataError):
    pass


class OutOfDomain(DataError):
    pass


class DegenerateR(DataError):
    pass


class DegenerateCorrelation(DataError):
    pass


class NonFiniteInput(DataError):
    pass


class InvalidP(DataError):
    pass


class InvalidGamma(DataError):
    pass


class InvalidDf(DataError):
    pass


class InvalidThreshold(DataError):
    pass


class UnnormalizedContrib(DataError):
    pass


class MissingContribution(DataError):
    pass


class InvalidCounts(DataError):
    pass


class NodeSetMismatch(DataError):
    pass


class SchemaMismatch(DataError):
    def __init__(self, message, path=None, line=None, column=None):
        super().__init__(message)
        self.path = path
        self.line = line
        self.column = column


class DuplicateNodeId(SchemaMismatch):
    pass


class NonNumericCell(SchemaMismatch):
    pass


# --- numerical errors -------------------------------------------------------

class NotSymmetric(NumericalError):
    pass


class NotPositiveDefinite(NumericalError):
    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class InternalNumericalError(NumericalError):
    pass
