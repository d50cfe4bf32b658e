"""Package-wide exception types."""


class CmtkError(Exception):
    pass


class CertificationError(CmtkError):
    """Raised when an operation requires a non-failing certificate.

    Carries the failing Certificate in ``certificate``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotRepresentableError(CmtkError):
    """Moment fit residual exceeded the representability threshold."""

    def __init__(self, message, residual=None, threshold=None):
        super().__init__(message)
        self.residual = residual
        self.threshold = threshold


class BudgetExceededError(CmtkError):
    """A function handle ran out of its evaluation budget."""


class DomainError(CmtkError, ValueError):
    """Argument outside the domain a handle or operator supports.

    Also a ValueError, the type of a bad argument; the CLI reports it as a
    CmtkError (exit 1).
    """
