"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or non-square shapes."""


class InputError(ValueError):
    """An argument is structurally valid but semantically unusable."""


class DomainError(ValueError):
    """A spectrum leaves the domain of the requested scalar function.

    Carries the offending eigenvalue when one is known.
    """

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NormalizationError(ValueError):
    """A weight vector or state vector is not normalized."""


class StateInvariantError(ValueError):
    """A density matrix invariant (unit trace, positivity) fails."""


class EigensolverError(RuntimeError):
    """The eigensolver did not converge or returned an inconsistent basis."""


class ConvergenceWarning(UserWarning):
    """An iterative routine returned an answer its tolerance does not certify.

    ree_ppt warns whenever its result has converged False: on its
    iteration budget, or at the end of its barrier path with a certified
    gap above _GAP_TOL; the message names the gap.
    """


class StateFileParseError(ValueError):
    """A state file does not parse or does not match the schema.

    ``line`` and ``column`` locate the problem when the underlying JSON
    parser reports a position; schema-level problems leave them None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
