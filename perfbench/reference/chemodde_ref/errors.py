"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: usage/parameter problems exit with 2,
domain and convergence failures with 1.
"""


class ChemoddeError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ChemoddeError):
    """A model parameter is outside its admissible range."""


class UsageError(ChemoddeError):
    """An operation was called with inconsistent or insufficient inputs."""


class DomainError(ChemoddeError):
    """A computation left its mathematical domain (zero biomass, nonpositive
    growth factor, log of a nonpositive number)."""


class ConvergenceError(ChemoddeError):
    """An iterative procedure failed to converge within its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
