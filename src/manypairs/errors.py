"""Exception hierarchy shared by all manypairs modules."""


class ManyPairsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ManyPairsError, ValueError):
    """An argument is outside its documented domain."""


class InfeasibleStatisticsError(ManyPairsError, ValueError):
    """A correlator/marginal combination implies a negative probability."""


class NoViolationError(ManyPairsError):
    """No CHSH violation exists for the requested configuration.

    Carries the best CHSH value that was achieved.
    """

    def __init__(self, message: str, s_max: float):
        super().__init__(message)
        self.s_max = s_max


class InsufficientDataError(ManyPairsError, ValueError):
    """Not enough events/clusters to form an estimate."""


class IngestionError(ManyPairsError, ValueError):
    """An event file is missing, malformed, or incomplete."""


class FitError(ManyPairsError, ValueError):
    """A least-squares fit is under-determined or rank-deficient."""


class ConvergenceError(ManyPairsError):
    """An iterative solver found no point that meets its tolerance."""
