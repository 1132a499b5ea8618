"""Exception types shared across the package."""


class ChmsError(Exception):
    """Base class for every error raised by this package."""


class OutOfRange(ChmsError):
    """Lattice index outside the valid range."""


class EmptyRegion(ChmsError):
    """Requested time window contains no rectangles."""


class NonMonotone(ChmsError):
    """Particle labels fail strict spatial monotonicity (eta_x <= 0).

    The Lagrangian density is singular at eta_x = 0, so evaluation is
    refused rather than returning huge finite values.  During time
    stepping this is the numerical signature of wave breaking.
    """


class BadInitialData(ChmsError):
    """Initial velocity too violent for the chosen timestep."""


class MaxItersExceeded(ChmsError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobian(ChmsError):
    """Row Jacobian could not be factorized or solved accurately.

    row is the row of the failing pivot, where the error names one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NotOnShell(ChmsError):
    """Operation requires a section solving the discrete field equations."""


class ConfigError(ChmsError):
    """Invalid run configuration."""
