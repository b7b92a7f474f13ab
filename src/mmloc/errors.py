"""Exception types shared across the package."""


class MmlocError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometry(MmlocError):
    """A geometric configuration makes the requested quantity undefined
    (coincident points, UE on or behind a wall, zero-length path leg)."""


class InsufficientPaths(MmlocError):
    """Path set cannot identify the UE (no LOS and fewer than two NLOS)."""


class SingularCovariance(MmlocError):
    """Measurement covariance is not positive definite."""


class SingularFisher(MmlocError):
    """Fisher information matrix is singular or numerically unusable."""


class AllTrialsFailed(MmlocError):
    """Every Monte Carlo trial or map point of an experiment raised."""


class EmptyResult(MmlocError):
    """An experiment has nothing to report (a grid with no valid node)."""


class ConfigError(MmlocError):
    """Run configuration is malformed or violates an invariant."""


class ExperimentError(MmlocError):
    """An experiment failed partway through execution."""
