"""Exception types shared across the package."""


class CpfdeError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CpfdeError, ValueError):
    """Invalid user-supplied configuration or an infeasible parameter."""


class DimensionError(CpfdeError, ValueError):
    """Shapes or sizes that violate a structural precondition or a size cap."""
