"""Exception hierarchy shared across the package."""


class StochMechError(Exception):
    """Base class for all package errors."""


class ParameterError(StochMechError, ValueError):
    """Invalid argument values or inconsistent argument combinations."""


class GridMismatchError(ParameterError):
    """Sampled functions passed to one operation live on different grids."""


class DomainTruncationError(StochMechError):
    """Grid too narrow: non-negligible probability mass falls outside it."""


class DomainError(StochMechError):
    """Evaluation point outside the supported spatial domain."""


class NumericError(StochMechError):
    """A numerical backend failed (no convergence, NaN, lost invariant)."""


class InconsistentStateError(ParameterError):
    """Composite-state terms violate the shared-energy constraint."""


class CompatibilityError(StochMechError):
    """Requested observables are not jointly measurable in quantum mechanics."""


class UnsupportedStateError(StochMechError):
    """State outside the family the exact Nelson backends can decompose."""


class NodeDetectionError(StochMechError):
    """Sign pattern of a wavefunction too noisy to locate nodes reliably."""


class RegularizationError(StochMechError):
    """Construction of the smooth node patch failed."""


class StepSizeError(StochMechError):
    """SDE integrator diagnostics indicate the step size is too coarse."""


class EnvelopeError(StochMechError):
    """Rejection sampling acceptance rate collapsed; proposal needs refining."""


class ConfigError(StochMechError):
    """Malformed run configuration."""
