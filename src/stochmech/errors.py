"""Exception hierarchy shared across the package.

Exit code of the ``stochmech`` command (``cli.main``) for each class:

    ConfigError            2  malformed run configuration
    StepSizeError          4  SDE diagnostics say the step is too coarse
    ParameterError         3  2 when raised while a config field is checked or
                              the patch of mc.epsilon or eps_study.epsilons[0]
                              is built
    DomainTruncationError  3  2 when raised while a cluster is built
    UnsupportedStateError  3  compare catches it and leaves the Nelson column out
    NumericError           3
    StochMechError         3  any other package error

Each "2 when raised ..." is a case the CLI turns into a ConfigError that
names the field.
"""


class StochMechError(Exception):
    """Base class for all package errors."""


class ParameterError(StochMechError, ValueError):
    """Invalid argument values or inconsistent argument combinations."""


class DomainTruncationError(StochMechError):
    """Grid too narrow: non-negligible probability mass falls outside it."""


class NumericError(StochMechError):
    """A numerical backend failed (no convergence, NaN, lost invariant)."""


class UnsupportedStateError(StochMechError):
    """State outside the family the exact Nelson backends can decompose."""


class StepSizeError(StochMechError):
    """SDE integrator diagnostics indicate the step size is too coarse."""


class ConfigError(StochMechError):
    """Malformed run configuration."""
