"""Multi-time position correlations of non-interacting quantum subsystems.

Quantum mechanics, Bohm mechanics, and Nelson stochastic mechanics assign
identical single-time position statistics to a stationary state, yet
their multi-time correlations differ for every non-product state; a
CHSH-type argument shows no classical probability model reproduces the
quantum values at all.  This package computes all three predictions
(exactly where possible, by regularized SDE simulation otherwise) and
decides classical realizability of correlation matrices.
"""

from .bell import (
    ChshReport,
    ClassicalModel,
    alpha,
    chsh_correlations,
    chsh_inequalities,
    chsh_value,
    classical_realizability,
    paper_times,
    run_chsh,
)
from .channels import decompose
from .correlators import (
    CompareResult,
    CorrelationSeries,
    ModeExpansion,
    Observable,
    bohm_multitime_correlation,
    compare_theories,
    nelson_mode_expansion,
    nelson_semigroup_correlation,
    nelson_two_time_series,
    qm_multitime_correlation,
    qm_two_time_series,
)
from .errors import (
    ConfigError,
    DomainTruncationError,
    NumericError,
    ParameterError,
    StepSizeError,
    StochMechError,
    UnsupportedStateError,
)
from .nelson_sde import (
    Ensemble,
    RegularizedDrift,
    epsilon_convergence_study,
    estimate_multi_time,
    estimate_two_time,
    regularized_drift,
    sample_stationary,
    simulate_ensemble,
)
from .spectral import (
    DoubleWellPotential,
    EigenSystem,
    Grid,
    HarmonicPotential,
    InfiniteWellPotential,
    TabulatedPotential,
    Wavefunction,
    box_eigensystem,
    default_grid,
    find_nodes,
    harmonic_eigensystem,
    solve_eigensystem,
)
from .states import (
    CompositeState,
    build_composite_state,
    density,
    marginal_density,
)

__version__ = "0.1.0"
