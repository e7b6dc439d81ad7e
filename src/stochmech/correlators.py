"""Multi-time position correlations under three theories.

* Quantum mechanics: Heisenberg-picture expectation on the composite
  stationary state; a finite double sum over terms with trigonometric
  time dependence.
* Bohm mechanics: trajectories of a real stationary state are constant,
  so every multi-time correlation equals the equal-time one.
* Nelson stochastic mechanics: the unique stationary Markov process has
  correlations generated by a positivity-preserving semigroup exp(-tT);
  conjugating by multiplication with |psi| turns T into the Hamiltonian
  with Dirichlet conditions on the nodal set, so two-time correlations
  reduce to sums of decaying exponentials with spectral rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, ChannelDecomposition, decompose
from .errors import NumericError, ParameterError, UnsupportedStateError
from .spectral import (
    Grid,
    HarmonicPotential,
    _dvr_steps,
    nodal_interval_modes,
    nodal_intervals,
)
from .states import CompositeState, term_pairs

__all__ = [
    "Observable",
    "CorrelationSeries",
    "ModeExpansion",
    "CompareResult",
    "qm_multitime_correlation",
    "qm_two_time_series",
    "bohm_multitime_correlation",
    "nelson_mode_expansion",
    "nelson_semigroup_correlation",
    "nelson_two_time_series",
    "compare_theories",
]

MODE_CAP = 200
LAG_BLOCK = 512  # lags per block of a ModeExpansion call
_QM_LAG_BLOCK = 4096  # lags per block of a QM series
DEFICIT_TOL = 1e-6
_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class Observable:
    """Bounded-or-position function of one cluster coordinate.

    kinds: "position" (f(x) = x, unbounded), "sign", "indicator" of [a, b],
    and "tabulated" samples interpolated linearly.
    """

    kind: str
    cluster: int = 0
    a: float = 0.0
    b: float = 0.0
    samples: np.ndarray | None = None
    grid: Grid | None = None

    def __post_init__(self):
        if self.kind not in ("position", "sign", "indicator", "tabulated"):
            raise ParameterError(f"unknown observable kind {self.kind!r}")
        if self.cluster < 0:
            raise ParameterError("cluster index must be non-negative")
        if self.kind == "indicator" and not self.a < self.b:
            raise ParameterError("indicator needs a < b")
        if self.kind == "tabulated":
            if self.samples is None or self.grid is None:
                raise ParameterError("tabulated observable needs samples and grid")
            vals = np.array(self.samples, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ParameterError("tabulated observable must be finite")
            vals.setflags(write=False)
            object.__setattr__(self, "samples", vals)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "position":
            return x.copy()
        if self.kind == "sign":
            return np.sign(x)
        if self.kind == "indicator":
            return ((x >= self.a) & (x <= self.b)).astype(float)
        return np.interp(x, self.grid.points, self.samples)

    @property
    def is_bounded(self) -> bool:
        if self.kind == "position":
            return False
        if self.kind == "tabulated":
            return bool(np.max(np.abs(self.samples)) <= 1.0 + 1e-12)
        return True

    def key(self) -> tuple:
        if self.kind == "tabulated":
            return (self.kind, self.cluster, self.samples.tobytes(), self.grid)
        return (self.kind, self.cluster, self.a, self.b)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float64 array, copied unless it already is one."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """Correlation values over strictly increasing lags, both read-only float64 arrays."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags, values = _read_only(self.lags), _read_only(self.values)
        if lags.ndim != 1 or lags.shape != values.shape:
            raise ParameterError("lag/value length mismatch")
        if lags.size == 0:
            raise ParameterError("series must hold at least one lag")
        if np.any(np.diff(lags) <= 0):
            raise ParameterError("lags must increase strictly")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class ModeExpansion:
    """Spectral data of the Nelson semigroup for one observable pair.

    value(t) = sum_n coefficients[n] * exp(-rates[n] * |t|), over two
    read-only float64 arrays.  Each mode is
    an eigenmode of one channel's Dirichlet-restricted generator, weighted
    by both observables' overlaps with it; products of means of
    independent channels form one extra rate-0 mode.  The rate-0 sector
    is always present (the semigroup fixes constants).  truncation_tail is
    the largest fraction of an observable's norm the kept modes miss.

    Position pairs on a harmonic ground or first-excited channel take
    their modes from the closed form (_harmonic_position_modes): the rates
    and weights are exact, and the tail is the exact missing norm of the
    MODE_CAP kept modes.  Every other channel takes sine-DVR solves of its
    nodal intervals, and the tail counts only the truncation: not the
    DVR's own error, which falls as N^-4 where the potential has a slope
    at a node (5e-8 on the oscillator's psi_3 position pair), nor the O(h)
    quadrature of a jumping observable on the interval grid.
    """

    rates: np.ndarray
    coefficients: np.ndarray
    truncation_tail: float

    def __post_init__(self):
        r, c = _read_only(self.rates), _read_only(self.coefficients)
        if r.size == 0:
            raise ParameterError("mode expansion must hold at least one mode")
        if np.any(r < -1e-9):
            raise ParameterError("rates must be non-negative")
        if np.any(np.diff(r) < 0):
            raise ParameterError("rates must be non-decreasing")
        if abs(r[0]) > 1e-9:
            raise ParameterError("rate-0 sector missing from the expansion")
        if r.shape != c.shape:
            raise ParameterError("mode arrays must share one length")
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "coefficients", c)

    def __call__(self, t) -> float | np.ndarray:
        """The value at each lag of ``t``, in ``t``'s shape; a float for a scalar.

        Per LAG_BLOCK lags, the rows of exp(-outer(|t|, rates)) * coefficients
        are summed along the mode axis.  NumPy sums each contiguous row
        pairwise, so a scalar gives the bits of its element in any array.
        """
        lags = np.abs(np.asarray(t, dtype=float))
        out = np.empty(lags.shape)
        flat_lags, flat_out = lags.reshape(-1), out.reshape(-1)
        for start in range(0, flat_lags.size, LAG_BLOCK):
            block = np.multiply.outer(flat_lags[start:start + LAG_BLOCK], -self.rates)
            np.exp(block, out=block)
            block *= self.coefficients
            block.sum(axis=1, out=flat_out[start:start + LAG_BLOCK])
        return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# quantum backend
# --------------------------------------------------------------------------

def _matrix_elements(state: CompositeState, obs: Observable) -> np.ndarray:
    """M[s, p] = <psi_{k(i,s)} | f | psi_{k(i,p)}> on the observable's cluster."""
    es = state.clusters[obs.cluster]
    fvals = obs(es.grid.points)
    n_terms = len(state.terms)
    funcs = [es.eigenfunctions[idx[obs.cluster]].values for _, idx in state.terms]
    m = np.empty((n_terms, n_terms))
    for s in range(n_terms):
        for p in range(s, n_terms):
            m[s, p] = m[p, s] = float(es.grid.simpson @ (funcs[s] * fvals * funcs[p]))
    return m


def _check_distinct_clusters(observables) -> None:
    clusters = [o.cluster for o in observables]
    if len(set(clusters)) != len(clusters):
        raise ParameterError(
            "two observables address one cluster: positions of a single "
            "cluster at different times do not commute"
        )


def _check_clusters(state: CompositeState, observables) -> None:
    for o in observables:
        if not 0 <= o.cluster < state.n_clusters:
            raise ParameterError(f"no cluster {o.cluster}")


def _qm_correlation(state: CompositeState, observables, times):
    """qm_multitime_correlation elementwise over times that are floats or
    arrays of one shape, with the cancellation asserted at every element.

    The double sum runs over _QM_LAG_BLOCK elements at a time, so its
    complex temporaries do not grow with the lags; every operation is
    elementwise, so each value keeps its bits in any block.
    """
    observables = list(observables)
    if len(observables) != len(times):
        raise ParameterError("need one time per observable")
    if not observables:
        raise ParameterError("need at least one observable")
    _check_distinct_clusters(observables)
    _check_clusters(state, observables)
    mats = {o.cluster: _matrix_elements(state, o) for o in observables}
    flat = [np.reshape(t, -1) if np.ndim(t) else t for t in times]
    out = np.empty(np.broadcast_shapes(*(np.shape(t) for t in times)))
    flat_out = out.reshape(-1)
    observed = set(mats)
    pairs = list(term_pairs(state, observed))
    imag = 0.0
    for start in range(0, flat_out.size, _QM_LAG_BLOCK):
        block = slice(start, start + _QM_LAG_BLOCK)
        t_of = {o.cluster: t[block] if np.ndim(t) else t for o, t in zip(observables, flat)}
        total = 0.0 + 0.0j
        for s, p in pairs:
            (cs, idx_s), (cp, idx_p) = state.terms[s], state.terms[p]
            factor = cs * cp + 0.0j
            for i in observed:
                es = state.clusters[i]
                dlam = es.energies[idx_s[i]] - es.energies[idx_p[i]]
                factor *= mats[i][s, p] * np.exp(1j * dlam * t_of[i])
            total += factor
        imag = np.maximum(imag, np.max(np.abs(np.imag(total))))
        flat_out[block] = np.real(total)
    if imag > _IMAG_TOL:
        raise NumericError(f"imaginary part {imag:.3e} did not cancel")
    out.setflags(write=False)  # so a series takes it without a copy
    return out


def qm_multitime_correlation(state: CompositeState, observables, times) -> float:
    """Heisenberg-picture expectation of the product of the observables.

    The double sum over state terms carries phase factors with the
    per-cluster eigenvalue differences; clusters without an observable
    contribute Kronecker deltas through orthonormality.  The imaginary
    part must cancel for real coefficients and is asserted to.
    """
    return float(_qm_correlation(state, observables, [float(t) for t in times]))


def qm_two_time_series(
    state: CompositeState, f: Observable, g: Observable, lags
) -> CorrelationSeries:
    """E[f(t) g(0)] over the lags: qm_multitime_correlation at [lag, 0.0].

    With all terms at one total energy the correlation depends on the lag
    t_1 - t_2 alone.  One pass of the multi-time double sum over an array
    of lags gives each value that function's bits.
    """
    lags = _read_only(lags)
    if not lags.size:
        raise ParameterError("need at least one lag")
    return CorrelationSeries(lags, _qm_correlation(state, [f, g], [lags, 0.0]))


# --------------------------------------------------------------------------
# Bohm backend
# --------------------------------------------------------------------------

def bohm_multitime_correlation(state: CompositeState, observables, times) -> float:
    """Multi-time correlation under Bohm dynamics.

    Real stationary states have vanishing velocity field, so trajectories
    are constant and the joint distribution at any times equals the one
    at time zero; the times argument is ignored by construction.
    """
    observables = list(observables)
    if len(observables) != len(list(times)):
        raise ParameterError("need one time per observable")
    return qm_multitime_correlation(state, observables, [0.0] * len(observables))



# --------------------------------------------------------------------------
# Nelson spectral backend
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _ChannelModes:
    rates: np.ndarray
    weights: np.ndarray  # <f|n><n|g> for each mode n
    deficit: float


def _channel_autocorrelation_modes(channel: Channel, f_fn, g_fn) -> _ChannelModes:
    """Expansion of E[f(u(t)) g(u(0))] for one stationary 1D channel.

    Multiplying by |psi| maps the generator onto the channel Hamiltonian
    with Dirichlet conditions at the nodes of the state factor, so each
    nodal subinterval is diagonalized independently by
    spectral.nodal_interval_modes, whose IntervalModes are the package's
    one node-restricted spectrum, walled at the Monte Carlo's poles; the
    per-interval restriction of |psi|, read off psi.spline(), is kept
    as the exact rate-0 mode and the sine-DVR modes above it are
    orthogonalized against it.  A factor whose sign is unstable between
    its nodes raises NumericError.

    Starting from 24 modes per interval, the count grows fourfold until
    the truncation deficit meets DEFICIT_TOL or the per-interval share of
    MODE_CAP is reached.  The first round solves each interval for its 24
    modes; the first round that grows solves each once more, for the
    share, and it and every later round keep leading modes of that solve.
    A smooth pair stops at the first round.  A share whose solve takes
    under twice the first round's steps (four or more intervals) is solved
    at once, since a solve costs about the cube of its steps.
    """
    psi = channel.factor
    spline = psi.spline()
    intervals = nodal_intervals(psi)
    per_cap = max(2, MODE_CAP // len(intervals))
    n_modes = min(24, per_cap)
    first = n_modes if _dvr_steps(per_cap) >= 2 * _dvr_steps(n_modes) else per_cap
    solved = nodal_interval_modes(channel.potential, intervals, psi.grid.h / 2.0, first)
    while True:
        pieces = [
            replace(
                modes, energies=modes.energies[:n_modes], coefficients=modes.coefficients[:, :n_modes]
            )
            for modes in solved
        ]
        result = _assemble_channel_modes(pieces, spline, f_fn, g_fn)
        if result.deficit <= DEFICIT_TOL or n_modes >= per_cap:
            return result
        if n_modes == solved[0].energies.size:
            solved = nodal_interval_modes(channel.potential, intervals, psi.grid.h / 2.0, per_cap)
        n_modes = min(per_cap, n_modes * 4)


def _harmonic_position_modes(channel: Channel) -> _ChannelModes:
    """Exact expansion of E[u(t) u(0)] on a harmonic channel of index 0 or 1.

    With sigma^2 = 1/(2 omega), the ground channel is Ornstein-Uhlenbeck:
    one mode, rate omega, weight sigma^2.  On the first-excited channel the
    process never crosses its node and |u| is the radius of a stationary
    3-D Ornstein-Uhlenbeck process, so E[u(t) u(0)] = (8/pi) sigma^2
    2F1(-1/2, -1/2; 3/2; exp(-2 omega t)) (DLMF 15.2; Nelson, Phys. Rev.
    150, 1079 (1966)).  Its series has rates 2 m omega and positive weights
    (8/pi) sigma^2 ((-1/2)_m)^2 / ((3/2)_m m!); the first MODE_CAP are kept,
    and the deficit is the exact relative tail (3 sigma^2 - sum w) / (3 sigma^2).
    """
    omega = channel.potential.omega
    var = 0.5 / omega
    if channel.index == 0:
        rates = np.array([omega])
        weights = np.array([var])
        deficit = 0.0
    else:
        weights = np.empty(MODE_CAP)
        weights[0] = 8.0 / math.pi * var
        for m in range(1, MODE_CAP):
            weights[m] = weights[m - 1] * (m - 1.5) ** 2 / ((m + 0.5) * m)
        rates = 2.0 * omega * np.arange(MODE_CAP)
        deficit = (3.0 * var - math.fsum(weights)) / (3.0 * var)
    return _ChannelModes(rates=rates, weights=weights, deficit=deficit)


def _assemble_channel_modes(pieces, spline, f_fn, g_fn) -> _ChannelModes:
    from scipy.fft import dst

    # |psi| on each interval's interior points is that interval's rate-0 mode.
    amplitudes = [np.abs(spline(modes.points[1:-1])) for modes in pieces]
    # Global h-dot normalization of |psi| over the partitioned grid makes
    # the constant observable map to exactly 1.
    total = math.fsum(modes.h * float(a @ a) for modes, a in zip(pieces, amplitudes))
    scale = math.sqrt(total)

    rates = []
    overlaps = []  # rows: <f|n>, <g|n>
    norm = np.zeros(2)  # h-norms of f|psi| and g|psi|
    missing = np.zeros(2)  # the parts of those norms the kept modes miss
    for modes, amp in zip(pieces, amplitudes):
        h, xs = modes.h, modes.points[1:-1]
        w = amp / scale
        ground = w / math.sqrt(h * float(w @ w))
        obs = np.stack((f_fn(xs), g_fn(xs))) * w
        # The modes V above the lowest, orthogonalized against ground, are
        # the columns of (V - ground c^T) / col_norm, never formed.  An
        # h-dot product with a mode is one of the sine transform of the
        # samples with its coefficients (IntervalModes).  einsum keeps the
        # products single-threaded: a threaded BLAS product here has been
        # seen to leave threads spinning into later eigensolves.
        upper = modes.coefficients[:, 1:]
        sines = 0.5 * dst(np.vstack((ground, obs)), type=1, axis=1)[:, : upper.shape[0]]
        c = h * np.einsum("i,ij->j", sines[0], upper)
        upper_sq = 0.5 * h * (xs.size + 1) * np.einsum("ij,ij->j", upper, upper)  # h-norms squared
        col_norm = np.sqrt(np.maximum(0.0, upper_sq - c * c))
        keep = col_norm >= 1e-12
        over0 = h * np.einsum("ki,i->k", obs, ground)
        over = h * np.einsum("ki,ij->kj", sines[1:], upper) - np.outer(over0, c)
        over = np.column_stack((over0, over[:, keep] / col_norm[keep]))
        e = modes.energies
        rates.append(np.concatenate(([0.0], e[1:][keep] - e[0])))
        overlaps.append(over)
        obs_norm = h * np.einsum("ki,ki->k", obs, obs)
        norm += obs_norm
        missing += np.maximum(0.0, obs_norm - np.einsum("kj,kj->k", over, over))

    deficit = max((m / n for m, n in zip(missing, norm) if n > 0), default=0.0)
    rates = np.concatenate(rates)
    f_over, g_over = np.concatenate(overlaps, axis=1)
    order = np.argsort(rates, kind="stable")
    return _ChannelModes(
        rates=rates[order], weights=(f_over * g_over)[order], deficit=float(deficit)
    )


def _channel_mean(channel: Channel, fn) -> float:
    psi = channel.factor
    return float(psi.grid.simpson @ (fn(psi.grid.points) * psi.values * psi.values))


def _identity(x):
    return x


def _channel_terms(
    state: CompositeState, dec: ChannelDecomposition, obs: Observable
) -> tuple[float, list]:
    """Write f(x_j) as  constant + sum_c weight_c * fn_c(u_c)  over channels.

    Product channels are the clusters themselves, so any observable is a
    single channel term.  Rotated channels mix the cluster coordinates, so
    only functions that survive the mixing are exactly expandable:
    constants, and the coordinate itself, x_j = sum_c R[j, c] u_c.  A
    position observable is always carried as _identity.
    """
    if np.allclose(dec.rotation, np.eye(dec.n_channels)):
        fn = _identity if obs.kind == "position" else obs
        return 0.0, [(obs.cluster, fn, 1.0)]
    vals = obs(state.clusters[obs.cluster].grid.points)
    if float(np.max(vals) - np.min(vals)) == 0.0:
        return float(vals[0]), []
    if obs.kind == "position":
        row = dec.rotation[obs.cluster]
        return 0.0, [(c, _identity, row[c]) for c in range(dec.n_channels)]
    raise UnsupportedStateError(
        "rotated two-cluster states support position and constant "
        "observables only; use the Monte Carlo backend otherwise"
    )


def _mean(dec: ChannelDecomposition, const: float, terms) -> float:
    """Stationary mean of  const + sum_c weight_c * fn_c(u_c)."""
    return sum((w * _channel_mean(dec.channels[c], fn) for c, fn, w in terms), const)


def nelson_mode_expansion(
    state: CompositeState, f: Observable, g: Observable
) -> ModeExpansion:
    """Decay rates and overlap coefficients of the Nelson correlator.

    Supported states are those with a channel decomposition: products of
    1D clusters, and real two-term exchange superpositions of identical
    harmonic clusters (position and constant observables only in the
    rotated case).  Position pairs on harmonic ground and first-excited
    channels (every rotated channel, and harmonic clusters of a product
    state) are exact series; all other channels are sine-DVR solves of
    their nodal intervals.  The state keeps each (f, g) expansion for as
    long as it lives.
    """
    key = (f.key(), g.key())
    expansion = state._expansions.get(key)
    if expansion is None:
        expansion = state._expansions[key] = _build_expansion(state, f, g)
    return expansion


def _build_expansion(state: CompositeState, f: Observable, g: Observable) -> ModeExpansion:
    """E[f(t) g(0)] as a bilinear sum over the channel terms of f and g.

    Terms on a shared channel contribute that channel's decaying modes:
    the closed form for the identity on both sides of a harmonic channel
    of index 0 or 1, the nodal-interval solve otherwise.  Terms on
    distinct channels are independent and contribute the product of their
    means at rate 0, as does a constant side times the other side's mean.
    """
    _check_clusters(state, [f, g])
    dec = decompose(state)
    const_f, f_terms = _channel_terms(state, dec, f)
    const_g, g_terms = _channel_terms(state, dec, g)
    rates, coefficients = [], []  # an array of each per term pair on one channel
    cross: list[float] = []  # rate-0 products of independent means
    tail = 0.0
    for c, f_fn, wf in f_terms:
        for d, g_fn, wg in g_terms:
            if c == d:
                channel = dec.channels[c]
                exact = (
                    f_fn is _identity and g_fn is _identity
                    and isinstance(channel.potential, HarmonicPotential)
                    and channel.index in (0, 1)
                )
                if exact:
                    cm = _harmonic_position_modes(channel)
                else:
                    cm = _channel_autocorrelation_modes(channel, f_fn, g_fn)
                tail = max(tail, cm.deficit)
                rates.append(cm.rates)
                coefficients.append(wf * wg * cm.weights)
            else:
                cross.append(
                    wf * wg * _channel_mean(dec.channels[c], f_fn)
                    * _channel_mean(dec.channels[d], g_fn)
                )
    if not f_terms:
        cross.append(const_f * _mean(dec, const_g, g_terms))
    elif not g_terms:
        cross.append(const_g * _mean(dec, const_f, f_terms))
    if cross:
        # start from the first term so a lone product is kept exactly
        rates.append([0.0])
        coefficients.append([float(sum(cross[1:], cross[0]))])
    rates = np.concatenate(rates)
    order = np.argsort(rates, kind="stable")
    rates, coefficients = rates[order], np.concatenate(coefficients)[order]
    if abs(rates[0]) > 1e-9:
        rates, coefficients = np.insert(rates, 0, 0.0), np.insert(coefficients, 0, 0.0)
    # this argument order clamps a -0.0 rate to +0.0
    return ModeExpansion(np.maximum(rates, 0.0), coefficients, truncation_tail=tail)


def nelson_semigroup_correlation(
    state: CompositeState, f: Observable, g: Observable, t: float
) -> float:
    """E[f(t) g(0)] under the stationary Nelson process, spectrally.

    Negative lags are folded by time-reflection symmetry of the process.
    """
    return nelson_mode_expansion(state, f, g)(float(t))


def nelson_two_time_series(
    state: CompositeState, f: Observable, g: Observable, lags
) -> CorrelationSeries:
    """E[f(t) g(0)] over the lags: one call of the pair's ModeExpansion."""
    return CorrelationSeries(lags, nelson_mode_expansion(state, f, g)(lags))


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareResult:
    qm: CorrelationSeries
    bohm: CorrelationSeries
    nelson: CorrelationSeries | None
    equal_time_max_dev: float
    max_abs_dev_qm_bohm: float
    max_abs_dev_qm_nelson: float | None
    nelson_warning: str | None = None
    nelson_expansion: ModeExpansion | None = None


def compare_theories(
    state: CompositeState, f: Observable, g: Observable, lags
) -> CompareResult:
    """QM, Bohm, and spectral Nelson series side by side.

    Raises NumericError when the three theories fail to agree at equal
    times within 1e-6 (they must: the stationary density is shared).
    """
    qm = qm_two_time_series(state, f, g, lags)
    # the Bohm value is the equal-time QM value, so Bohm agrees at equal times
    qm0 = bohm_multitime_correlation(state, [f, g], [0.0, 0.0])
    bohm = CorrelationSeries(qm.lags, np.broadcast_to(qm0, qm.lags.shape))
    nelson = None
    warning = None
    nelson_dev = None
    expansion = None
    equal_dev = 0.0
    try:
        expansion = nelson_mode_expansion(state, f, g)
    except UnsupportedStateError as exc:
        warning = str(exc)
    else:
        nelson = CorrelationSeries(qm.lags, expansion(qm.lags))
        equal_dev = abs(expansion(0.0) - qm0)
        nelson_dev = float(np.max(np.abs(nelson.values - qm.values)))
    if equal_dev > 1e-6:
        raise NumericError(
            f"theories disagree at equal times by {equal_dev:.3e}"
        )
    return CompareResult(
        qm=qm,
        bohm=bohm,
        nelson=nelson,
        equal_time_max_dev=float(equal_dev),
        max_abs_dev_qm_bohm=float(np.max(np.abs(bohm.values - qm.values))),
        max_abs_dev_qm_nelson=nelson_dev,
        nelson_warning=warning,
        nelson_expansion=expansion,
    )
