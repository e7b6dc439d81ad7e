import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.interpolate import CubicSpline
from scipy.special import hyp2f1

from stochmech import (
    CompositeState,
    CorrelationSeries,
    DoubleWellPotential,
    EigenSystem,
    NumericError,
    Observable,
    ParameterError,
    UnsupportedStateError,
    Wavefunction,
    bohm_multitime_correlation,
    box_eigensystem,
    build_composite_state,
    compare_theories,
    decompose,
    harmonic_eigensystem,
    nelson_mode_expansion,
    nelson_semigroup_correlation,
    nelson_two_time_series,
    qm_multitime_correlation,
    qm_two_time_series,
    regularized_drift,
    solve_eigensystem,
)
from stochmech import correlators, spectral
from stochmech.channels import Channel
from stochmech.spectral import (
    Grid,
    HarmonicPotential,
    TabulatedPotential,
    interval_dirichlet_modes,
    nodal_intervals,
)
from stochmech.states import marginal_density

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Exact mode weights of the node-restricted expansion of the coordinate in
# the first excited oscillator state (Gaussian-moment closed forms).
C1_SQ = 4.0 / math.pi
C3_SQ = 2.0 / (3.0 * math.pi)
C5_SQ = 1.0 / (30.0 * math.pi)


# --------------------------------------------------------------------------
# observables
# --------------------------------------------------------------------------

def test_observable_kinds():
    x = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
    assert np.array_equal(Observable("position", 0)(x), x)
    assert np.array_equal(Observable("sign", 0)(x), np.sign(x))
    ind = Observable("indicator", 0, a=0.0, b=1.0)
    assert np.array_equal(ind(x), [0.0, 0.0, 1.0, 1.0, 0.0])
    assert not Observable("position", 0).is_bounded
    assert Observable("sign", 0).is_bounded
    with pytest.raises(ParameterError):
        Observable("indicator", 0, a=1.0, b=0.0)
    with pytest.raises(ParameterError):
        Observable("momentum", 0)


def test_series_lags_increase_strictly():
    with pytest.raises(ParameterError):
        CorrelationSeries((1.0, 0.0), (0.5, 0.5))


# --------------------------------------------------------------------------
# quantum backend
# --------------------------------------------------------------------------

def test_qm_two_oscillator_cosine(two_oscillator_state, pos0, pos1):
    for t, s in [(0.0, 0.0), (0.3, 1.1), (2.0, 0.25), (4.0, -1.0)]:
        val = qm_multitime_correlation(two_oscillator_state, [pos0, pos1], [t, s])
        assert val == pytest.approx(math.cos(t - s) / 2.0, abs=1e-9)


def test_qm_series_landmarks(two_oscillator_state, pos0, pos1):
    series = qm_two_time_series(
        two_oscillator_state, pos0, pos1, [0.0, math.pi / 2.0, math.pi]
    )
    assert series.values[0] == pytest.approx(0.5, abs=1e-9)
    assert series.values[1] == pytest.approx(0.0, abs=1e-9)
    assert series.values[2] == pytest.approx(-0.5, abs=1e-9)


@pytest.fixture(scope="module")
def well_exchange_pair():
    well = solve_eigensystem(DoubleWellPotential(4.0, 1.0), Grid(-3.5, 3.5, 2001), 2)
    return build_composite_state([well, well], [(0.6, (0, 1)), (0.8, (1, 0))])


def test_qm_series_is_the_multitime_sum(
    two_oscillator_state, box_singlet_state, well_exchange_pair, pos0, pos1
):
    # each series value is qm_multitime_correlation at [lag, 0.0], bit for bit,
    # at long lags too, where a rounded frequency would drift off, and past
    # the first block of lags
    short = np.unique(np.concatenate((np.linspace(0.0, 7.0, 113), [6.25, 100.0, 1000.0])))
    long = np.linspace(0.0, 1000.0, correlators._QM_LAG_BLOCK + 1)
    for state, f, g in [
        (two_oscillator_state, pos0, pos1),
        (box_singlet_state, Observable("sign", 0), Observable("sign", 1)),
        (well_exchange_pair, pos0, pos1),
    ]:
        for lags in (short, long):
            series = qm_two_time_series(state, f, g, lags)
            assert np.array_equal(series.lags, lags)
            for lag, value in zip(lags, series.values):
                assert value == qm_multitime_correlation(state, [f, g], [lag, 0.0])


def test_qm_series_checks_cancellation_at_every_lag(two_oscillator_state, pos0, pos1, monkeypatch):
    # the series runs qm_multitime_correlation's cancellation check, over all lags
    monkeypatch.setattr(correlators, "_IMAG_TOL", -1.0)
    with pytest.raises(NumericError, match="did not cancel"):
        qm_two_time_series(two_oscillator_state, pos0, pos1, [0.0, 1.0])


def test_qm_box_singlet_sign_correlation(box_singlet_state, box_es):
    f = Observable("sign", 0)
    g = Observable("sign", 1)
    omega = box_es.energies[1] - box_es.energies[0]
    alpha = box_es.grid.simpson @ (
        np.sign(box_es.grid.points) * box_es.eigenfunctions[0].values * box_es.eigenfunctions[1].values
    )
    lag = math.pi / (4.0 * omega)
    val = qm_multitime_correlation(box_singlet_state, [f, g], [lag, 0.0])
    assert val == pytest.approx(-alpha**2 * math.sqrt(2.0) / 2.0, abs=1e-9)
    series = qm_two_time_series(box_singlet_state, f, g, [0.0, lag, 2.0 * lag])
    expected = [-alpha**2 * math.cos(omega * t) for t in (0.0, lag, 2.0 * lag)]
    assert series.values == pytest.approx(expected, abs=1e-9)


def test_qm_series_unknown_cluster(two_oscillator_state, pos0):
    with pytest.raises(ParameterError, match="no cluster 5"):
        qm_two_time_series(two_oscillator_state, Observable("position", 5), pos0, [0.0])


def test_qm_product_state_odd_observable_zero(ground_product_state, pos0, pos1):
    series = qm_two_time_series(ground_product_state, pos0, pos1, [0.0, 1.0, 2.0])
    assert np.max(np.abs(series.values)) < 1e-12


def test_qm_same_cluster_rejected(two_oscillator_state, pos0):
    with pytest.raises(ParameterError, match="two observables address one cluster"):
        qm_multitime_correlation(
            two_oscillator_state, [pos0, Observable("sign", 0)], [0.0, 1.0]
        )


# --------------------------------------------------------------------------
# Bohm backend
# --------------------------------------------------------------------------

def test_bohm_constant_and_maximal_disagreement(two_oscillator_state, pos0, pos1):
    val = bohm_multitime_correlation(two_oscillator_state, [pos0, pos1], [0.0, 0.0])
    assert val == pytest.approx(0.5, abs=1e-9)
    qm_pi = qm_multitime_correlation(two_oscillator_state, [pos0, pos1], [math.pi, 0.0])
    assert abs(qm_pi - val) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(
    t=st_.floats(min_value=-20.0, max_value=20.0),
    s=st_.floats(min_value=-20.0, max_value=20.0),
)
def test_bohm_time_independence_bitwise(t, s, two_oscillator_state, pos0, pos1):
    base = bohm_multitime_correlation(two_oscillator_state, [pos0, pos1], [0.0, 0.0])
    moved = bohm_multitime_correlation(two_oscillator_state, [pos0, pos1], [t, s])
    assert moved == base  # bitwise: times are ignored by construction


def test_bohm_equals_qm_on_product(ground_product_state, harmonic_es):
    f = Observable("indicator", 0, a=0.2, b=1.5)
    g = Observable("indicator", 1, a=-0.7, b=0.1)
    for times in [(0.0, 0.0), (1.3, 0.4)]:
        qm = qm_multitime_correlation(ground_product_state, [f, g], times)
        bohm = bohm_multitime_correlation(ground_product_state, [f, g], times)
        assert qm == pytest.approx(bohm, abs=1e-12)


# --------------------------------------------------------------------------
# Nelson spectral backend
# --------------------------------------------------------------------------

def test_mode_expansion_coefficients_match_closed_forms(
    two_oscillator_state, pos0, pos1
):
    exp = nelson_mode_expansion(two_oscillator_state, pos0, pos1)
    assert exp.truncation_tail < 1e-6
    # group mode weights by decay rate; the coefficient at rate 2(n-1)/2...
    groups: dict[float, float] = {}
    for r, c in zip(exp.rates, exp.coefficients):
        key = round(r, 3)
        groups[key] = groups.get(key, 0.0) + c
    ab = 0.5  # product of the two term coefficients
    assert groups[0.0] == pytest.approx(ab * C1_SQ, abs=2e-4)
    assert groups[1.0] == pytest.approx(-ab * 0.5, abs=1e-5)
    assert groups[2.0] == pytest.approx(ab * C3_SQ, abs=2e-4)
    assert groups[4.0] == pytest.approx(ab * C5_SQ, abs=2e-4)


def _harmonic_channel_exact(omega, index, lags):
    """E[u(t) u(0)] of a harmonic channel: Ornstein-Uhlenbeck at index 0,
    (8/pi) sigma^2 2F1(-1/2, -1/2; 3/2; exp(-2 omega t)) at index 1."""
    var = 0.5 / omega
    lags = np.asarray(lags, dtype=float)
    if index == 0:
        return var * np.exp(-omega * lags)
    return 8.0 / math.pi * var * hyp2f1(-0.5, -0.5, 1.5, np.exp(-2.0 * omega * lags))


def _channel_values(cm, lags):
    return np.exp(-np.outer(lags, cm.rates)) @ cm.weights


CLOSED_FORM_LAGS = np.linspace(0.0, 6.25, 26)


def _dense_harmonic_channel(omega, index):
    """An oscillator channel on 4001 points over +/-10/sqrt(omega)."""
    span = 10.0 / math.sqrt(omega)
    es = harmonic_eigensystem(omega, 2, Grid(-span, span, 4001))
    return Channel(HarmonicPotential(omega), es, index)


def test_semigroup_values_against_independent_series(two_oscillator_state, pos0, pos1):
    # a b (excited - ground channel autocorrelation), a = b = 1/sqrt(2)
    for t in (0.5, 1.0, 2.0):
        ref = 0.5 * (_harmonic_channel_exact(1.0, 1, t) - _harmonic_channel_exact(1.0, 0, t))
        val = nelson_semigroup_correlation(two_oscillator_state, pos0, pos1, t)
        assert val == pytest.approx(ref, abs=1e-7)
    assert nelson_semigroup_correlation(
        two_oscillator_state, pos0, pos1, 0.0
    ) == pytest.approx(0.5, abs=1e-6)
    assert nelson_semigroup_correlation(
        two_oscillator_state, pos0, pos1, 10.0
    ) == pytest.approx(2.0 / math.pi, abs=1e-4)


def test_semigroup_time_reflection(two_oscillator_state, pos0, pos1):
    plus = nelson_semigroup_correlation(two_oscillator_state, pos0, pos1, 1.3)
    minus = nelson_semigroup_correlation(two_oscillator_state, pos0, pos1, -1.3)
    assert plus == minus


def test_semigroup_fixes_constants(two_oscillator_state, harmonic_es):
    # indicator spanning the whole grid is the constant observable 1
    lo, hi = harmonic_es.grid.x_min - 1, harmonic_es.grid.x_max + 1
    one0 = Observable("indicator", 0, a=lo, b=hi)
    one1 = Observable("indicator", 1, a=lo, b=hi)
    exp = nelson_mode_expansion(two_oscillator_state, one0, one1)
    for t in (0.0, 0.7, 3.0, 25.0):
        assert float(exp(t)) == pytest.approx(1.0, abs=1e-10)


def test_autocorrelation_completely_monotone(harmonic_es):
    # same observable on one channel: the spectral measure is positive, so
    # the series decreases and is convex
    state = build_composite_state([harmonic_es], [(1.0, (1,))])
    f = Observable("position", 0)
    ts = np.linspace(0.0, 6.0, 200)
    vals = np.array([nelson_semigroup_correlation(state, f, f, t) for t in ts])
    d1 = np.diff(vals)
    d2 = np.diff(vals, 2)
    assert np.all(d1 <= 1e-12)
    assert np.all(d2 >= -1e-12)


def test_ou_channel_autocorrelation(harmonic_es):
    state = build_composite_state([harmonic_es], [(1.0, (0,))])
    f = Observable("position", 0)
    for t in (0.0, 0.5, 1.5):
        val = nelson_semigroup_correlation(state, f, f, t)
        assert val == pytest.approx(math.exp(-t) / 2.0, abs=2e-5)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("omega", [0.75, 1.0, 2.0])
def test_harmonic_position_modes_match_hyp2f1(omega, index):
    channel = _dense_harmonic_channel(omega, index)
    cm = correlators._harmonic_position_modes(channel)
    var = 0.5 / omega
    exact = _harmonic_channel_exact(omega, index, CLOSED_FORM_LAGS)
    err = np.max(np.abs(_channel_values(cm, CLOSED_FORM_LAGS) - exact))
    # positive weights: the error peaks at lag 0, where it is the missing tail
    assert err <= cm.deficit * 3.0 * var + 1e-15
    assert np.all(cm.weights > 0)
    if index == 0:
        assert cm.rates.tolist() == [omega] and cm.deficit == 0.0
    else:
        assert cm.rates.size == correlators.MODE_CAP
        assert np.allclose(cm.rates, 2.0 * omega * np.arange(correlators.MODE_CAP))
        assert cm.deficit == pytest.approx(4.265e-8, rel=1e-3)


@pytest.mark.parametrize("index, bound", [(0, 3e-7), (1, 2e-7)])
@pytest.mark.parametrize("omega", [0.75, 1.0, 2.0])
def test_finite_difference_channel_modes_match_closed_form(omega, index, bound):
    # called directly: no harmonic position expansion reaches this path
    channel = _dense_harmonic_channel(omega, index)
    f = correlators._identity
    cm = correlators._channel_autocorrelation_modes(channel, f, f)
    exact = _harmonic_channel_exact(omega, index, CLOSED_FORM_LAGS)
    # the O(h^2) rates (0.9999992 omega on the ground channel) bound the error
    err = np.max(np.abs(_channel_values(cm, CLOSED_FORM_LAGS) - exact))
    assert err <= bound * exact[0]


CHANNEL_LAGS = np.array([0.0, 0.25, 0.5, 1.0, 2.0])


def test_interval_path_matches_oscillator_closed_forms(harmonic_es):
    # the unit oscillator's position pairs, which the package expands by
    # the closed form, routed through the interval path on the default grid
    f = correlators._identity
    excited = Channel(HarmonicPotential(1.0), harmonic_es, 1)
    cm = correlators._channel_autocorrelation_modes(excited, f, f)
    series = correlators._harmonic_position_modes(excited)
    err = _channel_values(cm, CHANNEL_LAGS) - _channel_values(series, CHANNEL_LAGS)
    # measured 2.3e-8 at lag 0, where the two truncations differ, and at
    # most 2.7e-11 beyond it; finite differences were 9.3e-7 off
    assert abs(err[0]) <= 1e-7
    assert np.max(np.abs(err[1:])) <= 1e-10
    ground = Channel(HarmonicPotential(1.0), harmonic_es, 0)
    cm = correlators._channel_autocorrelation_modes(ground, f, f)
    # Ornstein-Uhlenbeck, sigma^2 exp(-omega t): measured 3.1e-14 off,
    # finite differences 5.8e-7
    err = _channel_values(cm, CHANNEL_LAGS) - 0.5 * np.exp(-CHANNEL_LAGS)
    assert np.max(np.abs(err)) <= 1e-13


def test_ornstein_uhlenbeck_sign_autocorrelation_is_sheppards(harmonic_es):
    # Sheppard's formula for a stationary Gaussian process:
    # E[sign u(t) sign u(0)] = (2/pi) arcsin(exp(-omega t)).  Measured
    # -4.1e-6, -2.1e-6, -7.3e-7, -9.7e-8 here and -1.9e-6, -5.5e-7, +8.2e-8,
    # +8.4e-8 by finite differences: the sign's jump at 0 is integrated to
    # O(h), far inside the 2.0e-2 truncation tail, whatever the spectrum
    sign = Observable("sign", 0)
    ground = Channel(HarmonicPotential(1.0), harmonic_es, 0)
    cm = correlators._channel_autocorrelation_modes(ground, sign, sign)
    lags = np.array([0.5, 1.0, 2.0, 4.0])
    err = _channel_values(cm, lags) - 2.0 / math.pi * np.arcsin(np.exp(-lags))
    assert np.max(np.abs(err)) <= 1e-5
    assert cm.deficit == pytest.approx(1.972e-2, rel=1e-3)


def test_closed_form_dispatch(harmonic_es, interval_solves):
    excited = build_composite_state([harmonic_es], [(1.0, (1,))])
    pos = Observable("position", 0)
    exp = nelson_mode_expansion(excited, pos, pos)
    assert interval_solves == []
    assert len(exp.rates) == correlators.MODE_CAP
    assert exp.truncation_tail == pytest.approx(4.265e-8, rel=1e-3)
    # a bounded observable, and higher harmonic states, take the FD path
    sign = Observable("sign", 0)
    nelson_mode_expansion(excited, sign, sign)
    assert interval_solves
    solves = len(interval_solves)
    second = build_composite_state([harmonic_es], [(1.0, (2,))])
    nelson_mode_expansion(second, pos, pos)
    assert len(interval_solves) > solves


def test_non_harmonic_position_expansion_is_finite_difference():
    es = solve_eigensystem(DoubleWellPotential(4.0, 1.0), Grid(-3.5, 3.5, 2001), 2)
    state = build_composite_state([es], [(1.0, (1,))])
    pos = Observable("position", 0)
    exp = nelson_mode_expansion(state, pos, pos)
    channel = Channel(es.potential, es, 1)
    f = correlators._identity
    cm = correlators._channel_autocorrelation_modes(channel, f, f)
    assert np.array_equal(exp.rates, cm.rates)
    assert np.array_equal(exp.coefficients, cm.weights)
    assert exp.truncation_tail == cm.deficit


def test_product_state_cross_correlation_constant(ground_product_state):
    f = Observable("indicator", 0, a=0.2, b=1.5)
    g = Observable("indicator", 1, a=-0.7, b=0.1)
    series = nelson_two_time_series(ground_product_state, f, g, [0.0, 0.5, 2.0])
    qm0 = qm_multitime_correlation(ground_product_state, [f, g], [0.0, 0.0])
    assert np.max(np.abs(np.asarray(series.values) - qm0)) < 1e-9


def test_unsupported_states_raise(box_singlet_state, two_oscillator_state, harmonic_es):
    with pytest.raises(UnsupportedStateError):
        nelson_mode_expansion(
            box_singlet_state, Observable("sign", 0), Observable("sign", 1)
        )
    with pytest.raises(UnsupportedStateError):
        # rotated pair supports positions only
        nelson_mode_expansion(
            two_oscillator_state, Observable("sign", 0), Observable("sign", 1)
        )
    es2 = harmonic_eigensystem(2.0, 3)
    mixed = build_composite_state(
        [harmonic_es, es2], [(INV_SQRT2, (2, 0)), (-INV_SQRT2, (0, 1))]
    )
    with pytest.raises(UnsupportedStateError):
        nelson_mode_expansion(
            mixed, Observable("position", 0), Observable("position", 1)
        )


def test_decompose_rejects_multi_term_product_state(harmonic_es):
    # built directly: a product over clusters without degenerate levels has
    # one term, since the terms must share the total energy, so these
    # states reach decompose only when a cluster has two levels within
    # ENERGY_TOL; they fall to the two-term and the generic diagnostics
    pair = CompositeState(
        clusters=(harmonic_es, harmonic_es),
        terms=((0.6, (0, 0)), (0.8, (0, 1))),
        energy=1.0,
    )
    with pytest.raises(UnsupportedStateError, match="two-term state is not an exchange pair"):
        decompose(pair)
    triple = CompositeState(
        clusters=(harmonic_es, harmonic_es),
        terms=((0.6, (0, 0)), (0.64, (0, 1)), (0.48, (0, 2))),
        energy=1.0,
    )
    with pytest.raises(UnsupportedStateError, match="no channel decomposition for 3 terms"):
        decompose(triple)


def test_expansion_cached(two_oscillator_state, pos0, pos1):
    a = nelson_mode_expansion(two_oscillator_state, pos0, pos1)
    b = nelson_mode_expansion(two_oscillator_state, pos0, pos1)
    assert a is b
    # the memo belongs to its state: an equal state rebuilt from the same
    # parts solves afresh and keeps its own expansion
    rebuilt = build_composite_state(
        two_oscillator_state.clusters, two_oscillator_state.terms
    )
    assert rebuilt == two_oscillator_state
    c = nelson_mode_expansion(rebuilt, pos0, pos1)
    assert c is not a
    assert np.array_equal(c.rates, a.rates) and np.array_equal(c.coefficients, a.coefficients)
    assert c.truncation_tail == a.truncation_tail
    assert nelson_mode_expansion(rebuilt, pos0, pos1) is c
    assert nelson_mode_expansion(two_oscillator_state, pos0, pos1) is a


def test_expansion_cache_released_with_state(harmonic_es, pos0):
    state = build_composite_state([harmonic_es], [(1.0, (0,))])
    expansion = weakref.ref(nelson_mode_expansion(state, pos0, pos0))
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None
    assert expansion() is None


def _blocked_rule(expansion, lags):
    """ModeExpansion's evaluation rule, written out: per LAG_BLOCK lags,
    exp(-outer(|t|, rates)) * coefficients summed along the mode axis."""
    rates = np.asarray(expansion.rates)
    coeffs = np.asarray(expansion.coefficients)
    tt = np.abs(np.asarray(lags, dtype=float))
    step = correlators.LAG_BLOCK
    return np.concatenate([
        (np.exp(-np.multiply.outer(tt[i:i + step], rates)) * coeffs).sum(axis=1)
        for i in range(0, tt.size, step)
    ])


@pytest.fixture(scope="module")
def evaluation_cases(two_oscillator_state, harmonic_es, pos0, pos1):
    well = solve_eigensystem(DoubleWellPotential(4.0, 1.0), Grid(-3.5, 3.5, 2001), 2)
    excited_well = build_composite_state([well], [(1.0, (1,))])
    excited = build_composite_state([harmonic_es], [(1.0, (1,))])
    sign = Observable("sign", 0)
    return {
        "exchange-pair": nelson_mode_expansion(two_oscillator_state, pos0, pos1),
        "double-well": nelson_mode_expansion(excited_well, pos0, pos0),
        "sign-pair": nelson_mode_expansion(excited, sign, sign),
    }


@pytest.mark.parametrize("case", ["exchange-pair", "double-well", "sign-pair"])
def test_expansion_call_is_the_blocked_rule(evaluation_cases, case):
    expansion = evaluation_cases[case]
    # several blocks and a partial one, negative lags included
    lags = np.linspace(-20.0, 100.0, 4 * correlators.LAG_BLOCK + 7)
    values = expansion(lags)
    assert values.shape == lags.shape
    assert np.array_equal(values, _blocked_rule(expansion, lags))


@pytest.mark.parametrize("case", ["exchange-pair", "double-well", "sign-pair"])
def test_expansion_scalar_call_is_the_array_element(evaluation_cases, case):
    expansion = evaluation_cases[case]
    rng = np.random.default_rng(32)
    lags = np.concatenate((rng.uniform(-10.0, 50.0, 10**4), [0.0, -0.0, 1e-300, 1e3]))
    values = expansion(lags)
    scalars = [expansion(t) for t in lags]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(values, scalars)
    assert expansion(float(lags[5])) == values[5]
    assert np.array_equal(expansion(-lags), values)


def test_expansion_call_keeps_array_shape(evaluation_cases):
    expansion = evaluation_cases["double-well"]
    lags = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    values = expansion(lags)
    assert values.shape == (3, 4)
    assert np.array_equal(values.ravel(), [expansion(t) for t in lags.ravel()])


def test_expansion_call_memory_is_one_block(evaluation_cases):
    # beside |t| and the output, an array call holds a block of LAG_BLOCK x
    # modes floats (two while the loop rebinds it) and NumPy's ufunc buffers
    # (measured: 2 blocks + 130 KiB), whatever the number of lags
    expansion = evaluation_cases["exchange-pair"]
    lags = np.linspace(0.0, 50.0, 2 * 10**5)
    block = correlators.LAG_BLOCK * len(expansion.rates) * 8
    assert block > 5 * 10**5
    tracemalloc.start()
    try:
        expansion(lags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * lags.nbytes + 2 * block + 512 * 1024


def test_compare_series_memory_per_lag(harmonic_es, pos0, pos1):
    # the three series share the caller's read-only lags, the Bohm values
    # are one broadcast float, so the result holds one float per lag for QM
    # and one for Nelson: measured 16 B per lag held and a 48 B peak at 1e5
    # lags, where tuples of floats held 96 B and peaked at 120 B.  The QM
    # series alone peaks at 17 B per lag: its values, the series' 9 B
    # strict-increase check, and complex temporaries of _QM_LAG_BLOCK lags;
    # summed over the whole lag array at once, it peaked at 48 B
    state = build_composite_state([harmonic_es, harmonic_es], [(0.6, (0, 1)), (0.8, (1, 0))])
    nelson_mode_expansion(state, pos0, pos1)
    qm_two_time_series(state, pos0, pos1, [0.0])
    n = 10**5
    lags = np.arange(n) * 1e-3
    lags.setflags(write=False)
    tracemalloc.start()
    try:
        qm_two_time_series(state, pos0, pos1, lags)
        _, qm_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = compare_theories(state, pos0, pos1, lags)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert qm_peak <= 24 * n
    assert all(series.lags is lags for series in (result.qm, result.bohm, result.nelson))
    assert held <= 24 * n and peak <= 64 * n


def test_nelson_series_is_one_expansion_call(two_oscillator_state, pos0, pos1, monkeypatch):
    expansion = nelson_mode_expansion(two_oscillator_state, pos0, pos1)
    calls = []

    def counted(self, t):
        calls.append(np.shape(t))
        return call(self, t)

    call = correlators.ModeExpansion.__call__
    monkeypatch.setattr(correlators.ModeExpansion, "__call__", counted)
    lags = np.linspace(0.0, 5.0, 1000)
    series = nelson_two_time_series(two_oscillator_state, pos0, pos1, lags)
    assert calls == [(1000,)]
    assert np.array_equal(series.values, call(expansion, lags))


def test_rotated_constant_times_position_vanishes(two_oscillator_state, harmonic_es, pos1):
    # a constant side factors out: E[1 * x_1] is the mean of an odd marginal
    lo, hi = harmonic_es.grid.x_min - 1, harmonic_es.grid.x_max + 1
    one0 = Observable("indicator", 0, a=lo, b=hi)
    for f, g in [(one0, pos1), (pos1, one0)]:
        exp = nelson_mode_expansion(two_oscillator_state, f, g)
        assert exp.rates == (0.0,)
        assert np.max(np.abs(exp(np.array([0.0, 0.5, 2.0, 25.0])))) < 1e-12


@pytest.mark.parametrize(
    "n, rates",
    [
        # psi_0 fills the box: rates E_m - E_0 = pi^2 ((m+1)^2 - 1) / 8,
        # and x couples to the odd m only
        (0, [math.pi**2 * ((m + 1) ** 2 - 1) / 8.0 for m in (1, 3, 5, 7)]),
        # psi_1's node splits it into two boxes of width 1, each with rates
        # pi^2 (m^2 - 1) / 2, where x couples to the even m only
        (1, [math.pi**2 * (m * m - 1) / 2.0 for m in (2, 2, 4, 4)]),
    ],
)
def test_box_position_expansion_finite_difference(n, rates):
    # the finite-difference Nelson path on an infinite well, whose
    # potential is sampled on each nodal interval
    es = box_eigensystem(1.0, 3)
    x = Observable("position", 0)
    exp = nelson_mode_expansion(build_composite_state([es], [(1.0, (n,))]), x, x)
    r, c = np.asarray(exp.rates), np.asarray(exp.coefficients)
    weighted = r[(r > 0.0) & (c > 1e-6 * c.sum())]
    # measured: at most 2.1e-12 relative (3.5e-6 by finite differences)
    assert weighted[:4] == pytest.approx(rates, rel=1e-10)
    # lag 0 is <x^2>; measured gaps 2.7e-8 (psi_0) and 6.7e-9 (psi_1)
    psi = es.eigenfunctions[n].values
    second = es.grid.simpson @ (es.grid.points**2 * psi * psi)
    assert float(exp(0.0)) == pytest.approx(second, abs=1e-7)


def test_rotated_same_cluster_equal_time_second_moment(two_oscillator_state, harmonic_es, pos0):
    # both channels feed x_0, so this sums two channels' modes and the
    # cross-channel means; at lag 0 it is <x_0^2>, short by at most the
    # truncation tail the expansion reports
    exp = nelson_mode_expansion(two_oscillator_state, pos0, pos0)
    grid = harmonic_es.grid
    second = grid.simpson @ (grid.points**2 * marginal_density(two_oscillator_state, 0))
    assert second == pytest.approx(1.0, abs=1e-12)
    assert exp.truncation_tail < 1e-6
    assert abs(float(exp(0.0)) - second) <= exp.truncation_tail * second


@pytest.fixture()
def interval_solves(monkeypatch):
    """The (a, b, n_modes) of every interval eigensolve the Nelson expansion makes."""
    calls = []

    def record(potential, a, b, h_target, n_modes):
        calls.append((a, b, n_modes))
        return interval_dirichlet_modes(potential, a, b, h_target, n_modes)

    monkeypatch.setattr(spectral, "interval_dirichlet_modes", record)
    return calls


def _gram_schmidt_modes(pieces, spline, f_fn, g_fn):
    """Reference assembly: one explicit Gram-Schmidt step per mode.

    Returns (rates, weights, deficit) as _assemble_channel_modes defines them.
    """
    amps = [np.abs(spline(modes.points[1:-1])) for modes in pieces]
    scale = math.sqrt(math.fsum(m.h * float(a @ a) for m, a in zip(pieces, amps)))
    rates_all, f_all, g_all = [], [], []
    missing_f = missing_g = norm_f = norm_g = 0.0
    for modes, amp in zip(pieces, amps):
        h, mat, energies = modes.h, modes.values[1:-1, :], modes.energies
        w = amp / scale
        ground = w / math.sqrt(h * float(w @ w))
        basis, rates = [ground], [0.0]
        for j in range(1, energies.size):
            v = mat[:, j]
            v = v - (h * float(ground @ v)) * ground
            nrm = math.sqrt(h * float(v @ v))
            if nrm < 1e-12:
                continue
            basis.append(v / nrm)
            rates.append(float(energies[j]) - float(energies[0]))
        xs = modes.points[1:-1]
        wf, wg = f_fn(xs) * w, g_fn(xs) * w
        norm_f += h * float(wf @ wf)
        norm_g += h * float(wg @ wg)
        cov_f = cov_g = 0.0
        for vec, rate in zip(basis, rates):
            of, og = h * float(vec @ wf), h * float(vec @ wg)
            rates_all.append(rate)
            f_all.append(of)
            g_all.append(og)
            cov_f += of * of
            cov_g += og * og
        missing_f += max(0.0, h * float(wf @ wf) - cov_f)
        missing_g += max(0.0, h * float(wg @ wg) - cov_g)
    deficit = max(missing_f / norm_f, missing_g / norm_g)
    order = np.argsort(rates_all, kind="stable")
    weights = np.asarray(f_all) * np.asarray(g_all)
    return np.asarray(rates_all)[order], weights[order], deficit


@pytest.fixture(scope="module")
def double_well_es():
    return solve_eigensystem(DoubleWellPotential(4.0, 1.0), Grid(-3.5, 3.5, 2001), 3)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize(
    "f, g",
    [
        (Observable("position", 0), Observable("indicator", 0, a=-0.4, b=1.3)),
        (Observable("sign", 0), Observable("position", 0)),
    ],
)
def test_assembly_matches_gram_schmidt_reference(double_well_es, index, f, g):
    psi = double_well_es.eigenfunctions[index]
    grid = psi.grid
    spline = CubicSpline(grid.points, psi.values)
    intervals = nodal_intervals(psi)
    assert len(intervals) == index + 1
    for n_modes in (24, correlators.MODE_CAP // len(intervals)):
        pieces = spectral.nodal_interval_modes(
            double_well_es.potential, intervals, grid.h / 2.0, n_modes
        )
        cm = correlators._assemble_channel_modes(pieces, spline, f, g)
        rates, weights, deficit = _gram_schmidt_modes(pieces, spline, f, g)
        assert np.array_equal(cm.rates, rates)
        assert np.max(np.abs(cm.weights - weights)) <= 1e-13
        assert abs(cm.deficit - deficit) <= 1e-13


@pytest.mark.parametrize(
    "index, kind, solves, kept",
    [(0, "sign", [24, 200], 200), (2, "sign", [24, 66], 66), (3, "position", [50], 50), (3, "sign", [50], 24)],
)
def test_interval_solves_first_round_then_share(harmonic_es, interval_solves, index, kind, solves, kept):
    # The first round solves each nodal interval for 24 modes; the first
    # round that grows solves each once more, for its share of MODE_CAP,
    # and later rounds keep leading modes of that solve: psi_0's sign pair
    # keeps 24, 96 and then 200 modes from two solves, psi_2's keeps 24 and
    # then 66.  psi_3's four intervals have a share of 50, whose 100-step
    # solve is under twice the first round's 64, so each is solved once,
    # for 50 modes; position keeps them all, while sign times |psi| is each
    # interval's ground mode and stops at 24.
    channel = Channel(HarmonicPotential(1.0), harmonic_es, index)
    intervals = nodal_intervals(harmonic_es.eigenfunctions[index])
    fn = correlators._identity if kind == "position" else Observable(kind, 0)
    cm = correlators._channel_autocorrelation_modes(channel, fn, fn)
    assert interval_solves == [(a, b, n) for n in solves for a, b in intervals]
    assert cm.rates.size == len(intervals) * kept


def test_nelson_expansion_rejects_unstable_sign_pattern():
    # sign-fluctuating noise just above the dead threshold around the centre:
    # the factor has no clean nodal intervals for the Dirichlet map
    g = Grid(-1.0, 1.0, 401)
    vals = np.exp(-8.0 * g.points**2)
    band = np.abs(g.points) < 0.2
    vals[band] = 5e-9 * (-1.0) ** np.arange(int(np.count_nonzero(band)))
    pot = TabulatedPotential(g, np.zeros(g.n))
    es = EigenSystem(g, (0.0,), (Wavefunction.normalized(g, vals),), potential=pot)
    state = build_composite_state([es], [(1.0, (0,))])
    f = Observable("position", 0)
    with pytest.raises(NumericError, match="leaves its sample cell"):
        nelson_mode_expansion(state, f, f)
    # the Monte Carlo drift reads the same nodal intervals
    with pytest.raises(NumericError, match="leaves its sample cell"):
        regularized_drift(state, 1e-3)


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------

def test_compare_product_state_agreement(ground_product_state):
    f = Observable("indicator", 0, a=0.2, b=1.5)
    g = Observable("indicator", 1, a=-0.7, b=0.1)
    result = compare_theories(ground_product_state, f, g, [0.0, 0.5, 1.0, 2.0])
    assert result.equal_time_max_dev < 1e-6
    assert result.max_abs_dev_qm_bohm < 1e-6
    assert result.max_abs_dev_qm_nelson < 1e-6


def test_compare_two_oscillator_disagreement(two_oscillator_state, pos0, pos1):
    lags = [0.0, math.pi / 2.0, math.pi, 2.0 * math.pi, 4.0 * math.pi]
    result = compare_theories(two_oscillator_state, pos0, pos1, lags)
    assert result.equal_time_max_dev < 1e-6
    assert result.max_abs_dev_qm_bohm > 0.5
    assert result.max_abs_dev_qm_nelson > 0.5
    # QM oscillates, Bohm is constant, Nelson is monotone in the lag
    assert result.bohm.values[0] == result.bohm.values[-1]
    nelson = np.asarray(result.nelson.values)
    assert np.all(np.diff(nelson) >= -1e-9)
    qm = np.asarray(result.qm.values)
    assert (np.diff(qm) < 0).any() and (np.diff(qm) > 0).any()


def test_compare_unsupported_nelson_reported(box_singlet_state):
    result = compare_theories(
        box_singlet_state, Observable("sign", 0), Observable("sign", 1), [0.0, 1.0]
    )
    assert result.nelson is None
    assert result.max_abs_dev_qm_nelson is None
    assert "harmonic" in result.nelson_warning
