"""The exact harmonic Nelson sampler against the spectral semigroup."""

import math

import numpy as np

from harmonic_nelson import sample_harmonic_nelson
from stochmech import Observable, build_composite_state, nelson_semigroup_correlation

LAGS = (0.5, 1.0, 1.5, 2.0)  # the criterion-4 times
SEED = 11


def test_exchange_pair_matches_semigroup(two_oscillator_state, pos0, pos1):
    paths = sample_harmonic_nelson(two_oscillator_state, LAGS, 100_000, SEED)
    g0 = pos1(paths[:, 0, 1])
    for k, t in enumerate(LAGS, start=1):
        vals = pos0(paths[:, k, 0]) * g0
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        exact = nelson_semigroup_correlation(two_oscillator_state, pos0, pos1, t)
        assert abs(float(np.mean(vals)) - exact) <= 4.0 * stderr, (t, np.mean(vals), exact, stderr)


def test_first_excited_paths_keep_their_side(harmonic_es):
    state = build_composite_state([harmonic_es], [(1.0, (1,))])
    paths = sample_harmonic_nelson(state, LAGS, 10_000, SEED)[:, :, 0]
    sign = Observable("sign", 0)
    for k in range(1, len(LAGS) + 1):
        assert float(np.mean(sign(paths[:, k]) * sign(paths[:, 0]))) == 1.0
    assert np.all(np.sign(paths) == np.sign(paths[:, :1]))
