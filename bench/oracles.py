"""Reference values for the benchmark's output checks, kept apart from stochmech.

The realizability verdict comes from Fine's description of the two-setting,
two-outcome local polytope (Fine, PRL 48, 291 (1982)): 16 positivity facets
plus the 8 CHSH inequalities.  The quantum series of a harmonic exchange pair
and the Nelson ground-channel term have closed forms.  The KS band uses
scipy's exact one-sample Kolmogorov distribution.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import kstwo

# atoms (s1, s2, t1, t2) in {-1, 1}^4; the point of a model is
# v = (<s1>, <s2>, <t1>, <t2>, E11, E12, E21, E22) with Eij = <s_i t_j>
ATOMS = np.array(list(itertools.product((-1, 1), repeat=4)), dtype=float)
_MOMENTS = np.hstack(
    [ATOMS, np.column_stack([ATOMS[:, i] * ATOMS[:, 2 + j] for i in (0, 1) for j in (0, 1)])]
)


def _facets() -> tuple[np.ndarray, np.ndarray]:
    """Offsets c and normals G of the 24 facets c + G @ v >= 0."""
    offsets, normals = [], []
    for i, j, a, b in itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1)):
        g = np.zeros(8)
        g[i], g[2 + j], g[4 + 2 * i + j] = a, b, a * b
        offsets.append(1.0)
        normals.append(g)
    for signs in itertools.product((-1, 1), repeat=4):
        if math.prod(signs) == -1:
            g = np.zeros(8)
            g[4:] = -np.asarray(signs, dtype=float)
            offsets.append(2.0)
            normals.append(g)
    return np.asarray(offsets), np.asarray(normals)


FACET_C, FACET_G = _facets()
FACET_MARGIN = 1e-7  # verdicts closer than this to a facet are not checked
MODEL_TOL = 1e-9


def _point(E, marginals) -> np.ndarray:
    return np.concatenate([np.asarray(marginals, dtype=float), np.ravel(E)])


def fine_verdict(E, marginals) -> tuple[bool, bool]:
    """(realizable, decided); decided is False within FACET_MARGIN of the boundary."""
    worst = float(np.min(FACET_C + FACET_G @ _point(E, marginals)))
    return worst >= 0.0, abs(worst) >= FACET_MARGIN


def model_error(atoms, E, marginals) -> float:
    """Largest deviation of a 16-atom model's moments from (marginals, E)."""
    return float(np.max(np.abs(np.asarray(atoms) @ _MOMENTS - _point(E, marginals))))


def decision_stream(rng: np.random.Generator, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """n realizability inputs in random order.

    Half are uniform correlation matrices with zero marginals.  The other half
    start from a random 16-atom model, walk in a random direction to the
    polytope boundary and stop 0.2-2% of that distance short of it or beyond
    it, so they carry nonzero marginals and sit on both sides of a facet.
    """
    inputs = [(rng.uniform(-1.0, 1.0, (2, 2)), np.zeros(4)) for _ in range(n // 2)]
    while len(inputs) < n:
        v = rng.dirichlet(np.full(16, 0.5)) @ _MOMENTS
        d = rng.standard_normal(8)
        rate = FACET_G @ d
        hit = rate < 0.0
        reach = float(np.min(-(FACET_C + FACET_G @ v)[hit] / rate[hit]))
        side = 1.0 if len(inputs) % 2 else -1.0
        w = v + reach * (1.0 + side * rng.uniform(0.002, 0.02)) * d
        if np.max(np.abs(w)) > 1.0 or abs(np.min(FACET_C + FACET_G @ w)) < 1e3 * FACET_MARGIN:
            continue
        inputs.append((w[4:].reshape(2, 2), w[:4].copy()))
    order = rng.permutation(n)
    return [inputs[i] for i in order]


def exchange_pair_qm(a: float, b: float, omega: float, lags) -> np.ndarray:
    """<x1(t) x2(0)> of a|0,1> + b|1,0> for two oscillators of frequency omega."""
    return a * b * np.cos(omega * np.asarray(lags, dtype=float)) / omega


def ground_channel_term(a: float, b: float, omega: float, lags) -> np.ndarray:
    """The ground channel's part of the Nelson <x1(t) x2(0)> of the exchange pair.

    The pair splits into an Ornstein-Uhlenbeck channel (<u(t)u(0)> =
    exp(-omega t) / (2 omega)) and a node-restricted first-excited channel; the
    cross-cluster correlation is a*b times (excited minus ground) channel
    autocorrelation.  The excited part, a sum of decaying exponentials with
    positive weights, cannot increase with the lag.
    """
    return -a * b * np.exp(-omega * np.asarray(lags, dtype=float)) / (2.0 * omega)


def ks_band(n_samples: int, n_tests: int, family_alpha: float = 1e-3) -> float:
    """KS critical value with Bonferroni correction over n_tests statistics."""
    return float(kstwo.isf(family_alpha / n_tests, n_samples))
