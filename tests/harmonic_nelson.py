"""Exact-in-law sampler of the stationary Nelson process on harmonic channels.

A statistical reference for the Monte Carlo.  Both channels a harmonic
cluster carries have an exact transition over any step (Nelson, Phys. Rev.
150, 1079 (1966); Revuz-Yor ch. XI), so these positions carry no
discretization error:

* ground channel, drift -omega u: Ornstein-Uhlenbeck,
  u' = exp(-omega d) u + sqrt((1 - exp(-2 omega d)) / (2 omega)) xi;
* first-excited channel, drift 1/u - omega u: the radial part of a 3-D
  Ornstein-Uhlenbeck process.  Y starts at (|u|, 0, 0), steps by the rule
  above in each coordinate, and u' = sign(u) |Y'|, so a path never
  reaches the node.

Paths start from sample_stationary points and step with their own NumPy
generator: the numbers are a reference in law, never byte-compared.
"""

import math

import numpy as np

from stochmech import HarmonicPotential, sample_stationary
from stochmech.channels import decompose


def sample_harmonic_nelson(state, times, n_paths: int, seed: int) -> np.ndarray:
    """Cluster positions at t = 0 and at each of the increasing times.

    Returns shape (n_paths, 1 + len(times), n_clusters).
    """
    dec = decompose(state)
    for ch in dec.channels:
        if not isinstance(ch.potential, HarmonicPotential) or ch.index > 1:
            raise ValueError("every channel must be a harmonic ground or first-excited one")
    x0 = sample_stationary(state, n_paths, seed)
    u = dec.to_channels(x0)
    sides = np.sign(u)
    # one OU coordinate on a ground channel, three on a first-excited one
    ys = []
    for c, ch in enumerate(dec.channels):
        y = np.zeros((n_paths, 1 + 2 * ch.index))
        y[:, 0] = np.abs(u[:, c]) if ch.index else u[:, c]
        ys.append(y)
    rng = np.random.default_rng(seed)
    out = np.empty((n_paths, 1 + len(times), state.n_clusters))
    out[:, 0] = x0
    t_prev = 0.0
    for k, t in enumerate(times, start=1):
        for c, ch in enumerate(dec.channels):
            omega = ch.potential.omega
            decay = math.exp(-omega * (t - t_prev))
            spread = math.sqrt((1.0 - decay**2) / (2.0 * omega))
            ys[c] = decay * ys[c] + spread * rng.standard_normal(ys[c].shape)
            u[:, c] = sides[:, c] * np.linalg.norm(ys[c], axis=1) if ch.index else ys[c][:, 0]
        out[:, k] = dec.to_clusters(u)
        t_prev = t
    return out
