"""Stationary states of composite non-interacting systems.

A composite state is a normalized sum of product terms, one eigenfunction
factor per cluster, with all terms sharing the same total energy.  Only
real coefficients are admitted: that keeps the probability-current
velocity field identically zero and is all the worked systems need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .spectral import EigenSystem

__all__ = [
    "CompositeState",
    "build_composite_state",
    "density",
    "marginal_density",
    "term_pairs",
]

ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class CompositeState:
    """Sum of product eigenfunction terms with a shared total energy."""

    clusters: tuple[EigenSystem, ...]
    terms: tuple[tuple[float, tuple[int, ...]], ...]
    energy: float
    # Nelson mode expansions keyed on (f.key(), g.key()), filled by
    # correlators.nelson_mode_expansion and freed with the state
    _expansions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def build_composite_state(clusters, terms) -> CompositeState:
    """Validate and normalize a composite stationary state.

    ``terms`` is a list of (coefficient, index tuple) pairs; coefficients
    are renormalized so their squares sum to one, and every term must
    carry the same total energy (sum of its per-cluster eigenvalues).
    """
    clusters = tuple(clusters)
    if not clusters:
        raise ParameterError("at least one cluster is required")
    if not terms:
        raise ParameterError("at least one term is required")
    coeffs = []
    index_rows = []
    for c, idx in terms:
        if isinstance(c, complex):
            if c.imag != 0.0:
                raise ParameterError("complex coefficients are not supported")
            c = c.real
        coeffs.append(float(c))
        idx = tuple(int(i) for i in idx)
        if len(idx) != len(clusters):
            raise ParameterError(
                f"index tuple {idx} does not match {len(clusters)} clusters"
            )
        for i, k in enumerate(idx):
            if not 0 <= k < clusters[i].k:
                raise ParameterError(
                    f"cluster {i} has no eigenstate {k} (only {clusters[i].k} solved)"
                )
        index_rows.append(idx)
    if len(set(index_rows)) != len(index_rows):
        raise ParameterError("duplicate index tuples across terms")
    # hypot scales its arguments, so huge or tiny coefficients neither overflow nor underflow
    norm = math.hypot(*coeffs)
    if norm <= 0.0:
        raise ParameterError("coefficients must not all vanish")
    coeffs = np.array(coeffs) / norm
    term_energies = [
        sum(clusters[i].energies[k] for i, k in enumerate(idx)) for idx in index_rows
    ]
    energy = term_energies[0]
    for idx, e in zip(index_rows, term_energies):
        if abs(e - energy) > ENERGY_TOL:
            raise ParameterError(
                f"term {idx} has energy {e!r}, expected {energy!r} "
                f"(all terms must share the total energy)"
            )
    return CompositeState(
        clusters,
        tuple((float(c), idx) for c, idx in zip(coeffs, index_rows)),
        float(energy),
    )


def _amplitude(state: CompositeState, points: np.ndarray) -> np.ndarray:
    """Wavefunction value at configuration points, shape (..., n_clusters)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != state.n_clusters:
        raise ParameterError(
            f"points must have last dimension {state.n_clusters}, got {pts.shape}"
        )
    for i, es in enumerate(state.clusters):
        xi = pts[..., i]
        if np.any(xi < es.grid.x_min) or np.any(xi > es.grid.x_max):
            raise ParameterError(f"cluster {i} point outside grid")
    amp = np.zeros(pts.shape[:-1])
    for c, idx in state.terms:
        term = np.full(pts.shape[:-1], c)
        for i, k in enumerate(idx):
            f = state.clusters[i].eigenfunctions[k]
            term = term * f(pts[..., i])
        amp += term
    return amp


def density(state: CompositeState, points) -> np.ndarray:
    """|psi|^2 at per-cluster position tuples (linear interpolation)."""
    amp = _amplitude(state, points)
    return amp * amp


def term_pairs(state: CompositeState, kept):
    """Index pairs (s, p) of terms that agree on every cluster outside ``kept``.

    Integrating out the other clusters leaves, by orthonormality, only
    these pairs in a double sum over the state's terms.
    """
    others = [i for i in range(state.n_clusters) if i not in kept]
    for s, (_, idx_s) in enumerate(state.terms):
        for p, (_, idx_p) in enumerate(state.terms):
            if all(idx_s[i] == idx_p[i] for i in others):
                yield s, p


def marginal_density(state: CompositeState, cluster: int) -> np.ndarray:
    """Single-cluster marginal of |psi|^2 on that cluster's grid."""
    if not 0 <= cluster < state.n_clusters:
        raise ParameterError(f"no cluster {cluster}")
    es = state.clusters[cluster]
    out = np.zeros(es.grid.n)
    for s, p in term_pairs(state, (cluster,)):
        (cs, idx_s), (cp, idx_p) = state.terms[s], state.terms[p]
        out += (
            cs
            * cp
            * es.eigenfunctions[idx_s[cluster]].values
            * es.eigenfunctions[idx_p[cluster]].values
        )
    return out

