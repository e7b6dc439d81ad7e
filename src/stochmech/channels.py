"""Decomposition of supported states into independent 1D diffusion channels.

The exact Nelson machinery (spectral and Monte Carlo alike) works channel
by channel.  Two families decompose:

* single-term product states - each cluster is its own channel, identity
  mixing; terms must share the total energy, so a product over clusters
  without degenerate levels has a single term;
* real two-term superpositions  a * (0,1) + b * (1,0)  of two identical
  harmonic clusters - an orthogonal rotation of the pair of coordinates
  turns the state into a product of a first-excited and a ground factor.

Everything else raises UnsupportedStateError and is left to callers to
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedStateError
from .spectral import EigenSystem, Grid, HarmonicPotential, Potential, Wavefunction
from .states import CompositeState

__all__ = ["Channel", "ChannelDecomposition", "decompose"]


@dataclass(frozen=True)
class Channel:
    """One independent 1D factor of the stationary state."""

    potential: Potential
    eigensystem: EigenSystem
    index: int  # which eigenstate of the channel Hamiltonian

    @property
    def factor(self) -> Wavefunction:
        return self.eigensystem.eigenfunctions[self.index]

    @property
    def grid(self) -> Grid:
        return self.eigensystem.grid


@dataclass(frozen=True)
class ChannelDecomposition:
    """Channels plus the orthogonal map from channel to cluster coordinates.

    ``rotation`` R satisfies  x_cluster = R @ u_channel; its columns are
    orthonormal, so u_channel = R.T @ x_cluster.
    """

    channels: tuple[Channel, ...]
    rotation: np.ndarray

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def to_clusters(self, u: np.ndarray) -> np.ndarray:
        return _combine(u, self.rotation)

    def to_channels(self, x: np.ndarray) -> np.ndarray:
        return _combine(x, self.rotation.T)


def _combine(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m.T as the sum over j of v[..., j] times column j of m, in order of j.

    Every row rounds the same whatever the number of rows, which a BLAS
    matrix product does not promise.
    """
    out = np.multiply.outer(v[..., 0], m[:, 0])
    for j in range(1, m.shape[1]):
        out += np.multiply.outer(v[..., j], m[:, j])
    return out


def decompose(state: CompositeState) -> ChannelDecomposition:
    """Split a supported state into independent channels.

    Product channels keep their cluster eigensystems and grids, so means
    agree bit for bit with the quantum matrix elements computed there; both
    channels of an exchange pair share the first cluster's eigensystem.
    Raises UnsupportedStateError with a diagnostic when no rotation to
    decoupled coordinates is known for the given state.
    """
    n = state.n_clusters
    if len(state.terms) == 1:
        idx = state.terms[0][1]
        channels = []
        for i, es in enumerate(state.clusters):
            if es.potential is None:
                raise UnsupportedStateError(
                    f"cluster {i} carries no potential; solve it through this "
                    f"package so the channel Hamiltonian is known"
                )
            channels.append(Channel(es.potential, es, idx[i]))
        return ChannelDecomposition(tuple(channels), np.eye(n))
    if n == 2 and len(state.terms) == 2:
        by_idx = {idx: c for c, idx in state.terms}
        if set(by_idx) == {(0, 1), (1, 0)}:
            pots = [es.potential for es in state.clusters]
            if all(isinstance(p, HarmonicPotential) for p in pots) and (
                abs(pots[0].omega - pots[1].omega) <= 1e-9 * pots[0].omega
            ):
                a = by_idx[(0, 1)]
                b = by_idx[(1, 0)]
                # psi = (b x_1 + a x_2) * gaussian = psi_1(u1) psi_0(u2)
                # with u1 = b x_1 + a x_2, u2 = -a x_1 + b x_2.
                rotation = np.array([[b, -a], [a, b]])
                es = state.clusters[0]
                channels = (Channel(pots[0], es, 1), Channel(pots[0], es, 0))
                return ChannelDecomposition(channels, rotation)
        raise UnsupportedStateError(
            "two-term state is not an exchange pair of identical harmonic "
            "clusters; no rotation to decoupled coordinates is known"
        )
    raise UnsupportedStateError(
        f"no channel decomposition for {len(state.terms)} terms over "
        f"{n} clusters"
    )
