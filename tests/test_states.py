import math

import numpy as np
import pytest

from stochmech import (
    ParameterError,
    build_composite_state,
    density,
    marginal_density,
)
from stochmech.spectral import simpson_weights

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_build_two_oscillator_state(two_oscillator_state):
    assert two_oscillator_state.energy == pytest.approx(2.0)
    assert sum(c * c for c, _ in two_oscillator_state.terms) == pytest.approx(1.0, abs=1e-12)


def test_build_normalizes_coefficients(harmonic_es):
    state = build_composite_state(
        [harmonic_es, harmonic_es], [(3.0, (0, 1)), (3.0, (1, 0))]
    )
    assert [c for c, _ in state.terms] == pytest.approx([INV_SQRT2, INV_SQRT2])


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_build_normalizes_extreme_coefficients(harmonic_es, scale):
    # sum(c**2) overflows at 1e300 and underflows to zero at 1e-200
    terms = [(0.6, (0, 1)), (-0.8, (1, 0))]
    reference = build_composite_state([harmonic_es, harmonic_es], terms)
    scaled = build_composite_state(
        [harmonic_es, harmonic_es], [(c * scale, idx) for c, idx in terms]
    )
    scaled_c = [c for c, _ in scaled.terms]
    assert np.max(np.abs(np.subtract(scaled_c, [c for c, _ in reference.terms]))) <= 1e-15
    assert scaled_c == pytest.approx([0.6, -0.8], abs=1e-15)


def test_build_single_term_ground(harmonic_es):
    state = build_composite_state([harmonic_es, harmonic_es], [(1.0, (0, 0))])
    assert state.energy == pytest.approx(1.0)


def test_build_rejects_energy_mismatch(harmonic_es):
    with pytest.raises(ParameterError, match="all terms must share the total energy"):
        build_composite_state(
            [harmonic_es, harmonic_es], [(INV_SQRT2, (0, 1)), (INV_SQRT2, (2, 0))]
        )


def test_build_rejects_bad_terms(harmonic_es):
    with pytest.raises(ParameterError):
        build_composite_state([harmonic_es], [])
    with pytest.raises(ParameterError):
        build_composite_state([harmonic_es], [(0.0, (0,))])
    with pytest.raises(ParameterError):
        build_composite_state([harmonic_es], [(1.0, (0,)), (1.0, (0,))])
    with pytest.raises(ParameterError):
        build_composite_state([harmonic_es], [(1.0 + 2.0j, (0,))])
    with pytest.raises(ParameterError):
        build_composite_state([harmonic_es], [(1.0, (9,))])


def test_density_ground_product(ground_product_state):
    # evaluation interpolates the factor samples linearly, so the value is
    # good to O(h^2) of the cluster grid
    val = density(ground_product_state, np.array([[0.0, 0.0]]))[0]
    assert val == pytest.approx(1.0 / math.pi, abs=1e-4)


def test_density_matches_direct_expansion(two_oscillator_state, harmonic_es):
    pts = np.array([[0.3, 0.7], [1.1, -0.4], [0.5, 0.5]])
    psi0 = harmonic_es.eigenfunctions[0]
    psi1 = harmonic_es.eigenfunctions[1]
    direct = (
        INV_SQRT2 * (psi0(pts[:, 0]) * psi1(pts[:, 1]) + psi1(pts[:, 0]) * psi0(pts[:, 1]))
    ) ** 2
    assert density(two_oscillator_state, pts) == pytest.approx(direct, abs=1e-14)


def test_density_vanishes_on_node(harmonic_es):
    state = build_composite_state([harmonic_es], [(1.0, (1,))])
    assert density(state, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-20)


def test_density_outside_grid_raises(two_oscillator_state):
    with pytest.raises(ParameterError, match="cluster 0 point outside grid"):
        density(two_oscillator_state, np.array([[100.0, 0.0]]))


def test_density_symmetry_exchange(two_oscillator_state):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, size=(50, 2))
    swapped = pts[:, ::-1]
    assert np.max(
        np.abs(density(two_oscillator_state, pts) - density(two_oscillator_state, swapped))
    ) < 1e-12


def test_marginal_density_normalized(two_oscillator_state):
    for c in (0, 1):
        es = two_oscillator_state.clusters[c]
        total = es.grid.simpson @ marginal_density(two_oscillator_state, c)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_joint_density_normalized_on_tensor_grid(two_oscillator_state):
    # 2D Simpson over a 400 x 400 tensor grid of cluster-grid knots
    # (evaluation at knots is exact; interpolation plays no role)
    es = two_oscillator_state.clusters[0]
    xs = es.grid.points[::5]
    assert xs.size == 400
    w = simpson_weights(xs.size, xs[1] - xs[0])
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    rho = density(two_oscillator_state, pts)
    assert w @ rho @ w == pytest.approx(1.0, abs=1e-6)
