import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from numpy.polynomial.hermite import hermroots
from scipy.interpolate import make_interp_spline
from scipy.linalg import eigh_tridiagonal

from stochmech import (
    DomainTruncationError,
    DoubleWellPotential,
    EigenSystem,
    Grid,
    HarmonicPotential,
    NumericError,
    ParameterError,
    TabulatedPotential,
    Wavefunction,
    box_eigensystem,
    find_nodes,
    harmonic_eigensystem,
    solve_eigensystem,
)
from stochmech.spectral import (
    _eigh_range,
    _fd_operator,
    _ground_pair,
    _parity_blocks,
    _sine_dvr_kinetic,
    _solve_interior,
    _solve_parity,
    interval_dirichlet_modes,
    nodal_interval_modes,
    nodal_intervals,
    simpson_weights,
)


# --------------------------------------------------------------------------
# grids and quadrature
# --------------------------------------------------------------------------

def test_grid_invariants():
    g = Grid(-1.0, 1.0, 5)
    assert g.h == pytest.approx(0.5)
    assert g.symmetric
    with pytest.raises(ParameterError):
        Grid(-1.0, 1.0, 2)
    with pytest.raises(ParameterError):
        Grid(1.0, -1.0, 10)


@pytest.mark.parametrize("span, n", [(3.5, 401), (3.5, 400), (10.0, 4001), (1.0, 5), (7.3, 8001)])
def test_symmetric_grid_points_mirror_exactly(span, n):
    pts = Grid(-span, span, n).points
    assert np.array_equal(pts[::-1], -pts)
    assert pts[0] == -span and pts[-1] == span
    if n % 2:
        assert pts[n // 2] == 0.0
    # still the uniform points, to roundoff
    assert np.max(np.abs(pts - np.linspace(-span, span, n))) <= 4 * np.finfo(float).eps * span


@pytest.mark.parametrize("n", [5, 6, 101, 100])
def test_simpson_exact_on_cubics(n):
    # composite Simpson integrates cubics exactly on full panels; the odd
    # segment count falls back to a trapezoid on the last interval only
    g = Grid(0.0, 2.0, n)
    w = simpson_weights(n, g.h)
    exact = 2.0**4 / 4.0
    err = abs(w @ g.points**3 - exact)
    if (n - 1) % 2 == 0:
        assert err < 1e-12
    else:
        # trapezoid on the last interval: |err| <= h^3/12 * max|f''| there
        assert err <= g.h**3 / 12.0 * 12.0 + 1e-12


def test_quadrature_norm_and_orthogonality(harmonic_es):
    psi0, psi1 = harmonic_es.eigenfunctions[:2]
    w = harmonic_es.grid.simpson
    assert w @ (psi0.values * psi0.values) == pytest.approx(1.0, abs=1e-10)
    assert w @ (psi0.values * psi1.values) == pytest.approx(0.0, abs=1e-10)


def test_quadrature_sign_kernel_box(box_es):
    f = np.sign(box_es.grid.points)
    prod = box_es.eigenfunctions[0].values * box_es.eigenfunctions[1].values
    val = box_es.grid.simpson @ (f * prod)
    assert val == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-8)


def test_quadrature_with_weight(harmonic_es):
    es2 = harmonic_eigensystem(2.0, 1)
    psi0 = es2.eigenfunctions[0]
    x2 = es2.grid.points**2
    assert es2.grid.simpson @ (psi0.values * psi0.values * x2) == pytest.approx(0.25, abs=1e-10)


# --------------------------------------------------------------------------
# wavefunctions
# --------------------------------------------------------------------------

def test_wavefunction_requires_normalization(harmonic_es):
    g = harmonic_es.grid
    with pytest.raises(ParameterError):
        Wavefunction(g, 2.0 * harmonic_es.eigenfunctions[0].values)


def test_wavefunction_parity_enforced(harmonic_es):
    g = harmonic_es.grid
    with pytest.raises(ParameterError):
        Wavefunction(g, harmonic_es.eigenfunctions[1].values, parity="even")


def test_wavefunction_parity_needs_a_symmetric_grid():
    g = Grid(-9.0, 10.0, 1901)
    values = Wavefunction.normalized(g, np.exp(-0.5 * g.points**2)).values
    assert Wavefunction(g, values).parity is None
    with pytest.raises(ParameterError, match="asymmetric grid"):
        Wavefunction(g, values, parity="even")


@pytest.mark.parametrize(
    "solve",
    [
        lambda grid: harmonic_eigensystem(1.0, 2, grid),
        lambda grid: box_eigensystem(1.0, 2, grid),
    ],
    ids=["harmonic", "box"],
)
def test_analytic_families_tag_parity_on_symmetric_grids_only(solve):
    assert [f.parity for f in solve(Grid(-9.0, 9.0, 1801)).eigenfunctions] == ["even", "odd"]
    assert [f.parity for f in solve(Grid(-9.0, 10.0, 1901)).eigenfunctions] == [None, None]


# --------------------------------------------------------------------------
# analytic families
# --------------------------------------------------------------------------

def test_harmonic_energies_exact(harmonic_es):
    assert harmonic_es.energies == (0.5, 1.5, 2.5, 3.5)
    es = harmonic_eigensystem(2.0, 3)
    assert es.energies == (1.0, 3.0, 5.0)


def test_harmonic_first_excited_closed_form(harmonic_es):
    x = harmonic_es.grid.points
    expected = (4.0 / math.pi) ** 0.25 * x * np.exp(-0.5 * x * x)
    assert np.max(np.abs(harmonic_es.eigenfunctions[1].values - expected)) < 1e-12
    assert harmonic_es.eigenfunctions[1].parity == "odd"


def test_harmonic_grid_preconditions():
    with pytest.raises(ParameterError):
        harmonic_eigensystem(1.0, 2, Grid(-5.0, 5.0, 500))
    with pytest.raises(DomainTruncationError):
        harmonic_eigensystem(1.0, 40, Grid(-8.05, 8.05, 1700))
    with pytest.raises(ParameterError, match="too large"):  # before allocating k rows
        harmonic_eigensystem(1.0, 10**6, Grid(-10.0, 10.0, 2000))


def test_overflowing_potentials_raise_without_warning():
    # u * u and the quartic overflow to inf; both still end in their errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainTruncationError):
            harmonic_eigensystem(1e308, 2, Grid(-10.0, 10.0, 2000))
        with pytest.raises(ParameterError, match="finite"):
            solve_eigensystem(DoubleWellPotential(1e308, 1.0), Grid(-3.0, 3.0, 201), 2)


def test_box_energies_and_values(box_es):
    assert box_es.energies[0] == pytest.approx(math.pi**2 / 8.0, rel=1e-12)
    assert box_es.energies[1] == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    assert box_es.eigenfunctions[0](0.0) == pytest.approx(1.0, abs=1e-12)
    assert [f.parity for f in box_es.eigenfunctions] == ["even", "odd"]


def test_box_mode_count_limit():
    with pytest.raises(ParameterError):
        box_eigensystem(1.0, 400, Grid(-1.0, 1.0, 801))


# --------------------------------------------------------------------------
# finite-difference solver
# --------------------------------------------------------------------------

def test_solver_harmonic_against_analytic():
    es = solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 2000), 4)
    for n, e in enumerate(es.energies):
        assert e == pytest.approx(n + 0.5, abs=1e-4)


def test_solver_box_as_tabulated_zero():
    grid = Grid(-1.0, 1.0, 2001)
    pot = TabulatedPotential(grid, np.zeros(grid.n))
    es = solve_eigensystem(pot, grid, 2)
    assert es.energies[0] == pytest.approx(math.pi**2 / 8.0, abs=1e-3)
    assert es.energies[1] == pytest.approx(math.pi**2 / 2.0, abs=1e-3)


def test_solver_sign_convention_matches_analytic(harmonic_es):
    es = solve_eigensystem(HarmonicPotential(1.0), harmonic_es.grid, 3)
    for numeric, analytic in zip(es.eigenfunctions, harmonic_es.eigenfunctions):
        overlap = es.grid.simpson @ (numeric.values * analytic.values)
        assert overlap > 0.999


def test_solver_parameter_errors():
    with pytest.raises(ParameterError):
        solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 50), 49)
    with pytest.raises(ParameterError):
        solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 2000), 0)
    # a spacing whose 1/h^2 overflows, and a double well whose w^4 does
    coarse = Grid(-2.0, 1e308, 21)
    with pytest.raises(ParameterError):
        solve_eigensystem(TabulatedPotential(coarse, np.zeros(21)), coarse, 2)
    with pytest.raises(ParameterError):
        DoubleWellPotential(1.0, 1e308)


@settings(max_examples=10, deadline=None)
@given(omega=st_.floats(min_value=0.5, max_value=3.0))
def test_solver_orthonormality_property(omega):
    es = solve_eigensystem(HarmonicPotential(omega), Grid(-12.0, 12.0, 900), 5)
    gram = es.gram()
    assert np.max(np.abs(gram - np.eye(5))) < 1e-6


def test_grid_refinement_second_order():
    coarse = solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 1000), 4)
    fine = solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 1999), 4)
    for ec, ef in zip(coarse.energies, fine.energies):
        assert abs(ec - ef) < 4e-4


# --------------------------------------------------------------------------
# parity-sector solver
# --------------------------------------------------------------------------

EVEN_POTENTIALS = [HarmonicPotential(1.0), DoubleWellPotential(8.0, 1.0)]


def _interior(pot, n):
    x = np.linspace(-3.5, 3.5, n)
    v = pot.sample(x)[1:-1]
    # bisection places each energy within eps * ||T||_1 of the exact one
    return v, x[1] - x[0], np.finfo(float).eps * (2.0 / (x[1] - x[0]) ** 2 + float(np.max(v)))


@pytest.mark.parametrize("pot", EVEN_POTENTIALS)
@pytest.mark.parametrize("n", [401, 400])  # x = 0 on the grid, and the mirror at h/2
@pytest.mark.parametrize("k", range(1, 8))
def test_parity_solver_matches_full_solve(pot, n, k):
    v, h, tol = _interior(pot, n)
    energies, vecs = _solve_parity(v, h, k)
    full_energies, _ = _solve_interior(v, h, k)
    assert np.max(np.abs(energies - full_energies)) <= tol
    for j in range(k):
        # level j is exactly even for even j, exactly odd for odd j
        assert np.array_equal(vecs[:, j], (-1) ** j * vecs[::-1, j])
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) < 1e-12


# --------------------------------------------------------------------------
# certified lowest pair of a tridiagonal block
# --------------------------------------------------------------------------

def _norm1(d, e):
    col = np.abs(d)
    col[:-1] += np.abs(e)
    col[1:] += np.abs(e)
    return float(col.max())


def _residual(d, e, energy, vec):
    tv = d * vec
    tv[:-1] += e * vec[1:]
    tv[1:] += e * vec[:-1]
    return float(np.linalg.norm(tv - energy * vec))


@pytest.mark.parametrize("barrier", [0.5, 4.0, 30.0])
@pytest.mark.parametrize("n", [401, 400, 2001, 2000, 8001])
def test_ground_pair_matches_bisection(barrier, n):
    v, h, tol = _interior(DoubleWellPotential(barrier, 1.0), n)
    for d, e, block_v in _parity_blocks(v, h, 2):
        pair = _ground_pair(d, e, float(block_v.min()))
        assert pair is not None  # certified: the block takes this route
        energy, vec = float(pair[0][0]), pair[1][:, 0]
        ref_e, ref_v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        ref_v = ref_v[:, 0] * np.sign(ref_v[:, 0].sum())
        assert abs(energy - ref_e[0]) <= tol
        assert np.max(np.abs(vec - ref_v)) < 1e-10
        assert _residual(d, e, energy, vec) <= 2.0 * np.finfo(float).eps * _norm1(d, e)


def _mp_ground_energy(d, e, shift, steps=4):
    """The eigenvalue nearest ``shift`` of the tridiagonal matrix with the
    float entries d, e, by inverse iteration in 40 digits."""
    with mpmath.workdps(40):
        shift = mpmath.mpf(shift)
        a = [mpmath.mpf(x) - shift for x in d]  # mpf of a float is exact
        b = [mpmath.mpf(x) for x in e]
        n = len(a)
        v = [mpmath.mpf(1)] * n
        for _ in range(steps):
            c, z = [mpmath.mpf(0)] * n, [mpmath.mpf(0)] * n
            for i in range(n):  # forward elimination, then back substitution
                piv = a[i] - (b[i - 1] * c[i - 1] if i else 0)
                c[i] = b[i] / piv if i < n - 1 else 0
                z[i] = (v[i] - (b[i - 1] * z[i - 1] if i else 0)) / piv
            for i in range(n - 2, -1, -1):
                z[i] -= c[i] * z[i + 1]
            norm = mpmath.sqrt(mpmath.fsum(x * x for x in z))
            v = [x / norm for x in z]
        tv = [
            a[i] * v[i] + (b[i] * v[i + 1] if i < n - 1 else 0) + (b[i - 1] * v[i - 1] if i else 0)
            for i in range(n)
        ]
        return shift + mpmath.fsum(x * y for x, y in zip(v, tv))


def test_ground_pair_splitting_against_mpmath():
    # the barrier-30 doublet on +-3: E1 - E0 = 4.04e-3 against E0 = 7.47.
    # Bisection on the same blocks is 4.2e-13 off, the quotient v^T T v
    # 4.9e-14; the row-sum form of the quotient reads 1.7e-16.
    pot, grid = DoubleWellPotential(30.0, 1.0), Grid(-3.0, 3.0, 401)
    es = solve_eigensystem(pot, grid, 2)
    blocks = _parity_blocks(pot.sample(grid.points)[1:-1], grid.h, 2)
    ref = [_mp_ground_energy(d, e, es.energies[p]) for p, (d, e, _) in enumerate(blocks)]
    splitting = es.energies[1] - es.energies[0]
    assert abs(float(mpmath.mpf(splitting) - (ref[1] - ref[0]))) <= 1e-14


def test_ground_pair_falls_back_to_bisection():
    # a floor above the ground level: T - floor*I is not positive definite
    v, h, _ = _interior(DoubleWellPotential(4.0, 1.0), 401)
    d, e, _ = _parity_blocks(v, h, 2)[0]
    ref_e, ref_v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    above = float(ref_e[0]) + 1e-3
    assert _ground_pair(d, e, above) is None
    energies, vecs = _eigh_range(d, e, 1, above)
    assert np.array_equal(energies, ref_e) and np.array_equal(vecs, ref_v)


def test_ground_pair_rejects_an_excited_level():
    # a tilted barrier-30 well: the Rayleigh-quotient steps settle on the
    # level of the upper well, whose vector changes sign and lies above
    # the ground level, so the certificate sends the solve to bisection
    x = Grid(-3.5, 3.5, 2001).points
    v = DoubleWellPotential(30.0, 1.0).sample(x)[1:-1] + 0.03 * x[1:-1]
    h = x[1] - x[0]
    d, e = _fd_operator(v, h, 1)
    assert _ground_pair(d, e, float(v.min())) is None
    energies, vecs = _solve_interior(v, h, 1)
    ref_e, ref_v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    assert np.array_equal(energies, ref_e) and np.array_equal(vecs, ref_v)


@pytest.mark.parametrize(
    "tilt, energy",
    [(0.03, 7.445432160142475), (-0.03, 7.445432160142475),
     (0.3, 7.189899993923455), (-0.3, 7.189899993923455)],
)
def test_tilted_well_ground_state_is_bisections(tilt, energy):
    # a tabulated barrier-30 well plus tilt * x has no parity, so k = 1 asks
    # _ground_pair first: at |tilt| 0.03 the Rayleigh-quotient steps settle on
    # a two-signed level, at 0.3 they do not converge; both fall back
    grid = Grid(-3.5, 3.5, 2001)
    x = grid.points
    pot = TabulatedPotential(grid, DoubleWellPotential(30.0, 1.0).sample(x) + tilt * x)
    v = pot.sample(x)[1:-1]
    d, e = _fd_operator(v, grid.h, 1)
    assert _ground_pair(d, e, float(v.min())) is None
    es = solve_eigensystem(pot, grid, 1)
    ref_e, _ = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    assert es.energies == (float(ref_e[0]),) == (energy,)
    assert np.min(es.eigenfunctions[0].values) >= 0.0  # one sign


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_tiny_grids_match_bisection(n):
    # parity blocks of one, two or three points
    x = Grid(-1.5, 1.5, n).points
    v, h = DoubleWellPotential(4.0, 1.0).sample(x)[1:-1], x[1] - x[0]
    d, e = _fd_operator(v, h, 1)
    # bisection of the full operator and either route each place an
    # energy within about eps * ||T||_1 of the exact one
    tol = 2.0 * np.finfo(float).eps * _norm1(d, e)
    for k in range(1, n - 1):
        ref = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))[0]
        for solve in (_solve_parity, _solve_interior):
            assert np.max(np.abs(solve(v, h, k)[0] - ref)) <= tol


@pytest.mark.parametrize("n", [2001, 2000])
def test_solver_sets_exact_parity(n):
    es = solve_eigensystem(DoubleWellPotential(29.0, 1.0), Grid(-3.5, 3.5, n), 4)
    for j, f in enumerate(es.eigenfunctions):
        assert f.parity == ("even", "odd")[j % 2]
        assert np.array_equal(f.values, (-1) ** j * f.values[::-1])
    # an uneven grid keeps the single full solve
    es = solve_eigensystem(DoubleWellPotential(29.0, 1.0), Grid(-3.5, 3.6, n), 2)
    assert [f.parity for f in es.eigenfunctions] == [None, None]


def test_sturm_node_counts():
    es = harmonic_eigensystem(1.0, 7)
    for n in range(7):
        assert len(find_nodes(es.eigenfunctions[n])) == n
    fd = solve_eigensystem(HarmonicPotential(1.0), Grid(-10.0, 10.0, 2000), 7)
    for n in range(7):
        assert len(find_nodes(fd.eigenfunctions[n])) == n


# --------------------------------------------------------------------------
# nodes
# --------------------------------------------------------------------------

def test_find_nodes_examples(harmonic_es):
    h = harmonic_es.grid.h
    assert find_nodes(harmonic_es.eigenfunctions[0]) == []
    nodes1 = find_nodes(harmonic_es.eigenfunctions[1])
    assert len(nodes1) == 1 and abs(nodes1[0]) < h
    nodes2 = find_nodes(harmonic_es.eigenfunctions[2])
    assert len(nodes2) == 2
    for found, expected in zip(nodes2, (-1 / math.sqrt(2), 1 / math.sqrt(2))):
        assert abs(found - expected) < h


@pytest.mark.parametrize("n", [401, 2000])
def test_find_nodes_at_hermite_zeros(n):
    # linear interpolation between samples missed them by 8.1e-6 at n 401
    es = harmonic_eigensystem(1.0, 4, Grid(-10.0, 10.0, n))
    for index in (2, 3):
        exact = np.sort(hermroots([0] * index + [1]))
        nodes = find_nodes(es.eigenfunctions[index])
        assert len(nodes) == index
        assert np.max(np.abs(np.array(nodes) - exact)) < 1e-10


def test_find_nodes_ignores_noise_below_tolerance(harmonic_es):
    g = harmonic_es.grid
    vals = harmonic_es.eigenfunctions[0].values.copy()
    # inject sub-threshold wiggles around the far tail
    vals[:3] = np.array([1e-14, -1e-14, 1e-14])
    f = Wavefunction.normalized(g, vals)
    assert find_nodes(f) == []


def _find_nodes_loop(f):
    """Reference: find_nodes as one Python step per pair of live samples,
    each kept crossing then refined by four Newton steps on the spline."""
    x, v, h = f.grid.points, f.values, f.grid.h
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return []
    live = np.nonzero(np.abs(v) > 1e-9 * scale)[0]
    crossings = []
    for a, b in zip(live[:-1], live[1:]):
        va, vb = v[a], v[b]
        if va * vb >= 0.0:
            continue
        xn = x[a] - va * (x[b] - x[a]) / (vb - va)
        if xn <= x[0] + h or xn >= x[-1] - h:
            continue
        if crossings and xn - crossings[-1] < 2.0 * h:
            continue
        crossings.append(float(xn))
    spline = make_interp_spline(x, v, k=min(5, x.size - 1))
    nodes = []
    for z in crossings:
        for _ in range(4):
            z -= float(spline(z)) / float(spline(z, 1))
        nodes.append(z)
    return nodes


def test_find_nodes_matches_loop_reference():
    funcs = list(harmonic_eigensystem(1.0, 6).eigenfunctions)
    funcs += box_eigensystem(1.0, 4).eigenfunctions
    for n in (401, 2001, 8001):
        grid = Grid(-3.5, 3.5, n)
        for height in (1.0, 8.0):
            funcs += solve_eigensystem(DoubleWellPotential(height, 1.0), grid, 3).eigenfunctions
    grid = Grid(-1.0, 1.0, 41)
    # sign flips at every sample (the 2h rule) and just inside the ends (the edge rule)
    flips = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
    flips[10:20] = 1.0
    funcs.append(Wavefunction.normalized(grid, flips))
    edges = np.cos(0.49 * math.pi * grid.points)
    edges[[0, -1]] = -1.0
    funcs.append(Wavefunction.normalized(grid, edges))
    assert len(funcs) == 30
    for f in funcs:
        assert find_nodes(f) == _find_nodes_loop(f)
    assert len(find_nodes(funcs[-2])) > 0 and find_nodes(funcs[-1]) == []


# --------------------------------------------------------------------------
# node-restricted spectra
# --------------------------------------------------------------------------

def _restricted(psi, n_modes):
    """Each nodal interval of psi with its n_modes Dirichlet modes, at half
    the grid step."""
    intervals = nodal_intervals(psi)
    pieces = nodal_interval_modes(HarmonicPotential(1.0), intervals, psi.grid.h / 2.0, n_modes)
    return intervals, pieces


def test_dirichlet_doubles_odd_levels(harmonic_es):
    intervals, pieces = _restricted(harmonic_es.eigenfunctions[1], 4)
    assert len(intervals) == 2
    energies = sorted(e for modes in pieces for e in modes.energies)
    for e, expected in zip(energies[:4], (1.5, 1.5, 3.5, 3.5), strict=True):
        assert e == pytest.approx(expected, abs=1e-3)


def test_dirichlet_even_sector_ground_is_abs_psi1(harmonic_es):
    # the lowest mode of each nodal interval is |psi_n| restricted to it
    for psi in harmonic_es.eigenfunctions[1:]:
        spline = psi.spline()
        for modes in _restricted(psi, 1)[1]:
            target = np.abs(spline(modes.points))
            target /= math.sqrt(modes.h * float(target @ target))
            dev = modes.values[:, 0] - target
            assert math.sqrt(modes.h * float(dev @ dev)) < 1e-4


def test_dirichlet_merges_nodal_intervals(harmonic_es):
    # psi_2 has nodes at +-1/sqrt(2); |psi_2| on each of the three nodal
    # intervals is that interval's Dirichlet ground state, at energy 2.5
    intervals, pieces = _restricted(harmonic_es.eigenfunctions[2], 1)
    assert len(intervals) == 3
    assert [(modes.a, modes.b) for modes in pieces] == intervals
    for modes in pieces:
        assert modes.energies[0] == pytest.approx(2.5, abs=1e-3)


def test_half_line_interval_modes_are_odd_oscillator_levels():
    # the unit oscillator's half-line at the channel grid's step: its
    # Dirichlet levels are the odd levels 2m + 3/2; measured at most 3.8e-14
    # off with the 64-step floor, where 16 steps were 2.5e-3 off
    pot = HarmonicPotential(1.0)
    modes = interval_dirichlet_modes(pot, 0.0, 10.0, 0.0025, 4)
    assert modes.points.size == 4001 and modes.values.shape == (4001, 4)
    assert np.max(np.abs(modes.energies - [1.5, 3.5, 5.5, 7.5])) < 1e-12
    # the lowest mode is the first excited oscillator state, zero at the ends
    x = modes.points
    exact = np.sqrt(2.0) * math.pi**-0.25 * x * np.exp(-0.5 * x * x)
    exact /= math.sqrt(modes.h * float(exact @ exact))
    assert modes.values[0, 0] == modes.values[-1, 0] == 0.0
    assert np.max(np.abs(modes.values[:, 0] - exact)) < 1e-12  # measured 1.1e-14
    gram = modes.h * modes.values.T @ modes.values
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n_modes", [24, 100, 200])
def test_interval_modes_do_not_depend_on_blas_thread_count(n_modes):
    # solves of 64, 200 and 400 steps (the first round, a middle size, and
    # the whole-line share of MODE_CAP), run at one and two threads: a threaded LAPACK eigh
    # gives thread-dependent bits from 256 points up, and above about 96
    # points dsbevx's back-transformation calls dgemv, which OpenBLAS may thread
    import hashlib
    import os
    import subprocess
    import sys

    code = (
        "import hashlib; from stochmech.spectral import HarmonicPotential, interval_dirichlet_modes; "
        f"m = interval_dirichlet_modes(HarmonicPotential(1.0), -10.0, 10.0, 0.005, {n_modes}); "
        "print(hashlib.sha256(m.energies.tobytes() + m.coefficients.tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("fault", ["raise", "nan"])
def test_interval_eigensolver_failure_is_numeric_error(monkeypatch, fault):
    import scipy.linalg

    solve = scipy.linalg.eig_banded

    def broken(*args, **kwargs):
        if fault == "raise":
            raise np.linalg.LinAlgError("sbevx did not converge")
        energies, vecs = solve(*args, **kwargs)
        return np.full_like(energies, np.nan), vecs

    monkeypatch.setattr(scipy.linalg, "eig_banded", broken)
    with pytest.raises(NumericError, match="eigensolver"):
        interval_dirichlet_modes(HarmonicPotential(1.0), 0.0, 10.0, 0.0025, 4)


def test_sine_dvr_kinetic_is_the_sine_mode_operator():
    # the closed form equals S diag((k pi / L)^2 / 2) S, with S the
    # orthonormal DST-I matrix of the n - 1 lowest sine modes
    from scipy.fft import dst

    for n, span in [(17, 2.3), (64, 10.0)]:
        s = dst(np.eye(n - 1), type=1, norm="ortho", axis=0)
        k = np.arange(1, n)
        ref = (s * (k * math.pi / span) ** 2 / 2.0) @ s
        assert np.max(np.abs(_sine_dvr_kinetic(n, span) - ref)) < 1e-12 * np.max(np.abs(ref))


def test_dirichlet_rejects_unstable_sign_pattern():
    g = Grid(-1.0, 1.0, 401)
    # sign-fluctuating noise above the dead threshold across a wide band:
    # spurious crossings whose flanks never rise above noise level
    vals = np.exp(-8.0 * g.points**2)
    band = np.abs(g.points) < 0.2
    vals[band] = 5e-9 * (-1.0) ** np.arange(int(np.count_nonzero(band)))
    f = Wavefunction.normalized(g, vals)
    with pytest.raises(NumericError, match="leaves its sample cell"):
        nodal_intervals(f)


def _close_node_pair(x):
    # zeros 1.4 grid steps apart: find_nodes keeps one, so one piece changes sign
    return (x - 0.0012) * (x - 0.0082) * np.exp(-4.0 * x**2)


def _faint_middle_lobe(x):
    # the lobe between -0.3 and 0.3 peaks above the dead threshold, so
    # find_nodes keeps its two crossings, but below ten times it
    b = (x - 0.3) * (x + 0.3)
    return np.where(np.abs(x) < 0.3, 3e-8 * b, b)


@pytest.mark.parametrize(
    "shape, message",
    [
        (_close_node_pair, r"sign fluctuates beyond noise level on \(0\.0012, 1\)"),
        (_faint_middle_lobe, r"no stable sign pattern on \(-0\.2401, 0\.2401\)"),
    ],
)
def test_nodal_intervals_rejects_unstable_sign(shape, message):
    g = Grid(-1.0, 1.0, 401)
    with pytest.raises(NumericError, match=message):
        nodal_intervals(Wavefunction.normalized(g, shape(g.points)))


def test_double_well_doublet_structure():
    pot = DoubleWellPotential(barrier_height=30.0, well_separation=1.0)
    es = solve_eigensystem(pot, Grid(-3.0, 3.0, 2000), 2)
    gap = es.energies[1] - es.energies[0]
    assert 0 < gap < 0.05  # near-degenerate tunneling doublet


def test_eigensystem_rejects_unsorted_energies(harmonic_es):
    with pytest.raises(ParameterError):
        EigenSystem(
            harmonic_es.grid,
            (1.5, 0.5),
            (harmonic_es.eigenfunctions[1], harmonic_es.eigenfunctions[0]),
        )
