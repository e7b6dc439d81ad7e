"""1D Schrödinger eigenproblems on uniform grids.

Analytic eigensystems for the harmonic oscillator and the infinite well,
a second-order finite-difference solver for general bounded-below
potentials (double wells, tabulated data), node location, and the
node-restricted spectrum, where the operator carries Dirichlet
conditions on the zeros of a given eigenfunction: the zeros of its
spline, which every consumer reads from find_nodes.  That spectrum has
one form: the IntervalModes of each nodal interval, sine-DVR solves by
one LAPACK call each (eig_banded), returned by nodal_interval_modes and
read by the Nelson expansion.  Everything is real: eigenfunctions are
sampled on uniform grids and inner products are composite-Simpson
quadratures.

Units are hbar = m = 1 throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .errors import DomainTruncationError, NumericError, ParameterError

if TYPE_CHECKING:
    from scipy.interpolate import BSpline

__all__ = [
    "Grid",
    "HarmonicPotential",
    "InfiniteWellPotential",
    "DoubleWellPotential",
    "TabulatedPotential",
    "Potential",
    "Wavefunction",
    "EigenSystem",
    "simpson_weights",
    "harmonic_eigensystem",
    "box_eigensystem",
    "solve_eigensystem",
    "find_nodes",
    "nodal_intervals",
    "nodal_interval_modes",
    "default_grid",
]

# Default discretization for unbounded potentials: ten Gaussian length
# scales on each side, 2000 points.
DEFAULT_SPAN_SIGMAS = 10.0
DEFAULT_GRID_POINTS = 2000
BOX_DEFAULT_POINTS = 2001  # odd count puts x = 0 on a Simpson panel boundary

_ORTHO_TOL = 1e-6
_NORM_TOL = 1e-8
_PARITY_TOL = 1e-10
_DEAD_TOL = 1e-9  # samples below this fraction of max|f| count as zero
_SIGN_SCALE = 1e-12
# The certified lowest pair of a tridiagonal block: inverse-iteration steps
# at the potential floor, the most Rayleigh-quotient steps allowed, and the
# largest entry of the opposite sign, as a fraction of max|v|, that a
# one-signed vector may carry.
_FLOOR_STEPS = 2
_RQI_STEPS = 8
_ONE_SIGN_TOL = 1e-14
# Sine-DVR interval solves: steps per mode asked for (above a floor of
# 64), and the fraction of an eigenvector's peak below which its samples
# count as roundoff when it is oriented; that roundoff grows with ||H||,
# as N^2.
_DVR_STEPS_PER_MODE = 2.0
_DVR_SIGN_SCALE = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points on [x_min, x_max].

    The points of a symmetric grid are exact mirror images, x[::-1] == -x.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"grid needs at least 3 points, got n={self.n}")
        if not (self.x_min < self.x_max):
            raise ParameterError(
                f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        pts = np.linspace(self.x_min, self.x_max, self.n)
        if self.symmetric:
            # mirror the left half so x[::-1] == -x exactly and an odd-n
            # centre is exactly 0, where linspace can leave roundoff
            half = self.n // 2
            pts[self.n - half:] = -pts[half - 1::-1]
            if self.n % 2:
                pts[half] = 0.0
        pts.setflags(write=False)
        object.__setattr__(self, "_points", pts)
        w = simpson_weights(self.n, self.h)
        w.setflags(write=False)
        object.__setattr__(self, "_weights", w)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def simpson(self) -> np.ndarray:
        """Composite-Simpson quadrature weights for this grid."""
        return self._weights

    @property
    def symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) <= 1e-12 * (self.x_max - self.x_min)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n uniform points with spacing h.

    With an odd number of segments the last interval is handled by the
    trapezoid rule appended to Simpson on the leading even block.
    """
    if n < 3:
        raise ParameterError("Simpson weights need n >= 3")
    w = np.zeros(n)
    m = n if (n - 1) % 2 == 0 else n - 1
    w[0:m:2] += h / 3.0
    w[1:m:2] += 4.0 * h / 3.0
    w[2:m - 1:2] += h / 3.0  # interior panel joints count twice
    if m != n:
        w[n - 2] += h / 2.0
        w[n - 1] += h / 2.0
    return w


@dataclass(frozen=True)
class Wavefunction:
    """Real wavefunction sampled on a grid, unit L2 norm under Simpson.

    A declared parity ("even" or "odd") is the solver's tag: it needs a
    symmetric grid, and the samples must match their mirror image under
    it.  None means the samples carry no parity.
    """

    grid: Grid
    values: np.ndarray
    parity: str | None = None  # "even", "odd" or None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ParameterError("wavefunction samples do not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("wavefunction samples must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        norm = float(self.grid.simpson @ (vals * vals))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ParameterError(f"wavefunction not normalized: <f,f> = {norm!r}")
        if self.parity not in (None, "even", "odd"):
            raise ParameterError(f"unknown parity {self.parity!r}")
        if self.parity is not None:
            if not self.grid.symmetric:
                raise ParameterError(f"parity {self.parity} declared on an asymmetric grid")
            mirrored = vals[::-1]
            target = mirrored if self.parity == "even" else -mirrored
            tol = _PARITY_TOL * max(1.0, float(np.max(np.abs(vals))))
            if np.max(np.abs(vals - target)) > tol:
                raise ParameterError(f"declared parity {self.parity} violated")

    @classmethod
    def normalized(cls, grid: Grid, values, parity: str | None = None) -> "Wavefunction":
        vals = np.asarray(values, dtype=float)
        norm2 = float(grid.simpson @ (vals * vals))
        if norm2 <= 0.0 or not math.isfinite(norm2):
            raise ParameterError("cannot normalize samples with non-positive norm")
        return cls(grid, vals / math.sqrt(norm2), parity)

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid.points, self.values)

    def spline(self) -> BSpline:
        """The quintic not-a-knot interpolating spline through the samples;
        below six points, the polynomial of degree n - 1 through them all."""
        from scipy.interpolate import make_interp_spline

        return make_interp_spline(self.grid.points, self.values, k=min(5, self.grid.n - 1))


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicPotential:
    """V(x) = omega^2 x^2 / 2."""

    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ParameterError(f"harmonic potential needs omega > 0, got {self.omega}")

    def sample(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.omega**2 * np.asarray(x, dtype=float) ** 2

    @property
    def symmetric(self) -> bool:
        return True


@dataclass(frozen=True)
class InfiniteWellPotential:
    """Hard-wall box on [-L, L]; V = 0 inside, infinite outside."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ParameterError("infinite well needs half_width > 0")

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        L = self.half_width
        if np.any(x < -L - 1e-12) or np.any(x > L + 1e-12):
            raise ParameterError("infinite well sampled outside [-L, L]")
        return np.zeros_like(x)

    @property
    def symmetric(self) -> bool:
        return True


@dataclass(frozen=True)
class DoubleWellPotential:
    """Quartic double well V(x) = h (x^2 - w^2)^2 / w^4, minima at +/- w."""

    barrier_height: float
    well_separation: float

    def __post_init__(self):
        if not (self.barrier_height > 0 and self.well_separation > 0):
            raise ParameterError("double well needs positive height and separation")
        if self.well_separation > sys.float_info.max ** 0.25:
            raise ParameterError("double well separation too large: w^4 overflows")

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = self.well_separation
        with np.errstate(over="ignore"):  # inf, which the solvers reject as not finite
            return self.barrier_height * (x * x - w * w) ** 2 / w**4

    @property
    def symmetric(self) -> bool:
        return True

    @property
    def well_frequency(self) -> float:
        """Curvature frequency at each minimum, sqrt(V'')."""
        return math.sqrt(8.0 * self.barrier_height) / self.well_separation


@dataclass(frozen=True)
class TabulatedPotential:
    """Potential given by finite samples on a grid, linearly interpolated."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ParameterError("tabulated potential samples do not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("tabulated potential must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def sample(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid.points, self.values)

    @property
    def symmetric(self) -> bool:
        if not self.grid.symmetric:
            return False
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return bool(np.max(np.abs(self.values - self.values[::-1])) <= 1e-9 * scale)


Potential = Union[
    HarmonicPotential, InfiniteWellPotential, DoubleWellPotential, TabulatedPotential
]


def default_grid(potential: Potential) -> Grid:
    """A grid wide enough that bound-state tails are negligible."""
    if isinstance(potential, HarmonicPotential):
        span = DEFAULT_SPAN_SIGMAS / math.sqrt(potential.omega)
        return Grid(-span, span, DEFAULT_GRID_POINTS)
    if isinstance(potential, InfiniteWellPotential):
        L = potential.half_width
        return Grid(-L, L, BOX_DEFAULT_POINTS)
    if isinstance(potential, DoubleWellPotential):
        pad = max(2.0 / math.sqrt(potential.well_frequency) * 4.0, 1.0)
        span = potential.well_separation + pad
        return Grid(-span, span, DEFAULT_GRID_POINTS)
    if isinstance(potential, TabulatedPotential):
        return potential.grid
    raise ParameterError(f"unknown potential {potential!r}")


# --------------------------------------------------------------------------
# eigensystems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSystem:
    """Ordered low-lying spectrum of a 1D Schrödinger operator on the whole
    grid; the energies must increase strictly."""

    grid: Grid
    energies: tuple[float, ...]
    eigenfunctions: tuple[Wavefunction, ...]
    potential: Potential | None = None

    def __post_init__(self):
        if len(self.energies) != len(self.eigenfunctions):
            raise ParameterError("energy / eigenfunction count mismatch")
        if not self.energies:
            raise ParameterError("eigensystem must hold at least one state")
        if np.any(np.diff(self.energies) <= 0):
            raise ParameterError("whole-line energies must increase strictly")
        for f in self.eigenfunctions:
            if f.grid != self.grid:
                raise ParameterError("eigenfunction grid differs from system grid")
        gram = self.gram()
        k = len(self.energies)
        if np.max(np.abs(np.diag(gram) - 1.0)) > _NORM_TOL:
            raise ParameterError("eigenfunctions are not unit-normalized")
        off = gram - np.diag(np.diag(gram))
        if k > 1 and np.max(np.abs(off)) > _ORTHO_TOL:
            raise ParameterError(
                f"eigenfunctions not orthogonal: max overlap {np.max(np.abs(off)):.3e}"
            )

    def gram(self) -> np.ndarray:
        """Matrix of pairwise Simpson inner products."""
        mat = np.vstack([f.values for f in self.eigenfunctions])
        return (mat * self.grid.simpson) @ mat.T

    @property
    def k(self) -> int:
        return len(self.energies)


def _hermite_functions(omega: float, n_modes: int, x: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions via the stable three-term recurrence."""
    u = math.sqrt(omega) * np.asarray(x, dtype=float)
    out = np.empty((n_modes, u.size))
    with np.errstate(over="ignore"):  # u * u = inf far out; exp(-inf) = 0 is the limit
        phi_prev = (omega / math.pi) ** 0.25 * np.exp(-0.5 * u * u)
    out[0] = phi_prev
    if n_modes == 1:
        return out
    phi = math.sqrt(2.0) * u * phi_prev
    out[1] = phi
    for n in range(1, n_modes - 1):
        phi, phi_prev = (
            math.sqrt(2.0 / (n + 1)) * u * phi - math.sqrt(n / (n + 1)) * phi_prev,
            phi,
        )
        out[n + 1] = phi
    return out


def _level_parity(grid: Grid, n: int) -> str | None:
    """Level n of an even potential is even for even n, odd for odd n; on an
    asymmetric grid its samples are neither, so it carries no parity."""
    return ("even", "odd")[n % 2] if grid.symmetric else None


def harmonic_eigensystem(omega: float, k: int, grid: Grid | None = None) -> EigenSystem:
    """Analytic oscillator eigensystem sampled on the grid.

    Energies are (n + 1/2) omega exactly; eigenfunctions are renormalized
    on the grid after sampling and tagged even or odd on a symmetric grid.
    Raises DomainTruncationError when the grid clips more than 1e-10 of
    any requested state's probability mass.
    """
    if not omega > 0:
        raise ParameterError("omega must be positive")
    if k < 1:
        raise ParameterError("k must be at least 1")
    pot = HarmonicPotential(omega)
    if grid is None:
        grid = default_grid(pot)
    if k > grid.n - 2:
        raise ParameterError(f"k={k} too large for a grid with n={grid.n}")
    reach = 8.0 / math.sqrt(omega)
    if grid.x_min > -reach or grid.x_max < reach:
        raise ParameterError(
            f"grid [{grid.x_min}, {grid.x_max}] narrower than +/-{reach:.3f}"
        )
    raw = _hermite_functions(omega, k, grid.points)
    funcs = []
    for n in range(k):
        inside = float(grid.simpson @ (raw[n] * raw[n]))
        if 1.0 - inside > 1e-10:
            raise DomainTruncationError(
                f"mode {n}: tail mass {1.0 - inside:.2e} outside the grid"
            )
        funcs.append(Wavefunction.normalized(grid, raw[n], _level_parity(grid, n)))
    energies = tuple((n + 0.5) * omega for n in range(k))
    return EigenSystem(grid, energies, tuple(funcs), potential=pot)


def box_eigensystem(L: float, k: int, grid: Grid | None = None) -> EigenSystem:
    """Infinite-well eigensystem on [-L, L] with Dirichlet walls.

    E_n = pi^2 (n+1)^2 / (8 L^2); even modes are cosines, odd modes sines,
    zero outside the well, and tagged even or odd on a symmetric grid.
    """
    if not L > 0:
        raise ParameterError("half-width L must be positive")
    if k < 1:
        raise ParameterError("k must be at least 1")
    try:
        energies = tuple(math.pi**2 * (n + 1) ** 2 / (8.0 * L**2) for n in range(k))
        in_range = sys.float_info.min <= energies[0] and energies[-1] < math.inf
    except (ZeroDivisionError, OverflowError):  # L**2 underflows to 0 or overflows
        in_range = False
    if not in_range:
        raise ParameterError(f"half-width L={L!r} puts the energies out of floating-point range")
    pot = InfiniteWellPotential(L)
    if grid is None:
        grid = default_grid(pot)
    if grid.x_min > -L + 1e-12 or grid.x_max < L - 1e-12:
        raise ParameterError("grid must cover the well [-L, L]")
    inside = (grid.points >= -L) & (grid.points <= L)
    pts_inside = int(np.count_nonzero(inside))
    if k + 1 > pts_inside // 8:
        raise ParameterError(
            f"k={k} exceeds the mode count resolvable on {pts_inside} points"
        )
    x = grid.points
    funcs = []
    for n in range(k):
        arg = (n + 1) * math.pi * x / (2.0 * L)
        vals = np.where(inside, np.cos(arg) if n % 2 == 0 else np.sin(arg), 0.0)
        funcs.append(Wavefunction.normalized(grid, vals, _level_parity(grid, n)))
    return EigenSystem(grid, energies, tuple(funcs), potential=pot)


def _fix_sign(values: np.ndarray) -> np.ndarray:
    """Orient so the last value exceeding noise level is positive.

    Matches the textbook convention for the analytic families (positive
    leading Hermite coefficient, sin/cos positive near the right wall),
    which keeps overlap coefficients reproducible across solvers.
    """
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return values
    idx = np.nonzero(np.abs(values) > _SIGN_SCALE * scale)[0]
    if idx.size and values[idx[-1]] < 0:
        return -values
    return values


def _fd_operator(v_diag: np.ndarray, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Dirichlet finite-difference operator.

    ``v_diag`` holds potential samples at the interior points; the kinetic
    part is the standard second-order central-difference stencil.
    """
    m = v_diag.size
    if k > m:
        raise ParameterError(f"k={k} exceeds the {m} interior grid points")
    if not 0.0 < h * h < math.inf:
        raise ParameterError(f"grid spacing {h:.3g} puts 1/h^2 out of floating-point range")
    return 1.0 / h**2 + v_diag, np.full(m - 1, -0.5 / h**2)


def _ground_pair(diag, off, floor: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The lowest eigenpair of a symmetric tridiagonal matrix T with negative
    couplings, or None when it cannot be certified.

    Inverse iteration from a positive vector at ``floor``, where T - floor*I
    is positive definite, heads for the ground pair; Rayleigh-quotient
    iteration then polishes it until the residual r = ||Tv - rho v|| is at
    most 2 eps ||T||_1 (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    The quotient is summed as rho = sum_i s_i v_i^2 - sum_i e_i (v_i+1 -
    v_i)^2 with row sums s, whose terms carry the potential and kinetic
    energies apart, so it does not lose digits to the 1/h^2 stencil as
    v^T T v does.

    The pair is kept only when T - (rho - 2r - eps ||T||_1) I factors as
    positive definite, so no eigenvalue lies below the residual window, and
    v is one-signed, which of the eigenvectors of such a Jacobi matrix only
    the ground vector is (Gantmacher & Krein, Oscillation Matrices and
    Kernels).
    """
    from scipy.linalg.lapack import dgtsv, dptsv, dpttrf

    col = np.abs(diag)
    col[:-1] -= off
    col[1:] -= off
    slack = np.finfo(float).eps * float(col.max())  # eps * ||T||_1
    rowsum = diag.copy()
    rowsum[:-1] += off
    rowsum[1:] += off

    v = np.ones(diag.size)
    for _ in range(_FLOOR_STEPS):
        *_, x, info = dptsv(diag - floor, off, v[:, None])
        if info:
            return None
        v = x[:, 0] / np.linalg.norm(x)
    for _ in range(_RQI_STEPS):
        rho = float(rowsum @ (v * v) - off @ np.square(np.diff(v)))
        shifted = diag - rho
        res = shifted * v
        res[:-1] += off * v[1:]
        res[1:] += off * v[:-1]
        r = float(np.linalg.norm(res))
        if r <= 2.0 * slack:
            break
        *_, x, info = dgtsv(off, shifted, off, v[:, None])
        if info:
            return None
        v = x[:, 0] / np.linalg.norm(x)
    else:
        return None
    v *= math.copysign(1.0, float(v.sum()))
    if v.min() < -_ONE_SIGN_TOL * float(np.abs(v).max()):
        return None
    if dpttrf(diag - (rho - 2.0 * r - slack), off)[2]:
        return None
    return np.array([rho]), v[:, None]


def _eigh_range(diag, off, k: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a symmetric tridiagonal matrix T with
    negative couplings, where T - floor*I is a kinetic stencil plus a
    non-negative potential and so positive definite.

    A block of two or more points asked only for its lowest pair takes
    _ground_pair; any other count, and a lowest pair that _ground_pair
    cannot certify, takes _tridiagonal_pairs.
    """
    if k == 1 and diag.size > 1:
        pair = _ground_pair(diag, off, floor)
        if pair is not None:
            return pair
    return _tridiagonal_pairs(diag, off, k)


def _lowest_pairs(solve, *matrix, k: int, **options) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs, in ascending order, that the SciPy
    eigensolver ``solve`` selects by index from the matrix given by its
    leading arguments.

    A LAPACK failure and a non-finite energy raise NumericError.
    """
    try:
        energies, vecs = solve(*matrix, select="i", select_range=(0, k - 1), **options)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(energies)):
        raise NumericError("eigensolver returned non-finite energies")
    return energies, vecs


def _tridiagonal_pairs(diag, off, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a symmetric tridiagonal matrix, in
    ascending order, by eigh_tridiagonal's index-selected bisection and
    inverse iteration."""
    from scipy.linalg import eigh_tridiagonal

    return _lowest_pairs(eigh_tridiagonal, diag, off, k=k)


def _solve_interior(v_diag: np.ndarray, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs, in ascending order, of the Dirichlet
    finite-difference operator.

    A call for the ground pair alone (k 1) takes _eigh_range's certified
    inverse iteration from the floor min(v_diag); any other count takes
    index-selected bisection and inverse iteration.
    """
    diag, off = _fd_operator(v_diag, h, k)
    return _eigh_range(diag, off, k, float(v_diag.min()))


def _parity_blocks(v_diag: np.ndarray, h: float, k: int) -> tuple[tuple, tuple]:
    """The even and odd blocks (diagonal, couplings, potential samples) of
    the Dirichlet finite-difference operator of a potential that is even
    about the centre of the interior points.

    The reflection splits the operator into an even and an odd block
    (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)), each written
    on the points from the centre outward and sampled there.  When x = 0 is
    a point the even block's first coupling is scaled by sqrt(2) and the
    odd block drops that point; when the mirror sits at +-h/2 the reflected
    neighbour adds -+1/(2h^2) to the first diagonal entry of the even / odd
    block.
    """
    diag, off = _fd_operator(v_diag, h, k)
    m = diag.size
    c = m // 2
    d, e = diag[c:], off[c:]  # centre point (odd m) or first right point, outward
    if m % 2:
        even_d, odd_d = d, d[1:]
        even_e, odd_e = e.copy(), e[1:]
        even_e[:1] *= math.sqrt(2.0)
    else:
        even_d, odd_d = d.copy(), d.copy()
        even_d[0] -= 0.5 / h**2
        odd_d[0] += 0.5 / h**2
        even_e = odd_e = e
    return (even_d, even_e, v_diag[c:]), (odd_d, odd_e, v_diag[c + m % 2:])


def _solve_parity(v_diag: np.ndarray, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_solve_interior for a potential that is even about the centre of
    the interior points, solved as its two half-size _parity_blocks.

    By the Sturm oscillation theorem level j has parity (-1)^j, so level j
    is pair j // 2 of the even block for even j and of the odd block for
    odd j; the levels interleave by index, so a near-degenerate doublet
    keeps its order.  Each column is one half mirrored, exactly even or
    odd.  A block asked only for its lowest pair (both blocks of a k <= 2
    solve, the odd block of k = 3) takes _eigh_range's certified inverse
    iteration from the minimum of the block's potential samples; every
    other block takes index-selected bisection and inverse iteration.
    """
    m = v_diag.size
    c = m // 2
    energies = np.empty(k)
    vecs = np.empty((m, k))
    for p, (bd, be, bv) in enumerate(_parity_blocks(v_diag, h, k)):
        hi = (k + 1 - p) // 2
        if hi == 0:
            continue
        block_e, block_v = _eigh_range(bd, be, hi, float(bv.min()))
        cols = 2 * np.arange(hi) + p
        energies[cols] = block_e
        right = block_v / math.sqrt(2.0)
        if m % 2 and p == 0:
            vecs[c, cols], right = block_v[0], right[1:]
        elif m % 2:
            vecs[c, cols] = 0.0
        vecs[m - c:, cols] = right
        vecs[:c, cols] = (1.0, -1.0)[p] * right[::-1]
    return energies, vecs


def solve_eigensystem(potential: Potential, grid: Grid, k: int) -> EigenSystem:
    """Finite-difference solve of -(1/2) d^2/dx^2 + V with Dirichlet endpoints.

    Second-order central differences on the uniform grid; the symmetric
    tridiagonal problem is solved for the k lowest pairs, eigenfunctions
    are Simpson-normalized and sign-fixed.  An even potential on a
    symmetric grid is solved by parity sector (_solve_parity), and its
    eigenfunctions are exactly even or odd and carry that parity.  The
    lowest pair of each block that needs only that pair (every block when
    k <= 2 under parity, the full operator when k = 1 without) comes from
    certified inverse iteration; the rest from index-selected bisection.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > grid.n - 2:
        raise ParameterError(f"k={k} too large for a grid with n={grid.n}")
    v = potential.sample(grid.points)
    if not np.all(np.isfinite(v[1:-1])):
        raise ParameterError("potential must be finite on the grid interior")
    by_parity = potential.symmetric and grid.symmetric
    solve = _solve_parity if by_parity else _solve_interior
    energies, vecs = solve(v[1:-1], grid.h, k)
    funcs = []
    for i in range(k):
        full = np.zeros(grid.n)
        full[1:-1] = vecs[:, i]
        parity = ("even", "odd")[i % 2] if by_parity else None
        funcs.append(Wavefunction.normalized(grid, _fix_sign(full), parity))
    return EigenSystem(grid, tuple(float(e) for e in energies), tuple(funcs), potential=potential)


# --------------------------------------------------------------------------
# nodes and node-restricted spectra
# --------------------------------------------------------------------------

def find_nodes(f: Wavefunction) -> list[float]:
    """Interior zeros of the spline through f, one per kept sign change.

    Sign changes between consecutive live samples (above _DEAD_TOL of
    max|f|) are placed linearly; those within h of an end, or within 2h of
    the last one kept, are dropped.  Four Newton steps on f.spline() refine
    the rest, and a zero leaving its sample cell raises NumericError.
    """
    x = f.grid.points
    v = f.values
    h = f.grid.h
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return []
    live = np.nonzero(np.abs(v) > _DEAD_TOL * scale)[0]
    # sign changes between consecutive live samples, placed by linear
    # interpolation between the two of them
    a, b = live[:-1], live[1:]
    cross = v[a] * v[b] < 0.0
    a, b = a[cross], b[cross]
    crossings = x[a] - v[a] * (x[b] - x[a]) / (v[b] - v[a])
    kept: list[int] = []
    for i, xn in enumerate(crossings.tolist()):
        if x[0] + h < xn < x[-1] - h and not (kept and xn - crossings[kept[-1]] < 2.0 * h):
            kept.append(i)
    spline = f.spline() if kept else None
    nodes: list[float] = []
    for i in kept:
        z = float(crossings[i])
        for _ in range(4):
            z -= float(spline(z)) / float(spline(z, 1))
        if not x[a[i]] < z < x[b[i]]:
            raise NumericError(f"spline zero near {crossings[i]:.4g} leaves its sample cell")
        nodes.append(z)
    return nodes


def _check_sign_stability(f: Wavefunction, nodes: Sequence[float]) -> None:
    """Each internodal segment must carry one clean dominant sign."""
    x = f.grid.points
    v = f.values
    scale = float(np.max(np.abs(v)))
    edges = [x[0]] + list(nodes) + [x[-1]]
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (x > a) & (x < b)
        seg = v[sel]
        live = seg[np.abs(seg) > _DEAD_TOL * scale]
        if live.size == 0 or float(np.max(np.abs(seg))) < 10.0 * _DEAD_TOL * scale:
            raise NumericError(
                f"no stable sign pattern on ({a:.4g}, {b:.4g})"
            )
        if np.any(live > 0) and np.any(live < 0):
            raise NumericError(
                f"sign fluctuates beyond noise level on ({a:.4g}, {b:.4g})"
            )


@dataclass(frozen=True)
class IntervalModes:
    """Low-lying Dirichlet spectrum of one nodal subinterval.

    Mode m is the sine series sum_q coefficients[q - 1, m] sin(q pi (x - a)
    / (b - a)) of a sine-DVR eigenvector (interval_dirichlet_modes).  On
    ``points`` (M + 1 equal steps' ends, the endpoints held at zero) the
    series are orthonormal under the h-weighted dot product: for q below M,
    sum_j sin(q pi j / M) sin(q' pi j / M) = (M / 2) delta_qq', so an h-dot
    product with a mode is one with its coefficients.  ``values`` samples
    the modes on ``points``, one column each.
    """

    a: float
    b: float
    points: np.ndarray
    h: float
    energies: np.ndarray
    coefficients: np.ndarray

    @property
    def values(self) -> np.ndarray:
        from scipy.fft import dst

        values = np.zeros((self.points.size, self.energies.size))
        values[1:-1] = 0.5 * dst(self.coefficients, type=1, n=self.points.size - 2, axis=0)
        return values


def _sine_dvr_kinetic(n: int, span: float) -> np.ndarray:
    """The Colbert-Miller kinetic matrix -(1/2) d^2/dx^2 on the n - 1
    interior points of an interval of length ``span`` split into n equal
    steps (J. Chem. Phys. 96, 1982 (1992), eq. A6): the operator of the
    n - 1 lowest sine modes, exact on each of them.

    Entry (i, j) is pi^2 / (4 span^2) times g(|i - j|) - g(i + j) off the
    diagonal, with g(m) = (-1)^m / sin^2(pi m / 2n), and times
    (2n^2 + 1) / 3 - 1 / sin^2(pi i / n) on it.
    """
    m = np.arange(2 * n - 1)
    with np.errstate(divide="ignore"):  # g(0) = inf only feeds the diagonal
        g = np.where(m % 2, -1.0, 1.0) / np.sin(np.pi * m / (2 * n)) ** 2
    j = np.arange(1, n)
    t = g[np.abs(np.subtract.outer(j, j))] - g[np.add.outer(j, j)]
    np.fill_diagonal(t, (2.0 * n * n + 1.0) / 3.0 - 1.0 / np.sin(np.pi * j / n) ** 2)
    return math.pi**2 / (4.0 * span * span) * t


def _dvr_steps(n_modes: int) -> int:
    """The step count N of a sine-DVR solve for n_modes modes on an
    interval whose grid has at least N steps: max(64, ceil(2 n_modes)).
    Its cost grows about as N^3."""
    return max(64, math.ceil(_DVR_STEPS_PER_MODE * n_modes))


def interval_dirichlet_modes(
    potential: Potential, a: float, b: float, h_target: float, n_modes: int
) -> IntervalModes:
    """The n_modes lowest Dirichlet modes on [a, b], on a grid of spacing
    close to h_target.

    One sine discrete-variable-representation (DVR) solve: the
    Colbert-Miller kinetic matrix plus diag(V) on the N - 1 interior points
    of N = _dvr_steps(n_modes) equal steps, at most the grid's step count.
    Its k lowest eigenpairs come from one LAPACK call, eig_banded at full
    bandwidth (dsbevx), whose bits do not depend on the BLAS thread count;
    np.linalg.eigh's do, from 256 points up under OpenBLAS.  Each
    eigenvector is oriented like _fix_sign on the DVR points, and a DST-I
    maps it to the coefficients of its sine series, scaled to unit norm on
    the grid.  A LAPACK failure or a non-finite energy raises NumericError.
    """
    from scipy.fft import dst
    from scipy.linalg import eig_banded

    span = b - a
    n = max(51, int(round(span / h_target)) + 1)
    pts = np.linspace(a, b, n)
    h = pts[1] - pts[0]
    steps = min(_dvr_steps(n_modes), n - 1)
    k = min(n_modes, steps - 1)
    hamiltonian = _sine_dvr_kinetic(steps, span)
    dvr_points = a + span / steps * np.arange(1, steps)
    hamiltonian[np.diag_indices(steps - 1)] += potential.sample(dvr_points)
    band = np.zeros_like(hamiltonian)  # lower band storage: band[d, j] = H[j + d, j]
    for d in range(steps - 1):
        band[d, : steps - 1 - d] = np.diagonal(hamiltonian, -d)
    energies, vecs = _lowest_pairs(eig_banded, band, k=k, lower=True)
    # one row per mode, so the sign fix and transform run on contiguous samples
    rows = np.ascontiguousarray(vecs.T)
    # _fix_sign on every row at once, above the dense solve's roundoff
    live = np.abs(rows) > _DVR_SIGN_SCALE * np.max(np.abs(rows), axis=1, keepdims=True)
    last = rows.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    rows[rows[np.arange(k), last] < 0.0] *= -1.0
    coefficients = dst(rows, type=1)
    coefficients /= np.sqrt(0.5 * h * (n - 1) * np.einsum("ij,ij->i", coefficients, coefficients))[:, None]
    return IntervalModes(a, b, pts, float(h), energies, coefficients.T)


def nodal_intervals(psi: Wavefunction) -> list[tuple[float, float]]:
    """The grid of psi split at its nodes, one piece when it has none.

    Raises NumericError unless each piece carries one clean sign.
    """
    nodes = find_nodes(psi)
    _check_sign_stability(psi, nodes)
    edges = [psi.grid.x_min] + nodes + [psi.grid.x_max]
    return list(zip(edges[:-1], edges[1:]))


def nodal_interval_modes(potential, intervals, h_target, n_modes) -> list[IntervalModes]:
    """n_modes Dirichlet modes on each nodal interval, in interval order:
    the node-restricted spectrum, and the only form the package builds it
    in.  Each interval is one interval_dirichlet_modes solve, and no call
    reuses another's."""
    return [interval_dirichlet_modes(potential, a, b, h_target, n_modes) for a, b in intervals]
