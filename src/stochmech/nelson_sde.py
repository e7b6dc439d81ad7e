"""Monte Carlo backend: regularized Nelson diffusions by Euler-Maruyama.

The drift of the stationary Nelson process is the log-derivative of |psi|
and diverges at nodes.  Near each node the weight is replaced by a
strictly positive C^1 cosh patch of width epsilon whose log-derivative is
bounded; as epsilon shrinks the process converges to the node-respecting
(Dirichlet) diffusion, which is what the spectral backend computes
exactly.  Every channel takes its drift by one rule: the log-derivative
of the quintic spline through the channel factor's own samples
(Wavefunction.spline).  Each node is that spline's zero as
spectral.find_nodes places it, so it is at once the pole, the centre of
its patch and the Dirichlet wall of the spectral reference.  Outside the
patches the drift is read from a uniform table of its smooth part, the
log-derivative minus the node poles, so a step costs index arithmetic
rather than a spline search, and one drift evaluation reads every
channel's table at once.  Paths are simulated in independent channel
coordinates with deterministic counter-based noise substreams, one per
path, so ensembles are bitwise reproducible and do not depend on how the
paths are split: simulate_ensemble steps disjoint ranges of them in
forked worker processes, one per usable CPU, which write positions into
one shared map and send their tallies back on a pipe.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelDecomposition, decompose
from .correlators import Observable, nelson_semigroup_correlation
from .errors import (
    NumericError,
    ParameterError,
    StepSizeError,
    UnsupportedStateError,
)
from .spectral import nodal_intervals
from .states import CompositeState, density, marginal_density

if TYPE_CHECKING:
    from scipy.interpolate import BSpline

__all__ = [
    "NodePatch",
    "RegularizedDrift",
    "Ensemble",
    "EpsilonStudyRow",
    "regularized_drift",
    "sample_stationary",
    "simulate_ensemble",
    "step_count",
    "check_ensemble_size",
    "estimate_two_time",
    "estimate_multi_time",
    "stationarity_distances",
    "epsilon_convergence_study",
    "dump_paths",
]

CLAMP_SIGMAS = 10.0  # drift increment cap, |b dt| <= 10 sqrt(dt)
CLAMP_RATE_LIMIT = 0.01
_MATCH_TOL = 1e-8
TABLE_REFINE = 8  # drift-table cells per cell of the channel grid
CHUNK_PATHS = 4096  # paths stepped together
NOISE_BLOCK = 256  # steps of noise drawn per path at a time
NOISE_TILE = 256  # paths whose noise block is drawn, then transposed, together
# least channel-steps (paths x steps x channels) per process worth a forked
# worker: two ranges broke even near 2e5 channel-steps in all, saved 10-18%
# from 4e5 to 1e6 and a third at 2e6 (2-core Xeon, exchange pair, 500 steps)
FORK_MIN_WORK = 2 * 10**5
MAX_STEPS = 10**8  # most steps of dt one stored time may span
MAX_ENSEMBLE_BYTES = 4 * 2**30  # most bytes of stored positions in one ensemble
ENVELOPE_ROWS = 64  # rows of a two-cluster amplitude grid held at once
BOUND_MARGIN = 1e-9  # relative slack of the sampler's cell bound over |psi|^2
KS_TIMES = 16  # stored times whose KS statistics are computed together

_CTX_INIT = 1  # Philox key contexts
_CTX_PATHS = 2


def _philox_key(seed: int, context: int) -> int:
    return (int(seed) & ((1 << 64) - 1)) | (context << 64)


def _path_generator(seed: int, path: int) -> np.random.Generator:
    """Independent substream for one path: disjoint 2^128 counter blocks."""
    bitgen = np.random.Philox(key=_philox_key(seed, _CTX_PATHS), counter=path << 128)
    return np.random.Generator(bitgen)


# --------------------------------------------------------------------------
# regularized drift
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePatch:
    """Cosh replacement  g(u) = a cosh(b u)  of |psi| on |x - node| <= eps.

    a and b solve the two C^1 matching conditions at the patch edges;
    b = O(1/eps) and a = O(eps), and g''/g = b^2 sits between c/eps^2
    bounds by construction.
    """

    node: float
    epsilon: float
    a: float
    b: float

    def g(self, u) -> np.ndarray:
        return self.a * np.cosh(self.b * np.asarray(u, dtype=float))

    def drift(self, u) -> np.ndarray:
        return self.b * np.tanh(self.b * np.asarray(u, dtype=float))


def _solve_patch(node: float, eps: float, value: float, slope: float) -> NodePatch:
    """Match a cosh to outward value/slope at the patch edge.

    With s = b eps the slope condition reads s tanh(s) = eps slope / value,
    solved by Brent's method for s in [0.1, 100].
    """
    from scipy.optimize import brentq

    if value <= 0.0 or slope <= 0.0:
        raise ParameterError(
            f"cannot patch node {node:.4g}: non-positive edge value/slope"
        )
    target = eps * slope / value
    try:
        s = brentq(lambda s: s * math.tanh(s) - target, 0.1, 100.0)
    except ValueError:
        raise ParameterError(
            f"no bracket for the patch slope equation at node {node:.4g}"
        ) from None
    b = s / eps
    a = value / math.cosh(b * eps)
    return NodePatch(node=node, epsilon=eps, a=a, b=b)


@dataclass(frozen=True)
class DriftChannel:
    """Evaluable drift of one 1D channel: residual table and node patches.

    Near a simple node z the log-derivative of |psi| is 1/(x - z) plus a
    smooth remainder.  Each patch is centred on a node, and its centre is
    the pole; ``residual`` samples the drift minus those pole terms on a
    uniform grid over [x_min, x_max], and ``slope`` holds its differences,
    so evaluation is index arithmetic and one linear interpolation; the
    pole terms are then added back and the cosh patches replace the sum
    within epsilon of each node.  Beyond the grid the drift is held at its
    edge value.  A call evaluates the channel as a one-row _StackedDrift,
    the evaluator the step loop runs over every channel at once.
    """

    residual: np.ndarray
    patches: tuple[NodePatch, ...]
    x_min: float
    x_max: float
    slope: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # per-cell slope, bitwise residual[i + 1] - residual[i]
        object.__setattr__(self, "slope", np.diff(self.residual))

    @property
    def poles(self) -> tuple[float, ...]:
        return tuple(p.node for p in self.patches)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return _StackedDrift([self], x.size)(x.reshape(1, -1)).reshape(x.shape)


def _table_drift(x, x_min, x_max, scale, last, residual, slope, offset):
    """Residual table read at x held to [x_min, x_max]; returns it and the held x.

    The cell is (x - x_min) * scale truncated and capped at ``last``, and
    the value is linear between the cell's two samples.  The bounds are
    arrays of the state's shape, one channel a row, and ``offset`` is
    where each row's cells start in the tables laid end to end.  Cell
    numbers stay floats until the lookup: they are whole and far below
    2^53, so this is exact.
    """
    xc = np.maximum(x, x_min)
    np.minimum(xc, x_max, out=xc)
    s = xc - x_min
    s *= scale
    cell = np.trunc(s)
    np.minimum(cell, last, out=cell)
    s -= cell
    cell += offset
    i = cell.astype(np.intp)
    out = slope[i]
    out *= s
    out += residual[i]
    return out, xc


def _add_patches(out, x, xc, patches) -> None:
    """Add each node's pole term at the held xc, then its cosh patch within epsilon of x.

    Each pole is the centre of its patch, which overwrites the infinite
    value there; the caller ignores the division by zero.
    """
    for p in patches:
        out += 1.0 / (xc - p.node)
    for p in patches:
        u = x - p.node
        mask = np.abs(u) <= p.epsilon
        if mask.any():
            out[mask] = p.drift(u[mask])


class _StackedDrift:
    """The drift of every channel in one pass over a (n_ch, width) state.

    The DriftChannel tables are laid end to end, and each row's x_min,
    x_max, scale, last cell and offset fill that row of an array of the
    state's shape (a binary operation between two such arrays runs about
    twice as fast as one that broadcasts a column), so one _table_drift
    call reads every row; the pole terms and cosh patches then run on the
    nodal rows, channel by channel in patch order.  No row's result depends
    on another row, so each is bitwise its channel's DriftChannel.__call__,
    which is a one-row _StackedDrift.  Division by zero at a pole is the
    caller's to ignore.
    """

    def __init__(self, channels, width: int):
        def rows(values):
            return np.repeat(np.array(values, dtype=float)[:, None], width, axis=1)

        cells = [ch.slope.size for ch in channels]
        self.x_min = rows([ch.x_min for ch in channels])
        self.x_max = rows([ch.x_max for ch in channels])
        self.scale = rows([n / (ch.x_max - ch.x_min) for n, ch in zip(cells, channels)])
        self.last = rows([n - 1 for n in cells])
        self.offset = rows(np.cumsum([0, *cells[:-1]]))
        # a cell reads residual[i] and slope[i] for i < cells, never residual[cells]
        self.residual = np.concatenate([ch.residual[:-1] for ch in channels])
        self.slope = np.concatenate([ch.slope for ch in channels])
        self.nodal = [(c, ch.patches) for c, ch in enumerate(channels) if ch.patches]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        out, uc = _table_drift(
            u, self.x_min, self.x_max, self.scale, self.last,
            self.residual, self.slope, self.offset,
        )
        for c, patches in self.nodal:
            _add_patches(out[c], u[c], uc[c], patches)
        return out


@dataclass(frozen=True)
class RegularizedDrift:
    """Everywhere-defined drift for the full composite state."""

    decomposition: ChannelDecomposition
    channels: tuple[DriftChannel, ...]


def _residual_table(spline: BSpline, poles, grid) -> np.ndarray:
    """Drift minus its pole terms on a grid TABLE_REFINE times finer than the samples."""
    x = np.linspace(grid.x_min, grid.x_max, TABLE_REFINE * (grid.n - 1) + 1)
    den = spline(x)
    res = np.zeros_like(x)
    np.divide(spline(x, 1), den, out=res, where=np.abs(den) > 0.0)
    near = [np.abs(x - z) < x[1] - x[0] for z in poles]
    for z, m in zip(poles, near):
        # on the spline piece at z, psi = sum_{j=1..k} c_j u^j with u = x - z,
        # and psi'/psi - 1/u = sum_{j>=2} (j - 1) c_j u^(j-2) / sum_{j>=1} c_j u^(j-1),
        # free of cancellation
        c = [float(spline(z, j)) / math.factorial(j) for j in range(1, spline.k + 1)]
        u = x[m] - z
        num = [(j - 1) * c[j - 1] for j in range(spline.k, 1, -1)]
        res[m] = np.polyval(num, u) / np.polyval(c[::-1], u)
    for z, m in zip(poles, near):
        res[~m] -= 1.0 / (x[~m] - z)
    return res


def regularized_drift(state: CompositeState, epsilon: float) -> RegularizedDrift:
    """Build the cosh-patched drift for every channel of the state.

    epsilon must stay below half the smallest spacing between nodes (or
    from a node to the grid edge).  Each channel's drift is the
    log-derivative of its factor spline (Wavefunction.spline), read from a
    residual table sampled off that spline (see DriftChannel).  Each node
    is taken from spectral.nodal_intervals, the spline's own zero, and is
    both its pole and its patch centre; the spline also supplies the edge
    values and slopes the patches match.
    """
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    dec = decompose(state)
    channels = []
    for ch in dec.channels:
        spline = ch.factor.spline()
        intervals = nodal_intervals(ch.factor)
        bound = 0.5 * min(b - a for a, b in intervals)
        if len(intervals) > 1 and epsilon >= bound:
            raise ParameterError(f"epsilon {epsilon} exceeds half the node separation {bound:.4g}")
        patches = []
        for _, z in intervals[:-1]:
            # |psi| and its outward slope at the left and right patch edges
            edges = np.array([z - epsilon, z + epsilon])
            sign = np.sign(spline(edges))
            value = sign * spline(edges)
            slope = sign * spline(edges, 1) * [-1.0, 1.0]
            patch = _solve_patch(z, epsilon, float(value.mean()), float(slope.mean()))
            g = float(patch.g(epsilon))
            dg = patch.a * patch.b * math.sinh(patch.b * epsilon)
            mismatch = max(np.max(np.abs(value - g)), np.max(np.abs(slope - dg)))
            if mismatch > _MATCH_TOL:
                raise ParameterError(
                    f"patch at node {z:.4g} misses C1 matching by {mismatch:.2e}; "
                    f"reduce epsilon"
                )
            patches.append(patch)
        grid = ch.grid
        channels.append(
            DriftChannel(
                residual=_residual_table(spline, [p.node for p in patches], grid),
                patches=tuple(patches),
                x_min=grid.x_min,
                x_max=grid.x_max,
            )
        )
    return RegularizedDrift(dec, tuple(channels))


# --------------------------------------------------------------------------
# stationary sampling
# --------------------------------------------------------------------------

def _max_density(state: CompositeState) -> float:
    if state.n_clusters == 1:
        es = state.clusters[0]
        amp = np.zeros(es.grid.n)
        for c, idx in state.terms:
            amp += c * es.eigenfunctions[idx[0]].values
        return float(np.max(amp * amp))
    if state.n_clusters == 2:
        # the amplitude grid a block of rows at a time, never all n1 x n2 of it,
        # blocks in decreasing order of a bound on their |amplitude|; once a
        # block's bound squared is below the maximum so far, no later block
        # can raise it
        es1, es2 = state.clusters
        starts = np.arange(0, es1.grid.n, ENVELOPE_ROWS)
        bound = np.zeros(starts.size)
        for c, idx in state.terms:
            peaks = np.maximum.reduceat(np.abs(es1.eigenfunctions[idx[0]].values), starts)
            bound += abs(c) * peaks * float(np.max(np.abs(es2.eigenfunctions[idx[1]].values)))
        bound *= 1.0 + BOUND_MARGIN
        top = 0.0
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] * bound[k] < top:
                break
            r = starts[k]
            amp = np.zeros((min(ENVELOPE_ROWS, es1.grid.n - r), es2.grid.n))
            for c, idx in state.terms:
                amp += c * np.outer(
                    es1.eigenfunctions[idx[0]].values[r : r + ENVELOPE_ROWS],
                    es2.eigenfunctions[idx[1]].values,
                )
            top = max(top, float(np.max(amp * amp)))
        return top
    if len(state.terms) == 1:
        _, idx = state.terms[0]
        out = 1.0
        for i, k in enumerate(idx):
            out *= float(np.max(state.clusters[i].eigenfunctions[k].values ** 2))
        return out
    raise UnsupportedStateError(
        "stationary sampling beyond two clusters needs a product state"
    )


class _CellBound:
    """Upper bound on |psi| per grid cell, for rejecting proposals before |psi|^2.

    Linear interpolation keeps |phi| below the larger of a cell's two
    flanking samples; the table takes one more sample on each side, so a
    point whose computed cell is off by one is still covered.  The bound
    at a point is sum_t |c_t| prod_i peak_{t,i}, and ``squared`` scales its
    square by 1 + BOUND_MARGIN against rounding in ``density``.
    """

    def __init__(self, state: CompositeState):
        self.grids = [es.grid for es in state.clusters]
        peaks = {}
        for _, idx in state.terms:
            for i, k in enumerate(idx):
                if (i, k) not in peaks:
                    # entry j covers samples j - 1 .. j + 2; the last one, j = n - 1,
                    # is where x_max itself falls
                    a = np.abs(state.clusters[i].eigenfunctions[k].values)
                    a = np.pad(a, (1, 2), mode="edge")
                    peaks[i, k] = np.maximum(
                        np.maximum(a[:-3], a[1:-2]), np.maximum(a[2:-1], a[3:])
                    )
        self.terms = [
            (abs(c), [peaks[i, k] for i, k in enumerate(idx)]) for c, idx in state.terms
        ]

    def squared(self, pts: np.ndarray) -> np.ndarray:
        cells = [
            ((pts[:, i] - grid.x_min) * (1.0 / grid.h)).astype(np.intp)
            for i, grid in enumerate(self.grids)
        ]
        bound = np.zeros(pts.shape[0])
        for c, peaks in self.terms:
            term = c * peaks[0][cells[0]]
            for peak, j in zip(peaks[1:], cells[1:]):
                term *= peak[j]
            bound += term
        bound *= bound
        bound *= 1.0 + BOUND_MARGIN
        return bound


def sample_stationary(state: CompositeState, n: int, seed: int) -> np.ndarray:
    """Draw n joint samples from |psi|^2 by rejection against a uniform box.

    The envelope is 1.01 times the maximum density on the grid; sampling
    is deterministic for a fixed seed.  Each batch draws its points and
    uniforms from one Philox stream; a proposal whose uniform exceeds the
    squared per-cell bound of _CellBound is rejected without evaluating
    |psi|^2, which is computed only for the rest.  The bound is never below
    the density, so the accepted set is the one the plain test u <= |psi|^2
    gives.  Returns shape (n, n_clusters).
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, _CTX_INIT)))
    envelope = 1.01 * _max_density(state)
    cell_bound = _CellBound(state)
    lows = np.array([es.grid.x_min for es in state.clusters])
    highs = np.array([es.grid.x_max for es in state.clusters])
    out = np.empty((n, state.n_clusters))
    filled = 0
    proposed = 0
    batch = max(4096, 2 * n)
    while filled < n:
        pts = rng.uniform(lows, highs, size=(batch, state.n_clusters))
        u = rng.uniform(0.0, envelope, size=batch)
        live = np.flatnonzero(u <= cell_bound.squared(pts))
        keep = live[u[live] <= density(state, pts[live])]
        proposed += batch
        take = min(keep.size, n - filled)
        out[filled : filled + take] = pts[keep[:take]]
        filled += take
        if proposed >= 64 * batch and filled / proposed < 1e-4:
            raise NumericError(
                f"acceptance rate {filled / proposed:.2e} below 1e-4; "
                f"refine the proposal"
            )
    return out


# --------------------------------------------------------------------------
# path simulation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Seeded SDE sample paths stored at the requested times.

    positions has shape (n_paths, len(steps), n_clusters), in cluster
    coordinates; steps holds the stored step counts in increasing order,
    always starting at 0.  n_paths and t_grid (steps times dt) are read
    from them, and a time t is found by its step count step_count(t, dt),
    the rule that stored it.  Re-running with identical (seed, dt,
    n_paths, epsilon, init) reproduces positions bitwise.
    """

    dt: float
    steps: tuple[int, ...]
    positions: np.ndarray
    clamp_rate: float
    sign_change_fraction: tuple[float, ...]

    def __post_init__(self):
        if self.positions.shape[1] != len(self.steps):
            raise ParameterError("time count inconsistent with positions")
        if not np.all(np.isfinite(self.positions)):
            raise NumericError("ensemble contains non-finite positions")
        self.positions.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def t_grid(self) -> np.ndarray:
        return np.array(self.steps) * self.dt

    def time_index(self, t: float) -> int:
        """The column of positions stored at time t (no interpolation in time)."""
        k = step_count(t, self.dt)
        try:
            return self.steps.index(k)
        except ValueError:
            raise ParameterError(f"time {t} (step {k}) is not a stored time") from None


def step_count(t: float, dt: float, dt_name: str = "dt") -> int:
    """Time t as a whole number, at most MAX_STEPS, of steps of dt (named dt_name)."""
    steps = t / dt
    if steps > MAX_STEPS:  # inf too
        raise ParameterError(f"{t} is more than {MAX_STEPS} steps of {dt_name}={dt}")
    k = round(steps) if math.isfinite(steps) else -1
    if k < 0 or abs(k * dt - t) > 1e-9 * max(1.0, t):
        raise ParameterError(f"{t} is not a whole number of steps of {dt_name}={dt}")
    return k


def check_ensemble_size(n_paths: int, n_times: int, n_clusters: int) -> None:
    """Raise ParameterError when an ensemble would pass MAX_ENSEMBLE_BYTES."""
    size = 8 * n_paths * n_times * n_clusters
    if size > MAX_ENSEMBLE_BYTES:
        raise ParameterError(
            f"{n_paths} paths x {n_times} stored times x {n_clusters} clusters "
            f"take {size / 2**30:.3g} GiB, more than MAX_ENSEMBLE_BYTES = "
            f"{MAX_ENSEMBLE_BYTES / 2**30:g} GiB"
        )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_range(drift, init, dt, n_steps, column, seed, start_path, stop_path, positions):
    """Step paths start_path..stop_path-1 into their rows of positions.

    Returns the clamp count and, per channel, the number of paths that
    crossed a pole, from the running low and high of each nodal row.
    """
    dec = drift.decomposition
    n_ch = dec.n_channels
    sqrt_dt = math.sqrt(dt)
    clamp = CLAMP_SIGMAS * sqrt_dt
    poles = [(c, ch.poles) for c, ch in enumerate(drift.channels) if ch.poles]
    # the rows from the first nodal channel to the last
    nodal = slice(poles[0][0], poles[-1][0] + 1) if poles else slice(0)
    clamped = 0
    crossed = np.zeros(n_ch, dtype=np.int64)
    block = min(NOISE_BLOCK, n_steps)
    # one errstate per range: a path exactly on a pole is inside its patch
    with np.errstate(divide="ignore"):
        for start in range(start_path, stop_path, CHUNK_PATHS):
            stop = min(start + CHUNK_PATHS, stop_path)
            m = stop - start
            gens = [_path_generator(seed, start + j) for j in range(m)]
            drawn = np.empty((min(NOISE_TILE, m), block, n_ch))
            noise = np.empty((block, n_ch, m))
            u = np.ascontiguousarray(dec.to_channels(init[start:stop]).T)
            stacked = _StackedDrift(drift.channels, m)
            positions[start:stop, 0, :] = dec.to_clusters(u.T)
            rows = u[nodal]  # a view: u is updated in place
            low = rows.copy()
            high = rows.copy()
            for s in range(n_steps):
                i = s % NOISE_BLOCK
                if i == 0:
                    # block by block, each path's normals continue its one stream
                    n_block = min(NOISE_BLOCK, n_steps - s)
                    for t0 in range(0, m, NOISE_TILE):
                        tile = gens[t0 : t0 + NOISE_TILE]
                        for j, gen in enumerate(tile):
                            gen.standard_normal(out=drawn[j, :n_block])
                        np.multiply(
                            drawn[: len(tile), :n_block].transpose(1, 2, 0),
                            sqrt_dt,
                            out=noise[:n_block, :, t0 : t0 + len(tile)],
                        )
                move = stacked(u)
                move *= dt
                if not (-clamp <= move.min() and move.max() <= clamp):
                    clamped += int(np.count_nonzero(np.abs(move) > clamp))
                    np.maximum(move, -clamp, out=move)
                    np.minimum(move, clamp, out=move)
                move += noise[i]
                u += move
                np.minimum(low, rows, out=low)
                np.maximum(high, rows, out=high)
                col = column.get(s + 1)
                if col is not None:
                    if not np.all(np.isfinite(u)):
                        raise NumericError(f"non-finite path values at step {s + 1}")
                    positions[start:stop, col, :] = dec.to_clusters(u.T)
            for c, zs in poles:
                lo, hi = low[c - nodal.start], high[c - nodal.start]
                crossed[c] += np.count_nonzero(np.any([(lo <= z) & (hi > z) for z in zs], axis=0))
    return clamped, crossed


def _fork_range(run, lo: int, hi: int):
    """Run paths lo..hi-1 in a forked worker; return its pid and the read end of its pipe.

    The worker writes its rows into the shared positions and pickles onto
    the pipe what run returned, or the exception it raised.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = run(lo, hi)
            except BaseException as exc:
                result = exc
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    result = NumericError(f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def simulate_ensemble(
    drift: RegularizedDrift, init: np.ndarray, dt: float, times, seed: int
) -> Ensemble:
    """Euler-Maruyama integration of every channel of the drift.

    x <- x + b(x) dt + sqrt(dt) xi with per-path deterministic noise;
    drift increments are clamped at 10 sqrt(dt) and the clamp rate is a
    diagnostic (error above 1%: shrink dt or grow epsilon).  Positions are
    stored at t = 0 and at each of ``times``, each a whole number of steps;
    the last of them is the horizon; a non-finite row of init raises
    ParameterError.  Each step evaluates the drift of every channel in one
    pass over the (channel, path) state (_StackedDrift), then clamps, adds
    the noise and updates that whole state at once.  sign_change_fraction
    is, per channel, the fraction of paths whose lowest position (the
    start included) is at or below a pole of its DriftChannel and whose
    highest is above it: exactly those that change side of a pole at some
    step.

    The paths are split into W contiguous ranges, W the smaller of the
    usable CPUs and n_paths * n_steps * n_channels // FORK_MIN_WORK (1
    without os.fork).  Range 0 runs in the calling process and each other
    range in a worker forked for it.  Every range writes its rows into one
    anonymous shared mmap that holds positions only and backs the returned
    array.  A worker pickles its clamp and crossing counts, or the
    exception it raised, onto its pipe; the exception is raised again
    here, a worker that dies before its result is complete raises
    NumericError naming its paths, and every worker is reaped (killed
    first if this call fails) before the call returns.  Noise streams are
    per path, so the ensemble is bitwise the same for every W.

    Within a range paths run CHUNK_PATHS at a time.  A chunk keeps its
    state channel-major, one contiguous row of paths per channel.  Every
    NOISE_BLOCK steps it draws the next block of each path's normals,
    NOISE_TILE paths at a time in stream order, and stores them times
    sqrt(dt) as (step, channel, path) rows, so each step reads one
    contiguous row per channel.  Each stored time goes straight into the
    shared positions, in cluster coordinates, so memory beyond them grows
    with CHUNK_PATHS per process, not with n_paths.  An ensemble larger
    than MAX_ENSEMBLE_BYTES raises ParameterError before anything is
    allocated.
    """
    if not dt > 0.0:
        raise ParameterError("dt must be positive")
    steps = sorted({0, *(step_count(t, dt) for t in times)})
    n_steps = steps[-1]
    if n_steps < 1:
        raise ParameterError("need a time at least one step after 0")
    column = {k: j for j, k in enumerate(steps)}
    init = np.asarray(init, dtype=float)
    n_ch = drift.decomposition.n_channels
    if init.ndim != 2 or init.shape[1] != n_ch or init.shape[0] < 1:
        raise ParameterError(f"init must have shape (n_paths, {n_ch}), n_paths >= 1")
    n_paths = init.shape[0]
    check_ensemble_size(n_paths, len(steps), n_ch)
    finite = np.isfinite(init).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ParameterError(f"init row {row} is not finite: {init[row].tolist()}")

    n_ranges = 1
    if hasattr(os, "fork"):
        work = n_paths * n_steps * n_ch
        n_ranges = max(1, min(_usable_cpus(), work // FORK_MIN_WORK, n_paths))
    bounds = [n_paths * r // n_ranges for r in range(n_ranges + 1)]
    shared = mmap.mmap(-1, 8 * n_paths * len(steps) * n_ch)
    positions = np.ndarray((n_paths, len(steps), n_ch), buffer=shared)

    def run(lo, hi):
        return _simulate_range(drift, init, dt, n_steps, column, seed, lo, hi, positions)

    workers = []  # (pid, pipe, range) of every worker not yet reaped
    try:
        for r in range(1, n_ranges):
            workers.append((*_fork_range(run, bounds[r], bounds[r + 1]), r))
        clamped, crossed = run(bounds[0], bounds[1])
        while workers:
            pid, pipe, r = workers[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[0]
            pipe.close()
            try:
                result = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise NumericError(
                    f"worker for paths {bounds[r]}-{bounds[r + 1] - 1} {how} "
                    f"before its result was sent"
                ) from None
            if isinstance(result, BaseException):
                raise result
            clamped += result[0]
            crossed += result[1]
    finally:
        if workers:
            import signal

            for pid, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
            for pid, pipe, _ in workers:
                pipe.close()
                os.waitpid(pid, 0)
    clamp_rate = clamped / float(n_paths * n_steps * n_ch)
    ensemble = Ensemble(
        dt=float(dt),
        steps=tuple(steps),
        positions=positions,
        clamp_rate=float(clamp_rate),
        sign_change_fraction=tuple((crossed / n_paths).tolist()),
    )
    if clamp_rate > CLAMP_RATE_LIMIT:
        raise StepSizeError(
            f"drift clamp engaged on {clamp_rate:.2%} of steps; "
            f"reduce dt or increase epsilon"
        )
    return ensemble


# --------------------------------------------------------------------------
# estimators
# --------------------------------------------------------------------------

def estimate_two_time(
    ensemble: Ensemble, f: Observable, g: Observable, t: float, s: float
) -> tuple[float, float]:
    """Sample mean and standard error of f(x(t)) g(x(s)) over the paths."""
    return estimate_multi_time(ensemble, [f, g], [t, s])


def estimate_multi_time(ensemble: Ensemble, observables, times) -> tuple[float, float]:
    """Sample mean of a product of observables at several stored times.

    The classical process has well-defined correlations for any number of
    times, including repeated clusters; this is the estimation route for
    everything the two-time spectral form does not cover.
    """
    observables = list(observables)
    times = [float(t) for t in times]
    if len(observables) != len(times):
        raise ParameterError("need one time per observable")
    n_clusters = ensemble.positions.shape[2]
    for o in observables:
        if o.cluster >= n_clusters:
            raise ParameterError(
                f"observable addresses cluster {o.cluster}; the ensemble has {n_clusters}"
            )
    vals = np.ones(ensemble.n_paths)
    for o, t in zip(observables, times):
        vals = vals * o(ensemble.positions[:, ensemble.time_index(t), o.cluster])
    mean = float(np.mean(vals))
    stderr = (
        float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    )
    return mean, stderr


def _marginal_cdfs(state: CompositeState) -> list[np.ndarray]:
    """Each cluster's |psi|^2 marginal CDF on its grid, scaled to end at 1."""
    from scipy.integrate import cumulative_simpson

    cdfs = []
    for c, es in enumerate(state.clusters):
        cdf = cumulative_simpson(marginal_density(state, c), dx=es.grid.h, initial=0.0)
        cdf /= cdf[-1]
        cdfs.append(cdf)
    return cdfs


def _ks_stats(positions: np.ndarray, state: CompositeState, cdfs) -> list[tuple[float, ...]]:
    """Per-cluster KS statistics of positions (n_paths, n_times, n_clusters), one tuple a time.

    Each cluster's samples are sorted, placed on its CDF and reduced
    KS_TIMES stored times at a time, so the temporaries hold at most
    KS_TIMES x n_paths numbers each.
    """
    n, n_times = positions.shape[:2]
    above = np.arange(1, n + 1) / n  # the empirical CDF just after each sorted sample
    below = np.arange(0, n) / n  # and just before it
    stats = [[] for _ in range(n_times)]
    for c, cdf in enumerate(cdfs):
        points = state.clusters[c].grid.points
        for t0 in range(0, n_times, KS_TIMES):
            samples = np.sort(positions[:, t0 : t0 + KS_TIMES, c].T, axis=1)
            fvals = np.interp(samples, points, cdf)
            upper = np.max(above - fvals, axis=1)
            lower = np.max(fvals - below, axis=1)
            for j, d in enumerate(np.maximum(upper, lower)):
                stats[t0 + j].append(float(d))
    return [tuple(s) for s in stats]


def stationarity_distances(
    ensemble: Ensemble, state: CompositeState
) -> list[tuple[float, ...]]:
    """Per-cluster KS statistic of each stored marginal against |psi|^2, in t_grid order.

    Each cluster's marginal CDF is built once for all the times, and the
    times are sorted and compared KS_TIMES at a time.
    """
    if ensemble.positions.shape[2] != state.n_clusters:
        raise ParameterError(
            f"state has {state.n_clusters} clusters; the ensemble has "
            f"{ensemble.positions.shape[2]}"
        )
    return _ks_stats(ensemble.positions, state, _marginal_cdfs(state))


def dump_paths(ensemble: Ensemble, path) -> None:
    """Plain-text path dump: one path per line, space-separated positions.

    Positions are flattened time-major (all clusters at the first stored
    time, then the next time, ...), full precision.  Large: n_paths lines
    of n_times * n_clusters numbers each.
    """
    flat = ensemble.positions.reshape(ensemble.n_paths, -1)
    np.savetxt(path, flat, fmt="%.17g", delimiter=" ")


# --------------------------------------------------------------------------
# epsilon convergence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonStudyRow:
    epsilon: float
    value: float
    stderr: float
    spectral_ref: float
    abs_dev: float


def epsilon_convergence_study(
    state: CompositeState,
    f: Observable,
    g: Observable,
    t: float,
    epsilons,
    n_paths: int,
    dt: float,
    seed: int,
) -> list[EpsilonStudyRow]:
    """Monte Carlo estimates versus the spectral limit for shrinking patches.

    Common random numbers: all runs share the seed, hence initial points
    and noise substreams, so the epsilon bias is isolated from the Monte
    Carlo noise.  The spectral reference is taken at the stored time the
    estimates read, step_count(t, dt) steps of dt.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ParameterError("need at least one epsilon")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ParameterError("epsilons must decrease strictly")
    spectral = nelson_semigroup_correlation(state, f, g, step_count(t, dt) * dt)
    init = sample_stationary(state, n_paths, seed)
    rows = []
    for eps in epsilons:
        drift = regularized_drift(state, eps)
        ens = simulate_ensemble(drift, init, dt, [t], seed)
        value, stderr = estimate_two_time(ens, f, g, t, 0.0)
        rows.append(
            EpsilonStudyRow(
                epsilon=eps,
                value=value,
                stderr=stderr,
                spectral_ref=spectral,
                abs_dev=abs(value - spectral),
            )
        )
    return rows
