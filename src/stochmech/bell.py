"""CHSH construction for two identical subsystems and classical realizability.

A two-level pair state built from an even ground state and an odd first
excited state, probed with an odd two-valued observable, has correlations
E(t, s) = -alpha^2 cos(omega (t-s)) with alpha the single off-diagonal
matrix element.  At the right four measurement times the CHSH combination
reaches -2 sqrt(2) alpha^2, beyond the classical bound 2 once
alpha^2 > sqrt(2)/2.  Realizability of a general correlation matrix with
marginals is decided exactly by Fine's facets (PRL 48, 291 (1982)): a
joint distribution over the sixteen deterministic atoms exists iff the
eight sign-variant CHSH inequalities and the sixteen positivity facets
hold, and Fine's construction then gives one in closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .correlators import Observable
from .errors import NumericError, ParameterError
from .spectral import EigenSystem, Grid

__all__ = [
    "ClassicalModel",
    "ChshReport",
    "RealizabilityResult",
    "alpha",
    "check_observable",
    "paper_times",
    "chsh_correlations",
    "chsh_value",
    "chsh_inequalities",
    "classical_realizability",
    "run_chsh",
]

_ATOMS: tuple[tuple[int, int, int, int], ...] = tuple(product((-1, 1), repeat=4))
# sign patterns (e11, e12, e21, e22) with an odd number of -1 entries
_CHSH_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    p for p in product((-1, 1), repeat=4) if p[0] * p[1] * p[2] * p[3] == -1
)
_CHSH_SIGNS = np.array(_CHSH_PATTERNS, dtype=float)
# moments (1, <s1>, <s2>, <t1>, <t2>, E11, E12, E21, E22) of each atom, one column per atom
_MOMENTS = np.array(
    [[1, *a, a[0] * a[2], a[0] * a[3], a[1] * a[2], a[1] * a[3]] for a in _ATOMS], dtype=float
).T


def _positivity_facets() -> np.ndarray:
    """Rows y with y . moments = 4 P(s_i = a, t_j = b), one per (i, j, a, b)."""
    facets = np.zeros((16, 9))
    for row, (i, j, a, b) in enumerate(product((0, 1), (0, 1), (-1, 1), (-1, 1))):
        facets[row, [0, 1 + i, 3 + j, 5 + 2 * i + j]] = (1.0, a, b, a * b)
    return facets


_POSITIVITY_FACETS = _positivity_facets()
_FACET_TOL = 1e-12
_MODEL_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalModel:
    """Joint distribution over the 16 outcomes (s1, s2, t1, t2) in {-1,1}^4."""

    atoms: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != 16:
            raise ParameterError("a classical model has exactly 16 atoms")
        # min rejects -inf before fsum could meet inf - inf; fsum carries a nan
        if not min(self.atoms) >= -1e-15:
            raise ParameterError("atom probabilities must be non-negative")
        if not abs(math.fsum(self.atoms) - 1.0) <= 1e-12:
            raise ParameterError("atom probabilities must be finite and sum to one")

    def correlation(self, i: int, j: int) -> float:
        """<sigma_i tau_j> with i, j in {1, 2}."""
        return math.fsum(
            p * a[i - 1] * a[2 + j - 1] for p, a in zip(self.atoms, _ATOMS)
        )

    def marginal(self, which: str, i: int) -> float:
        pos = (i - 1) if which == "sigma" else (2 + i - 1)
        return math.fsum(p * a[pos] for p, a in zip(self.atoms, _ATOMS))

    def correlations(self) -> np.ndarray:
        return np.array(
            [[self.correlation(1, 1), self.correlation(1, 2)],
             [self.correlation(2, 1), self.correlation(2, 2)]]
        )


OBSERVABLE_KINDS = ("sign", "tabulated")  # the odd two-valued kinds alpha reads


def check_observable(f: Observable, grid: Grid) -> np.ndarray:
    """f on grid, once f passes alpha's rule: sign, or tabulated, odd and |f| <= 1."""
    if f.kind not in OBSERVABLE_KINDS:
        raise ParameterError("alpha needs an odd observable (sign or odd tabulated)")
    if not f.is_bounded:
        raise ParameterError("alpha needs a bounded observable (|f| <= 1)")
    fvals = f(grid.points)
    odd_dev = float(np.max(np.abs(fvals + fvals[::-1])))
    if f.kind == "tabulated" and odd_dev > 1e-8:
        raise ParameterError(f"tabulated observable not odd (dev {odd_dev:.2e})")
    return fvals


def _elements(es: EigenSystem, f: Observable) -> list[float]:
    """<0|f|0>, <1|f|1> and <0|f|1> under the checks alpha documents."""
    if es.k < 2:
        raise ParameterError("need at least two eigenstates")
    psi0, psi1 = es.eigenfunctions[:2]
    _require_parity(psi0, "even")
    _require_parity(psi1, "odd")
    fvals = check_observable(f, es.grid)
    # the tags put the pair on a symmetric grid, where mirrored weights
    # cancel odd integrands for either parity of n
    w = 0.5 * (es.grid.simpson + es.grid.simpson[::-1])
    pairs = ((psi0, psi0), (psi1, psi1), (psi0, psi1))
    elements = [float(w @ (a.values * fvals * b.values)) for a, b in pairs]
    for diag in elements[:2]:
        if abs(diag) > 1e-8:
            raise ParameterError(f"diagonal element {diag:.2e} does not vanish")
    return elements


def alpha(es: EigenSystem, f: Observable) -> float:
    """Off-diagonal element of f between the even ground and odd first state.

    Requires the solver's parity tags (even, odd), which only a symmetric
    potential on a symmetric grid carries, and an odd bounded observable
    (check_observable); also verifies that both diagonal elements vanish,
    which is what makes the pair behave like a spin with zero marginals.
    """
    return _elements(es, f)[2]


def _require_parity(psi, parity: str) -> None:
    if psi.parity != parity:
        raise ParameterError(f"eigenfunction is tagged {psi.parity}, not {parity}")


def paper_times(omega: float) -> tuple[float, float, float, float]:
    """The four measurement times (t1, t2, s1, s2) scaled by the splitting."""
    if not omega > 0:
        raise ParameterError("omega must be positive")
    return (0.0, math.pi / (2 * omega), math.pi / (4 * omega), 3 * math.pi / (4 * omega))


def chsh_correlations(alpha_value: float, omega: float, times) -> np.ndarray:
    """E[i][j] = -alpha^2 cos(omega (t_i - s_j)) for the singlet-like pair."""
    if not omega > 0:
        raise ParameterError("omega must be positive")
    t1, t2, s1, s2 = (float(v) for v in times)
    a2 = alpha_value * alpha_value
    return np.array(
        [[-a2 * math.cos(omega * (t - s)) for s in (s1, s2)] for t in (t1, t2)]
    )


def chsh_value(E) -> float:
    """S = E11 + E22 + E21 - E12."""
    E = np.asarray(E, dtype=float)
    if E.shape != (2, 2):
        raise ParameterError("correlation matrix must be 2x2")
    if np.max(np.abs(E)) > 1.0 + 1e-9:
        raise ParameterError("correlations must lie in [-1, 1]")
    return float(E[0, 0] + E[1, 1] + E[1, 0] - E[0, 1])


def chsh_inequalities(E) -> list[tuple[tuple[int, int, int, int], float]]:
    """All eight sign-variant combinations, each classically bounded by 2."""
    values = _CHSH_SIGNS @ np.asarray(E, dtype=float).reshape(4)
    return list(zip(_CHSH_PATTERNS, values.tolist()))


# --------------------------------------------------------------------------
# classical realizability from Fine's facets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizabilityResult:
    feasible: bool
    model: ClassicalModel | None
    violated: tuple[tuple[int, int, int, int], float] | None
    certificate: np.ndarray | None


def _fine_model(p: list[float]) -> list[float]:
    """Fine's joint distribution (PRL 48, 291 (1982)) from the pair probabilities.

    ``p[8i + 4j + 2a + b]`` is P(s_{i+1} = a, t_{j+1} = b), with a, b = 0
    for -1 and 1 for +1: the order of the positivity facets.  Q_j(s1, s2, t_j) is free in
    its cells c_b = P(s1=+, s2=+, t_j=b), each in the Frechet interval
    [max(0, r1 + r2 - w), min(r1, r2)] with w = P(t_j=b) and r_i =
    P(s_i=+, t_j=b).  Summed over b these bound q = P(s1=+, s2=+) to an
    interval I_j, and Fine's facets hold exactly when I_1 and I_2 meet.  q
    sits at the middle of where they meet, each c_b at the same fraction
    of its interval, and an atom is Q_1 Q_2 / pi with pi the (s1, s2)
    margin: t1 and t2 independent given (s1, s2).  The fraction is clipped
    to [0, 1] and the cells at 0, which only inputs within the facet
    tolerance of the boundary need.
    """
    halves = []
    for j in (0, 4):
        um, up, rm, rp = p[j:j + 4]  # P(s1, t_j) at (s1, t_j) = (-,-), (-,+), (+,-), (+,+)
        wm, wp = p[j + 10:j + 12]  # P(s2=+, t_j) at t_j = -, +
        # r1 + r2 - w = P(s2=+, t_j) - P(s1=-, t_j)
        lom, lop = max(0.0, wm - um), max(0.0, wp - up)
        him, hip = min(rm, wm), min(rp, wp)
        halves.append((lom + lop, him + hip, (um, up, rm, rp, wm, wp, lom, lop, him, hip)))
    (lo1, hi1, _), (lo2, hi2, _) = halves
    q = 0.5 * (max(lo1, lo2) + min(hi1, hi2))
    tables = []  # Q_j at (s1, s2) = (-,-), (-,+), (+,-), (+,+), each at t_j = -, +
    for lo, hi, (um, up, rm, rp, wm, wp, lom, lop, him, hip) in halves:
        lam = min(1.0, max(0.0, (q - lo) / (hi - lo))) if hi > lo else 0.0
        cm = max(0.0, lom + lam * (him - lom))
        cp = max(0.0, lop + lam * (hip - lop))
        tables.append((
            (max(0.0, um - wm + cm), max(0.0, up - wp + cp)),
            (max(0.0, wm - cm), max(0.0, wp - cp)),
            (max(0.0, rm - cm), max(0.0, rp - cp)),
            (cm, cp),
        ))
    atoms = []
    for (a0, a1), (b0, b1) in zip(*tables):
        pi = a0 + a1
        if pi > 0.0:
            atoms += (a0 * b0 / pi, a0 * b1 / pi, a1 * b0 / pi, a1 * b1 / pi)
        else:
            atoms += (0.0, 0.0, 0.0, 0.0)
    return atoms


def classical_realizability(E, marginals=(0.0, 0.0, 0.0, 0.0)) -> RealizabilityResult:
    """Does a joint distribution reproduce the 4 correlations and 4 marginals?

    Decided by Fine's 24 facets of the two-setting local polytope: the 8
    CHSH inequalities and the 16 positivity facets.  When infeasible, the
    most violated CHSH combination above 2 is returned as witness;
    otherwise the most violated positivity facet as certificate: a
    Farkas vector y over the moments (1, <s1>, <s2>, <t1>, <t2>, E11,
    E12, E21, E22), non-negative on every atom and negative on the input.
    When feasible, the model is Fine's closed-form construction over the
    16 atoms (_fine_model), checked against the inputs.
    """
    E = np.asarray(E, dtype=float)
    marg = np.asarray(marginals, dtype=float)
    if E.shape != (2, 2) or marg.shape != (4,):
        raise ParameterError("need a 2x2 correlation matrix and 4 marginals")
    target = np.concatenate(([1.0], marg, E.reshape(4)))
    moments = target.tolist()
    if not all(map(math.isfinite, moments)):
        raise ParameterError("correlations and marginals must be finite")
    if max(map(abs, moments)) > 1.0 + 1e-12:
        raise ParameterError("correlations and marginals must lie in [-1, 1]")
    # facet sums as matrix products: a Python sum rounds differently and can
    # pick another of two tied facets; the comparisons run on Python floats
    values = (_CHSH_SIGNS @ target[5:]).tolist()
    best = values.index(max(values))
    if values[best] > 2.0 + _FACET_TOL:
        return RealizabilityResult(False, None, (_CHSH_PATTERNS[best], values[best]), None)
    slack = (_POSITIVITY_FACETS @ target).tolist()
    worst = slack.index(min(slack))
    if slack[worst] < -_FACET_TOL:
        return RealizabilityResult(False, None, None, _POSITIVITY_FACETS[worst].copy())
    x = _fine_model([0.25 * v for v in slack])
    err = float(np.abs(_MOMENTS @ x - target).max())
    if not err <= _MODEL_TOL:
        raise NumericError(f"classical model misses a feasible target by {err:.2e}")
    total = math.fsum(x)
    return RealizabilityResult(True, ClassicalModel(tuple([v / total for v in x])), None, None)


# --------------------------------------------------------------------------
# full report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChshReport:
    """Everything the CHSH run produces, serializable as one record."""

    alpha: float
    omega: float
    times: tuple[float, float, float, float]
    correlations: tuple[tuple[float, float], tuple[float, float]]
    marginals: tuple[float, float, float, float]
    S: float
    classical_feasible: bool

    def __post_init__(self):
        def sized(value, n):
            return isinstance(value, (tuple, list)) and len(value) == n

        if not (sized(self.times, 4) and sized(self.marginals, 4)):
            raise ParameterError("a CHSH report holds exactly 4 times and 4 marginals")
        if not (sized(self.correlations, 2) and all(sized(row, 2) for row in self.correlations)):
            raise ParameterError("CHSH correlations must be 2 x 2")
        if not isinstance(self.classical_feasible, bool):
            raise ParameterError("classical_feasible must be a bool")
        values = [self.alpha, self.omega, *self.times, *self.marginals, self.S]
        values += [e for row in self.correlations for e in row]
        if not all(isinstance(v, numbers.Real) for v in values):
            raise ParameterError("CHSH report values must be real numbers")
        if not all(map(math.isfinite, values)):
            raise ParameterError("CHSH report values must be finite")
        if abs(self.alpha) > 1.0 + 1e-9:
            raise ParameterError("alpha must lie in [-1, 1]")
        E = np.asarray(self.correlations)
        if np.max(np.abs(E)) > 1.0 + 1e-9:
            raise ParameterError("correlations must lie in [-1, 1]")
        if np.max(np.abs(self.marginals)) > 1.0 + 1e-9:
            raise ParameterError("marginals must lie in [-1, 1]")
        expected = E[0, 0] + E[1, 1] + E[1, 0] - E[0, 1]
        if self.S != float(expected):
            raise ParameterError("S must equal E11 + E22 + E21 - E12 as computed")


def run_chsh(
    es: EigenSystem, f: Observable, times=None
) -> ChshReport:
    """Compute alpha, the correlation matrix at the four times, S, and the
    realizability verdict for the antisymmetric two-subsystem state."""
    omega = float(es.energies[1] - es.energies[0])
    if not omega > 0:
        raise ParameterError("level splitting must be positive")
    if times is None:
        times = paper_times(omega)
    diag0, diag1, a = _elements(es, f)
    E = chsh_correlations(a, omega, times)
    marginal = 0.5 * (diag0 + diag1)
    marginals = (marginal, marginal, marginal, marginal)
    S = chsh_value(E)
    verdict = classical_realizability(E, marginals)
    return ChshReport(
        alpha=float(a),
        omega=omega,
        times=tuple(float(t) for t in times),
        correlations=((float(E[0, 0]), float(E[0, 1])), (float(E[1, 0]), float(E[1, 1]))),
        marginals=marginals,
        S=S,
        classical_feasible=verdict.feasible,
    )
