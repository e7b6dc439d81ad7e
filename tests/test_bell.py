import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stochmech import (
    ChshReport,
    ClassicalModel,
    DoubleWellPotential,
    Grid,
    NumericError,
    Observable,
    ParameterError,
    alpha,
    chsh_correlations,
    chsh_inequalities,
    chsh_value,
    classical_realizability,
    harmonic_eigensystem,
    paper_times,
    qm_multitime_correlation,
    run_chsh,
    solve_eigensystem,
)

SQRT2 = math.sqrt(2.0)
NAN = float("nan")
INF = float("inf")


@pytest.fixture(scope="module")
def harmonic_sym():
    # odd point count: mirror-symmetric Simpson weights, so odd integrands
    # such as the diagonal elements of sign(x) cancel exactly
    return harmonic_eigensystem(1.0, 2, Grid(-10.0, 10.0, 2001))


# --------------------------------------------------------------------------
# alpha
# --------------------------------------------------------------------------

def test_alpha_box_closed_form(box_es):
    a = alpha(box_es, Observable("sign", 0))
    assert a == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-8)


def test_alpha_harmonic_gaussian_overlap(harmonic_sym):
    a = alpha(harmonic_sym, Observable("sign", 0))
    assert a == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)
    assert a * a < SQRT2 / 2.0  # below the violation threshold


def test_alpha_double_well_approaches_one():
    pot = DoubleWellPotential(barrier_height=30.0, well_separation=1.0)
    es = solve_eigensystem(pot, Grid(-3.0, 3.0, 2001), 2)
    a = alpha(es, Observable("sign", 0))
    assert a > 0.99


def test_alpha_rejects_bad_observables(box_es):
    with pytest.raises(ParameterError):
        alpha(box_es, Observable("position", 0))
    even = Observable(
        "tabulated", 0, samples=np.cos(box_es.grid.points), grid=box_es.grid
    )
    with pytest.raises(ParameterError):
        alpha(box_es, even)


def test_alpha_accepts_odd_tabulated(box_es):
    x = box_es.grid.points
    f = Observable("tabulated", 0, samples=np.clip(3.0 * x, -1, 1), grid=box_es.grid)
    val = alpha(box_es, f)
    assert -1.0 <= val <= 1.0


# --------------------------------------------------------------------------
# correlations and S
# --------------------------------------------------------------------------

def test_paper_times_pattern_alpha_one():
    E = chsh_correlations(1.0, 1.0, paper_times(1.0))
    v = SQRT2 / 2.0
    assert E == pytest.approx(np.array([[-v, v], [-v, -v]]), abs=1e-12)
    assert chsh_value(E) == pytest.approx(-2.0 * SQRT2, abs=1e-12)


def test_equal_times_give_minus_alpha_squared():
    E = chsh_correlations(0.7, 2.0, (1.0, 1.0, 1.0, 1.0))
    assert E == pytest.approx(np.full((2, 2), -0.49), abs=1e-12)


def test_s_for_both_alpha_readings():
    S_paper = chsh_value(chsh_correlations(math.sqrt(8.0 / (3.0 * math.pi)), 1.0, paper_times(1.0)))
    assert S_paper == pytest.approx(-2.0 * SQRT2 * 8.0 / (3.0 * math.pi), abs=1e-12)
    assert S_paper == pytest.approx(-2.4005, abs=1e-3)
    S_quad = chsh_value(chsh_correlations(8.0 / (3.0 * math.pi), 1.0, paper_times(1.0)))
    assert S_quad == pytest.approx(-2.0379, abs=1e-4)
    assert S_paper < -2.0 and S_quad < -2.0


def test_correlations_match_qm_backend(box_singlet_state, box_es):
    a = alpha(box_es, Observable("sign", 0))
    omega = box_es.energies[1] - box_es.energies[0]
    f = Observable("sign", 0)
    g = Observable("sign", 1)
    rng = np.random.default_rng(42)
    for _ in range(20):
        t1, t2, s1, s2 = rng.uniform(0.0, 4.0 / omega, size=4)
        E = chsh_correlations(a, omega, (t1, t2, s1, s2))
        for i, t in enumerate((t1, t2)):
            for j, s in enumerate((s1, s2)):
                direct = qm_multitime_correlation(box_singlet_state, [f, g], [t, s])
                assert E[i, j] == pytest.approx(direct, abs=1e-8)


# --------------------------------------------------------------------------
# realizability
# --------------------------------------------------------------------------

def test_zero_matrix_feasible_uniformish():
    r = classical_realizability(np.zeros((2, 2)))
    assert r.feasible
    assert r.model.correlations() == pytest.approx(np.zeros((2, 2)), abs=1e-12)


def test_paper_matrix_infeasible_with_witness():
    E = chsh_correlations(1.0, 1.0, paper_times(1.0))
    r = classical_realizability(E)
    assert not r.feasible
    pattern, value = r.violated
    assert value == pytest.approx(2.0 * SQRT2, abs=1e-12)


def test_alpha_squared_070_feasible():
    E = chsh_correlations(math.sqrt(0.70), 1.0, paper_times(1.0))
    assert abs(chsh_value(E)) == pytest.approx(1.9799, abs=1e-4)
    assert classical_realizability(E).feasible


def test_threshold_sharp_at_sqrt2_over_2():
    for delta, expected_feasible in ((-1e-3, True), (1e-3, False)):
        a2 = SQRT2 / 2.0 + delta
        E = chsh_correlations(math.sqrt(a2), 1.0, paper_times(1.0))
        assert classical_realizability(E).feasible is expected_feasible


def test_positivity_facet_sharp_with_marginals():
    # <s1> = <t1> = 1/2 puts P(s1 = t1 = -1) = E11 / 4 on a positivity facet
    marg = (0.5, 0.0, 0.5, 0.0)
    for e11, expected_feasible in ((1e-9, True), (-1e-9, False)):
        r = classical_realizability(np.array([[e11, 0.0], [0.0, 0.0]]), marg)
        assert r.feasible is expected_feasible
        assert (r.certificate is None) is expected_feasible


def test_realizability_with_marginals_round_trip():
    rng = np.random.default_rng(7)
    atoms = rng.dirichlet(np.ones(16))
    model = ClassicalModel(tuple(atoms))
    E = model.correlations()
    marg = (
        model.marginal("sigma", 1),
        model.marginal("sigma", 2),
        model.marginal("tau", 1),
        model.marginal("tau", 2),
    )
    r = classical_realizability(E, marg)
    assert r.feasible
    back = r.model
    assert back.correlations() == pytest.approx(E, abs=1e-9)
    for which, i, target in (
        ("sigma", 1, marg[0]), ("sigma", 2, marg[1]),
        ("tau", 1, marg[2]), ("tau", 2, marg[3]),
    ):
        assert back.marginal(which, i) == pytest.approx(target, abs=1e-9)


def test_realizability_input_validation():
    with pytest.raises(ParameterError):
        classical_realizability(np.array([[1.5, 0.0], [0.0, 0.0]]))


def _moments(s1, s2, t1, t2):
    return np.array([1, s1, s2, t1, t2, s1 * t1, s1 * t2, s2 * t1, s2 * t2], dtype=float)


def test_infeasible_with_marginals_yields_certificate():
    cases = (
        # perfect correlations with contradictory marginals: no CHSH witness
        ([[1.0, 1.0], [1.0, 1.0]], (1.0, 1.0, 1.0, -1.0)),
        # s2 = +1 surely, so E22 must equal <t2>; no CHSH witness either
        ([[-1.0, 0.0], [-1.0, 0.0]], (0.0, 1.0, 0.0, -0.5)),
    )
    for E, marg in cases:
        r = classical_realizability(np.array(E), marg)
        assert not r.feasible
        assert r.violated is None
        # Farkas vector: non-negative on every atom, negative on the target
        y = r.certificate
        target = np.concatenate(([1.0], marg, np.ravel(E)))
        assert all(y @ _moments(*a) >= 0.0 for a in product((-1, 1), repeat=4))
        assert y @ target < 0.0


def _wrong_model(p):
    return [1.0] + [0.0] * 15  # a valid distribution that misses the target


def _non_finite_model(p):
    return [math.nan] * 16


@pytest.mark.parametrize("fake_model", [_wrong_model, _non_finite_model])
def test_model_failure_raises_numeric_error(monkeypatch, fake_model):
    monkeypatch.setattr("stochmech.bell._fine_model", fake_model)
    with pytest.raises(NumericError):
        classical_realizability(np.zeros((2, 2)))


@pytest.mark.parametrize("field", ["E", "marginals"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_realizability_rejects_non_finite_inputs(field, bad):
    E, marg = np.zeros((2, 2)), np.zeros(4)
    (E if field == "E" else marg).flat[0] = bad
    with pytest.raises(ParameterError, match="finite"):
        classical_realizability(E, marg)


def _atom_model(atom) -> ClassicalModel:
    return ClassicalModel(tuple(1.0 if a == atom else 0.0 for a in product((-1, 1), repeat=4)))


def _inputs(model: ClassicalModel):
    marg = tuple(model.marginal(which, i) for which in ("sigma", "tau") for i in (1, 2))
    return model.correlations(), marg


@pytest.mark.parametrize("atom", list(product((-1, 1), repeat=4)))
def test_single_atom_target_returns_that_atom(atom):
    r = classical_realizability(*_inputs(_atom_model(atom)))
    assert r.model == _atom_model(atom)


def test_extreme_marginals_give_a_valid_model():
    # <s1> = 1 and <t2> = -1 leave (s1, s2) margin cells with pi = 0; then
    # E11 = <t1>, E12 = -1 and E22 = -<s2>
    E = np.array([[0.3, -1.0], [-0.2, 0.2]])
    marg = (1.0, -0.2, 0.3, -1.0)
    r = classical_realizability(E, marg)
    assert r.feasible
    model = r.model
    assert model.correlations() == pytest.approx(E, abs=1e-12)
    assert _inputs(model)[1] == pytest.approx(marg, abs=1e-12)
    # a model with only s1 = +1, t2 = -1 atoms
    for p, (s1, _, _, t2) in zip(model.atoms, product((-1, 1), repeat=4)):
        assert p >= 0.0
        if s1 == -1 or t2 == 1:
            assert p == 0.0


def test_model_error_over_random_models():
    rng = np.random.default_rng(21)
    atoms = np.array(list(product((-1, 1), repeat=4)), dtype=float)
    moments = np.column_stack(
        [atoms, *(atoms[:, i] * atoms[:, 2 + j] for i in (0, 1) for j in (0, 1))]
    )
    worst = 0.0
    for k in range(10_000):
        n = 1 + k % 16  # 1 to 16 atoms: sparse models sit on the polytope's faces
        w = np.zeros(16)
        w[rng.choice(16, n, replace=False)] = rng.dirichlet(np.full(n, 0.5))
        v = w @ moments
        r = classical_realizability(v[4:].reshape(2, 2), v[:4])
        assert r.feasible
        worst = max(worst, float(np.max(np.abs(np.asarray(r.model.atoms) @ moments - v))))
    assert worst <= 1e-12


@pytest.mark.parametrize("atoms", [(math.nan,) * 16, (math.inf,) + (0.0,) * 15,
                                   (math.inf, -math.inf) + (0.0,) * 14])
def test_classical_model_rejects_non_finite_atoms(atoms):
    with pytest.raises(ParameterError):
        ClassicalModel(atoms)


@settings(max_examples=50, deadline=None)
@given(raw=st_.lists(st_.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16))
def test_classical_models_respect_chsh_bound(raw):
    total = sum(raw)
    if total <= 0.0:
        return
    model = ClassicalModel(tuple(v / total for v in raw))
    assert abs(chsh_value(model.correlations())) <= 2.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    e=st_.lists(
        st_.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4
    )
)
def test_lp_matches_inequalities_zero_marginals(e):
    E = np.array(e).reshape(2, 2)
    lp = classical_realizability(E).feasible
    by_inequalities = all(v <= 2.0 + 1e-12 for _, v in chsh_inequalities(E))
    assert lp == by_inequalities


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def test_run_chsh_box(box_es):
    report = run_chsh(box_es, Observable("sign", 0))
    assert report.alpha == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-8)
    assert report.S == pytest.approx(-2.0379, abs=1e-4)
    assert not report.classical_feasible
    assert np.max(np.abs(report.marginals)) < 1e-12


def test_run_chsh_harmonic_no_violation(harmonic_sym):
    report = run_chsh(harmonic_sym, Observable("sign", 0))
    assert report.alpha**2 == pytest.approx(2.0 / math.pi, abs=1e-8)
    assert report.classical_feasible
    assert report.S > -2.0


def test_chsh_report_validation():
    with pytest.raises(ParameterError):
        ChshReport(
            alpha=1.5, omega=1.0, times=(0, 1, 2, 3),
            correlations=((0, 0), (0, 0)), marginals=(0, 0, 0, 0),
            S=0.0, classical_feasible=True,
        )
    with pytest.raises(ParameterError):
        ChshReport(
            alpha=0.5, omega=1.0, times=(0, 1, 2, 3),
            correlations=((0.1, 0.2), (0.3, 0.4)), marginals=(0, 0, 0, 0),
            S=0.9, classical_feasible=True,  # wrong combination
        )


VALID_REPORT = dict(
    alpha=0.5, omega=1.0, times=(0.0, 1.0, 2.0, 3.0),
    correlations=((0.0, 0.0), (0.0, 0.0)), marginals=(0.0, 0.0, 0.0, 0.0),
    S=0.0, classical_feasible=True,
)
NON_FINITE_FIELDS = [
    ("alpha", NAN),
    ("omega", NAN),
    ("omega", INF),
    ("times", (0.0, 1.0, 2.0, NAN)),
    ("times", (0.0, 1.0, 2.0, -INF)),
    ("marginals", (NAN, NAN, NAN, NAN)),
]


@pytest.mark.parametrize("field, value", NON_FINITE_FIELDS)
def test_chsh_report_rejects_non_finite(field, value):
    with pytest.raises(ParameterError, match="finite"):
        ChshReport(**{**VALID_REPORT, field: value})


MALFORMED_FIELDS = [
    ("times", (0.0, 1.0)),
    ("times", (0.0, 1.0, 2.0, 3.0, 4.0)),
    ("times", 0.0),
    ("marginals", (0.0,)),
    ("marginals", (0.0, 0.0, 0.0, 0.0, 0.0)),
    ("correlations", ((0.0, 0.0),)),
    ("correlations", ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    ("correlations", ((0.0, 0.0), 0.0)),
    ("correlations", ((0.0, 0.0), (0.0,))),
    ("classical_feasible", "yes"),
    ("classical_feasible", 1),
    ("classical_feasible", None),
    ("alpha", "0.5"),
    ("times", (0.0, 1.0, 2.0, None)),
]


@pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
def test_chsh_report_rejects_wrong_shape_or_type(field, value):
    with pytest.raises(ParameterError):
        ChshReport(**{**VALID_REPORT, field: value})
