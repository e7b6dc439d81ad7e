"""The benchmark's workloads: jobs built from a seed, and their output checks.

A workload is a list of CLI jobs, run in order through ``stochmech.cli.main``,
optionally followed by a stream of ``classical_realizability`` decisions.
Each check takes the files a job wrote (and its stdout) and returns the
problems it found; an empty list means the output is correct.  Checks run
after the timed passes, so reference values computed there cost no
measured time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

Files = dict  # "data", side-file suffixes such as ".diag.json", and "stdout"

MC_EPSILON = 1e-3
MC_DT = 1e-3
STDERR_LIMIT = 5.0
EQUAL_TIME_TOL = 1e-6
QM_TOL = 1e-8
NELSON_MONOTONE_TOL = 1e-6  # finite-difference accuracy of the node-restricted modes
EIGEN_TOL = 1e-4  # trapezoid against the package's Simpson normalization
SPECTRAL_LAGS = {"start": 0.0, "stop": 6.25, "step": 0.25}
FINE_GRID = {"x_min": -3.5, "x_max": 3.5, "n": 8001}


@dataclass
class CliJob:
    name: str
    command: list[str]  # subcommand and extra flags; --config and --out are added
    config: dict
    check: Callable[[Files], list[str]]
    data_ext: str = ".csv"
    side: tuple[str, ...] = ()  # files compared pass to pass besides the data file


@dataclass
class Workload:
    jobs: list[CliJob]
    decisions: list = field(default_factory=list)
    warmup: list[CliJob] = field(default_factory=list)
    warmup_decisions: list = field(default_factory=list)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _table(data: bytes) -> tuple[list[str], dict[str, np.ndarray]]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for i, name in enumerate(header):
        try:
            cols[name] = np.array([float(r[i]) for r in rows])
        except ValueError:
            cols[name] = np.array([r[i] for r in rows])
    return header, cols


def _harmonic(omega: float, k: int = 2) -> dict:
    return {"kind": "harmonic", "omega": omega, "k": k}


def _double_well(height: float = 4.0, k: int = 2, grid: dict | None = None) -> dict:
    out = {"kind": "double_well", "barrier_height": height, "well_separation": 1.0, "k": k}
    if grid:
        out["grid"] = grid
    return out


def _box(k: int = 2) -> dict:
    return {"kind": "infinite_well", "half_width": 1.0, "k": k}


def _config(clusters, terms, observables=(), **extra) -> dict:
    return {
        "system": {"clusters": list(clusters)},
        "state": {"terms": [{"coefficient": c, "indices": list(i)} for c, i in terms]},
        "observables": list(observables),
        **extra,
    }


def _pos(cluster: int) -> dict:
    return {"kind": "position", "cluster": cluster}


def _pair(a: float, b: float, omega: float, f: int = 0, g: int = 1) -> dict:
    return _config(
        [_harmonic(omega), _harmonic(omega)], [(a, (0, 1)), (b, (1, 0))],
        [_pos(f), _pos(g)], lags=SPECTRAL_LAGS,
    )


# --------------------------------------------------------------------------
# Monte Carlo workloads
# --------------------------------------------------------------------------

def _mc_check(config: dict) -> Callable[[Files], list[str]]:
    """Estimates within 5 stderr of the spectral value; KS under a 1e-3 family-wise band."""
    reference: dict[float, float] = {}
    n_paths = config["mc"]["n_paths"]

    def check(files: Files) -> list[str]:
        from stochmech.config import build_observable, build_state, parse_config
        from stochmech.correlators import nelson_semigroup_correlation

        header, cols = _table(files["data"])
        if header != ["lag", "estimate", "stderr"]:
            return [f"unexpected header {header}"]
        if not reference:
            cfg = parse_config(config)
            state = build_state(cfg)
            f = build_observable(cfg.observables[0], state.clusters, 0)
            g = build_observable(cfg.observables[1], state.clusters, 1)
            reference.update(
                (lag, nelson_semigroup_correlation(state, f, g, lag)) for lag in cfg.lags
            )
        problems = []
        if len(cols["lag"]) != len(reference):
            problems.append(f"{len(cols['lag'])} lags written, {len(reference)} configured")
        for lag, est, err, ref in zip(cols["lag"], cols["estimate"], cols["stderr"], reference.values()):
            if not (err > 0 and abs(est - ref) <= STDERR_LIMIT * err):
                problems.append(f"lag {lag}: estimate {est} vs spectral {ref} (stderr {err})")
        diag = json.loads(files[".diag.json"])
        ks = [v for per_time in diag["ks_stats"].values() for v in per_time]
        band = oracles.ks_band(n_paths, len(ks))
        if max(ks) > band:
            problems.append(f"KS {max(ks):.4f} above the family-wise band {band:.4f}")
        return problems

    return check


def _nelson_mc(name: str, config: dict, seed: int) -> CliJob:
    return CliJob(
        name, ["nelson-mc", "--seed", str(seed)], config, _mc_check(config),
        side=(".diag.json",),
    )


def _mc_config(clusters, terms, observables, lags, n_paths: int, horizon: float) -> dict:
    return _config(
        clusters, terms, observables, lags=lags,
        mc={"n_paths": n_paths, "dt": MC_DT, "epsilon": MC_EPSILON, "horizon": horizon},
    )


def mc_pair(seed: int, smoke: bool) -> Workload:
    c = 1.0 / math.sqrt(2.0)
    terms = [(c, (0, 1)), (c, (1, 0))]
    clusters = [_harmonic(1.0), _harmonic(1.0)]
    observables = [_pos(0), _pos(1)]
    if smoke:
        config = _mc_config(clusters, terms, observables, [0.1, 0.2], 64, 0.2)
    else:
        config = _mc_config(clusters, terms, observables, [0.5, 1.0, 2.0], 3072, 2.0)
    tiny = _mc_config(clusters, terms, observables, [0.01], 32, 0.01)
    return Workload(
        [_nelson_mc("pair", config, seed)],
        warmup=[_nelson_mc("warmup", tiny, seed)],
    )


def mc_lagscan(seed: int, smoke: bool) -> Workload:
    clusters = [_double_well(4.0), _harmonic(1.0, k=1)]
    terms = [(1.0, (1, 0))]
    observables = [_pos(0), _pos(0)]
    if smoke:
        lags = {"start": 0.0, "stop": 0.2, "step": 0.01}
        config = _mc_config(clusters, terms, observables, lags, 64, 0.2)
    else:
        lags = {"start": 0.0, "stop": 2.0, "step": 0.01}
        config = _mc_config(clusters, terms, observables, lags, 2048, 2.0)
    tiny = _mc_config(clusters, terms, observables, [0.01], 32, 0.01)
    return Workload(
        [_nelson_mc("lagscan", config, seed)],
        warmup=[_nelson_mc("warmup", tiny, seed)],
    )


# --------------------------------------------------------------------------
# spectral workload
# --------------------------------------------------------------------------

def _check_qm_pair(a, b, omega):
    def check(files: Files) -> list[str]:
        header, cols = _table(files["data"])
        if header != ["lag", "value", "method"]:
            return [f"unexpected header {header}"]
        dev = np.max(np.abs(cols["value"] - oracles.exchange_pair_qm(a, b, omega, cols["lag"])))
        return [] if dev <= QM_TOL else [f"QM series off the closed form by {dev:.2e}"]
    return check


def _check_compare(pair=None):
    """Equal-time agreement; for an exchange pair (a, b, omega) also the QM
    closed form and a non-increasing excited-channel Nelson part, otherwise a
    non-increasing Nelson series."""

    def check(files: Files) -> list[str]:
        header, cols = _table(files["data"])
        if header != ["lag", "qm", "bohm", "nelson"]:
            return [f"unexpected header {header}"]
        problems = []
        summary = json.loads(files[".summary.json"])
        if not summary["equal_time_agreement"] <= EQUAL_TIME_TOL:
            problems.append(f"equal-time agreement {summary['equal_time_agreement']:.2e}")
        lags, nelson = cols["lag"], cols["nelson"]
        if pair is None:
            rise, tol = float(np.max(np.diff(nelson))), 1e-12
        else:
            a, b, omega = pair
            dev = np.max(np.abs(cols["qm"] - oracles.exchange_pair_qm(a, b, omega, lags)))
            if dev > QM_TOL:
                problems.append(f"QM series off the closed form by {dev:.2e}")
            excited = (nelson - oracles.ground_channel_term(a, b, omega, lags)) / (a * b)
            rise, tol = float(np.max(np.diff(excited))), NELSON_MONOTONE_TOL
        if rise > tol:
            problems.append(f"Nelson series increases by {rise:.2e}")
        return problems

    return check


def _check_eigen(k: int):
    def check(files: Files) -> list[str]:
        header, cols = _table(files["data"])
        if header != ["x"] + [f"psi_{i}" for i in range(k)]:
            return [f"unexpected header {header}"]
        x = cols["x"]
        psi = np.array([cols[f"psi_{i}"] for i in range(k)])
        gram = np.array([[np.trapezoid(p * q, x) for q in psi] for p in psi])
        dev = float(np.max(np.abs(gram - np.eye(k))))
        return [] if dev <= EIGEN_TOL else [f"eigenfunctions off orthonormal by {dev:.2e}"]
    return check


def _compare_pair(name, a, b, omega, f=0, g=1) -> CliJob:
    return CliJob(name, ["compare"], _pair(a, b, omega, f, g),
                  _check_compare((a, b, omega)), side=(".summary.json",))


def _small_grid(half_width: float) -> dict:
    return {"x_min": -half_width, "x_max": half_width, "n": 401}


def spectral_compare(seed: int, smoke: bool) -> Workload:
    """Fifteen jobs in three cost tiers: six rotated exchange-pair compares
    (~0.7 s each), three compares of FD double-well products (~30 ms) and
    six lighter jobs (5-10 ms).  The job_ms median falls in the middle tier
    and p90 among the rotated jobs, whatever the pass count."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.35, 1.2, size=4)  # amplitudes (cos, sin), both well away from 0
    cs = [(math.cos(t), math.sin(t)) for t in angles]
    heights = rng.uniform(3.5, 4.5, size=3), rng.uniform(1.5, 2.5, size=3)
    c = 1.0 / math.sqrt(2.0)
    sign = [{"kind": "sign", "cluster": i} for i in (0, 1)]
    box = [{"kind": "indicator", "cluster": i, "a": 0.0, "b": 0.5} for i in (0, 1)]
    jobs = [
        # exchange pairs: Nelson expansion of the rotated two-channel decomposition
        _compare_pair("pair-sym", c, c, 1.0),
        _compare_pair("pair-0.6", 0.6, 0.8, 1.0),
        _compare_pair("pair-a", *cs[0], 1.5),
        _compare_pair("pair-b", *cs[1], 0.75),
        _compare_pair("pair-w2", 0.8, 0.6, 2.0),
        _compare_pair("pair-c-rev", *cs[2], 1.25, f=1, g=0),
    ] + [
        # products of two FD-solved double wells
        CliJob(f"cmp-dw-{i}", ["compare"], _config(
            [_double_well(h[i], grid=FINE_GRID) for h in heights], [(1.0, (1, 0))],
            observables, lags=SPECTRAL_LAGS,
        ), _check_compare(), side=(".summary.json",))
        for i, observables in enumerate([sign, [sign[0], box[1]], [box[0], sign[1]]])
    ] + [
        CliJob("qm-sym", ["qm-corr"], _pair(c, c, 1.0), _check_qm_pair(c, c, 1.0)),
        CliJob("qm-d", ["qm-corr"], _pair(*cs[3], 1.5), _check_qm_pair(*cs[3], 1.5)),
        CliJob("cmp-box", ["compare"], _config(
            [_box(), _box()], [(1.0, (0, 1))], [box[0], sign[1]], lags=SPECTRAL_LAGS,
        ), _check_compare(), side=(".summary.json",)),
        CliJob("eig-dw", ["eigen"], _config(
            [_double_well(k=3, grid=_small_grid(3.0))], [(1.0, (0,))]), _check_eigen(3)),
        CliJob("eig-box", ["eigen"], _config(
            [{**_box(k=3), "grid": _small_grid(1.0)}], [(1.0, (0,))]), _check_eigen(3)),
        CliJob("eig-ho", ["eigen"], _config(
            [{**_harmonic(1.0, k=3), "grid": _small_grid(10.0)}], [(1.0, (0,))]), _check_eigen(3)),
    ]
    if smoke:
        jobs = [jobs[0]] + jobs[6:]
    order = rng.permutation(len(jobs))
    return Workload(
        [jobs[i] for i in order],
        warmup=[CliJob("warmup-" + j.name, j.command, j.config, j.check, j.data_ext, j.side)
                for j in jobs if j.name in ("qm-sym", "cmp-box", "eig-ho")],
    )


# --------------------------------------------------------------------------
# realizability workload
# --------------------------------------------------------------------------

def _check_chsh(files: Files) -> list[str]:
    report = json.loads(files["data"])
    problems = []
    expected = -2.0 * math.sqrt(2.0) * report["alpha"] ** 2
    if abs(report["S"] - expected) > 1e-12:
        problems.append(f"S = {report['S']!r}, expected -2 sqrt(2) alpha^2 = {expected!r}")
    realizable, decided = oracles.fine_verdict(report["correlations"], report["marginals"])
    if decided and realizable != report["classical_feasible"]:
        problems.append(f"verdict {report['classical_feasible']} against Fine's facets {realizable}")
    said = files["stdout"].startswith("NO VIOLATION")
    if said != report["classical_feasible"]:
        problems.append(f"stdout {files['stdout'].strip()!r} contradicts the written verdict")
    return problems


def check_decision(E, marginals, result) -> list[str]:
    realizable, decided = oracles.fine_verdict(E, marginals)
    if decided and result.feasible != realizable:
        return [f"verdict {result.feasible} against Fine's facets {realizable}"]
    if result.feasible:
        if result.model is None:
            return ["feasible verdict without a model"]
        err = oracles.model_error(result.model.atoms, E, marginals)
        if err > oracles.MODEL_TOL:
            return [f"model misses the inputs by {err:.2e}"]
    return []


def _chsh(name: str, height: float) -> CliJob:
    grid = {"x_min": -3.0, "x_max": 3.0, "n": 2001}
    config = _config([_double_well(height, grid=grid)], [(1.0, (0,))],
                     chsh={"observable": {"kind": "sign"}}, output={"format": "json"})
    return CliJob(name, ["chsh"], config, _check_chsh, data_ext=".json")


def realizability(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n_heights, n_decisions = (4, 200) if smoke else (24, 4000)
    heights = 0.5 * 60.0 ** (np.arange(n_heights) / (n_heights - 1))
    heights *= 1.0 + rng.uniform(-0.02, 0.02, n_heights)
    decisions = oracles.decision_stream(rng, n_decisions)
    return Workload(
        [_chsh(f"chsh-{i:02d}", float(h)) for i, h in enumerate(heights)],
        decisions=decisions,
        warmup=[_chsh("warmup", 3.0)],
        warmup_decisions=oracles.decision_stream(np.random.default_rng(seed + 1), 20),
    )


WORKLOADS = {
    "mc-pair": mc_pair,
    "mc-lagscan": mc_lagscan,
    "spectral-compare": spectral_compare,
    "realizability": realizability,
}
