"""Run configuration: one JSON document drives every CLI subcommand.

Schema (see README for a worked example):

    {
      "system": {"clusters": [{"kind": "harmonic", "omega": 1.0, "k": 2,
                               "grid": {"x_min": -10, "x_max": 10, "n": 2000}},
                              ...]},
      "state": {"terms": [{"coefficient": 0.707..., "indices": [0, 1]}, ...]},
      "observables": [{"kind": "position", "cluster": 0}, ...],
      "lags": [0.0, 0.5, ...]  or  {"start": 0, "stop": 6.28, "step": 0.25},
      "mc": {"n_paths": 100000, "dt": 1e-3, "seed": 1234,
             "epsilon": 1e-3, "horizon": 2.0},
      "chsh": {"observable": {"kind": "sign"}, "times": [t1, t2, s1, s2]},
      "eps_study": {"epsilons": [0.1, 0.03, 0.01], "lag": 1.0},
      "output": {"format": "csv"}
    }

Every field present is checked when the config loads, each observable by
building it against its cluster and "chsh.observable" also by alpha's rule
(bell.check_observable) on cluster 0's grid, and a key that no field of
its object names is an error.  A subcommand requires only the fields it
reads: "state" is required by qm-corr, compare, nelson-mc and eps-study,
"mc.epsilon" and "mc.horizon" by nelson-mc alone.  The data file is named
by the CLI's --out, so "output" holds "format" alone.  Errors carry the
offending field path so a malformed file is diagnosable from the exit
message alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bell
from .correlators import Observable
from .errors import ConfigError, DomainTruncationError, ParameterError
from .spectral import (
    DoubleWellPotential,
    EigenSystem,
    Grid,
    HarmonicPotential,
    InfiniteWellPotential,
    Potential,
    TabulatedPotential,
    box_eigensystem,
    default_grid,
    harmonic_eigensystem,
    solve_eigensystem,
)
from .states import CompositeState, build_composite_state

__all__ = ["RunConfig", "load_config", "parse_config"]

MAX_LAGS = 10**6  # most lags a start/stop/step object may expand to
MAX_PATHS = 10**7  # most Monte Carlo paths mc.n_paths may ask for


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required field '{key}'")
    return mapping[key]


def _as_float(value, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _object(value, path: str, *fields: str) -> dict:
    """``value`` as an object; given ``fields``, a key outside them is an
    error naming it by its field path ("" is the top level)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'top level'}: must be an object")
    for key in value:
        if fields and key not in fields:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"{name}: not a field; known fields: {', '.join(fields)}")
    return value


def _number(raw: dict, key: str, path: str) -> float:
    return _as_float(_need(raw, key, path), f"{path}.{key}")


def _numbers(values, n: int, path: str) -> list[float]:
    if not isinstance(values, list) or len(values) != n:
        raise ConfigError(f"{path}: expected a list of {n} numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(values)]


@dataclass(frozen=True)
class ClusterConfig:
    potential: Potential
    grid: Grid
    k: int


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    dt: float
    seed: int | None
    epsilon: float | None  # required by nelson-mc alone
    horizon: float | None


@dataclass(frozen=True, eq=False)
class RunConfig:
    clusters: tuple[ClusterConfig, ...]
    terms: tuple[tuple[float, tuple[int, ...]], ...]  # empty when "state" is absent
    observables: tuple[dict, ...]
    lags: np.ndarray  # read-only float64, empty when "lags" is absent
    mc: McConfig | None
    chsh_observable: dict | None
    chsh_times: tuple[float, float, float, float] | None
    eps_study_epsilons: tuple[float, ...]
    eps_study_lag: float | None
    output_format: str
    config_sha256: str | None = None  # of the bytes load_config parsed


def _need_kind(raw, path: str) -> None:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{path}: needs a 'kind' field")


def _parse_grid(raw, path: str) -> Grid:
    raw = _object(raw, path, "x_min", "x_max", "n")
    x_min, x_max = _number(raw, "x_min", path), _number(raw, "x_max", path)
    n = _as_int(_need(raw, "n", path), f"{path}.n")
    try:
        return Grid(x_min, x_max, n)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_cluster(raw, path: str) -> ClusterConfig:
    """The cluster's potential, its grid (the default one unless given) and k."""
    raw = _object(raw, path)
    kind = _need(raw, "kind", path)
    # the kind decides the solver and the fields that follow it
    common = ("kind", "grid", "k")
    grid = _parse_grid(raw["grid"], f"{path}.grid") if "grid" in raw else None
    k = _as_int(raw.get("k", 2), f"{path}.k")
    try:
        if kind == "harmonic":
            _object(raw, path, *common, "omega")
            potential = HarmonicPotential(_number(raw, "omega", path))
        elif kind == "infinite_well":
            _object(raw, path, *common, "half_width")
            potential = InfiniteWellPotential(_number(raw, "half_width", path))
        elif kind == "double_well":
            _object(raw, path, *common, "barrier_height", "well_separation")
            potential = DoubleWellPotential(
                _number(raw, "barrier_height", path), _number(raw, "well_separation", path)
            )
        elif kind == "tabulated":
            _object(raw, path, *common, "values")
            if grid is None:
                raise ConfigError(f"{path}.grid: required for tabulated potentials")
            values = _numbers(_need(raw, "values", path), grid.n, f"{path}.values")
            potential = TabulatedPotential(grid, np.array(values))
        else:
            raise ConfigError(f"{path}.kind: unknown potential kind {kind!r}")
        grid = grid or default_grid(potential)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not 1 <= k <= grid.n - 2:
        raise ConfigError(f"{path}.k: {k} is not in [1, {grid.n - 2}], the interior grid points")
    return ClusterConfig(potential, grid, k)


def _parse_lags(raw, path: str) -> np.ndarray:
    if isinstance(raw, list):
        lags = np.array([_as_float(v, f"{path}[{i}]") for i, v in enumerate(raw)])
    elif isinstance(raw, dict):
        _object(raw, path, "start", "stop", "step")
        start, stop, step = (_number(raw, key, path) for key in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{path}: need step > 0 and stop >= start")
        count = (stop - start) / step + 1e-9
        if not count < MAX_LAGS:  # inf too
            raise ConfigError(f"{path}: spans more than {MAX_LAGS} lags")
        count = int(math.floor(count)) + 1
        lags = start + np.arange(count) * step  # each start + i * step, exactly
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop/step object")
    if not lags.size:
        raise ConfigError(f"{path}: must not be empty")
    if np.any(np.diff(lags) <= 0):
        raise ConfigError(f"{path}: must increase strictly")
    lags.setflags(write=False)
    return lags


def _parse_mc(raw, path: str) -> McConfig:
    raw = _object(raw, path, "n_paths", "dt", "seed", "epsilon", "horizon")
    n_paths = _as_int(_need(raw, "n_paths", path), f"{path}.n_paths")
    dt = _number(raw, "dt", path)
    epsilon, horizon = (
        _number(raw, key, path) if key in raw else None for key in ("epsilon", "horizon")
    )
    seed = raw.get("seed")
    if seed is not None:
        seed = _as_int(seed, f"{path}.seed")
    for name, val in (("n_paths", n_paths), ("dt", dt), ("epsilon", epsilon), ("horizon", horizon)):
        if val is not None and val <= 0:
            raise ConfigError(f"{path}.{name}: must be positive")
    if n_paths > MAX_PATHS:
        raise ConfigError(f"{path}.n_paths: {n_paths} is more than {MAX_PATHS} paths")
    return McConfig(n_paths, dt, seed, epsilon, horizon)


def parse_config(raw: dict) -> RunConfig:
    raw = _object(
        raw, "", "system", "state", "observables", "lags", "mc", "chsh", "eps_study", "output"
    )
    system = _object(_need(raw, "system", "top level"), "system", "clusters")
    clusters_raw = _need(system, "clusters", "system")
    if not isinstance(clusters_raw, list) or not clusters_raw:
        raise ConfigError("system.clusters: expected a non-empty list")
    clusters = tuple(
        _parse_cluster(c, f"system.clusters[{i}]") for i, c in enumerate(clusters_raw)
    )
    terms_raw = []
    if "state" in raw:
        terms_raw = _need(_object(raw["state"], "state", "terms"), "terms", "state")
        if not isinstance(terms_raw, list) or not terms_raw:
            raise ConfigError("state.terms: expected a non-empty list")
    terms = []
    for i, t in enumerate(terms_raw):
        t = _object(t, f"state.terms[{i}]", "coefficient", "indices")
        coeff = _number(t, "coefficient", f"state.terms[{i}]")
        if coeff == 0.0:
            raise ConfigError(f"state.terms[{i}].coefficient: must be non-zero")
        idx = _need(t, "indices", f"state.terms[{i}]")
        if not isinstance(idx, list) or len(idx) != len(clusters):
            raise ConfigError(f"state.terms[{i}].indices: expected {len(clusters)} indices")
        terms.append((coeff, tuple(_as_int(v, f"state.terms[{i}].indices[{j}]") for j, v in enumerate(idx))))
    observables = raw.get("observables", [])
    if not isinstance(observables, list):
        raise ConfigError("observables: must be a list")
    for i, o in enumerate(observables):
        _need_kind(o, f"observables[{i}]")
        build_observable(o, clusters, i, f"observables[{i}]")
    lags = _parse_lags(raw["lags"], "lags") if "lags" in raw else np.empty(0)
    mc = _parse_mc(raw["mc"], "mc") if "mc" in raw else None
    chsh_obs = None
    chsh_times = None
    if "chsh" in raw:
        chsh = _object(raw["chsh"], "chsh", "observable", "times")
        chsh_obs = chsh.get("observable")
        if chsh_obs is not None:
            _need_kind(chsh_obs, "chsh.observable")
            f = build_observable(chsh_obs, clusters[:1], 0, "chsh.observable")
            if f.kind not in bell.OBSERVABLE_KINDS:
                raise ConfigError(
                    f"chsh.observable.kind: must be 'sign' or 'tabulated', got {f.kind!r}"
                )
            try:
                bell.check_observable(f, clusters[0].grid)
            except ParameterError as exc:
                raise ConfigError(f"chsh.observable: {exc}") from exc
        if chsh.get("times") is not None:  # [t1, t2, s1, s2]
            chsh_times = tuple(_numbers(chsh["times"], 4, "chsh.times"))
    eps_eps: tuple[float, ...] = ()
    eps_lag = None
    if "eps_study" in raw:
        es_raw = _object(raw["eps_study"], "eps_study", "epsilons", "lag")
        eps_list = _need(es_raw, "epsilons", "eps_study")
        if not isinstance(eps_list, list) or not eps_list:
            raise ConfigError("eps_study.epsilons: expected a non-empty list")
        eps_eps = tuple(_as_float(v, f"eps_study.epsilons[{i}]") for i, v in enumerate(eps_list))
        if eps_eps[-1] <= 0 or any(b >= a for a, b in zip(eps_eps, eps_eps[1:])):
            raise ConfigError("eps_study.epsilons: must be positive and decrease strictly")
        eps_lag = _number(es_raw, "lag", "eps_study")
    output = _object(raw.get("output", {}), "output", "format")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format: must be 'csv' or 'json'")
    return RunConfig(
        clusters=clusters,
        terms=tuple(terms),
        observables=tuple(observables),
        lags=lags,
        mc=mc,
        chsh_observable=chsh_obs,
        chsh_times=chsh_times,
        eps_study_epsilons=eps_eps,
        eps_study_lag=eps_lag,
        output_format=out_format,
    )


def load_config(path: str | Path) -> RunConfig:
    """The config at ``path``, read once; it carries the SHA-256 of the bytes parsed."""
    p = Path(path)
    try:
        data = p.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"config file {p} cannot be read: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return replace(parse_config(raw), config_sha256=hashlib.sha256(data).hexdigest())


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

def build_cluster(cfg: ClusterConfig, path: str) -> EigenSystem:
    """Solve one cluster, harmonic and infinite_well analytically and every
    other potential by finite differences; a rejected parameter exits as a
    config error at ``path``, and a grid that cannot hold the states at
    ``path``.grid."""
    pot = cfg.potential
    try:
        if isinstance(pot, HarmonicPotential):
            return harmonic_eigensystem(pot.omega, cfg.k, cfg.grid)
        if isinstance(pot, InfiniteWellPotential):
            return box_eigensystem(pot.half_width, cfg.k, cfg.grid)
        return solve_eigensystem(pot, cfg.grid, cfg.k)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except DomainTruncationError as exc:
        raise ConfigError(f"{path}.grid: {exc}") from exc


def build_state(cfg: RunConfig) -> CompositeState:
    if not cfg.terms:
        raise ConfigError("top level: missing required field 'state'")
    clusters = [
        build_cluster(c, f"system.clusters[{i}]") for i, c in enumerate(cfg.clusters)
    ]
    try:
        return build_composite_state(clusters, cfg.terms)
    except ParameterError as exc:
        raise ConfigError(f"state.terms: {exc}") from exc


def build_observable(
    raw: dict, cluster_systems, position: int = 0, path: str = "observable"
) -> Observable:
    """Observable from its config object; ``position`` is the default cluster."""
    kind = raw.get("kind")
    cluster = _as_int(raw.get("cluster", position), f"{path}.cluster")
    if not 0 <= cluster < len(cluster_systems):
        raise ConfigError(
            f"{path}.cluster: expected 0 <= cluster < {len(cluster_systems)}, got {cluster}"
        )
    if kind in ("position", "sign"):
        _object(raw, path, "kind", "cluster")
        return Observable(kind, cluster)
    if kind == "indicator":
        _object(raw, path, "kind", "cluster", "a", "b")
        a, b = _number(raw, "a", path), _number(raw, "b", path)
        if not a < b:
            raise ConfigError(f"{path}.b: must exceed a = {a}")
        return Observable("indicator", cluster, a=a, b=b)
    if kind == "tabulated":
        _object(raw, path, "kind", "cluster", "values")
        grid = cluster_systems[cluster].grid
        samples = np.array(_numbers(_need(raw, "values", path), grid.n, f"{path}.values"))
        return Observable("tabulated", cluster, samples=samples, grid=grid)
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
