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
      "output": {"format": "csv", "path": "out.csv"}
    }

Errors carry the offending field path so a malformed file is diagnosable
from the exit message alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correlators import Observable
from .errors import ConfigError, ParameterError
from .spectral import (
    DoubleWellPotential,
    EigenSystem,
    Grid,
    HarmonicPotential,
    InfiniteWellPotential,
    TabulatedPotential,
    box_eigensystem,
    default_grid,
    harmonic_eigensystem,
    solve_eigensystem,
)
from .states import CompositeState, build_composite_state

__all__ = ["RunConfig", "load_config", "parse_config"]


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


@dataclass(frozen=True)
class ClusterConfig:
    kind: str
    params: dict
    k: int
    grid: Grid | None
    solver: str  # "analytic" or "fd"


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    dt: float
    seed: int | None
    epsilon: float
    horizon: float


@dataclass(frozen=True)
class RunConfig:
    clusters: tuple[ClusterConfig, ...]
    terms: tuple[tuple[float, tuple[int, ...]], ...]
    observables: tuple[dict, ...]
    lags: tuple[float, ...]
    mc: McConfig | None
    chsh_observable: dict | None
    chsh_times: tuple[float, float, float, float] | None
    eps_study_epsilons: tuple[float, ...]
    eps_study_lag: float | None
    output_format: str
    output_path: str | None


def _need_kind(raw, path: str) -> None:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{path}: needs a 'kind' field")


def _parse_grid(raw, path: str) -> Grid:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: grid must be an object")
    try:
        return Grid(
            _as_float(_need(raw, "x_min", path), f"{path}.x_min"),
            _as_float(_need(raw, "x_max", path), f"{path}.x_max"),
            _as_int(_need(raw, "n", path), f"{path}.n"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_cluster(raw, path: str) -> ClusterConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: cluster must be an object")
    kind = _need(raw, "kind", path)
    grid = _parse_grid(raw["grid"], f"{path}.grid") if "grid" in raw else None
    k = _as_int(raw.get("k", 2), f"{path}.k")
    if k < 1:
        raise ConfigError(f"{path}.k: must be at least 1")
    solver = raw.get("solver")
    if kind == "harmonic":
        params = {"omega": _as_float(_need(raw, "omega", path), f"{path}.omega")}
        solver = solver or "analytic"
    elif kind == "infinite_well":
        params = {
            "half_width": _as_float(_need(raw, "half_width", path), f"{path}.half_width")
        }
        solver = solver or "analytic"
    elif kind == "double_well":
        params = {
            "barrier_height": _as_float(
                _need(raw, "barrier_height", path), f"{path}.barrier_height"
            ),
            "well_separation": _as_float(
                _need(raw, "well_separation", path), f"{path}.well_separation"
            ),
        }
        solver = solver or "fd"
    elif kind == "tabulated":
        if grid is None:
            raise ConfigError(f"{path}.grid: required for tabulated potentials")
        values = _need(raw, "values", path)
        if not isinstance(values, list) or len(values) != grid.n:
            raise ConfigError(f"{path}.values: expected a list of {grid.n} numbers")
        params = {"values": [
            _as_float(v, f"{path}.values[{i}]") for i, v in enumerate(values)
        ]}
        solver = solver or "fd"
    else:
        raise ConfigError(f"{path}.kind: unknown potential kind {kind!r}")
    if solver not in ("analytic", "fd"):
        raise ConfigError(f"{path}.solver: must be 'analytic' or 'fd'")
    if solver == "analytic" and kind in ("double_well", "tabulated"):
        raise ConfigError(f"{path}.solver: {kind} has no analytic solver")
    return ClusterConfig(kind=kind, params=params, k=k, grid=grid, solver=solver)


def _parse_lags(raw, path: str) -> tuple[float, ...]:
    if isinstance(raw, list):
        lags = [_as_float(v, f"{path}[{i}]") for i, v in enumerate(raw)]
    elif isinstance(raw, dict):
        start = _as_float(_need(raw, "start", path), f"{path}.start")
        stop = _as_float(_need(raw, "stop", path), f"{path}.stop")
        step = _as_float(_need(raw, "step", path), f"{path}.step")
        if step <= 0 or stop < start:
            raise ConfigError(f"{path}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        lags = [start + i * step for i in range(count)]
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop/step object")
    if not lags:
        raise ConfigError(f"{path}: must not be empty")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ConfigError(f"{path}: must increase strictly")
    return tuple(lags)


def _parse_mc(raw, path: str) -> McConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be an object")
    n_paths = _as_int(_need(raw, "n_paths", path), f"{path}.n_paths")
    dt = _as_float(_need(raw, "dt", path), f"{path}.dt")
    epsilon = _as_float(_need(raw, "epsilon", path), f"{path}.epsilon")
    horizon = _as_float(_need(raw, "horizon", path), f"{path}.horizon")
    seed = raw.get("seed")
    if seed is not None:
        seed = _as_int(seed, f"{path}.seed")
    for name, val in (("n_paths", n_paths), ("dt", dt), ("epsilon", epsilon), ("horizon", horizon)):
        if val <= 0:
            raise ConfigError(f"{path}.{name}: must be positive")
    return McConfig(n_paths, dt, seed, epsilon, horizon)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    system = _need(raw, "system", "top level")
    if not isinstance(system, dict):
        raise ConfigError("system: must be an object")
    clusters_raw = _need(system, "clusters", "system")
    if not isinstance(clusters_raw, list) or not clusters_raw:
        raise ConfigError("system.clusters: expected a non-empty list")
    clusters = tuple(
        _parse_cluster(c, f"system.clusters[{i}]") for i, c in enumerate(clusters_raw)
    )
    state_raw = _need(raw, "state", "top level")
    if not isinstance(state_raw, dict):
        raise ConfigError("state: must be an object")
    terms_raw = _need(state_raw, "terms", "state")
    if not isinstance(terms_raw, list) or not terms_raw:
        raise ConfigError("state.terms: expected a non-empty list")
    terms = []
    for i, t in enumerate(terms_raw):
        if not isinstance(t, dict):
            raise ConfigError(f"state.terms[{i}]: must be an object")
        coeff = _as_float(_need(t, "coefficient", f"state.terms[{i}]"), f"state.terms[{i}].coefficient")
        if coeff == 0.0:
            raise ConfigError(f"state.terms[{i}].coefficient: must be non-zero")
        idx = _need(t, "indices", f"state.terms[{i}]")
        if not isinstance(idx, list) or len(idx) != len(clusters):
            raise ConfigError(
                f"state.terms[{i}].indices: expected {len(clusters)} indices"
            )
        terms.append((coeff, tuple(_as_int(v, f"state.terms[{i}].indices[{j}]") for j, v in enumerate(idx))))
    observables = raw.get("observables", [])
    if not isinstance(observables, list):
        raise ConfigError("observables: must be a list")
    for i, o in enumerate(observables):
        _need_kind(o, f"observables[{i}]")
    lags = _parse_lags(raw["lags"], "lags") if "lags" in raw else ()
    mc = _parse_mc(raw["mc"], "mc") if "mc" in raw else None
    chsh_obs = None
    chsh_times = None
    if "chsh" in raw:
        chsh = raw["chsh"]
        if not isinstance(chsh, dict):
            raise ConfigError("chsh: must be an object")
        chsh_obs = chsh.get("observable")
        if chsh_obs is not None:
            _need_kind(chsh_obs, "chsh.observable")
        times = chsh.get("times")
        if times is not None:
            if not isinstance(times, list) or len(times) != 4:
                raise ConfigError("chsh.times: expected 4 numbers [t1, t2, s1, s2]")
            chsh_times = tuple(_as_float(v, f"chsh.times[{i}]") for i, v in enumerate(times))
    eps_eps: tuple[float, ...] = ()
    eps_lag = None
    if "eps_study" in raw:
        es_raw = raw["eps_study"]
        if not isinstance(es_raw, dict):
            raise ConfigError("eps_study: must be an object")
        eps_list = _need(es_raw, "epsilons", "eps_study")
        if not isinstance(eps_list, list) or not eps_list:
            raise ConfigError("eps_study.epsilons: expected a non-empty list")
        eps_eps = tuple(_as_float(v, f"eps_study.epsilons[{i}]") for i, v in enumerate(eps_list))
        if eps_eps[-1] <= 0 or any(b >= a for a, b in zip(eps_eps, eps_eps[1:])):
            raise ConfigError("eps_study.epsilons: must be positive and decrease strictly")
        eps_lag = _as_float(_need(es_raw, "lag", "eps_study"), "eps_study.lag")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: must be an object")
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
        output_path=output.get("path"),
    )


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

def build_cluster(cfg: ClusterConfig, path: str) -> EigenSystem:
    """Solve one cluster; a rejected parameter exits as a config error at ``path``."""
    try:
        if cfg.kind == "harmonic":
            pot = HarmonicPotential(**cfg.params)
        elif cfg.kind == "infinite_well":
            pot = InfiniteWellPotential(**cfg.params)
        elif cfg.kind == "double_well":
            pot = DoubleWellPotential(**cfg.params)
        else:
            pot = TabulatedPotential(cfg.grid, np.asarray(cfg.params["values"]))
        grid = cfg.grid or default_grid(pot)
        if cfg.k > grid.n - 2:
            raise ConfigError(f"{path}.k: {cfg.k} exceeds the {grid.n - 2} interior grid points")
        if cfg.solver == "analytic":
            if cfg.kind == "harmonic":
                return harmonic_eigensystem(pot.omega, cfg.k, grid)
            return box_eigensystem(pot.half_width, cfg.k, grid)
        return solve_eigensystem(pot, grid, cfg.k)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_state(cfg: RunConfig) -> CompositeState:
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
        return Observable(kind, cluster)
    if kind == "indicator":
        return Observable(
            "indicator",
            cluster,
            a=_as_float(_need(raw, "a", path), f"{path}.a"),
            b=_as_float(_need(raw, "b", path), f"{path}.b"),
        )
    if kind == "tabulated":
        es = cluster_systems[cluster]
        values = _need(raw, "values", path)
        if not isinstance(values, list) or len(values) != es.grid.n:
            raise ConfigError(
                f"{path}.values: expected {es.grid.n} samples on the cluster grid"
            )
        return Observable(
            "tabulated", cluster, samples=np.asarray(values, dtype=float), grid=es.grid
        )
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
