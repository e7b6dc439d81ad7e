"""Spans around the package's layers, recorded from outside the package.

Every public function defined in a layer module is replaced, while tracing
is on, by a wrapper in each stochmech module that holds a reference to it
(``nelson_sde.density`` as well as ``states.density``), and
``DriftChannel.__call__`` is wrapped on its class.  Spans stay in memory
with parent ids and are written out when the run ends.  Nothing in the
package itself changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "cli", "config", "spectral", "states", "channels",
    "correlators", "nelson_sde", "bell", "serialize",
)
DRIFT_EVAL = "nelson_sde.drift_eval"  # DriftChannel.__call__
EIGENSOLVERS = {
    "spectral.harmonic_eigensystem", "spectral.box_eigensystem", "spectral.solve_eigensystem",
}


def _file_bytes(path) -> dict:
    return {"bytes": Path(path).stat().st_size}


def _ensemble_counts(args, kwargs, ens) -> dict:
    drift = args[0] if args else kwargs["drift"]
    n_steps = round(float(ens.t_grid[-1]) / ens.dt)
    n_channels = ens.positions.shape[2]
    nodal = [c for c, ch in enumerate(drift.channels) if ch.patches]
    return {
        "path_steps": ens.n_paths * n_steps,
        "clamped": ens.clamp_rate * ens.n_paths * n_steps * n_channels,
        "channel_steps": ens.n_paths * n_steps * n_channels,
        "crossed": sum(ens.sign_change_fraction[c] for c in nodal) * ens.n_paths,
        "nodal_paths": len(nodal) * ens.n_paths,
        "ensemble_bytes": ens.positions.nbytes,
    }


# per-span counts, taken from the arguments and the result after the span closes
HOOKS = {
    DRIFT_EVAL: lambda a, k, out: {"points": int(np.size(out))},
    "states.density": lambda a, k, out: {"points": int(np.size(out))},
    "nelson_sde.sample_stationary": lambda a, k, out: {"accepted": int(out.shape[0])},
    "nelson_sde.simulate_ensemble": _ensemble_counts,
    "correlators.nelson_mode_expansion": lambda a, k, out: {
        "modes": len(out.rates), "tail": float(out.truncation_tail),
    },
    "bell.classical_realizability": lambda a, k, out: {"feasible": int(out.feasible)},
    "serialize.write_csv": lambda a, k, out: _file_bytes(a[0] if a else k["path"]),
    "serialize.write_json": lambda a, k, out: _file_bytes(a[0] if a else k["path"]),
    "serialize.write_sidecar": lambda a, k, out: _file_bytes(
        str(a[0] if a else k["data_path"]) + ".meta.json"
    ),
}


class Tracer:
    """Patches the layers on ``start`` and restores them on ``stop``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0_ns, t1_ns, counts)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, None)
            if hook is not None:
                spans[sid] = (sid, parent, name, t0, t1, hook(args, kwargs, out))
            return out

        return traced

    def start(self) -> None:
        package = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "stochmech"}
        wrappers = {}
        for layer in LAYERS:
            mod = package[f"stochmech.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        drift_channel = package["stochmech.nelson_sde"].DriftChannel
        self._undo.append((drift_channel, "__call__", drift_channel.__call__))
        drift_channel.__call__ = self._wrap(DRIFT_EVAL, drift_channel.__call__)

    def stop(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)


def layer_metrics(spans: list[tuple], traced_wall_s: float, passes: int) -> dict[str, float]:
    """Per-pass layer numbers from the spans of ``passes`` traced passes."""
    total_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    names = [s[2] for s in spans]
    in_eigen = [False] * len(spans)
    child_s = [0.0] * len(spans)
    top_s = 0.0
    eigen_s = 0.0
    for sid, parent, name, t0, t1, info in spans:
        dur = (t1 - t0) * 1e-9
        total_s[name] += dur
        calls[name] += 1
        if parent >= 0:
            child_s[parent] += dur
        else:
            top_s += dur
        in_eigen[sid] = name in EIGENSOLVERS or (parent >= 0 and in_eigen[parent])
        if name in EIGENSOLVERS and not (parent >= 0 and in_eigen[parent]):
            eigen_s += dur
        for key, value in (info or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "states.density" and parent >= 0 and names[parent] == "nelson_sde.sample_stationary":
            counts["sampler.points"] += info["points"]
    for sid, parent, name, t0, t1, _ in spans:
        self_s[name] += (t1 - t0) * 1e-9 - child_s[sid]

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / passes
    m = {}
    for fn in (
        "nelson_sde.simulate_ensemble", "nelson_sde.sample_stationary",
        "nelson_sde.regularized_drift", "nelson_sde.stationarity_distance",
        "nelson_sde.estimate_two_time", "states.density", "states.marginal_density",
        "spectral.find_nodes", "spectral.interval_dirichlet_modes", "channels.decompose",
        "correlators.nelson_mode_expansion", "correlators.qm_two_time_series",
        "bell.classical_realizability", "bell.run_chsh", "config.load_config",
        "config.build_state", "serialize.write_csv", "serialize.write_json",
        "serialize.write_sidecar", DRIFT_EVAL,
    ):
        m[f"{fn}.s"] = total_s[fn] * per
        m[f"{fn}.calls"] = calls[fn] * per
    m["nelson_sde.simulate_ensemble.self_s"] = self_s["nelson_sde.simulate_ensemble"] * per
    m["cli.main.self_s"] = self_s["cli.main"] * per
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per * sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        )
    sim = "nelson_sde.simulate_ensemble"
    m["spectral.eigensolve.s"] = eigen_s * per
    m["nelson_sde.path_steps"] = counts[f"{sim}.path_steps"] * per
    m["nelson_sde.step_ns_per_path_step"] = 1e9 * ratio(total_s[sim], counts[f"{sim}.path_steps"])
    m["nelson_sde.clamp_rate"] = ratio(counts[f"{sim}.clamped"], counts[f"{sim}.channel_steps"])
    m["nelson_sde.node_cross_frac"] = ratio(counts[f"{sim}.crossed"], counts[f"{sim}.nodal_paths"])
    m["nelson_sde.ensemble_mb"] = ratio(counts[f"{sim}.ensemble_bytes"], calls[sim]) / 1e6
    m[f"{DRIFT_EVAL}.ns_per_point"] = 1e9 * ratio(total_s[DRIFT_EVAL], counts[f"{DRIFT_EVAL}.points"])
    m["nelson_sde.sample_acceptance"] = ratio(
        counts["nelson_sde.sample_stationary.accepted"], counts["sampler.points"]
    )
    m["states.density.points"] = counts["states.density.points"] * per
    m["correlators.modes"] = ratio(
        counts["correlators.nelson_mode_expansion.modes"], calls["correlators.nelson_mode_expansion"]
    )
    m["correlators.truncation_tail"] = max(
        (s[5]["tail"] for s in spans if s[2] == "correlators.nelson_mode_expansion"), default=0.0
    )
    m["bell.feasible_frac"] = ratio(
        counts["bell.classical_realizability.feasible"], calls["bell.classical_realizability"]
    )
    m["serialize.bytes"] = per * sum(
        counts[f"serialize.{w}.bytes"] for w in ("write_csv", "write_json", "write_sidecar")
    )
    m["trace.uncovered_frac"] = ratio(traced_wall_s - top_s, traced_wall_s)
    return m
