"""Command-line front end.

Subcommands (all driven by one JSON config, see config.py / README) and
the files each writes, OUT being the --out path:

    qm-corr    quantum two-time correlation series -> OUT (CSV)
    compare    QM / Bohm / Nelson-spectral table -> OUT (CSV), OUT.summary.json
    nelson-mc  regularized Euler-Maruyama estimates -> OUT (CSV), OUT.diag.json,
               and the raw paths at --dump-paths when given
    chsh       CHSH report for the antisymmetric pair state -> OUT, CSV or JSON
               with output.format "json" (the others write CSV only); needs
               an even potential on a symmetric grid, whose pair the solver
               tags even and odd
    eps-study  patch-width convergence table -> OUT (CSV)
    eigen      eigenfunction samples -> OUT (CSV: x, psi_0 ... psi_{k-1})

A lag or time names the stored step that nelson_sde.step_count gives it,
the rule the config check uses.

Every successful run also writes the sidecar OUT.meta.json.  ``main``
resolves all of these names into one table before any work, and the
commands write to the table's paths.  A directory, a missing parent
directory, a name the file system refuses (too long, a NUL byte) or a file
or directory the process may not write exits 2 naming ``--out`` or
``--dump-paths``; so does a name that another one of
the run's names or the config file already takes, naming the later field.

Exit codes: 0 success, 2 configuration problem, 3 numeric backend error,
4 diagnostics threshold exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import bell, nelson_sde, serialize
from .config import RunConfig, build_cluster, build_observable, build_state, load_config
from .correlators import compare_theories, qm_two_time_series
from .errors import ConfigError, ParameterError, StepSizeError, StochMechError
from .states import CompositeState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DIAGNOSTIC = 4


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmech",
        description="Multi-time position correlations: quantum mechanics vs "
        "Bohm and Nelson trajectory theories, plus CHSH realizability tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("qm-corr", "quantum two-time correlation series"),
        ("compare", "three-theory comparison table"),
        ("nelson-mc", "Monte Carlo estimates with error bars and diagnostics"),
        ("chsh", "CHSH correlations, S value, classical realizability"),
        ("eps-study", "patch-width convergence study"),
        ("eigen", "export eigenfunction samples"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="path of the data file")
        if name in ("nelson-mc", "eps-study"):
            p.add_argument("--seed", type=int, default=None, help="override the MC seed")
        if name == "eigen":
            p.add_argument("--cluster", type=int, default=0, help="cluster to export")
        if name == "nelson-mc":
            p.add_argument(
                "--dump-paths",
                default=None,
                metavar="PATH",
                help="also write raw paths (one per line, space-separated "
                "positions, time-major); large files",
            )
    return parser


# the file a subcommand writes next to its data file besides the sidecar:
# its role in the run's table of files, and the suffix of its name
_SIDE_FILES = {"compare": ("summary", ".summary.json"), "nelson-mc": ("diag", ".diag.json")}


def _writable(path, field: str) -> Path:
    """The output path, rejected before any work if no file can be written
    there: a directory, a name the file system refuses (too long, a NUL
    byte), a missing parent directory, an existing file the process may not
    write, or a new name in a directory it may not write."""
    path = Path(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:  # the parent checks below decide
        mode = 0
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if stat.S_ISDIR(mode):
        raise ConfigError(f"{field}: {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{field}: directory {path.parent} does not exist")
    if mode and not os.access(path, os.W_OK):
        raise ConfigError(f"{field}: {path} is not writable")
    if not mode and not os.access(path.parent, os.W_OK | os.X_OK):
        raise ConfigError(f"{field}: directory {path.parent} is not writable")
    return path


def _run_files(args) -> dict[str, Path]:
    """Every file the run writes, by role: "data" (--out), "sidecar", the
    subcommand's side file ("summary" or "diag") and "dump" (--dump-paths),
    each checked by _writable before any work.

    Names are compared with symbolic links resolved (os.path.realpath): one
    that the config file or an earlier name of the table takes is rejected,
    naming its own field.
    """
    data = Path(args.out)
    rows = [("data", "--out", data), ("sidecar", "--out", f"{data}{serialize.SIDECAR_SUFFIX}")]
    if args.command in _SIDE_FILES:
        role, suffix = _SIDE_FILES[args.command]
        rows.append((role, "--out", f"{data}{suffix}"))
    if getattr(args, "dump_paths", None) is not None:
        rows.append(("dump", "--dump-paths", args.dump_paths))
    files = {}
    taken = {os.path.realpath(args.config): "the config file (--config)"}
    for role, field, name in rows:
        files[role] = _writable(name, field)
        key = os.path.realpath(name)
        if key in taken:
            raise ConfigError(f"{field}: {name} is {taken[key]}")
        taken[key] = f"the run's {role} file ({field})"
    return files


def _two_observables(cfg: RunConfig, state: CompositeState):
    if not cfg.observables:
        raise ConfigError("observables: at least one observable is required")
    f = build_observable(cfg.observables[0], state.clusters, 0, "observables[0]")
    if len(cfg.observables) >= 2:
        g = build_observable(cfg.observables[1], state.clusters, 1, "observables[1]")
    else:
        g = f
    return f, g


def _qm_observables(cfg: RunConfig, state: CompositeState):
    f, g = _two_observables(cfg, state)
    if f.cluster == g.cluster:  # one cluster's positions at two times do not commute
        raise ConfigError(f"observables: both address cluster {f.cluster}; need two clusters")
    return f, g


def _require_lags(cfg: RunConfig):
    if not cfg.lags:
        raise ConfigError("lags: required for this subcommand")
    return cfg.lags


def cmd_qm_corr(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    state = build_state(cfg)
    f, g = _qm_observables(cfg, state)
    lags = _require_lags(cfg)
    series = qm_two_time_series(state, f, g, lags)
    serialize.write_csv(
        files["data"], ["lag", "value", "method"],
        ((lag, val, "qm") for lag, val in zip(series.lags, series.values)),
    )


def cmd_compare(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    state = build_state(cfg)
    f, g = _qm_observables(cfg, state)
    lags = _require_lags(cfg)
    result = compare_theories(state, f, g, lags)
    header = ["lag", "qm", "bohm"]
    columns = [result.qm.lags, result.qm.values, result.bohm.values]
    if result.nelson is None:
        print(
            f"warning: Nelson spectral backend unavailable: {result.nelson_warning}",
            file=sys.stderr,
        )
    else:
        header.append("nelson")
        columns.append(result.nelson.values)
    serialize.write_csv(files["data"], header, zip(*columns))
    expansion = result.nelson_expansion
    summary = {
        "equal_time_agreement": result.equal_time_max_dev,
        "max_abs_dev_qm_bohm": result.max_abs_dev_qm_bohm,
        "max_abs_dev_qm_nelson": result.max_abs_dev_qm_nelson,
        "nelson_modes": None if expansion is None else len(expansion.rates),
        "nelson_truncation_tail": None if expansion is None else expansion.truncation_tail,
    }
    serialize.write_json(files["summary"], summary)


def _mc_plan(cfg: RunConfig, args, *required):
    """The mc block, holding each field named in ``required``, and the seed."""
    if cfg.mc is None:
        raise ConfigError("mc: required for stochastic subcommands")
    for name in required:
        if getattr(cfg.mc, name) is None:
            raise ConfigError(f"mc: missing required field '{name}'")
    seed = args.seed if args.seed is not None else cfg.mc.seed
    if seed is None:
        raise ConfigError("mc.seed: required for stochastic subcommands (or pass --seed)")
    return cfg.mc, int(seed)


def _n_steps(value: float, dt: float, path: str) -> int:
    try:
        return nelson_sde.step_count(value, dt, "mc.dt")
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _checked_drift(state: CompositeState, epsilon: float, path: str):
    """Regularized drift; an epsilon the state's nodes rule out is a config error."""
    try:
        return nelson_sde.regularized_drift(state, epsilon)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_nelson_mc(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    mc, seed = _mc_plan(cfg, args, "epsilon", "horizon")
    state = build_state(cfg)
    f, g = _two_observables(cfg, state)
    lags = _require_lags(cfg)
    # the stored times, as simulate_ensemble counts them: a lag lies within
    # the horizon when its step count does
    lag_steps = [_n_steps(lag, mc.dt, "lags") for lag in lags]
    horizon = _n_steps(mc.horizon, mc.dt, "mc.horizon")
    for lag, k in zip(lags, lag_steps):
        if k > horizon:
            raise ConfigError(f"lags: {lag} is outside [0, mc.horizon={mc.horizon}]")
    steps = {0, horizon, *lag_steps}
    try:
        nelson_sde.check_ensemble_size(mc.n_paths, len(steps), state.n_clusters)
    except ParameterError as exc:
        raise ConfigError(f"mc.n_paths: {exc}") from exc
    drift = _checked_drift(state, mc.epsilon, "mc.epsilon")
    init = nelson_sde.sample_stationary(state, mc.n_paths, seed)
    ensemble = nelson_sde.simulate_ensemble(drift, init, mc.dt, [*lags, mc.horizon], seed)
    rows = []
    for lag in lags:
        value, stderr = nelson_sde.estimate_two_time(ensemble, f, g, lag, 0.0)
        rows.append([lag, value, stderr])
    serialize.write_csv(files["data"], ["lag", "estimate", "stderr"], rows)
    ks = {
        serialize.fmt(float(t)): list(stats)
        for t, stats in zip(ensemble.t_grid, nelson_sde.stationarity_distances(ensemble, state))
    }
    diagnostics = {
        "ks_stats": ks,
        "clamp_rate": ensemble.clamp_rate,
        "sign_change_fraction": list(ensemble.sign_change_fraction),
    }
    serialize.write_json(files["diag"], diagnostics)
    if "dump" in files:
        nelson_sde.dump_paths(ensemble, files["dump"])


def cmd_chsh(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    es = build_cluster(cfg.clusters[0], "system.clusters[0]")
    if es.k < 2:
        raise ConfigError("system.clusters[0].k: chsh needs at least 2 eigenstates")
    # the pair's parity is the solver's tag, set only on a symmetric grid
    if not es.grid.symmetric:
        raise ConfigError(
            f"system.clusters[0].grid: chsh needs a grid symmetric about 0, got "
            f"[{es.grid.x_min}, {es.grid.x_max}]"
        )
    if [psi.parity for psi in es.eigenfunctions[:2]] != ["even", "odd"]:
        raise ConfigError(
            "system.clusters[0]: chsh needs an even potential, whose lowest pair "
            "the solver tags even and odd"
        )
    # parse_config checked the observable against this grid
    f = build_observable(cfg.chsh_observable or {"kind": "sign"}, [es], 0, "chsh.observable")
    report = bell.run_chsh(es, f, cfg.chsh_times)
    if cfg.output_format == "csv":
        serialize.write_csv(
            files["data"], serialize.CHSH_CSV_HEADER, [serialize.chsh_report_csv_row(report)]
        )
    else:
        # a shallow dict: dataclasses.asdict would deep-copy every float for the same bytes
        fields = dataclasses.fields(report)
        serialize.write_json(files["data"], {fd.name: getattr(report, fd.name) for fd in fields})
    if not report.classical_feasible:
        print(f"VIOLATES: S = {report.S:.3f}, classical infeasible")
    else:
        print(f"NO VIOLATION: S = {report.S:.3f}, classical feasible")


def cmd_eps_study(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    mc, seed = _mc_plan(cfg, args)
    if not cfg.eps_study_epsilons or cfg.eps_study_lag is None:
        raise ConfigError("eps_study: epsilons and lag are required")
    if _n_steps(cfg.eps_study_lag, mc.dt, "eps_study.lag") < 1:
        raise ConfigError(f"eps_study.lag: must be at least one step of mc.dt={mc.dt}")
    state = build_state(cfg)
    f, g = _two_observables(cfg, state)
    # epsilons decrease, so the first one is the only one the nodes can rule out
    _checked_drift(state, cfg.eps_study_epsilons[0], "eps_study.epsilons[0]")
    rows = nelson_sde.epsilon_convergence_study(
        state, f, g, cfg.eps_study_lag, cfg.eps_study_epsilons,
        n_paths=mc.n_paths, dt=mc.dt, seed=seed,
    )
    serialize.write_csv(
        files["data"],
        ["epsilon", "value", "stderr", "spectral_ref", "abs_dev"],
        [[r.epsilon, r.value, r.stderr, r.spectral_ref, r.abs_dev] for r in rows],
    )


def cmd_eigen(cfg: RunConfig, args, files: dict[str, Path]) -> None:
    idx = args.cluster
    if not 0 <= idx < len(cfg.clusters):
        raise ConfigError(f"--cluster: no cluster {idx} in the config")
    es = build_cluster(cfg.clusters[idx], f"system.clusters[{idx}]")
    header = ["x"] + [f"psi_{i}" for i in range(es.k)]
    mat = np.column_stack([es.grid.points] + [f.values for f in es.eigenfunctions])
    serialize.write_csv(files["data"], header, mat.tolist())


_COMMANDS = {
    "qm-corr": cmd_qm_corr,
    "compare": cmd_compare,
    "nelson-mc": cmd_nelson_mc,
    "chsh": cmd_chsh,
    "eps-study": cmd_eps_study,
    "eigen": cmd_eigen,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if cfg.output_format != "csv" and args.command != "chsh":
            raise ConfigError(f"output.format: {args.command} writes CSV only")
        files = _run_files(args)
        _COMMANDS[args.command](cfg, args, files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepSizeError as exc:
        print(f"diagnostics: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except StochMechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    serialize.write_sidecar(files["data"], args.config, cfg.config_sha256, args.argv)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
