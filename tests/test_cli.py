import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochmech
from stochmech import bell, cli, nelson_sde, serialize
from stochmech.errors import NumericError
from stochmech.cli import main
from stochmech.config import MAX_PATHS, build_observable, build_state, parse_config
from stochmech.correlators import nelson_semigroup_correlation, qm_multitime_correlation

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def two_oscillator_config(**overrides):
    cfg = {
        "system": {"clusters": [
            {"kind": "harmonic", "omega": 1.0, "k": 2},
            {"kind": "harmonic", "omega": 1.0, "k": 2},
        ]},
        "state": {"terms": [
            {"coefficient": INV_SQRT2, "indices": [0, 1]},
            {"coefficient": INV_SQRT2, "indices": [1, 0]},
        ]},
        "observables": [
            {"kind": "position", "cluster": 0},
            {"kind": "position", "cluster": 1},
        ],
        "lags": {"start": 0.0, "stop": 2.0 * math.pi, "step": math.pi / 4.0},
        "output": {"format": "csv"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_qm_corr_table(tmp_path):
    cfg_path = write_config(tmp_path, two_oscillator_config())
    out = tmp_path / "qm.csv"
    argv = ["qm-corr", "--config", cfg_path, "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_rows(out)
    assert header == ["lag", "value", "method"]
    assert len(rows) == 9
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-9)
    assert rows[0][2] == "qm"
    # newline endings and full-precision floats
    raw = out.read_bytes()
    assert b"\r" not in raw
    # the sidecar records the command line given to main, not the interpreter's
    meta = json.loads((tmp_path / "qm.csv.meta.json").read_text())
    assert meta["argv"] == argv
    # and the versions of the packages the numbers came from
    assert meta["versions"] == {
        "stochmech": stochmech.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def test_sidecar_hashes_the_config_bytes_parsed(tmp_path, monkeypatch):
    # the config is gone once the run starts: the sidecar hashes what was parsed
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps(two_oscillator_config(), indent=1).encode() + b"\r\n")
    parsed = cfg_path.read_bytes()
    build = cli.build_state

    def build_after_removing_config(cfg):
        cfg_path.unlink()
        return build(cfg)

    monkeypatch.setattr(cli, "build_state", build_after_removing_config)
    out = tmp_path / "gone.csv"
    assert main(["qm-corr", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert not cfg_path.exists()
    meta = json.loads((tmp_path / "gone.csv.meta.json").read_text())
    assert meta["config_sha256"] == hashlib.sha256(parsed).hexdigest()
    assert meta["config_file"] == str(cfg_path)


def test_missing_state_block_exits_2(tmp_path, capsys):
    cfg = two_oscillator_config()
    del cfg["state"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["qm-corr", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "state" in capsys.readouterr().err


def _outputs(tmp_path, command, name, cfg):
    """Data bytes and stdout of one successful run of ``command`` on cfg."""
    out = tmp_path / f"{name}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        argv = [command, "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]
        assert main(argv) == 0
    return out.read_bytes(), stdout.getvalue()


def test_eps_study_needs_no_mc_epsilon_or_horizon(tmp_path):
    mc = {"n_paths": 200, "dt": 1e-3, "seed": 7}
    cfg = two_oscillator_config(
        mc=dict(mc, epsilon=1e-3, horizon=0.5), eps_study={"epsilons": [0.1, 0.03], "lag": 0.05}
    )
    full = _outputs(tmp_path, "eps-study", "full", cfg)
    assert _outputs(tmp_path, "eps-study", "trimmed", dict(cfg, mc=mc)) == full


@pytest.mark.parametrize("command", ["chsh", "eigen"])
def test_chsh_and_eigen_need_no_state(tmp_path, command):
    system = {"clusters": [{"kind": "infinite_well", "half_width": 1.0, "k": 2}]}
    state = {"terms": [{"coefficient": 1.0, "indices": [1]}]}
    full = _outputs(tmp_path, command, "full", {"system": system, "state": state})
    assert _outputs(tmp_path, command, "trimmed", {"system": system}) == full


@pytest.mark.parametrize("field", ["epsilon", "horizon"])
def test_nelson_mc_missing_mc_field_exit_2(tmp_path, capsys, field):
    cfg = two_oscillator_config(
        lags=[0.25], mc={"n_paths": 4, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
    )
    del cfg["mc"][field]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"mc: missing required field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "nelson-mc", "eps-study"])
def test_state_required_where_read_exit_2(tmp_path, capsys, command):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 4, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": [0.1], "lag": 0.25},
    )
    del cfg["state"]
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "top level: missing required field 'state'" in capsys.readouterr().err


def test_empty_lags_exit_2(tmp_path):
    cfg = two_oscillator_config(lags=[])
    cfg_path = write_config(tmp_path, cfg)
    assert main(["qm-corr", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("cluster", [5, "1"])
def test_bad_observable_cluster_exit_2(tmp_path, capsys, cluster):
    cfg = two_oscillator_config()
    cfg["observables"][0]["cluster"] = cluster
    cfg_path = write_config(tmp_path, cfg)
    assert main(["qm-corr", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "observables[0].cluster" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["qm-corr", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2


def test_write_csv_streams_its_rows(tmp_path):
    # rows are formatted serialize.CSV_BLOCK at a time, so memory does not
    # grow with the rows: 515 KB peak at 1e5 and at 2e5 rows, where holding
    # every line took 13 MB and 26 MB
    n = 10**5
    lags = np.arange(n, dtype=float)
    values = lags * 0.1
    tracemalloc.start()
    try:
        serialize.write_csv(tmp_path / "big.csv", ["lag", "value", "method"], [lags, values, "qm"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    lines = (tmp_path / "big.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    assert lines[:3] == ["lag,value,method", "0,0,qm", "1,0.10000000000000001,qm"]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_csv_writes_each_value_as_format_17g(tmp_path, extra):
    # rows just short of, at and just past one block: special values, whole
    # numbers and random bit patterns, and a string column on every row
    n = serialize.CSV_BLOCK + extra
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
               2.2250738585072014e-308, 1e16, 1e17, 0.1, 3.0, -12.0]
    first = np.resize(special, n)
    bits = np.frombuffer(np.random.default_rng(34).bytes(8 * n), dtype=float)
    path = tmp_path / "t.csv"
    serialize.write_csv(path, ["a", "b", "method"], [first, bits, "qm"])
    expected = [
        ",".join([format(x, ".17g"), format(y, ".17g"), "qm"])
        for x, y in zip(first.tolist(), bits.tolist())
    ]
    assert path.read_text().split("\n") == ["a,b,method", *expected, ""]


@pytest.mark.parametrize("feasible", [True, False])
def test_chsh_csv_row(tmp_path, feasible):
    corr = ((0.25, -0.5), (0.1, 1.0 / 3.0))
    s = 0.25 + 1.0 / 3.0 + 0.1 - -0.5
    report = bell.ChshReport(
        alpha=0.5, omega=1.0, times=(0.0, 1.0, 2.0, 3.0), correlations=corr,
        marginals=(0.0, 0.0, 0.0, 0.0), S=s, classical_feasible=feasible,
    )
    path = tmp_path / "chsh.csv"
    serialize.write_csv(path, serialize.CHSH_CSV_HEADER, serialize.chsh_report_csv_columns(report))
    values = [0.5, 1.0, 0.0, 1.0, 2.0, 3.0, 0.25, -0.5, 0.1, 1.0 / 3.0, s]
    row = ",".join(format(v, ".17g") for v in values) + "," + str(feasible).lower()
    assert path.read_text() == ",".join(serialize.CHSH_CSV_HEADER) + "\n" + row + "\n"


def test_compare_two_oscillators(tmp_path):
    cfg_path = write_config(tmp_path, two_oscillator_config())
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["lag", "qm", "bohm", "nelson"]
    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
    assert summary["equal_time_agreement"] < 1e-6
    assert summary["max_abs_dev_qm_bohm"] > 0.1
    assert summary["max_abs_dev_qm_nelson"] > 0.1
    # closed-form series: MODE_CAP = 200 modes on the excited channel, one
    # on the ground channel, one rate-0 product of means
    assert summary["nelson_modes"] == 202
    assert 0.0 < summary["nelson_truncation_tail"] < 1e-6


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # the parser is built once per process; a rejected argv leaves it usable
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["qm-corr", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    cfg_path = write_config(tmp_path, two_oscillator_config())
    qm, cmp = tmp_path / "qm.csv", tmp_path / "cmp.csv"
    assert main(["qm-corr", "--config", cfg_path, "--out", str(qm)]) == 0
    header, rows = read_rows(qm)
    assert header == ["lag", "value", "method"]
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-9)
    assert main(["compare", "--config", cfg_path, "--out", str(cmp)]) == 0
    header, rows = read_rows(cmp)
    assert header == ["lag", "qm", "bohm", "nelson"]
    assert len(rows) == 9
    assert json.loads((tmp_path / "cmp.csv.meta.json").read_text())["argv"][0] == "compare"
    assert not (tmp_path / "x.csv").exists()


def test_qm_columns_are_the_multitime_values(tmp_path, capsys):
    # the double-well exchange pair: qm-corr's value and compare's qm column
    # are qm_multitime_correlation at [lag, 0.0], to the last bit
    well = {"kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0, "k": 2,
            "grid": {"x_min": -3.5, "x_max": 3.5, "n": 2001}}
    cfg = two_oscillator_config(
        system={"clusters": [well, well]},
        state={"terms": [{"coefficient": 0.6, "indices": [0, 1]},
                         {"coefficient": 0.8, "indices": [1, 0]}]},
        lags=[0.0, 0.5, 6.25, 100.0, 1000.0],
    )
    parsed = parse_config(cfg)
    state = build_state(parsed)
    f = build_observable(parsed.observables[0], state.clusters, 0)
    g = build_observable(parsed.observables[1], state.clusters, 1)
    expected = [qm_multitime_correlation(state, [f, g], [lag, 0.0]) for lag in parsed.lags]
    cfg_path = write_config(tmp_path, cfg)
    for command, column in (("qm-corr", 1), ("compare", 1)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [float(row[column]) for row in rows] == expected
    # the rotated double-well pair has no spectral Nelson expansion
    assert "Nelson spectral backend unavailable" in capsys.readouterr().err


def test_compare_product_state(tmp_path):
    cfg = two_oscillator_config()
    cfg["state"] = {"terms": [{"coefficient": 1.0, "indices": [0, 0]}]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
    assert summary["max_abs_dev_qm_bohm"] < 1e-6
    assert summary["max_abs_dev_qm_nelson"] < 1e-6


def test_compare_unsupported_nelson_partial_output(tmp_path, capsys):
    cfg = two_oscillator_config()
    cfg["system"]["clusters"] = [
        {"kind": "infinite_well", "half_width": 1.0, "k": 2},
        {"kind": "infinite_well", "half_width": 1.0, "k": 2},
    ]
    cfg["state"]["terms"][1]["coefficient"] = -INV_SQRT2
    cfg["observables"] = [{"kind": "sign", "cluster": 0}, {"kind": "sign", "cluster": 1}]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    header, _ = read_rows(out)
    assert header == ["lag", "qm", "bohm"]
    assert "Nelson" in capsys.readouterr().err
    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
    assert summary["nelson_modes"] is None
    assert summary["nelson_truncation_tail"] is None


@pytest.fixture()
def mc_config(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.25, 0.5],
        mc={"n_paths": 3000, "dt": 1e-3, "seed": 424, "epsilon": 1e-3, "horizon": 0.5},
    )
    return write_config(tmp_path, cfg)


def test_nelson_mc_outputs_and_determinism(tmp_path, mc_config, capsys):
    out1 = tmp_path / "mc1.csv"
    out2 = tmp_path / "mc2.csv"
    assert main(["nelson-mc", "--config", mc_config, "--out", str(out1)]) == 0
    assert main(["nelson-mc", "--config", mc_config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    d1 = (tmp_path / "mc1.csv.diag.json").read_bytes()
    d2 = (tmp_path / "mc2.csv.diag.json").read_bytes()
    assert d1 == d2
    header, rows = read_rows(out1)
    assert header == ["lag", "estimate", "stderr"]
    assert len(rows) == 2
    diag = json.loads(d1)
    assert set(diag) == {"ks_stats", "clamp_rate", "sign_change_fraction"}
    assert diag["clamp_rate"] <= 0.01


@pytest.fixture()
def ensembles(monkeypatch):
    """Every ensemble the CLI simulates, kept for inspection."""
    kept = []
    simulate = nelson_sde.simulate_ensemble

    def keep(*args, **kwargs):
        kept.append(simulate(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(nelson_sde, "simulate_ensemble", keep)
    return kept


def test_nelson_mc_dump_paths(tmp_path, mc_config, ensembles):
    dump = tmp_path / "paths.txt"
    argv = ["nelson-mc", "--config", mc_config, "--out", str(tmp_path / "mc.csv")]
    assert main(argv + ["--dump-paths", str(dump)]) == 0
    (ens,) = ensembles
    n_paths, n_times, n_clusters = ens.positions.shape
    lines = dump.read_text().splitlines()
    assert len(lines) == n_paths
    assert all(len(line.split(" ")) == n_times * n_clusters for line in lines)
    parsed = np.array([[float(v) for v in line.split(" ")] for line in lines])
    assert np.array_equal(parsed, ens.positions.reshape(n_paths, -1))


@pytest.fixture()
def no_sampling(monkeypatch):
    """Fails the run if it gets as far as sampling the initial positions."""
    def fail(*args, **kwargs):
        raise AssertionError("sampled before the output paths were checked")

    monkeypatch.setattr(nelson_sde, "sample_stationary", fail)


@pytest.mark.parametrize("flag", ["--out", "--dump-paths"])
def test_nelson_mc_output_in_missing_directory_exit_2(tmp_path, capsys, mc_config, no_sampling, flag):
    paths = {"--out": str(tmp_path / "mc.csv"), "--dump-paths": str(tmp_path / "paths.txt")}
    paths[flag] = str(tmp_path / "missing" / "x.csv")
    argv = ["nelson-mc", "--config", mc_config]
    assert main(argv + [arg for pair in paths.items() for arg in pair]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: directory ") and "Traceback" not in err
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--dump-paths"])
@pytest.mark.parametrize("exists", [True, False])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, mc_config, no_sampling, flag, exists):
    # an existing file the process may not write, or a new name in a
    # directory it may not write: exit 2 before any work.  Tests run as
    # root, whom permission bits do not stop, so os.access is patched.
    locked_dir = tmp_path / "locked"
    locked_dir.mkdir()
    target = locked_dir / "target.txt"
    if exists:
        target.write_text("kept\n")
    denied = str(target) if exists else str(locked_dir)
    access = cli.os.access

    def deny(path, mode, *args, **kwargs):
        return False if str(path) == denied else access(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli.os, "access", deny)
    paths = {"--out": str(tmp_path / "mc.csv"), "--dump-paths": str(tmp_path / "paths.txt")}
    paths[flag] = str(target)
    argv = ["nelson-mc", "--config", mc_config]
    assert main(argv + [arg for pair in paths.items() for arg in pair]) == 2
    reason = f"{target} is not writable" if exists else f"directory {locked_dir} is not writable"
    assert capsys.readouterr().err == f"config error: {flag}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", "locked"])
    assert [p.name for p in locked_dir.iterdir()] == (["target.txt"] if exists else [])
    if exists:
        assert target.read_text() == "kept\n"


@pytest.mark.parametrize("field", ["--out"])
def test_output_is_a_directory_exit_2(tmp_path, capsys, field):
    argv = ["qm-corr", "--config", write_config(tmp_path, two_oscillator_config())]
    assert main(argv + [field, str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {field}: {tmp_path} is a directory\n"


@pytest.mark.parametrize("value", [5, ["a"], True, "o.csv"])
def test_output_path_is_not_a_field_exit_2(tmp_path, capsys, value):
    # the data file is named by --out alone
    cfg = two_oscillator_config()
    cfg["output"]["path"] = value
    argv = ["qm-corr", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: output.path: not a field; known fields: format\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _no_work(*args, **kwargs):
    raise AssertionError("work began before every output name was checked")


@pytest.mark.parametrize(
    "command, case, field",
    [
        ("qm-corr", "NUL byte", "--out"),
        ("qm-corr", "long data name", "--out"),
        ("qm-corr", "a file as its directory", "--out"),
        ("eigen", "long sidecar name", "--out"),
        ("chsh", ".meta.json", "--out"),
        ("compare", ".summary.json", "--out"),
        ("nelson-mc", ".diag.json", "--out"),
        ("nelson-mc", "long --dump-paths", "--dump-paths"),
        # an empty name is the working directory
        ("nelson-mc", "empty --out", "--out"),
        ("nelson-mc", "empty --dump-paths", "--dump-paths"),
        # a name another of the run's names, or the config, takes
        ("nelson-mc", "--dump-paths is the data file", "--dump-paths"),
        ("nelson-mc", "--dump-paths is o.csv.diag.json", "--dump-paths"),
        ("nelson-mc", "--dump-paths is o.csv.meta.json", "--dump-paths"),
        ("nelson-mc", "--dump-paths is the config", "--dump-paths"),
        ("qm-corr", "--out is the config", "--out"),
        # the same names reached through a symbolic link
        ("nelson-mc", "--dump-paths is the data file through link -> .", "--dump-paths"),
        ("nelson-mc", "--out is a link to the config", "--out"),
    ],
)
def test_unusable_output_name_exit_2_before_work(tmp_path, capsys, monkeypatch, command, case, field):
    monkeypatch.setattr(cli, "build_state", _no_work)
    monkeypatch.setattr(cli, "build_cluster", _no_work)
    monkeypatch.setattr(nelson_sde, "sample_stationary", _no_work)
    cfg, out, extra = small_config(), tmp_path / "o.csv", []
    if " is " in case:  # the files of an earlier run must survive too
        for name in ("o.csv", "o.csv.diag.json", "o.csv.meta.json"):
            (tmp_path / name).write_text(f"earlier {name}\n")
    if case == "NUL byte":
        out = tmp_path / "o\0.csv"
    elif case == "long data name":  # past the usual 255-byte limit on one name
        out = tmp_path / ("a" * 296 + ".csv")
    elif case == "long sidecar name":  # 250 characters fit, 260 with .meta.json do not
        out = tmp_path / ("a" * 246 + ".csv")
    elif case == "a file as its directory":
        out = tmp_path / "config.json" / "o.csv"
    elif case.startswith("empty"):
        monkeypatch.chdir(tmp_path)
        if case == "empty --out":
            out = ""
        else:
            extra = ["--dump-paths", ""]
    elif case == "long --dump-paths":
        extra = ["--dump-paths", str(tmp_path / ("p" * 300))]
    elif case == "--dump-paths is the data file":
        extra = ["--dump-paths", str(out)]
    elif case == "--dump-paths is the data file through link -> .":
        (tmp_path / "link").symlink_to(".")
        extra = ["--dump-paths", str(tmp_path / "link" / "o.csv")]
    elif case.startswith("--dump-paths is o.csv"):
        extra = ["--dump-paths", str(tmp_path / case.split()[-1])]
    elif case == "--dump-paths is the config":
        extra = ["--dump-paths", str(tmp_path / "config.json")]
    elif case == "--out is the config":
        out = tmp_path / "config.json"
    elif case == "--out is a link to the config":
        out = tmp_path / "to-config.csv"
        out.symlink_to("config.json")
    else:  # a directory holds the name of a side file
        (tmp_path / ("o.csv" + case)).mkdir()
    argv = [command, "--config", write_config(tmp_path, cfg), *extra, "--out", str(out)]
    before = _snapshot(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    if case.startswith("empty"):
        assert err == f"config error: {field}: . is a directory\n"
    assert _snapshot(tmp_path) == before


def _snapshot(directory):
    """Every entry of a directory: a file's bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def test_config_error_after_output_check_leaves_no_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    assert main(["eigen", "--config", cfg_path, "--out", str(tmp_path / "x.csv"), "--cluster", "5"]) == 2
    assert capsys.readouterr().err == "config error: --cluster: no cluster 5 in the config\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _two_oscillator_without(key, **overrides):
    cfg = two_oscillator_config(**overrides)
    del cfg[key]
    return cfg


@pytest.mark.parametrize(
    "command, cfg, extra, message",
    [
        ("compare", _two_oscillator_without("observables"), [],
         "observables: at least one observable is required"),
        ("qm-corr", _two_oscillator_without("lags"), [], "lags: required for this subcommand"),
        ("nelson-mc", two_oscillator_config(lags=[0.5]), ["--seed", "1"],
         "mc: required for stochastic subcommands"),
        ("chsh", {"system": {"clusters": [{"kind": "harmonic", "omega": 1.0, "k": 1}]}}, [],
         "system.clusters[0].k: chsh needs at least 2 eigenstates"),
        ("eps-study", two_oscillator_config(mc={"n_paths": 4, "dt": 1e-3, "seed": 1}), [],
         "eps_study: epsilons and lag are required"),
        ("eigen", {"system": {"clusters": [{"kind": "tabulated", "k": 1, "values": [0.0] * 5}]}}, [],
         "system.clusters[0].grid: required for tabulated potentials"),
        ("qm-corr", two_oscillator_config(lags=[0.5, 0.2]), [], "lags: must increase strictly"),
    ],
    ids=["no-observables", "no-lags", "no-mc", "chsh-k-1", "no-eps-study", "tabulated-no-grid",
         "decreasing-lags"],
)
def test_missing_or_unusable_field_exit_2(tmp_path, capsys, command, cfg, extra, message):
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv"), *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("case", ["a directory", "not UTF-8"])
def test_unreadable_config_exit_2(tmp_path, capsys, case):
    if case == "a directory":
        cfg_path = tmp_path
    else:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(json.dumps(two_oscillator_config()).encode("utf-16"))
    assert main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {cfg_path} cannot be read: ")


def test_nelson_mc_seed_override_changes_bytes(tmp_path, mc_config):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["nelson-mc", "--config", mc_config, "--out", str(out1)]) == 0
    assert main(["nelson-mc", "--config", mc_config, "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_nelson_mc_dt_zero_exit_2(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 0.0, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2


def test_nelson_mc_missing_seed_exit_2(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 1e-3, "epsilon": 1e-3, "horizon": 0.5},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2


def test_nelson_mc_off_grid_lag_exit_2(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.1234567],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "field",
    [
        "system.clusters[1]", "system.clusters[0].k", "state.terms",
        "system.clusters[1].solver", "observables[1].b",
    ],
)
def test_rejected_while_building_exit_2(tmp_path, capsys, field):
    cfg = two_oscillator_config()
    if field == "system.clusters[1].solver":  # the kind alone decides the solver
        cfg["system"]["clusters"][1]["solver"] = "fd"
    elif field == "observables[1].b":
        cfg["observables"][1] = {"kind": "indicator", "cluster": 1, "a": 0.5, "b": 0.0}
    elif field == "state.terms":
        cfg["state"]["terms"][0]["indices"] = [0, 5]  # only 2 states solved
    elif field == "system.clusters[0].k":  # more states than the 2000-point grid holds
        cfg["system"]["clusters"][0]["k"] = 10**6
    else:  # narrower than the +/-8 sigma a harmonic grid needs
        cfg["system"]["clusters"][1]["grid"] = {"x_min": -5.0, "x_max": 5.0, "n": 1001}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["qm-corr", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{field}:" in capsys.readouterr().err


def test_nelson_mc_epsilon_beyond_nodes_exit_2(tmp_path, capsys):
    # the first-excited channel's node sits 10 from either grid edge
    wide = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 6.0, "horizon": 0.5},
    )
    # at the off-centre nodes of the double well's second excited state a
    # patch this wide cannot match both sides to C1
    double_well = dict(
        wide,
        system={"clusters": [{
            "kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0, "k": 3,
            "grid": {"x_min": -3.5, "x_max": 3.5, "n": 2000},
        }]},
        state={"terms": [{"coefficient": 1.0, "indices": [2]}]},
        observables=[{"kind": "position", "cluster": 0}],
        mc=dict(wide["mc"], epsilon=1e-3),
    )
    for cfg in (wide, double_well):
        cfg_path = write_config(tmp_path, cfg)
        assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "mc.epsilon:" in capsys.readouterr().err


def _single_cluster_mc_config(cluster, index):
    return {
        "system": {"clusters": [cluster]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [index]}]},
        "observables": [{"kind": "position", "cluster": 0}],
        "lags": [0.25],
        "mc": {"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
    }


def test_nelson_mc_on_five_point_grid_exit_0(tmp_path):
    # the drift spline takes degree n - 1 = 4 here: one polynomial through all five samples
    cfg = _single_cluster_mc_config({
        "kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0, "k": 1,
        "grid": {"x_min": -3.5, "x_max": 3.5, "n": 5},
    }, 0)
    out = tmp_path / "x.csv"
    assert main(["nelson-mc", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(read_rows(out)[1]) == 1


def test_nelson_mc_patches_an_off_centre_node_exit_0(tmp_path):
    # the first excited state of a bumped oscillator has its node between two
    # samples, 4e-8 off the spline's zero; a patch centred on the sampled node
    # missed C1 matching by 4.07e-8, one centred on the zero matches
    x = np.linspace(-4.0, 4.0, 801)
    cfg = _single_cluster_mc_config({
        "kind": "tabulated", "k": 2, "grid": {"x_min": -4.0, "x_max": 4.0, "n": 801},
        "values": (0.5 * x**2 + 0.3 * np.exp(-((x - 0.4) ** 2))).tolist(),
    }, 1)
    out = tmp_path / "x.csv"
    assert main(["nelson-mc", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(read_rows(out)[1]) == 1


def test_nelson_mc_stores_lags_and_horizon(tmp_path, ensembles):
    cfg = two_oscillator_config(
        lags=[0.0, 0.001, 0.2],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.3},
    )
    out = tmp_path / "x.csv"
    assert main(["nelson-mc", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    (ens,) = ensembles
    assert np.allclose(ens.t_grid, [0.0, 0.001, 0.2, 0.3], rtol=0.0, atol=1e-12)
    ks = json.loads((tmp_path / "x.csv.diag.json").read_text())["ks_stats"]
    assert list(ks) == [format(float(t), ".17g") for t in ens.t_grid]


@pytest.mark.parametrize("lag", [-0.25, 0.75])
def test_nelson_mc_lag_outside_horizon_exit_2(tmp_path, capsys, lag):
    cfg = two_oscillator_config(
        lags=[lag],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "lags:" in capsys.readouterr().err


# 10 - 5e-9 is step 10000 of dt 1e-3 under step_count's 1e-9 * t tolerance
NEAR_HORIZON = 9.999999995


def test_nelson_mc_lag_within_step_tolerance_of_horizon(tmp_path):
    rows = {}
    for lag in (NEAR_HORIZON, 10.0):
        cfg = two_oscillator_config(
            lags=[0.5, lag],
            mc={"n_paths": 16, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 10.0},
        )
        out = tmp_path / f"{lag}.csv"
        assert main(["nelson-mc", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows[lag] = read_rows(out)[1]
    assert rows[NEAR_HORIZON][1] == [format(NEAR_HORIZON, ".17g"), *rows[10.0][1][1:]]
    assert rows[NEAR_HORIZON][0] == rows[10.0][0]


def test_eps_study_lag_within_step_tolerance(tmp_path):
    # both columns are read at the stored step, so the two lags give one table
    tables = []
    for lag in (NEAR_HORIZON, 10.0):
        cfg = two_oscillator_config(
            mc={"n_paths": 16, "dt": 1e-3, "seed": 1},
            eps_study={"epsilons": [1e-3], "lag": lag},
        )
        out = tmp_path / f"{lag}.csv"
        assert main(["eps-study", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == 1
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("field", ["lags", "mc.horizon"])
def test_nelson_mc_step_count_overflow_exit_2(tmp_path, capsys, field):
    # 1e308 / dt overflows to inf
    cfg = two_oscillator_config(
        lags=[1e308 if field == "lags" else 0.25],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3,
            "horizon": 1e308 if field == "mc.horizon" else 0.5},
    )
    cfg_path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1 and err[-1] == "\n"


@pytest.mark.parametrize(
    "command, field",
    [("nelson-mc", "lags"), ("nelson-mc", "mc.horizon"), ("eps-study", "eps_study.lag")],
)
def test_step_count_above_cap_exit_2(tmp_path, capsys, command, field):
    # finite, but more than MAX_STEPS steps of dt: rejected before any stepping
    huge = 1e300
    cfg = two_oscillator_config(
        lags=[huge if field == "lags" else 0.25],
        mc={"n_paths": 4, "dt": 1e-3, "seed": 1, "epsilon": 1e-3,
            "horizon": huge if field == "mc.horizon" else 0.5},
        eps_study={"epsilons": [0.1], "lag": huge if field == "eps_study.lag" else 0.25},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{field}: 1e+300 is more than {nelson_sde.MAX_STEPS} steps of mc.dt" in err


@pytest.mark.parametrize("command", ["nelson-mc", "eps-study"])
def test_n_paths_above_cap_exit_2(tmp_path, capsys, monkeypatch, command):
    # rejected while parsing, before the sampler could allocate 10**13 paths
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_stationary reached")

    monkeypatch.setattr(nelson_sde, "sample_stationary", no_sampling)
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 10**13, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": [0.1], "lag": 0.25},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"mc.n_paths: {10**13} is more than {MAX_PATHS} paths" in capsys.readouterr().err
    mc = dict(cfg["mc"], n_paths=MAX_PATHS)
    assert parse_config(dict(cfg, mc=mc)).mc.n_paths == MAX_PATHS


def test_ensemble_above_byte_cap_exit_2(tmp_path, capsys, monkeypatch):
    # 10**7 paths x 41 stored times x 2 clusters x 8 B pass MAX_ENSEMBLE_BYTES
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_stationary reached")

    monkeypatch.setattr(nelson_sde, "sample_stationary", no_sampling)
    cfg = two_oscillator_config(
        lags={"start": 0.05, "stop": 2.0, "step": 0.05},
        mc={"n_paths": 10**7, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 2.0},
    )
    assert len(parse_config(cfg).lags) == 40
    cfg_path = write_config(tmp_path, cfg)
    assert main(["nelson-mc", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "mc.n_paths: 10000000 paths x 41 stored times x 2 clusters" in err
    assert "MAX_ENSEMBLE_BYTES" in err


@pytest.mark.parametrize("cluster, field", [(0, "omega"), (1, "barrier_height")])
def test_overflowing_potential_exit_2_without_warning(tmp_path, capsys, cluster, field):
    cfg = small_config()
    cfg["system"]["clusters"][cluster][field] = 1e308
    cfg_path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"system.clusters[{cluster}]" in capsys.readouterr().err


@pytest.mark.parametrize("half_width", [1e-300, 1e-160, 1e200])
def test_infinite_well_out_of_range_exit_2_without_warning(tmp_path, capsys, half_width):
    # the energies pi^2 (n+1)^2 / (8 L^2) leave the floating-point range
    cfg = two_oscillator_config()
    cfg["system"]["clusters"][1] = {"kind": "infinite_well", "half_width": half_width, "k": 2}
    argv = ["eigen", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--cluster", "1"]) == 2
    assert "config error: system.clusters[1]: half-width" in capsys.readouterr().err


def test_harmonic_grid_too_wide_exit_2(tmp_path, capsys):
    # 2000 points over +/-1e30 miss every state's mass
    cfg = two_oscillator_config()
    cfg["system"]["clusters"][0]["grid"] = {"x_min": -1e30, "x_max": 1e30, "n": 2000}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "system.clusters[0].grid: mode 0: tail mass" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["qm-corr", "compare", "nelson-mc", "eps-study", "eigen"])
def test_json_format_for_csv_command_exit_2(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, two_oscillator_config(output={"format": "json"}))
    out = tmp_path / "x.json"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"output.format: {command} writes CSV only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "nelson-mc"])
def test_zero_coefficient_exit_2(tmp_path, capsys, command):
    cfg = two_oscillator_config(
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 6.5},
    )
    cfg["state"]["terms"][1]["coefficient"] = 0.0
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "state.terms[1].coefficient:" in capsys.readouterr().err


def test_numeric_error_exit_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericError("imaginary part did not cancel")

    monkeypatch.setattr(cli, "qm_two_time_series", fail)
    cfg_path = write_config(tmp_path, two_oscillator_config())
    assert main(["qm-corr", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 3
    assert "error: imaginary part" in capsys.readouterr().err


def test_nelson_mc_clamp_threshold_exit_4(tmp_path, mc_config, monkeypatch):
    monkeypatch.setattr(nelson_sde, "CLAMP_SIGMAS", 0.02)
    assert main(["nelson-mc", "--config", mc_config, "--out", str(tmp_path / "x.csv")]) == 4


def test_chsh_box_violates(tmp_path, capsys, monkeypatch):
    run_chsh, reports = bell.run_chsh, []

    def keep(*args):
        reports.append(run_chsh(*args))
        return reports[-1]

    monkeypatch.setattr(bell, "run_chsh", keep)
    cfg = {
        "system": {"clusters": [{"kind": "infinite_well", "half_width": 1.0, "k": 2}]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
        "output": {"format": "json"},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", cfg_path, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "VIOLATES" in captured and "infeasible" in captured
    report = json.loads(out.read_text())
    assert report["S"] == pytest.approx(-2.0379, abs=1e-4)
    assert not report["classical_feasible"]
    # the emitted JSON holds the in-memory report, every float exactly
    assert json.loads(json.dumps(dataclasses.asdict(reports[0]))) == report


BOX_X = np.linspace(-1.0, 1.0, 2001)  # the unit box's default grid
UNEVEN_X = np.linspace(-4.0, 4.0, 801)  # a bumped oscillator's grid


@pytest.mark.parametrize(
    "observable, field",
    [
        ("sign", "chsh.observable"),
        ({"kind": "position"}, "chsh.observable.kind"),
        ({"kind": "tabulated", "values": (2.0 * BOX_X).tolist()}, "chsh.observable"),  # |f| > 1
        ({"kind": "tabulated", "values": np.cos(BOX_X).tolist()}, "chsh.observable"),  # even
    ],
)
def test_chsh_bad_observable_exit_2(tmp_path, capsys, observable, field):
    cfg = {
        "system": {"clusters": [{"kind": "infinite_well", "half_width": 1.0, "k": 2}]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
        "chsh": {"observable": observable},
        "output": {"format": "json"},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["chsh", "--config", cfg_path, "--out", str(tmp_path / "x.json")]) == 2
    assert f"{field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cluster, field",
    [
        ({"kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0, "k": 2,
          "grid": {"x_min": -3.0, "x_max": 3.2, "n": 621}}, "system.clusters[0].grid"),
        ({"kind": "harmonic", "omega": 1.0, "k": 2,
          "grid": {"x_min": -9.0, "x_max": 10.0, "n": 2001}}, "system.clusters[0].grid"),
        # an uneven potential on a symmetric grid: its pair carries no parity
        ({"kind": "tabulated", "k": 2, "grid": {"x_min": -4.0, "x_max": 4.0, "n": 801},
          "values": (0.5 * UNEVEN_X**2 + 0.3 * np.exp(-((UNEVEN_X - 0.4) ** 2))).tolist()},
         "system.clusters[0]"),
    ],
    ids=["double-well", "oscillator", "tabulated"],
)
def test_chsh_needs_a_tagged_pair_exit_2(tmp_path, capsys, cluster, field):
    cfg = {"system": {"clusters": [cluster]}, "output": {"format": "json"}}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["chsh", "--config", cfg_path, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: chsh needs ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_chsh_harmonic_feasible(tmp_path, capsys):
    cfg = {
        "system": {"clusters": [
            {"kind": "harmonic", "omega": 1.0, "k": 2,
             "grid": {"x_min": -10.0, "x_max": 10.0, "n": 2001}}
        ]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
        "output": {"format": "json"},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", cfg_path, "--out", str(out)]) == 0
    assert "NO VIOLATION" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["classical_feasible"]
    assert report["alpha"] ** 2 == pytest.approx(2.0 / math.pi, abs=1e-8)


README_CLUSTERS = [
    {"kind": "harmonic", "omega": 1.0, "k": 2,
     "grid": {"x_min": -10.0, "x_max": 10.0, "n": 2000}},
    {"kind": "harmonic", "omega": 1.0, "k": 2},
]


def _double_well_on(height, span, n):
    grid = {"x_min": -span, "x_max": span, "n": n}
    return pytest.param(
        [{"kind": "double_well", "barrier_height": height, "well_separation": 1.0,
          "k": 2, "grid": grid}],
        id=f"barrier{height:g}-span{span:g}-n{n}",
    )


@pytest.mark.parametrize(
    "clusters",
    [
        README_CLUSTERS,
        # default grid of 2000 points
        [{"kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0, "k": 2}],
        # a barrier sweep on even and odd grids; alpha is at least 0.887 in each
        _double_well_on(1.0, 3.0, 400),
        _double_well_on(8.0, 3.0, 400),
        _double_well_on(1.0, 3.0, 401),
        _double_well_on(8.0, 3.0, 401),
        _double_well_on(1.0, 3.5, 401),
        _double_well_on(27.0, 3.5, 401),
    ],
)
def test_chsh_even_point_grid(tmp_path, capsys, clusters):
    # mirror-symmetrized Simpson weights cancel the odd integrands on even n too
    cfg = {
        "system": {"clusters": clusters},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0] * len(clusters)}]},
        "output": {"format": "json"},
    }
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert max(abs(m) for m in report["marginals"]) < 1e-10
    assert abs(report["S"] + 2.0 * math.sqrt(2.0) * report["alpha"] ** 2) <= 1e-12
    if clusters is README_CLUSTERS:
        assert report["alpha"] ** 2 == pytest.approx(2.0 / math.pi, abs=1e-4)
        assert report["classical_feasible"]
    else:
        assert not report["classical_feasible"]
        assert capsys.readouterr().out.startswith("VIOLATES")


@pytest.mark.parametrize("height", [27.0, 28.5, 29.0])
def test_chsh_high_barrier_fine_grid(tmp_path, height):
    # the tunnelling doublet is solved by parity sector, so both diagonal
    # elements vanish to roundoff instead of leaking about 1e-8
    clusters = [{"kind": "double_well", "barrier_height": height, "well_separation": 1.0,
                 "k": 2, "grid": {"x_min": -3.5, "x_max": 3.5, "n": 8001}}]
    cfg = {
        "system": {"clusters": clusters},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
        "output": {"format": "json"},
    }
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert max(abs(m) for m in report["marginals"]) <= 1e-15
    assert report["alpha"] > 0.9999


def test_chsh_odd_point_grid_centre(tmp_path):
    # np.linspace(-3.5, 3.5, 401) leaves its centre sample at 4.4e-16, where
    # sign reads +1; the mirrored grid puts it at exactly 0
    clusters = [{"kind": "double_well", "barrier_height": 4.0, "well_separation": 1.0,
                 "k": 2, "grid": {"x_min": -3.5, "x_max": 3.5, "n": 401}}]
    cfg = {
        "system": {"clusters": clusters},
        "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
        "output": {"format": "json"},
    }
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert max(abs(m) for m in report["marginals"]) < 1e-10


@pytest.mark.parametrize("command", ["qm-corr", "compare"])
@pytest.mark.parametrize("clusters", [(0,), (1, 1)])
def test_observables_on_one_cluster_exit_2(tmp_path, capsys, command, clusters):
    # a single observable is also used for g, so it addresses one cluster twice
    observables = [{"kind": "position", "cluster": c} for c in clusters]
    cfg_path = write_config(tmp_path, two_oscillator_config(observables=observables))
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: observables: both address cluster")


@pytest.mark.parametrize("command", ["nelson-mc", "eps-study"])
def test_mc_single_observable(tmp_path, command):
    cfg = two_oscillator_config(
        observables=[{"kind": "position", "cluster": 0}],
        lags=[0.01],
        mc={"n_paths": 50, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.01},
        eps_study={"epsilons": [0.1], "lag": 0.01},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize("command", ["qm-corr", "compare", "chsh", "eigen"])
def test_seed_flag_only_where_read(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, two_oscillator_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv"), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chsh", "eigen"])
def test_unsolved_cluster_checked_at_load_exit_2(tmp_path, capsys, command):
    # both subcommands solve cluster 0 only; every cluster is still parsed
    cfg = two_oscillator_config()
    cfg["system"]["clusters"][1]["omega"] = -1.0
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "system.clusters[1]: harmonic potential needs omega > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"observables": [{"kind": "bogus"}]}, "observables[0].kind: unknown kind 'bogus'"),
        ({"observables": [{"kind": "position", "cluster": 7}]},
         "observables[0].cluster: expected 0 <= cluster < 2, got 7"),
        ({"observables": [{"kind": "position"}, {"kind": "indicator", "a": 2, "b": 1}]},
         "observables[1].b: must exceed a = 2.0"),
        # an entry's default cluster is its index
        ({"observables": [{"kind": "position"}] * 3},
         "observables[2].cluster: expected 0 <= cluster < 2, got 2"),
        ({"chsh": {"observable": {"kind": "sign", "cluster": 1}}},
         "chsh.observable.cluster: expected 0 <= cluster < 1, got 1"),
        # alpha's rule holds at load too, though eigen computes no alpha
        ({"chsh": {"observable": {"kind": "position"}}},
         "chsh.observable.kind: must be 'sign' or 'tabulated', got 'position'"),
    ],
    ids=[
        "unknown-kind", "no-cluster-7", "indicator-b-below-a", "default-cluster",
        "chsh-cluster", "chsh-position",
    ],
)
def test_observables_checked_at_load_exit_2(tmp_path, capsys, overrides, message):
    # eigen reads no observable; every one present is still built
    cfg_path = write_config(tmp_path, two_oscillator_config(**overrides))
    assert main(["eigen", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


BOX_CHSH_CONFIG = {
    "system": {"clusters": [{"kind": "infinite_well", "half_width": 1.0, "k": 2}]},
    "chsh": {"times": [0.0, 0.1, 0.2, 0.3]},
}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        # a misspelled optional field would take its default and the run exit 0
        ("chsh", {**BOX_CHSH_CONFIG, "chsh": {"time": [0.0, 0.1, 0.2, 0.3]}},
         "chsh.time: not a field; known fields: observable, times"),
        ("eigen", {"system": {"clusters": [{"kind": "harmonic", "omega": 1.0, "K": 5}]}},
         "system.clusters[0].K: not a field; known fields: kind, grid, k, omega"),
        ("qm-corr", two_oscillator_config(output={"fromat": "json"}),
         "output.fromat: not a field; known fields: format"),
    ],
    ids=["chsh-time", "cluster-K", "output-fromat"],
)
def test_misspelled_field_exit_2(tmp_path, capsys, command, cfg, message):
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _put(cfg, path, value):
    *parents, last = path
    for key in parents:
        cfg = cfg[key]
    cfg[last] = value


UNKNOWN_KEY_CASES = [
    ((), "extra"),
    (("system",), "system.extra"),
    (("system", "clusters", 0), "system.clusters[0].extra"),
    (("system", "clusters", 1, "grid"), "system.clusters[1].grid.extra"),
    (("state",), "state.extra"),
    (("state", "terms", 1), "state.terms[1].extra"),
    (("observables", 0), "observables[0].extra"),
    (("observables", 1), "observables[1].extra"),
    (("lags",), "lags.extra"),
    (("mc",), "mc.extra"),
    (("chsh",), "chsh.extra"),
    (("chsh", "observable"), "chsh.observable.extra"),
    (("eps_study",), "eps_study.extra"),
    (("output",), "output.extra"),
]


@pytest.mark.parametrize(
    "where, field", UNKNOWN_KEY_CASES, ids=[field for _, field in UNKNOWN_KEY_CASES]
)
def test_unknown_key_in_every_object_exit_2(tmp_path, capsys, where, field):
    # one config carrying every object, each of them valid; eigen reads none
    # beyond cluster 0, yet every object is parsed
    cfg = two_oscillator_config(
        mc={"n_paths": 10, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        chsh={"observable": {"kind": "sign"}, "times": [0.0, 0.1, 0.2, 0.3]},
        eps_study={"epsilons": [0.01], "lag": 0.1},
        observables=[
            {"kind": "indicator", "cluster": 0, "a": 0.0, "b": 1.0},
            {"kind": "tabulated", "cluster": 1, "values": [0.0] * 2000},
        ],
    )
    cfg["system"]["clusters"][1]["grid"] = {"x_min": -10.0, "x_max": 10.0, "n": 2000}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["eigen", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 0
    _put(cfg, (*where, "extra"), 1)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["eigen", "--config", cfg_path, "--out", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: not a field; ")


def test_eps_study_table(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 1500, "dt": 1e-3, "seed": 11, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": [0.1, 0.03], "lag": 0.25},
    )
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "eps.csv"
    assert main(["eps-study", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["epsilon", "value", "stderr", "spectral_ref", "abs_dev"]
    assert len(rows) == 2
    assert float(rows[0][0]) == pytest.approx(0.1)


def test_eps_study_sign_reference_is_the_spectral_value(tmp_path):
    # the oscillator's second excited state under sign(x): the reference comes
    # from the finite-difference expansion, walled at the nodes the patches use
    cfg = {
        "system": {"clusters": [{"kind": "harmonic", "omega": 1.0, "k": 3}]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [2]}]},
        "observables": [{"kind": "sign", "cluster": 0}],
        "lags": [0.1],
        "mc": {"n_paths": 500, "dt": 1e-3, "seed": 5, "epsilon": 1e-3, "horizon": 0.1},
        "eps_study": {"epsilons": [1e-3, 3e-4], "lag": 0.1},
    }
    out = tmp_path / "eps.csv"
    assert main(["eps-study", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert [float(row[0]) for row in rows] == [1e-3, 3e-4]
    state = build_state(parse_config(cfg))
    sign = build_observable(cfg["observables"][0], state.clusters, 0)
    spectral = nelson_semigroup_correlation(state, sign, sign, 0.1)
    ref = header.index("spectral_ref")
    assert [float(row[ref]) for row in rows] == [spectral, spectral]


def test_eps_study_empty_list_exit_2(tmp_path):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": [], "lag": 0.25},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["eps-study", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("epsilons", [[6.0, 0.1], [0.03, 0.1], [0.1, -0.1]])
def test_eps_study_bad_epsilons_exit_2(tmp_path, capsys, epsilons):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": epsilons, "lag": 0.25},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["eps-study", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "eps_study.epsilons" in capsys.readouterr().err


@pytest.mark.parametrize("lag", [0.2505, 0.0])
def test_eps_study_bad_lag_exit_2(tmp_path, capsys, lag):
    cfg = two_oscillator_config(
        lags=[0.25],
        mc={"n_paths": 100, "dt": 1e-3, "seed": 1, "epsilon": 1e-3, "horizon": 0.5},
        eps_study={"epsilons": [0.1, 0.03], "lag": lag},
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["eps-study", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "eps_study.lag" in capsys.readouterr().err


def test_eigen_export(tmp_path):
    cfg_path = write_config(tmp_path, two_oscillator_config())
    out = tmp_path / "eigen.csv"
    assert main(["eigen", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["x", "psi_0", "psi_1"]
    assert len(rows) == 2000


# --------------------------------------------------------------------------
# config contract under one-field mutations
# --------------------------------------------------------------------------

COMMANDS = ("qm-corr", "compare", "nelson-mc", "chsh", "eps-study", "eigen")
SIZE_FIELDS = ("k", "n")  # kept out of the huge values, which would allocate
FIELD_PATH = re.compile(r"config error: (top level|[A-Za-z_]\w*(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*): ")
MUTATIONS = {
    "wrong type": lambda v: 7 if isinstance(v, str) else "x",
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "1e308": lambda v: 1e308,
    "zero": lambda v: 0,
    "negative": lambda v: -v if isinstance(v, (int, float)) and v else -1,
    "huge integer": lambda v: 10**30,
}


def small_config():
    """A valid config every subcommand runs on in milliseconds."""
    return {
        "system": {"clusters": [
            {"kind": "harmonic", "omega": 1.0, "k": 2,
             "grid": {"x_min": -9.0, "x_max": 9.0, "n": 201}},
            {"kind": "double_well", "barrier_height": 2.0, "well_separation": 1.0, "k": 2,
             "grid": {"x_min": -3.0, "x_max": 3.0, "n": 201}},
        ]},
        "state": {"terms": [{"coefficient": 1.0, "indices": [1, 0]}]},
        "observables": [
            {"kind": "position", "cluster": 0},
            {"kind": "indicator", "cluster": 1, "a": 0.0, "b": 1.0},
        ],
        "lags": {"start": 0.0, "stop": 0.01, "step": 0.005},
        "mc": {"n_paths": 16, "dt": 0.005, "seed": 3, "epsilon": 0.01, "horizon": 0.01},
        "chsh": {"observable": {"kind": "sign"}, "times": [0.0, 1.0, 0.5, 1.5]},
        "eps_study": {"epsilons": [0.1, 0.05], "lag": 0.01},
        "output": {"format": "csv"},
    }


def field_paths(node, prefix=()):
    """Every field of a config below the top level, as key/index tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def mutated(cfg, path, mutation):
    """cfg with the field at path deleted ("missing key") or replaced."""
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "missing key":
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[mutation](parent[path[-1]])
    return cfg


@st.composite
def config_mutations(draw):
    path = draw(st.sampled_from(list(field_paths(small_config()))))
    allowed = ["missing key", *MUTATIONS]
    if path[-1] in SIZE_FIELDS:
        allowed = [m for m in allowed if m not in ("1e308", "huge integer")]
    return path, draw(st.sampled_from(allowed)), draw(st.sampled_from(COMMANDS))


def test_small_config_runs_everywhere(tmp_path):
    # each subcommand writes its data file, its side files and one sidecar, nothing else
    side_files = {"compare": ["x.csv.summary.json"], "nelson-mc": ["x.csv.diag.json", "paths.txt"]}
    cfg_path = write_config(tmp_path, small_config())
    for command in COMMANDS:
        run_dir = tmp_path / command
        run_dir.mkdir()
        argv = [command, "--config", cfg_path, "--out", str(run_dir / "x.csv")]
        if command == "nelson-mc":
            argv += ["--dump-paths", str(run_dir / "paths.txt")]
        assert main(argv) == 0
        expected = ["x.csv", "x.csv.meta.json", *side_files.get(command, [])]
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(expected)


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_out_exit_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, small_config())])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@settings(max_examples=300, deadline=None)
@given(config_mutations())
# each of these once escaped as an exception
@example((("lags", "stop"), "1e308", "qm-corr"))
@example((("system", "clusters", 1, "well_separation"), "1e308", "compare"))
def test_config_mutations_exit_cleanly(tmp_path_factory, mutation):
    path, kind, command = mutation
    tmp = tmp_path_factory.mktemp("mutation")
    cfg_path = write_config(tmp, mutated(small_config(), path, kind))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", cfg_path, "--out", str(tmp / "x.csv")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert FIELD_PATH.search(err.getvalue()), err.getvalue()
