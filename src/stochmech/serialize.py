"""CSV and JSON emission with reproducible bytes.

Data files never contain wall-clock information; run metadata goes to a
sidecar.  Floats are written with 17 significant digits, newline line
endings, '.' decimal separator; JSON uses sorted keys so repeated runs
produce identical bytes.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy

from . import __version__
from .bell import ChshReport

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "write_sidecar",
]


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str | Path, header, rows) -> None:
    """The header, then one line per row as ``rows`` yields it."""
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def chsh_report_csv_row(report: ChshReport) -> list:
    (e11, e12), (e21, e22) = report.correlations
    return [
        report.alpha, report.omega, *report.times,
        e11, e12, e21, e22, report.S, report.classical_feasible,
    ]


CHSH_CSV_HEADER = [
    "alpha", "omega", "t1", "t2", "s1", "s2",
    "E11", "E12", "E21", "E22", "S", "feasible",
]


SIDECAR_SUFFIX = ".meta.json"  # the sidecar of data file F is F + SIDECAR_SUFFIX


@cache
def _versions() -> dict:
    """Versions of the packages a run depends on, read once per process.

    SciPy's comes from its top-level package, which loads no subpackage.
    """
    import platform

    import scipy

    return {
        "stochmech": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def write_sidecar(
    data_path: str | Path, config_path: str | Path, config_sha256: str, argv: list[str]
) -> None:
    """Run metadata next to the data file; the only place timestamps live.

    ``config_sha256`` is the hash of the config bytes the run parsed, so the
    file is not read again; ``argv`` is the command line of the run, without
    the program name.
    """
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "argv": argv,
        "data_file": str(data_path),
        "config_file": str(config_path),
        "config_sha256": config_sha256,
        "versions": _versions(),
    }
    Path(str(data_path) + SIDECAR_SUFFIX).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n"
    )
