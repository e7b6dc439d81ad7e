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
    "write_csv",
    "write_json",
    "write_sidecar",
]

CSV_BLOCK = 4096  # rows write_csv formats at once


def write_csv(path: str | Path, header, columns) -> None:
    """The header, then one line per row of the equal-length ``columns``.

    A column holds floats, each written with 17 significant digits, or is a
    string without '%', written on every row.  Each block of CSV_BLOCK rows
    is formatted by one ``%`` of the repeated row template, so the memory
    the writer holds does not grow with the rows.
    """
    floats = [numpy.asarray(c, dtype=float) for c in columns if not isinstance(c, str)]
    template = ",".join(c if isinstance(c, str) else "%.17g" for c in columns) + "\n"
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(floats[0]), CSV_BLOCK):
            block = numpy.column_stack([c[start:start + CSV_BLOCK] for c in floats])
            out.write(template * len(block) % tuple(block.ravel().tolist()))


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def chsh_report_csv_columns(report: ChshReport) -> list:
    """The columns of the report's one-row CSV, in CHSH_CSV_HEADER's order."""
    (e11, e12), (e21, e22) = report.correlations
    values = [report.alpha, report.omega, *report.times, e11, e12, e21, e22, report.S]
    return [[v] for v in values] + ["true" if report.classical_feasible else "false"]


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
