"""Start-up cost: SciPy is loaded where a routine is called, never on import.

Each case runs in a fresh interpreter, so modules that other tests have
already imported do not mask an import at start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stochmech

SRC = str(Path(stochmech.__file__).resolve().parents[1])
SCIPY_SUBPACKAGES = ("scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.integrate")

# the entangled exchange pair of two oscillators: closed-form eigenfunctions
EXCHANGE_PAIR = {
    "system": {"clusters": [
        {"kind": "harmonic", "omega": 1.0, "k": 2},
        {"kind": "harmonic", "omega": 1.0, "k": 2},
    ]},
    "state": {"terms": [
        {"coefficient": 0.6, "indices": [0, 1]},
        {"coefficient": 0.8, "indices": [1, 0]},
    ]},
    "observables": [{"kind": "position", "cluster": 0}, {"kind": "position", "cluster": 1}],
    "lags": {"start": 0.0, "stop": 1.0, "step": 0.25},
}


# one oscillator with closed-form eigenfunctions; its CHSH verdict is feasible
HARMONIC_CHSH = {
    "system": {"clusters": [{"kind": "harmonic", "omega": 1.0, "k": 2}]},
    "state": {"terms": [{"coefficient": 1.0, "indices": [0]}]},
    "chsh": {"observable": {"kind": "sign"}},
}


def loaded_scipy_modules(tmp_path, body: str, config_obj=EXCHANGE_PAIR) -> list[str]:
    """The scipy modules in sys.modules after ``body`` runs in a fresh interpreter."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_obj))
    code = (
        "import json, sys\n"
        f"{body}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out.csv")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_config_load_no_scipy(tmp_path):
    body = (
        "import stochmech, stochmech.cli\n"
        "from stochmech.config import load_config\n"
        "load_config(sys.argv[1])"
    )
    assert loaded_scipy_modules(tmp_path, body) == []


def test_qm_corr_on_harmonic_pair_loads_no_scipy_subpackage(tmp_path):
    body = (
        "from stochmech import cli\n"
        "assert cli.main(['qm-corr', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
    )
    loaded = loaded_scipy_modules(tmp_path, body)
    assert not [m for m in loaded if m.startswith(SCIPY_SUBPACKAGES)]


def test_feasible_chsh_on_harmonic_oscillator_loads_no_scipy_subpackage(tmp_path):
    body = (
        "from stochmech import cli\n"
        "assert cli.main(['chsh', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert open(sys.argv[2]).read().splitlines()[1].endswith(',true')"
    )
    loaded = loaded_scipy_modules(tmp_path, body, HARMONIC_CHSH)
    assert not [m for m in loaded if m.startswith(SCIPY_SUBPACKAGES)]
