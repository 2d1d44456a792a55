"""The import graph: only the Monte Carlo loads scipy.

Each case runs in a fresh interpreter, since this process has long since
imported scipy.  The CLI runs as the console script does, through
``main`` with ``SystemExit`` caught, and the last line of standard output
reports its exit code and whether ``scipy`` is in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wva_sim

SRC = str(Path(wva_sim.__file__).resolve().parents[1])

REPORT = 'print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))'

RUN_CLI = f"""
import json, sys
from wva_sim.cli import main
try:
    main(sys.argv[1:], prog_name="wva-sim")
    code = 0
except SystemExit as exc:
    code = exc.code
{REPORT}
"""

ONE_POINT = {
    "alpha": [0.3],
    "delta": [0.1],
    "beta": [0.8],
    "eta": [1.0],
    "phi_bar_urad": [1000.0],
    "span_over_phi_bar": 2.0,
    "tolerance": 0.05,
}


def run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_scipy_unloaded(module):
    report = run_fresh(f"import json, sys, {module}; code = 0; {REPORT}")
    assert report == {"code": 0, "scipy": False}


def test_help_leaves_scipy_unloaded():
    assert run_fresh(RUN_CLI, "fig3", "--help") == {"code": 0, "scipy": False}


def test_oracle_validate_leaves_scipy_unloaded(tmp_path):
    config = tmp_path / "one.json"
    config.write_text(json.dumps(ONE_POINT))
    out = tmp_path / "oracle.csv"
    report = run_fresh(RUN_CLI, "oracle-validate", "--config", str(config), "--out", str(out))
    assert report == {"code": 0, "scipy": False}
    assert len([line for line in out.read_text().splitlines() if line[0].isdigit()]) == 1


def test_simulate_trials_loads_scipy():
    # the deferred import is exercised, so it cannot go stale unnoticed
    code = """
import json, sys
from wva_sim import InterferometerParams, NoiseModel, simulate_trials
params = InterferometerParams(alpha=1.0, beta=1.0, delta=0.1, eta=0.5, phi_plus=1e-3, phi_minus=0.0)
before = "scipy" in sys.modules
simulate_trials(params, NoiseModel(), 10, 1)
print(json.dumps({"before": before, "after": "scipy" in sys.modules}))
"""
    assert run_fresh(code) == {"before": False, "after": True}
