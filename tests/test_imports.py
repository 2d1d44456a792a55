"""The import graph: nothing loads scipy, click or the thread pool, only the
oracle executes numpy, and BLAS starts no threads.

Each case runs in a fresh interpreter, since this process has long since
imported numpy and scipy.  The CLI runs as the console script does, through
``main`` with ``SystemExit`` caught, and the last line of standard output
reports its exit code, whether ``scipy`` is in ``sys.modules`` and, in the
thread cases, how many OS threads the process has.
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

THREADS = (
    'print(json.dumps({"code": code, "scipy": "scipy" in sys.modules,'
    ' "threads": len(os.listdir("/proc/self/task"))}))'
)

CALL_CLI = """
import json, os, sys
from wva_sim.cli import main
try:
    main(sys.argv[1:], prog_name="wva-sim")
    code = 0
except SystemExit as exc:
    code = exc.code
"""
RUN_CLI = CALL_CLI + REPORT

# the command line is parsed by argparse; click is not a runtime dependency
CLICK = 'print(json.dumps({"code": code, "click": "click" in sys.modules}))'

# numpy counts as executed once any of its submodules is loaded: importing
# wva_sim binds a lazy numpy module that executes on its first attribute access
NUMPY = (
    'print(json.dumps({"code": code,'
    ' "numpy": any(name.startswith("numpy.") for name in sys.modules)}))'
)
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'
LOAD_NUMPY = "import numpy\n"

# concurrent.futures imports logging; together they cost several milliseconds
POOL = (
    'print(json.dumps({"code": code, "pool": "concurrent.futures" in sys.modules,'
    ' "logging": "logging" in sys.modules}))'
)
NO_POOL = {"code": 0, "pool": False, "logging": False}

BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_VARIABLES)  # a caller that sets none of them

needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads through /proc/self/task"
)

ONE_POINT = {
    "alpha": [0.3],
    "delta": [0.1],
    "beta": [0.8],
    "eta": [1.0],
    "phi_bar_urad": [1000.0],
    "span_over_phi_bar": 2.0,
    "tolerance": 0.05,
}


def run_fresh(code, *args, **env_vars):
    """Run ``code`` in a new interpreter; ``env_vars`` replace variables of
    this process's environment, and a value of None removes one."""
    env = dict(os.environ, **env_vars)
    env = {name: value for name, value in env.items() if value is not None}
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


def test_import_leaves_click_unloaded():
    assert run_fresh(f"import json, sys, wva_sim.cli; code = 0; {CLICK}") == {"code": 0, "click": False}


def test_help_leaves_click_unloaded():
    assert run_fresh(CALL_CLI + CLICK, "fig3", "--help") == {"code": 0, "click": False}


def oracle_args(tmp_path):
    config = tmp_path / "one.json"
    config.write_text(json.dumps(ONE_POINT))
    return "oracle-validate", "--config", str(config), "--out", str(tmp_path / "oracle.csv")


def test_oracle_validate_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "oracle.csv"
    report = run_fresh(RUN_CLI, *oracle_args(tmp_path))
    assert report == {"code": 0, "scipy": False}
    assert len([line for line in out.read_text().splitlines() if line[0].isdigit()]) == 1


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_thread_pool_unloaded(module):
    assert run_fresh(f"import json, sys, {module}; code = 0; {POOL}") == NO_POOL


def test_help_leaves_thread_pool_unloaded():
    assert run_fresh(CALL_CLI + POOL, "fig3", "--help") == NO_POOL


def test_oracle_validate_leaves_thread_pool_unloaded(tmp_path):
    assert run_fresh(CALL_CLI + POOL, *oracle_args(tmp_path)) == NO_POOL


SIMULATE = """
import json, os, sys
from wva_sim import InterferometerParams, NoiseModel, simulate_trials
params = InterferometerParams(alpha=1.0, beta=1.0, delta=0.1, eta=0.5, phi_plus=1e-3, phi_minus=0.0)
simulate_trials(params, NoiseModel(), 10, 1, workers=1)
"""


def test_simulate_trials_leaves_scipy_unloaded():
    assert run_fresh(SIMULATE + "code = 0\n" + REPORT) == {"code": 0, "scipy": False}


def test_simulate_trials_with_workers_leaves_thread_pool_unloaded():
    # a million trials, which the per-trial engine split over worker threads
    code = SIMULATE.replace("10, 1, workers=1", "1_000_000, 1, workers=4")
    assert code != SIMULATE
    assert run_fresh(code + "code = 0\n" + POOL) == NO_POOL


@needs_task_list
def test_one_thread_after_import():
    code = f"import json, os, sys, wva_sim.cli; code = 0; {THREADS}"
    assert run_fresh(code, **UNSET) == {"code": 0, "scipy": False, "threads": 1}


@needs_task_list
def test_one_thread_after_oracle_validate(tmp_path):
    report = run_fresh(CALL_CLI + THREADS, *oracle_args(tmp_path), **UNSET)
    assert report == {"code": 0, "scipy": False, "threads": 1}


@needs_task_list
def test_one_thread_after_simulate_trials():
    code = SIMULATE + "code = 0\n" + THREADS
    assert run_fresh(code, **UNSET) == {"code": 0, "scipy": False, "threads": 1}


@needs_task_list
def test_one_thread_after_fig3_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "fig3.csv"
    args = "fig3", "--seed", "1", "--trials-scale", "1e-4", "--out", str(out)
    report = run_fresh(CALL_CLI + THREADS, *args, **UNSET)
    assert report == {"code": 0, "scipy": False, "threads": 1}
    assert out.is_file()


@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_caller_blas_threads_kept(variable):
    code = f"""
import json, os
before = dict(os.environ)
import wva_sim
print(json.dumps({{"untouched": dict(os.environ) == before, "set": os.environ.get({variable!r})}}))
"""
    report = run_fresh(code, **dict(UNSET, **{variable: "2"}))
    assert report == {"untouched": True, "set": "2"}


@pytest.mark.parametrize("command", ["oracle-validate", "fig3", "fig4", "snr"])
def test_help_leaves_numpy_unexecuted(command):
    assert run_fresh(CALL_CLI + NUMPY, command, "--help") == {"code": 0, "numpy": False}


@pytest.mark.parametrize("command", ["fig3", "fig4", "snr"])
def test_monte_carlo_leaves_numpy_unexecuted(tmp_path, command):
    args = command, "--seed", "1", "--trials-scale", "1e-3", "--out", str(tmp_path / "out.csv")
    assert run_fresh(CALL_CLI + NUMPY, *args) == {"code": 0, "numpy": False}
    assert (tmp_path / "out.csv").is_file()


def test_oracle_validate_executes_numpy(tmp_path):
    assert run_fresh(CALL_CLI + NUMPY, *oracle_args(tmp_path)) == {"code": 0, "numpy": True}


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_monte_carlo_bytes_without_numpy(tmp_path, command):
    # the import blocked, against a run that has numpy loaded first
    outputs = {}
    for name, prelude in (("blocked", BLOCK_NUMPY), ("loaded", LOAD_NUMPY)):
        out = tmp_path / f"{name}.csv"
        args = command, "--seed", "1", "--trials-scale", "1e-3", "--out", str(out)
        assert run_fresh(prelude + CALL_CLI + REPORT, *args) == {"code": 0, "scipy": False}
        outputs[name] = out.read_bytes(), out.with_suffix(".fit.json").read_bytes()
    assert outputs["blocked"] == outputs["loaded"]
