"""The import graph: nothing loads scipy, click or the thread pool, only the
oracle executes numpy, and BLAS starts no threads.

Each environment runs in a fresh interpreter, since this process has long
since imported numpy and scipy.  The interpreter takes its steps in order,
running the CLI as the console script does, through ``main`` with
``SystemExit`` caught (any other exception is recorded by its type's
name), and after each step records every fact below; a
module once loaded stays loaded, so a fact that holds at a step held at
every step before it.  The last line of standard output reports the facts
of every step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wva_sim

SRC = str(Path(wva_sim.__file__).resolve().parents[1])

# ``check(step)`` records, after a step: its exit code, or the type name of
# the exception other than SystemExit that it raised; whether scipy, click,
# concurrent.futures (which imports logging; together they cost several
# milliseconds) or logging is loaded; whether numpy executed, which counts
# once any of its submodules is loaded, so that a None entry blocking the
# import is not numpy (only the oracle's functions import numpy, each when
# it is called); the OS thread count; and whether os.environ is as the
# interpreter started with it.
PRELUDE = """
import json, os, sys
before = dict(os.environ)
facts = {}


def check(step, code=0):
    modules = set(sys.modules)
    facts[step] = {
        "code": code,
        "scipy": "scipy" in modules,
        "click": "click" in modules,
        "pool": "concurrent.futures" in modules,
        "logging": "logging" in modules,
        "numpy": any(name.startswith("numpy.") for name in modules),
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "environ_unchanged": dict(os.environ) == before,
    }


def cli(step, *args):
    from wva_sim.cli import main
    try:
        main(list(args), prog_name="wva-sim")
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = type(exc).__name__
    check(step, code)
"""
REPORT = "print(json.dumps(facts))\n"

BLOCK_NUMPY = 'sys.modules["numpy"] = None\n'
LOAD_NUMPY = "import numpy\n"

MONTE_CARLO_COMMANDS = ("fig3", "fig4", "snr")
COMMANDS = ("oracle-validate", *MONTE_CARLO_COMMANDS)

MONTE_CARLO = f"""
import wva_sim
check("import wva_sim")
import wva_sim.cli
check("import wva_sim.cli")
for command in {COMMANDS}:
    cli(command + " --help", command, "--help")
for command in {MONTE_CARLO_COMMANDS}:
    cli(command, command, "--seed", "1", "--trials-scale", "1e-3", "--out", command + ".out")
from wva_sim import InterferometerParams, NoiseModel, simulate_trials
params = InterferometerParams(alpha=1.0, beta=1.0, delta=0.1, eta=0.5, phi_plus=1e-3, phi_minus=0.0)
simulate_trials(params, NoiseModel(), 1_000_000, 1, workers=4)
check("simulate_trials")
"""

# the default --trials-scale, so the bytes compared are what a run without
# the flag writes
MONTE_CARLO_BYTES = f"""
for command in {MONTE_CARLO_COMMANDS}:
    cli(command, command, "--seed", "1", "--trials-scale", "0.01", "--out", command + ".out")
"""

# numpy's first load, raced by four threads that call the oracle at once;
# each records the exception it raised, if any
ORACLE = """
import threading
from wva_sim import fock
barrier = threading.Barrier(4)
errors = []


def first_call():
    barrier.wait()
    try:
        fock.make_coherent(0.5, 5)
    except Exception as exc:
        errors.append(repr(exc))


threads = [threading.Thread(target=first_call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
facts["threaded first call"] = {"errors": errors}
"""

# the one-point sweep of ONE_POINT, read from one.json in the working directory
ORACLE_VALIDATE = """
cli("oracle-validate", "oracle-validate", "--config", "one.json", "--out", "oracle.csv")
"""

NO_POOL = {"code": 0, "pool": False, "logging": False}
ONE_THREAD = {"code": 0, "scipy": False, "threads": 1}

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


def with_one_point(cwd):
    """``cwd``, made and holding ONE_POINT as one.json."""
    cwd.mkdir()
    (cwd / "one.json").write_text(json.dumps(ONE_POINT))
    return cwd


def run_fresh(steps, cwd, **env_vars):
    """Run the prelude, then ``steps``, in a new interpreter working in
    ``cwd``, and return the facts of each step; ``env_vars`` replace
    variables of this process's environment, and a value of None removes one."""
    env = dict(os.environ, **env_vars)
    env = {name: value for name, value in env.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cwd.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + steps + REPORT],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def facts(report, step, *names):
    """The exit code and the named facts of ``report`` at ``step``."""
    return {name: report[step][name] for name in ("code", *names)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The working directory of each environment is named after it here."""
    return tmp_path_factory.mktemp("environments")


@pytest.fixture(scope="module")
def monte_carlo(workdir):
    return run_fresh(MONTE_CARLO, workdir / "monte_carlo", **UNSET)


@pytest.fixture(scope="module")
def oracle(workdir):
    return run_fresh(ORACLE + ORACLE_VALIDATE, with_one_point(workdir / "oracle"), **UNSET)


@pytest.fixture(scope="module")
def numpy_modes(workdir):
    # the import blocked, against a run that has numpy loaded first; the
    # blocked run then tries the oracle
    return {
        "blocked": run_fresh(
            BLOCK_NUMPY + MONTE_CARLO_BYTES + ORACLE_VALIDATE, with_one_point(workdir / "blocked")
        ),
        "loaded": run_fresh(LOAD_NUMPY + MONTE_CARLO_BYTES, workdir / "loaded"),
    }


def test_threaded_first_call_raises_nothing(oracle):
    # the threads may not all have left the task list just after join, so
    # the thread count is checked at the next step
    assert oracle["threaded first call"] == {"errors": []}


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_scipy_unloaded(monte_carlo, module):
    assert facts(monte_carlo, f"import {module}", "scipy") == {"code": 0, "scipy": False}


def test_help_leaves_scipy_unloaded(monte_carlo):
    assert facts(monte_carlo, "fig3 --help", "scipy") == {"code": 0, "scipy": False}


def test_import_leaves_click_unloaded(monte_carlo):
    assert facts(monte_carlo, "import wva_sim.cli", "click") == {"code": 0, "click": False}


def test_help_leaves_click_unloaded(monte_carlo):
    assert facts(monte_carlo, "fig3 --help", "click") == {"code": 0, "click": False}


def test_oracle_validate_leaves_scipy_unloaded(oracle, workdir):
    assert facts(oracle, "oracle-validate", "scipy") == {"code": 0, "scipy": False}
    lines = (workdir / "oracle" / "oracle.csv").read_text().splitlines()
    assert len([line for line in lines if line[0].isdigit()]) == 1


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_thread_pool_unloaded(monte_carlo, module):
    assert facts(monte_carlo, f"import {module}", "pool", "logging") == NO_POOL


def test_help_leaves_thread_pool_unloaded(monte_carlo):
    assert facts(monte_carlo, "fig3 --help", "pool", "logging") == NO_POOL


def test_oracle_validate_leaves_thread_pool_unloaded(oracle):
    assert facts(oracle, "oracle-validate", "pool", "logging") == NO_POOL


def test_simulate_trials_leaves_scipy_unloaded(monte_carlo):
    assert facts(monte_carlo, "simulate_trials", "scipy") == {"code": 0, "scipy": False}


def test_simulate_trials_with_workers_leaves_thread_pool_unloaded(monte_carlo):
    assert facts(monte_carlo, "simulate_trials", "pool", "logging") == NO_POOL


@needs_task_list
def test_one_thread_after_import(monte_carlo):
    assert facts(monte_carlo, "import wva_sim.cli", "scipy", "threads") == ONE_THREAD


@needs_task_list
def test_one_thread_after_oracle_validate(oracle):
    assert facts(oracle, "oracle-validate", "scipy", "threads") == ONE_THREAD


@needs_task_list
def test_one_thread_after_simulate_trials(monte_carlo):
    assert facts(monte_carlo, "simulate_trials", "scipy", "threads") == ONE_THREAD


@needs_task_list
def test_one_thread_after_fig3_leaves_scipy_unloaded(monte_carlo, workdir):
    assert facts(monte_carlo, "fig3", "scipy", "threads") == ONE_THREAD
    assert (workdir / "monte_carlo" / "fig3.out").is_file()


@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_caller_blas_threads_kept(tmp_path, variable):
    steps = 'import wva_sim\ncheck("import wva_sim")\n'
    report = run_fresh(steps, tmp_path, **dict(UNSET, **{variable: "2"}))
    expected = {"code": 0, "environ_unchanged": True}
    assert facts(report, "import wva_sim", "environ_unchanged") == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_help_leaves_numpy_unexecuted(monte_carlo, command):
    assert facts(monte_carlo, f"{command} --help", "numpy") == {"code": 0, "numpy": False}


@pytest.mark.parametrize("command", MONTE_CARLO_COMMANDS)
def test_monte_carlo_leaves_numpy_unexecuted(monte_carlo, workdir, command):
    assert facts(monte_carlo, command, "numpy") == {"code": 0, "numpy": False}
    assert (workdir / "monte_carlo" / f"{command}.out").is_file()


def test_oracle_validate_executes_numpy(oracle):
    assert facts(oracle, "oracle-validate", "numpy") == {"code": 0, "numpy": True}


@pytest.mark.parametrize("command", MONTE_CARLO_COMMANDS)
def test_monte_carlo_bytes_without_numpy(numpy_modes, workdir, command):
    # snr writes one JSON file; fig3 and fig4 a CSV and its fit sidecar
    files = [f"{command}.out"] + ([] if command == "snr" else [f"{command}.fit.json"])
    outputs = {}
    for name, report in numpy_modes.items():
        assert facts(report, command, "scipy") == {"code": 0, "scipy": False}
        outputs[name] = [(workdir / name / file).read_bytes() for file in files]
    assert outputs["blocked"] == outputs["loaded"]


def test_oracle_validate_without_numpy_raises(numpy_modes, workdir):
    # a missing dependency is raised, not written as a row per point
    assert facts(numpy_modes["blocked"], "oracle-validate") == {"code": "ModuleNotFoundError"}
    assert not (workdir / "blocked" / "oracle.csv").exists()
