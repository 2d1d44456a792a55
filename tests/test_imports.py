"""The import graph: nothing loads scipy, click or the thread pool, only the
oracle executes numpy, and BLAS starts no threads.

Each environment runs in a fresh interpreter, since this process has long
since imported numpy and scipy.  The interpreter takes its steps in order,
running the CLI as the console script does, through ``main`` with
``SystemExit`` caught (any other exception is recorded by its type's
name), and after each step records every fact of PRELUDE.  There are three
environments:

- ``runtime`` imports the package and its CLI, asks each command for
  ``--help``, runs the Monte Carlo commands and ``simulate_trials`` with
  four workers, then has four threads race on numpy's first load through
  the oracle, and last runs ``oracle-validate``.  No step before the race
  executes numpy, so the race is numpy's first load;
- ``blocked`` runs the Monte Carlo commands at the default trials scale with
  numpy's import blocked, then tries ``oracle-validate``;
- ``loaded`` imports numpy first, as a caller may, and runs the same Monte
  Carlo commands, whose bytes must equal ``blocked``'s.

Three more interpreters each import the package under a caller's setting of
one BLAS thread variable.  EXPECTED names every step of each interpreter
and the facts asserted there.  The last line of standard output reports
the facts of every step and the race's exceptions.
"""

import json
import os

import pytest

# ``check(step)`` records, after a step: its exit code, or the type name of
# the exception other than SystemExit that it raised; whether scipy, click,
# concurrent.futures (which imports logging; together they cost several
# milliseconds) or logging is loaded; whether numpy executed, which counts
# once any of its submodules is loaded, so that a None entry blocking the
# import is not numpy (only the oracle's functions import numpy, each when
# it is called); the OS thread count, None where /proc/self/task does not
# list it; and whether os.environ is as the interpreter started with it.
PRELUDE = """
import json, os, sys
before = dict(os.environ)
facts = {}
race_errors = []


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
REPORT = 'print(json.dumps({"steps": facts, "race_errors": race_errors}))\n'

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

# four threads call the oracle at once; each records the exception it
# raised, if any.  The threads may not all have left the task list just
# after join, so this is no step: the thread count is checked at the next
RACE = """
import threading
from wva_sim import fock
barrier = threading.Barrier(4)


def first_call():
    barrier.wait()
    try:
        fock.make_coherent(0.5, 5)
    except Exception as exc:
        race_errors.append(repr(exc))


threads = [threading.Thread(target=first_call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
"""

# the one-point sweep of ONE_POINT, read from one.json in the working directory
ORACLE_VALIDATE = """
cli("oracle-validate", "oracle-validate", "--config", "one.json", "--out", "oracle.csv")
"""

IMPORT = 'import wva_sim\ncheck("import wva_sim")\n'

BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_VARIABLES)  # a caller that sets none of them

ONE_POINT = {
    "alpha": [0.3],
    "delta": [0.1],
    "beta": [0.8],
    "eta": [1.0],
    "phi_bar_urad": [1000.0],
    "span_over_phi_bar": 2.0,
    "tolerance": 0.05,
}

UNLOADED = {"scipy": False, "click": False, "pool": False, "logging": False}
ONE_THREAD = {"threads": 1 if os.path.isdir("/proc/self/task") else None}
RUNTIME = {"code": 0, "numpy": False, **UNLOADED, **ONE_THREAD}

# interpreter -> every step it records, in order -> the facts asserted there.
# loaded keeps the BLAS pool that numpy, imported first, starts.
EXPECTED = {
    "runtime": {
        **dict.fromkeys(
            ["import wva_sim", "import wva_sim.cli", *(f"{command} --help" for command in COMMANDS),
             *MONTE_CARLO_COMMANDS, "simulate_trials"],
            RUNTIME,
        ),
        "oracle-validate": dict(RUNTIME, numpy=True),
    },
    "blocked": dict.fromkeys([*MONTE_CARLO_COMMANDS, "oracle-validate"], {**UNLOADED, **ONE_THREAD}),
    "loaded": dict.fromkeys(MONTE_CARLO_COMMANDS, UNLOADED),
    **{f"{variable}=2": {"import wva_sim": UNLOADED} for variable in BLAS_VARIABLES},
}


def run_fresh(run_python, steps, cwd, **env):
    """Run the prelude, then ``steps``, in a new interpreter working in
    ``cwd``, which is made holding ONE_POINT as one.json, and return its
    report; ``env`` updates this process's environment, and a value of
    None removes a variable."""
    cwd.mkdir()
    (cwd / "one.json").write_text(json.dumps(ONE_POINT))
    proc = run_python("-c", PRELUDE + steps + REPORT, env=env, cwd=cwd, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def facts(report, step, *names):
    """The exit code and the named facts of ``report`` at ``step``."""
    return {name: report["steps"][step][name] for name in ("code", *names)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The working directory of each interpreter is named after it here."""
    return tmp_path_factory.mktemp("environments")


@pytest.fixture(scope="module")
def reports(run_python, workdir):
    """The report of each interpreter of EXPECTED."""
    steps = {
        "runtime": (MONTE_CARLO + RACE + ORACLE_VALIDATE, UNSET),
        "blocked": (BLOCK_NUMPY + MONTE_CARLO_BYTES + ORACLE_VALIDATE, {}),
        "loaded": (LOAD_NUMPY + MONTE_CARLO_BYTES, {}),
        **{f"{variable}=2": (IMPORT, dict(UNSET, **{variable: "2"})) for variable in BLAS_VARIABLES},
    }
    return {
        name: run_fresh(run_python, script, workdir / name, **env) for name, (script, env) in steps.items()
    }


@pytest.mark.parametrize("name", EXPECTED)
def test_facts_at_every_step(reports, name):
    recorded = reports[name]["steps"]
    assert list(recorded) == list(EXPECTED[name])
    assert {
        step: {fact: recorded[step][fact] for fact in expected} for step, expected in EXPECTED[name].items()
    } == EXPECTED[name]


# The tests from here to test_oracle_validate_executes_numpy each read
# facts of ``runtime`` that the table also asserts, under the name of what
# they hold, and check the files the steps write.
HELPS = [f"{command} --help" for command in COMMANDS]
NO_POOL = {"code": 0, "pool": False, "logging": False}
ONE_THREAD_NO_SCIPY = {"code": 0, "scipy": False, **ONE_THREAD}


@pytest.fixture(scope="module")
def runtime(reports):
    return reports["runtime"]


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_scipy_unloaded(runtime, module):
    assert facts(runtime, f"import {module}", "scipy") == {"code": 0, "scipy": False}


def test_help_leaves_scipy_unloaded(runtime):
    for step in HELPS:
        assert facts(runtime, step, "scipy") == {"code": 0, "scipy": False}


def test_import_leaves_click_unloaded(runtime):
    for step in ("import wva_sim", "import wva_sim.cli"):
        assert facts(runtime, step, "click") == {"code": 0, "click": False}


def test_help_leaves_click_unloaded(runtime):
    for step in HELPS:
        assert facts(runtime, step, "click") == {"code": 0, "click": False}


def test_oracle_validate_leaves_scipy_unloaded(runtime, workdir):
    assert facts(runtime, "oracle-validate", "scipy") == {"code": 0, "scipy": False}
    lines = (workdir / "runtime" / "oracle.csv").read_text().splitlines()
    assert len([line for line in lines if line[0].isdigit()]) == 1


@pytest.mark.parametrize("module", ["wva_sim", "wva_sim.cli"])
def test_import_leaves_thread_pool_unloaded(runtime, module):
    assert facts(runtime, f"import {module}", "pool", "logging") == NO_POOL


def test_help_leaves_thread_pool_unloaded(runtime):
    for step in HELPS:
        assert facts(runtime, step, "pool", "logging") == NO_POOL


def test_oracle_validate_leaves_thread_pool_unloaded(runtime):
    assert facts(runtime, "oracle-validate", "pool", "logging") == NO_POOL


def test_simulate_trials_leaves_scipy_unloaded(runtime):
    assert facts(runtime, "simulate_trials", "scipy") == {"code": 0, "scipy": False}


def test_simulate_trials_with_workers_leaves_thread_pool_unloaded(runtime):
    assert facts(runtime, "simulate_trials", "pool", "logging") == NO_POOL


def test_one_thread_after_import(runtime):
    assert facts(runtime, "import wva_sim.cli", "scipy", "threads") == ONE_THREAD_NO_SCIPY


def test_one_thread_after_oracle_validate(runtime):
    assert facts(runtime, "oracle-validate", "scipy", "threads") == ONE_THREAD_NO_SCIPY


def test_one_thread_after_simulate_trials(runtime):
    assert facts(runtime, "simulate_trials", "scipy", "threads") == ONE_THREAD_NO_SCIPY


def test_one_thread_after_fig3_leaves_scipy_unloaded(runtime, workdir):
    assert facts(runtime, "fig3", "scipy", "threads") == ONE_THREAD_NO_SCIPY
    assert (workdir / "runtime" / "fig3.out").is_file()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_leaves_numpy_unexecuted(runtime, command):
    assert facts(runtime, f"{command} --help", "numpy") == {"code": 0, "numpy": False}


@pytest.mark.parametrize("command", MONTE_CARLO_COMMANDS)
def test_monte_carlo_leaves_numpy_unexecuted(runtime, workdir, command):
    assert facts(runtime, command, "numpy") == {"code": 0, "numpy": False}
    assert (workdir / "runtime" / f"{command}.out").is_file()


def test_oracle_validate_executes_numpy(runtime):
    assert facts(runtime, "oracle-validate", "numpy") == {"code": 0, "numpy": True}


def test_threaded_first_call_raises_nothing(reports):
    assert reports["runtime"]["race_errors"] == []


@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_caller_blas_threads_kept(reports, variable):
    expected = {"code": 0, "environ_unchanged": True}
    assert facts(reports[f"{variable}=2"], "import wva_sim", "environ_unchanged") == expected


@pytest.mark.parametrize("command", MONTE_CARLO_COMMANDS)
def test_monte_carlo_bytes_without_numpy(reports, workdir, command):
    # snr writes one JSON file; fig3 and fig4 a CSV and its fit sidecar
    files = [f"{command}.out"] + ([] if command == "snr" else [f"{command}.fit.json"])
    outputs = {}
    for name in ("blocked", "loaded"):
        assert facts(reports[name], command, "scipy") == {"code": 0, "scipy": False}
        outputs[name] = [(workdir / name / file).read_bytes() for file in files]
    assert outputs["blocked"] == outputs["loaded"]


def test_oracle_validate_without_numpy_raises(reports, workdir):
    # a missing dependency is raised, not written as a row per point
    assert facts(reports["blocked"], "oracle-validate") == {"code": "ModuleNotFoundError"}
    assert not (workdir / "blocked" / "oracle.csv").exists()
