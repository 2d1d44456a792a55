"""Tests of the outside-in tracer: which spans each workload produces.

    python3 -m pytest bench/test_spans.py

Each CLI invocation runs traced in its own fresh process, at the workload's
benchmark size and a fixed seed, so this takes about half a minute.
"""

from __future__ import annotations

import inspect
import json
import shutil
import sys
import tempfile
import time

import pytest

import run
import tracer
import workloads

ORACLE_SPANS = {
    "cli.oracle-validate",
    "protocol.sweep_validity",
    "protocol.run_protocol",
    "model.predict_phases",
    "model.check_validity",
    "fock.tensor",
    "fock.apply_cross_kerr",
    "fock.apply_beam_splitter",
    "fock.fock_distribution",
    "fock.project_fock",
    "fock.mean_field",
}
PREDICTED = {
    "oracle-grid": ORACLE_SPANS,
    "oracle-large": ORACLE_SPANS,
    "campaign": {
        "cli.fig3",
        "cli.fig4",
        "model.predict_phases",
        "montecarlo.simulate_trials",
        "montecarlo.estimate_phases",
        "montecarlo.fit_per_photon_phase",
        "montecarlo.fit_differential",
    },
}
ABSENT_LAYERS = {
    "oracle-grid": ("montecarlo.",),
    "oracle-large": ("montecarlo.",),
    "campaign": ("fock.", "protocol."),
}


@pytest.fixture(scope="module")
def runner():
    (run.BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.BENCH / ".work")
    yield run.Runner(run.Path(workdir), time.monotonic() + 600)
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_spans_appear_where_predicted(runner, workload):
    names = set()
    for i, inv in enumerate(workloads.WORKLOADS[workload](runner.workdir, 7, 2)):
        spans_path = runner.workdir / f"{workload}-{i}.json"
        sample = runner.traced(inv, spans_path)
        assert not sample.errors
        spans = json.loads(spans_path.read_text())
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == [f"cli.{inv.command}"]
        assert sum(tracer.self_times(spans).values()) <= roots[0]["end"] - roots[0]["start"]
        names |= {s["name"] for s in spans}
    assert PREDICTED[workload] <= names
    assert not [n for n in names if n.startswith(ABSENT_LAYERS[workload])]


def test_every_binding_is_wrapped():
    sys.path.insert(0, str(run.SRC))
    count = tracer.install(tracer.Tracer())
    import wva_sim

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wva_sim"]
    unwrapped = [
        f"{m.__name__}.{attr}"
        for m in modules
        for attr, obj in vars(m).items()
        if inspect.isfunction(obj)
        and obj.__module__.removeprefix("wva_sim.") in tracer.LAYERS
        and not attr.startswith("_")
        and not hasattr(obj, "__wrapped__")
    ]
    assert not unwrapped
    # the bindings imported by name, which patching only the defining module misses
    assert hasattr(wva_sim.cli.simulate_trials, "__wrapped__")
    assert hasattr(wva_sim.cli.sweep_validity, "__wrapped__")
    assert hasattr(wva_sim.protocol.predict_phases, "__wrapped__")
    assert hasattr(wva_sim.montecarlo.predict_phases, "__wrapped__")
    assert count > len(tracer.LAYERS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 40},
        {"id": 2, "parent": 0, "start": 30, "end": 50},  # overlaps its sibling, as threads can
        {"id": 3, "parent": 1, "start": 20, "end": 30},
    ]
    assert tracer.self_times(spans) == {0: 60, 1: 20, 2: 20, 3: 10}
