"""Outside-in tracer for one wva-sim CLI command.

Runs the command in this process with every binding of every public
function of `fock`, `model`, `protocol` and `montecarlo` wrapped in a timing
span, and writes the spans to a JSON file:

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json -- oracle-validate --out o.csv

The exit code is the command's. Nothing in `src/` knows about the spans.
The CLI command itself is the root span, `cli.<command>`. `presets` is
constant data and is not traced.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("fock", "model", "protocol", "montecarlo")


class Tracer:
    """Spans kept in memory: id, parent id, name, start and end in ns."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, counters=None):
        stacks = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                if counters is not None:
                    span["counts"] = counters(*args, **kwargs)
                self.spans.append(span)

        return traced


def _counters(wva_sim):
    """Work counts recorded at the boundaries that do the work."""
    # bound before install() replaces the module attributes with wrappers
    default_cutoffs = wva_sim.protocol.default_cutoffs
    bind_bs = inspect.signature(wva_sim.fock.apply_beam_splitter).bind
    bind_protocol = inspect.signature(wva_sim.protocol.run_protocol).bind
    bind_trials = inspect.signature(wva_sim.montecarlo.simulate_trials).bind

    def beam_splitter(*a, **k):
        return {"amplitudes": bind_bs(*a, **k).arguments["state"].amplitudes.size}

    def run_protocol(*a, **k):
        args = bind_protocol(*a, **k).arguments
        arm1, arm2, probe = args.get("cutoffs") or default_cutoffs(args["params"])
        # the detector mode is added at the dark-port (arm 2) cutoff
        return {"amplitudes": arm1 * arm2 * probe * arm2}

    def simulate_trials(*a, **k):
        return {"trials": bind_trials(*a, **k).arguments["n_trials"]}

    return {
        "fock.apply_beam_splitter": beam_splitter,
        "protocol.run_protocol": run_protocol,
        "montecarlo.simulate_trials": simulate_trials,
    }


def install(tracer: Tracer) -> int:
    """Wrap each public layer function at every module binding; return the count.

    `cli` imports the Monte Carlo functions and `sweep_validity` by name, and
    `protocol` and `montecarlo` do the same with `predict_phases` and
    `check_validity`, so patching only the defining module would miss them.
    """
    import wva_sim
    import wva_sim.cli  # noqa: F401  (loads every layer)

    counters = _counters(wva_sim)
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"wva_sim.{layer}"]
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, counters.get(name))
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "wva_sim" and not module_name.startswith("wva_sim."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                patched += 1
    return patched


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans PATH -- COMMAND [ARGS...]", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    from wva_sim.cli import main as cli_main

    command = tracer.wrap(f"cli.{cli_args[0]}", cli_main.main)
    code = 0
    try:
        command(args=cli_args, prog_name="wva-sim")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
