"""wva-sim benchmark: cold-process CLI runs plus an outside-in per-layer trace.

From the repository root:

    python3 bench/run.py --workload oracle-grid --seed 1 --seconds 30 --trace 0

`--trace 0` launches a fresh `wva-sim` process per CLI invocation, as a
researcher does, for `--seconds`, and reports the end-to-end metrics as
medians. `--trace 1` runs each invocation of the workload once under
`bench/tracer.py` in its own fresh process, runs the workload's
microbenchmark, runs the workload untraced for the tracing overhead, and
reports the per-layer metrics. Every output is checked. The last line of
standard output is the JSON result; the lines before it record the
environment, a noise calibration and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Users leave these unset, so the workloads run without them.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS", "BLIS_NUM_THREADS",
)
# A run must end within 180 s; any child still running at this point is killed.
HARD_LIMIT_S = 170.0
SETUP_REPS = 7
# Share of --seconds given to the microbenchmark in a traced run.
MICRO_SHARE = 0.2
# Computed bytes moved per beam-splitter input amplitude: a complex128 read
# and a complex128 write of both the gathered multiplet and the output.
BS_BYTES_PER_AMPLITUDE = 32
# Per-trial arrays of a batch: one bool click flag and one float64 phase.
TRIAL_BYTES = 9
CLI = 'import sys; from wva_sim.cli import main; sys.argv[0] = "wva-sim"; sys.exit(main())'

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
FOCK_SELF = ("apply_beam_splitter", "apply_cross_kerr", "tensor", "project_fock", "fock_distribution", "mean_field")
PER_LAYER_UNITS = {
    **{f"fock.{f}.self_s": "s" for f in FOCK_SELF},
    "fock.apply_beam_splitter.calls": "count",
    "fock.apply_beam_splitter.cold_s": "s",
    "fock.apply_beam_splitter.warm_s": "s",
    "fock.apply_beam_splitter.amplitudes": "count",
    "fock.apply_beam_splitter.computed_bytes": "B",
    "protocol.run_protocol.self_s": "s",
    "protocol.run_protocol.calls": "count",
    "protocol.run_protocol.p50_s": "s",
    "protocol.run_protocol.max_s": "s",
    "protocol.run_protocol.max_amplitudes": "count",
    "protocol.sweep_validity.self_s": "s",
    "model.self_s": "s",
    "montecarlo.simulate_trials.self_s": "s",
    "montecarlo.simulate_trials.trials": "count",
    "montecarlo.simulate_trials.trials_per_s.w1": "1/s",
    "montecarlo.simulate_trials.trials_per_s.w2": "1/s",
    "montecarlo.estimate_phases.self_s": "s",
    "montecarlo.batch_bytes.max": "B",
    "montecarlo.fit_per_photon_phase.self_s": "s",
    "montecarlo.fit_differential.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed program run)."""


@dataclass
class Sample:
    command: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)
    output_bytes: int = 0
    traced: bool = False


class Runner:
    """Launches children in the checkout and takes each one's own rusage."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = env
        self.references: dict[tuple[str, ...], list[bytes]] = {}

    def spawn(self, cmd: list[str], stdout=subprocess.DEVNULL) -> tuple[float, float, float, int, str]:
        """Wall, user+sys CPU, peak RSS in MB, exit code and stderr of one child.

        `os.wait4` returns the rusage of that child alone; RUSAGE_CHILDREN
        would report the high-water mark over every child reaped so far.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode, stderr

    def run(self, inv: workloads.Invocation, prefix: list[str]) -> Sample:
        """Run one invocation and check its outputs.

        Outputs must be byte-identical to those of the first run of the same
        arguments, traced or not.
        """
        for path in inv.outputs:
            path.unlink(missing_ok=True)
        wall, cpu, rss, code, stderr = self.spawn(prefix + list(inv.argv))
        sample = Sample(inv.command, wall, cpu, rss)
        if code != 0:
            sample.errors.append(f"exit code {code}: {stderr.strip()[-500:]}")
            return sample
        missing = [p.name for p in inv.outputs if not p.exists()]
        if missing:
            sample.errors.append(f"missing outputs {missing}")
            return sample
        outputs = [p.read_bytes() for p in inv.outputs]
        sample.output_bytes = sum(len(b) for b in outputs)
        try:
            sample.errors += inv.check(outputs)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            sample.errors.append(f"malformed output: {exc!r}")
        reference = self.references.setdefault(inv.argv, outputs)
        if outputs != reference:
            sample.errors.append("output bytes differ from an earlier run of the same seed")
        return sample

    def cli(self, inv: workloads.Invocation) -> Sample:
        return self.run(inv, [sys.executable, "-c", CLI])

    def traced(self, inv: workloads.Invocation, spans_path: Path) -> Sample:
        sample = self.run(inv, [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path), "--"])
        sample.traced = True
        return sample


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(runner: Runner, invocations: list[workloads.Invocation], seconds: float, samples: list[Sample]) -> list[Sample]:
    """Cycle through the invocations for `seconds`, adding to `samples`.

    Every invocation runs at least once. A new run starts only if the median
    of earlier runs of the same command says it ends within the budget.
    """
    start = time.monotonic()
    while True:
        inv = invocations[len(samples) % len(invocations)]
        expected = median([s.wall_s for s in samples if s.command == inv.command])
        now = time.monotonic()
        if len(samples) >= len(invocations) and (now - start + expected > seconds or now + expected > runner.deadline):
            return samples
        samples.append(runner.cli(inv))


def setup_time(runner: Runner, invocations: list[workloads.Invocation]) -> float:
    """Median wall time of a fresh `wva-sim <command> --help`."""
    walls = []
    for i in range(SETUP_REPS):
        command = invocations[i % len(invocations)].command
        wall, _, _, code, stderr = runner.spawn([sys.executable, "-c", CLI, command, "--help"])
        if code != 0:
            raise BenchError(f"`wva-sim {command} --help` failed: {stderr.strip()}")
        walls.append(wall)
    return median(walls)


def environment(runner: Runner) -> dict:
    probe = (
        "import json, numpy, scipy, importlib.metadata as md;"
        "blas = getattr(numpy.__config__, 'CONFIG', {}).get('Build Dependencies', {}).get('blas', {});"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, 'click': md.version('click'),"
        "'blas': blas.get('name'), 'blas_version': blas.get('version'), 'blas_config': blas.get('openblas configuration')}))"
    )
    with tempfile.TemporaryFile(dir=runner.workdir) as out:
        _, _, _, code, stderr = runner.spawn([sys.executable, "-c", probe], stdout=out)
        out.seek(0)
        versions = json.loads(out.read()) if code == 0 else {"error": stderr.strip()}
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.exists() else None,
        "thread_vars_seen": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "thread_vars_in_workloads": "unset",
    }


def noise_calibration() -> dict:
    """A fixed pure-Python kernel, timed as a diagnostic of machine noise."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i
        times.append(time.perf_counter() - t0)
    return {"kernel": "2e6-iteration Python loop", "seconds": times}


def cpu_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs, if exposed."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(runner: Runner, invocations, seconds: float) -> tuple[dict, list[Sample]]:
    setup = setup_time(runner, invocations)
    samples = measure(runner, invocations, seconds, [])
    ok = [s for s in samples if not s.errors] or samples
    values = {
        "wall_s": median([s.wall_s for s in ok]),
        "cpu_s": median([s.cpu_s for s in ok]),
        "peak_rss_mb": median([s.peak_rss_mb for s in ok]),
        "setup_s": setup,
    }
    return values, samples


def microbench(runner: Runner, workload: str, seed: int, nproc: int, budget: float) -> dict:
    if workload == "campaign":
        n_bar, delta, eta, n_total, background, p_signal = max(workloads.CAMPAIGN_POINTS, key=lambda p: p[3])
        kind, spec = "trials", {
            "n_bar": n_bar, "delta": delta, "eta": eta, "background": background, "p_signal": p_signal,
            "n_trials": round(n_total * workloads.TRIALS_SCALE), "beta": workloads.CAMPAIGN_BETA,
            "phi_bar_urad": workloads.CAMPAIGN_PHI_BAR_URAD, "span_urad": workloads.CAMPAIGN_SPAN_URAD,
            "phase_sigma": workloads.CAMPAIGN_PHASE_SIGMA, "seed": seed, "workers": [1, min(2, nproc)],
        }
    else:
        # the register of the workload's largest point
        if workload == "oracle-grid":
            alpha, beta = max(workloads.DEFAULT_GRID["alpha"]), max(workloads.DEFAULT_GRID["beta"])
        else:
            alpha, beta = max(workloads.LARGE_ALPHAS), workloads.LARGE_BETA
        kind, spec = "beam-splitter", {"alpha": alpha, "beta": beta}
    with tempfile.TemporaryFile(dir=runner.workdir) as out:
        cmd = [sys.executable, str(BENCH / "microbench.py"), kind, json.dumps(spec), str(budget)]
        _, _, _, code, stderr = runner.spawn(cmd, stdout=out)
        if code != 0:
            raise BenchError(f"microbench {kind} failed: {stderr.strip()[-500:]}")
        out.seek(0)
        return json.loads(out.read().decode().splitlines()[-1])


def layer_metrics(traces: list[list[dict]], micro: dict, output_bytes: int, overhead: float) -> dict:
    """Per-layer metrics of one traced pass: one span list per invocation.

    A layer the workload does not reach reports 0.
    """
    spans = []
    for trace in traces:  # span ids are unique within one traced process only
        selfs = tracer.self_times(trace)
        spans += [dict(span, self_ns=selfs[span["id"]]) for span in trace]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def self_s(prefix: str) -> float:
        return sum(s["self_ns"] for s in spans if s["name"].startswith(prefix)) / 1e9

    def counts(name: str, key: str) -> list[int]:
        return [s["counts"][key] for s in by_name.get(name, [])]

    protocol_s = sorted((s["end"] - s["start"]) / 1e9 for s in by_name.get("protocol.run_protocol", []))
    amplitudes = sum(counts("fock.apply_beam_splitter", "amplitudes"))
    w1, w2 = micro.get("trials_per_s", (0.0, 0.0))
    values = {f"fock.{f}.self_s": self_s(f"fock.{f}") for f in FOCK_SELF}
    values.update({
        "fock.apply_beam_splitter.calls": len(by_name.get("fock.apply_beam_splitter", [])),
        "fock.apply_beam_splitter.cold_s": micro.get("cold_s", 0.0),
        "fock.apply_beam_splitter.warm_s": micro.get("warm_s", 0.0),
        "fock.apply_beam_splitter.amplitudes": amplitudes,
        "fock.apply_beam_splitter.computed_bytes": BS_BYTES_PER_AMPLITUDE * amplitudes,
        "protocol.run_protocol.self_s": self_s("protocol.run_protocol"),
        "protocol.run_protocol.calls": len(protocol_s),
        "protocol.run_protocol.p50_s": median(protocol_s) if protocol_s else 0.0,
        "protocol.run_protocol.max_s": max(protocol_s, default=0.0),
        "protocol.run_protocol.max_amplitudes": max(counts("protocol.run_protocol", "amplitudes"), default=0),
        "protocol.sweep_validity.self_s": self_s("protocol.sweep_validity"),
        "model.self_s": self_s("model."),
        "montecarlo.simulate_trials.self_s": self_s("montecarlo.simulate_trials"),
        "montecarlo.simulate_trials.trials": sum(counts("montecarlo.simulate_trials", "trials")),
        "montecarlo.simulate_trials.trials_per_s.w1": w1,
        "montecarlo.simulate_trials.trials_per_s.w2": w2,
        "montecarlo.estimate_phases.self_s": self_s("montecarlo.estimate_phases"),
        "montecarlo.batch_bytes.max": TRIAL_BYTES * max(counts("montecarlo.simulate_trials", "trials"), default=0),
        "montecarlo.fit_per_photon_phase.self_s": self_s("montecarlo.fit_per_photon_phase"),
        "montecarlo.fit_differential.self_s": self_s("montecarlo.fit_differential"),
        "cli.self_s": self_s("cli."),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead,
    })
    return values


def per_layer(runner: Runner, workload: str, invocations, seed: int, seconds: float, nproc: int) -> tuple[dict, list[Sample]]:
    start = time.monotonic()
    untraced = [runner.cli(inv) for inv in invocations]
    traces, traced = [], []
    for i, inv in enumerate(invocations):
        spans_path = runner.workdir / f"spans-{i}.json"
        traced.append(runner.traced(inv, spans_path))
        if spans_path.exists():
            traces.append(json.loads(spans_path.read_text()))
    micro = microbench(runner, workload, seed, nproc, MICRO_SHARE * seconds)
    measure(runner, invocations, seconds - (time.monotonic() - start), untraced)
    overhead = sum(
        t.wall_s - median([s.wall_s for s in untraced if s.command == t.command]) for t in traced
    )
    values = layer_metrics(traces, micro, sum(t.output_bytes for t in traced), overhead)
    return values, untraced + traced


def report(metrics: dict, units: dict, samples: list[Sample]) -> dict:
    failed = [s for s in samples if s.errors]
    for s in failed:
        print(f"# FAILED {s.command}: {'; '.join(s.errors)}")
    for name, value in metrics.items():
        print(f"# {name:46s} {value:>16.6g} {units[name]}")
    print(f"# {'error_rate':46s} {len(failed) / len(samples):>16.6g} 1  ({len(failed)}/{len(samples)} runs failed)")
    by_command: dict[str, list[Sample]] = {}
    for s in samples:
        by_command.setdefault(("traced " if s.traced else "") + s.command, []).append(s)
    for command, runs in by_command.items():
        print(f"# runs of {command}: n={len(runs)}, wall_s " + ", ".join(f"{s.wall_s:.3f}" for s in runs))
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "wva_sim" / "cli.py").is_file():
        print(f"bench: no wva-sim source at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(workdir, deadline)
        nproc = len(os.sched_getaffinity(0))
        print("# environment: " + json.dumps(environment(runner), sort_keys=True))
        print("# noise calibration: " + json.dumps(noise_calibration()))
        steal, started = cpu_steal_s(), time.monotonic()
        invocations = workloads.WORKLOADS[args.workload](workdir, args.seed, nproc)
        if args.trace:
            metrics, samples = per_layer(runner, args.workload, invocations, args.seed, args.seconds, nproc)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = end_to_end(runner, invocations, args.seconds)
            units = END_TO_END_UNITS
        result = report(metrics, units, samples)
        if steal is not None:
            print(f"# cpu steal: {cpu_steal_s() - steal:.2f} s over {time.monotonic() - started:.1f} s of measurement")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
