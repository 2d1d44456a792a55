"""Layer microbenchmarks built from public wva_sim calls only.

    PYTHONPATH=src python3 bench/microbench.py beam-splitter '{"alpha": 3.0, "beta": 2.0}' 8
    PYTHONPATH=src python3 bench/microbench.py trials '{"n_trials": 1000000, ...}' 8

The last argument is a time budget in seconds; each bench runs at least one
repetition and stops starting new ones once the budget is spent. Prints one
JSON object with medians over the repetitions.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import warnings


def beam_splitter(spec: dict, budget: float) -> dict:
    """Cold versus warm `apply_beam_splitter` on an oracle workload's register.

    The register has the shape of the detector stage of `run_protocol` at
    (alpha, beta): arm, arm, probe and detector modes. Each repetition takes
    an angle never used before in this process (cold: every multiplet block
    is built), then repeats it (warm: every block is cached). The difference
    is block construction.
    """
    from wva_sim import fock

    arm = fock.suggested_cutoff(spec["alpha"])
    arm_state = fock.make_coherent(spec["alpha"] / math.sqrt(2.0), arm)
    state = fock.tensor(
        fock.tensor(fock.tensor(arm_state, arm_state), fock.make_coherent(spec["beta"], fock.suggested_cutoff(spec["beta"]))),
        fock.make_fock(0, arm),
    )
    cold, warm = [], []
    start = time.perf_counter()
    while not cold or time.perf_counter() - start < budget:
        theta = 0.3 + 0.1 * math.sqrt(2.0) * len(cold)  # fresh for every repetition
        for times in (cold, warm):
            t0 = time.perf_counter()
            fock.apply_beam_splitter(state, 1, 3, theta)
            times.append(time.perf_counter() - t0)
    return {
        "shape": list(state.cutoffs),
        "reps": len(cold),
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
    }


def trials(spec: dict, budget: float) -> dict:
    """Trials per second of `simulate_trials` on one campaign point, for each worker count."""
    from wva_sim import InterferometerParams, NoiseModel, simulate_trials

    phi_bar, half_span = spec["phi_bar_urad"] * 1e-6, 0.5 * spec["span_urad"] * 1e-6
    params = InterferometerParams(
        alpha=math.sqrt(spec["n_bar"]),
        beta=spec["beta"],
        delta=spec["delta"],
        eta=spec["eta"],
        phi_plus=phi_bar + half_span,
        phi_minus=phi_bar - half_span,
    )
    noise = NoiseModel(phase_sigma=spec["phase_sigma"], background_click_rate=spec["background"])
    # one small untimed call, so that one-time lazy set-up is not timed
    simulate_trials(params, noise, 1000, spec["seed"], p_signal=spec["p_signal"])
    seconds: list[list[float]] = [[] for _ in spec["workers"]]
    start = time.perf_counter()
    while not seconds[0] or time.perf_counter() - start < budget:
        for workers, times in zip(spec["workers"], seconds):
            t0 = time.perf_counter()
            batch = simulate_trials(
                params, noise, spec["n_trials"], spec["seed"], p_signal=spec["p_signal"], workers=workers
            )
            times.append(time.perf_counter() - t0)
            del batch
    return {
        "n_trials": spec["n_trials"],
        "workers": spec["workers"],
        "reps": len(seconds[0]),
        "trials_per_s": [spec["n_trials"] / statistics.median(t) for t in seconds],
    }


BENCHES = {"beam-splitter": beam_splitter, "trials": trials}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in BENCHES:
        print(f"usage: microbench.py {{{','.join(BENCHES)}}} SPEC_JSON SECONDS", file=sys.stderr)
        return 1
    warnings.simplefilter("ignore")  # truncation warnings are not what is timed
    print(json.dumps(BENCHES[argv[0]](json.loads(argv[1]), float(argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
