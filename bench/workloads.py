"""The benchmark's workloads and the checks every output must pass.

A workload is a cycle of `wva-sim` CLI invocations built from a seed. The
program receives only the generated arguments and config file. This module
never imports wva_sim: the checks recompute the expected values from the
closed forms, so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# The CLI's default relative-error gate and the model's "valid" threshold.
ORACLE_TOLERANCE = 0.05
VALID_MAX = 0.1

# oracle-validate's default grid (3 alpha x 3 delta x 2 beta x 2 eta x
# 2 phi_bar = 72 points). Kept here so that a change to the default shows as
# a failed check instead of a silently different workload.
DEFAULT_GRID = {
    "alpha": (0.2, 0.5, 1.0),
    "delta": (0.1, 0.2, 0.5),
    "beta": (0.5, 1.0),
    "eta": (0.5, 1.0),
    "phi_bar_urad": (100.0, 1000.0),
}
SPAN_OVER_PHI_BAR = 2.0

# oracle-large: few points, big registers. alpha = 3, beta = 2 gives cutoffs
# (37, 37, 26) and 37 * 37 * 26 * 37 = 1.3M amplitudes with the detector
# mode; delta = 0.1 keeps both validity ratios below VALID_MAX.
LARGE_ALPHAS = (2.0, 3.0)
LARGE_BETA = 2.0
LARGE_DELTA = 0.1
LARGE_ETA = 1.0

# The smallest round trial scale at which the largest campaign point
# (374,443,000 * 0.14 = 52.4M trials at 9 B each = 472 MB) is at least four
# times the 105 MiB L3 of the reference machine.
TRIALS_SCALE = 0.14

# fig3/fig4 default campaign: (n_bar, delta, eta, n_total, background,
# p_signal or None for the design value eta * delta^2 * n_bar).
CAMPAIGN_POINTS = (
    (95.0, 0.10, 0.2, 42_111_000, 0.06, None),
    (45.0, 0.14, 0.2, 104_111_000, 0.06, None),
    (20.0, 0.22, 0.2, 102_380_000, 0.06, None),
    (10.0, 0.32, 0.2, 204_112_000, 0.06, None),
    (40.0, 1.00, 0.03, 374_443_000, 0.015, 0.185),
)
CAMPAIGN_PHI_BAR_URAD = 5.59
CAMPAIGN_SPAN_URAD = 8.7
CAMPAIGN_BETA = 44.72
CAMPAIGN_PHASE_SIGMA = 0.1
SIGMAS = 5.0


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments, the files it writes and their check."""

    command: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[list[bytes]], list[str]]


def _csv_rows(text: str) -> list[dict[str, str]]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _same(a, b) -> bool:
    """Equal sequences of numbers, up to the 17-digit round trip of the CSV."""
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(a, b))


def check_oracle(outputs: list[bytes], expected_points: list[tuple[float, ...]]) -> list[str]:
    """One row per grid point, no error note, every valid row within tolerance.

    Validity and the closed-form differential phi_bar + delta_phi / (2 delta)
    are recomputed from each row's own inputs.
    """
    rows = _csv_rows(outputs[0].decode())
    errors = []
    points = sorted(
        (
            float(r["alpha"]), float(r["beta"]), float(r["delta"]), float(r["eta"]),
            0.5 * (float(r["phi_plus"]) + float(r["phi_minus"])),
        )
        for r in rows
    )
    if len(points) != len(expected_points) or not all(map(_same, points, sorted(expected_points))):
        errors.append(f"rows do not match the {len(expected_points)} grid points ({len(rows)} rows)")
    for i, r in enumerate(rows):
        verdict = r["verdict"]
        if "error:" in verdict:
            errors.append(f"row {i}: {verdict}")
            continue
        alpha, beta, delta = float(r["alpha"]), float(r["beta"]), float(r["delta"])
        phi_plus, phi_minus = float(r["phi_plus"]), float(r["phi_minus"])
        backaction = beta**2 * abs(phi_plus - phi_minus) * 1e-6 / delta
        darkport = alpha**2 * delta**2
        expect_valid = backaction < VALID_MAX and darkport < VALID_MAX
        if (verdict.split(" ")[0] == "valid") != expect_valid:
            errors.append(f"row {i}: verdict {verdict!r}, ratios {backaction:.3g}, {darkport:.3g}")
        if not 0.0 <= float(r["p_click_exact"]) <= 1.0:
            errors.append(f"row {i}: p_click_exact {r['p_click_exact']}")
        if verdict != "valid":
            continue
        analytic = 0.5 * (phi_plus + phi_minus) + (phi_plus - phi_minus) / (2.0 * delta)
        rel = abs(float(r["diff_exact"]) - analytic) / abs(analytic)
        if not (rel < ORACLE_TOLERANCE and float(r["rel_error"]) < ORACLE_TOLERANCE):
            errors.append(f"row {i}: relative error {rel:.3g} / {r['rel_error']} above {ORACLE_TOLERANCE}")
    return errors


def check_campaign(outputs: list[bytes]) -> list[str]:
    """Five rows matching the campaign, each consistent with the closed form.

    The click fraction must lie within SIGMAS binomial standard deviations of
    p_s + b - p_s b. Background-only clicks carry the no-click phase, so the
    expected differential is the closed form diluted by the signal share of
    the clicks, and it must lie within SIGMAS of the row's own stderr.
    """
    rows = _csv_rows(outputs[0].decode())
    errors = []
    if len(rows) != len(CAMPAIGN_POINTS):
        errors.append(f"{len(rows)} rows, expected {len(CAMPAIGN_POINTS)}")
    for i, (r, point) in enumerate(zip(rows, CAMPAIGN_POINTS)):
        n_bar, delta, eta, n_total, background, p_signal = point
        trials = max(2, round(n_total * TRIALS_SCALE))
        inputs = (float(r["n_bar"]), float(r["delta"]), float(r["eta"]))
        if not _same(inputs, (n_bar, delta, eta)) or int(r["trials"]) != trials:
            errors.append(f"row {i}: inputs differ from campaign point {point}")
            continue
        p_s = eta * delta**2 * n_bar if p_signal is None else p_signal
        p_click = p_s + background - p_s * background
        fraction = float(r["click_fraction"])
        sigma = math.sqrt(p_click * (1.0 - p_click) / trials)
        if not abs(fraction - p_click) <= SIGMAS * sigma:
            errors.append(f"row {i}: click fraction {fraction} vs {p_click:.6g} +/- {sigma:.3g}")
        closed = CAMPAIGN_PHI_BAR_URAD + CAMPAIGN_SPAN_URAD / (2.0 * delta)
        expected = closed * p_s / p_click
        diff, stderr = float(r["diff"]), float(r["diff_stderr"])
        if not (stderr > 0.0 and abs(diff - expected) <= SIGMAS * stderr):
            errors.append(f"row {i}: differential {diff} +/- {stderr} vs {expected:.6g}")
    fit = json.loads(outputs[1])
    numbers = [v for v in fit.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if not numbers or not all(math.isfinite(v) for v in numbers) or not fit.get("stderr_urad", 0) > 0:
        errors.append(f"fit JSON not finite: {fit}")
    return errors


def _oracle(name: str, workdir: Path, seed: int, config: dict | None, points) -> list[Invocation]:
    out = workdir / f"{name}.csv"
    argv = ["oracle-validate", "--seed", str(seed), "--out", str(out)]
    if config is not None:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        argv += ["--config", str(path)]
    return [Invocation("oracle-validate", tuple(argv), (out,), partial(check_oracle, expected_points=points))]


def oracle_grid(workdir: Path, seed: int, nproc: int) -> list[Invocation]:
    g = DEFAULT_GRID
    points = [
        (a, b, d, e, p)
        for a in g["alpha"] for b in g["beta"] for d in g["delta"]
        for e in g["eta"] for p in g["phi_bar_urad"]
    ]
    return _oracle("oracle-grid", workdir, seed, None, points)


def oracle_large(workdir: Path, seed: int, nproc: int) -> list[Invocation]:
    # the seed moves only phi_bar, which changes no register size
    phi_bar = random.Random(seed).uniform(50.0, 200.0)
    config = {
        "alpha": list(LARGE_ALPHAS),
        "beta": [LARGE_BETA],
        "delta": [LARGE_DELTA],
        "eta": [LARGE_ETA],
        "phi_bar_urad": [phi_bar],
        "span_over_phi_bar": SPAN_OVER_PHI_BAR,
        "tolerance": ORACLE_TOLERANCE,
    }
    points = [(a, LARGE_BETA, LARGE_DELTA, LARGE_ETA, phi_bar) for a in LARGE_ALPHAS]
    return _oracle("oracle-large", workdir, seed, config, points)


def campaign(workdir: Path, seed: int, nproc: int) -> list[Invocation]:
    invocations = []
    for command in ("fig3", "fig4"):
        out = workdir / f"{command}.csv"
        argv = (
            command, "--seed", str(seed), "--trials-scale", str(TRIALS_SCALE),
            "--workers", str(nproc), "--out", str(out),
        )
        invocations.append(Invocation(command, argv, (out, out.with_suffix(".fit.json")), check_campaign))
    return invocations


WORKLOADS = {
    "oracle-grid": oracle_grid,
    "oracle-large": oracle_large,
    "campaign": campaign,
}
