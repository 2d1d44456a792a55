"""Exact end-to-end oracle for the post-selected interferometer.

Runs the full pipeline in truncated Fock space with no approximations:

    prepare |alpha/sqrt(2)>_1 |alpha/sqrt(2)>_2 |beta>_pr
    -> cross-Kerr phi_plus on (arm 1, probe)
    -> cross-Kerr phi_minus on (arm 2, probe)
    -> recombining beam splitter at theta(delta)   [arms -> bright, dark]
    -> detector of efficiency eta on the dark port, as its POVM on the
       dark-port count d: one click with weight d eta (1-eta)^(d-1), no
       click with weight (1-eta)^d

The register holds three modes (bright, dark, probe); the detector needs no
mode of its own, because the photons it misses are orthogonal across d and
so enter probe observables only through the weights.  Probabilities come
from the dark-port distribution, and the probe phase is the argument of the
conditional mean field.  For the real beta >= 0 that the parameters admit,
the unperturbed probe field is real and positive, so the phase needs no
reference run.  Outcomes with two or more detected photons are tallied into
``p_multi`` and kept out of the phase statistics.

Everything here is deterministic; sweeps are embarrassingly parallel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import fock
from .model import InterferometerParams, PhasePrediction, check_validity, predict_phases

# Branches below this squared norm are reported as degenerate (phase nan).
DEGENERATE_NORM2 = 1e-30

# Differential agreement sentinel: analytic = exact = 0 is reported as
# relative error 0; analytic = 0 with nonzero exact as inf.
_ZERO_PHASE_ATOL = 1e-12


@dataclass(frozen=True)
class ProtocolResult:
    """Exact branch probabilities and conditioned probe phases (radians)."""

    p_click: float
    p_noclick: float
    p_multi: float
    phase_click_exact: float
    phase_noclick_exact: float
    probe_amplitude_click: complex
    truncation_deficit: float
    click_degenerate: bool
    noclick_degenerate: bool

    @property
    def differential_exact(self) -> float:
        return self.phase_click_exact - self.phase_noclick_exact


@dataclass(frozen=True)
class SweepRow:
    """One oracle-versus-analytic comparison point."""

    params: InterferometerParams
    prediction: PhasePrediction
    result: ProtocolResult | None
    rel_error: float
    verdict: str
    note: str = ""


def default_cutoffs(params: InterferometerParams) -> tuple[int, int, int]:
    """Per-mode cutoffs (arm 1, arm 2, probe) for the exact pipeline.

    Arms are sized for the full signal amplitude, not alpha/sqrt(2): the
    recombiner can pile every signal photon into one output, and equal arm
    cutoffs keep all occupied photon-number multiplets representable.
    """
    arm = fock.suggested_cutoff(params.alpha)
    probe = fock.suggested_cutoff(params.beta)
    return arm, arm, probe


def run_protocol(params: InterferometerParams) -> ProtocolResult:
    """Execute the exact pipeline and condition on the detector's POVM.

    Modes are truncated at ``default_cutoffs(params)``.  The detector acts
    on the dark-port count d with the binomial weights w0 = (1-eta)^d (no
    click) and w1 = d eta (1-eta)^(d-1) (one click); the rest, nonzero only
    for d >= 2, is ``p_multi``.  Branch probabilities are sums of w_k(d)
    P(d); the conditioned probe field is the w_k(d) P(d)-weighted sum of the
    probe mean fields at fixed d, since the undetected d - k photons are
    orthogonal across d.
    """
    arm1_cut, arm2_cut, probe_cut = default_cutoffs(params)

    root2 = math.sqrt(2.0)
    reg = fock.tensor(
        fock.tensor(
            fock.make_coherent(params.alpha / root2, arm1_cut),
            fock.make_coherent(params.alpha / root2, arm2_cut),
        ),
        fock.make_coherent(params.beta, probe_cut),
    )
    # modes: 0 arm1, 1 arm2, 2 probe
    reg = fock.apply_cross_kerr(reg, 0, 2, params.phi_plus)
    reg = fock.apply_cross_kerr(reg, 1, 2, params.phi_minus)
    reg = fock.apply_beam_splitter(reg, 0, 1, params.theta)
    # modes: 0 bright port, 1 dark port, 2 probe

    deficit = fock.truncation_deficit(reg)
    dark = fock.fock_distribution(reg, 1)
    d = np.arange(dark.size)
    w_noclick = (1.0 - params.eta) ** d
    # the factor d makes w1(0) exactly 0, also where 0**0 = 1 at eta = 1
    w_click = d * params.eta * (1.0 - params.eta) ** np.maximum(d - 1, 0)
    w_multi = np.where(d > 1, np.maximum(1.0 - w_noclick - w_click, 0.0), 0.0)
    p_noclick, p_click, p_multi = (float(w @ dark) for w in (w_noclick, w_click, w_multi))

    # P(d)-weighted probe field at each dark count the two branches weigh
    fields = np.zeros(dark.size, dtype=np.complex128)
    for n in np.flatnonzero((dark > 0.0) & (w_noclick + w_click > 0.0)):
        fields[n] = dark[n] * fock.mean_field(fock.project_fock(reg, 1, int(n)), 1)

    click_degenerate = p_click < DEGENERATE_NORM2
    noclick_degenerate = p_noclick < DEGENERATE_NORM2

    # beta >= 0 is real, so the unperturbed probe field has phase exactly 0
    if click_degenerate:
        phase_click = math.nan
        amp_click = complex(math.nan, math.nan)
    else:
        amp_click = complex(w_click @ fields) / p_click
        phase_click = cmath.phase(amp_click)
    if noclick_degenerate:
        phase_noclick = math.nan
    else:
        phase_noclick = cmath.phase(complex(w_noclick @ fields))

    return ProtocolResult(
        p_click=p_click,
        p_noclick=p_noclick,
        p_multi=p_multi,
        phase_click_exact=phase_click,
        phase_noclick_exact=phase_noclick,
        probe_amplitude_click=amp_click,
        truncation_deficit=deficit,
        click_degenerate=click_degenerate,
        noclick_degenerate=noclick_degenerate,
    )


def differential_rel_error(result: ProtocolResult, prediction: PhasePrediction) -> float:
    """Relative disagreement of the exact differential against the closed form."""
    exact = result.differential_exact
    analytic = prediction.differential
    if analytic == 0.0:
        return 0.0 if abs(exact) < _ZERO_PHASE_ATOL else math.inf
    return abs(exact - analytic) / abs(analytic)


def sweep_validity(params_grid: Iterable[InterferometerParams]) -> list[SweepRow]:
    """Oracle-versus-analytic comparison over a parameter grid.

    One row per point; per-point failures (truncation, degenerate branches)
    are recorded in the row note and never abort the sweep.
    """
    grid = list(params_grid)
    if not grid:
        raise ValueError("parameter grid is empty")
    rows: list[SweepRow] = []
    for params in grid:
        prediction = predict_phases(params)
        verdict = check_validity(params).verdict
        try:
            result = run_protocol(params)
        except Exception as exc:  # recorded in-row by contract
            rows.append(
                SweepRow(params, prediction, None, math.nan, verdict, note=f"error: {exc}")
            )
            continue
        note = ""
        if result.click_degenerate or result.noclick_degenerate:
            note = "degenerate branch"
            rel = math.nan
        else:
            rel = differential_rel_error(result, prediction)
        rows.append(SweepRow(params, prediction, result, rel, verdict, note=note))
    return rows
