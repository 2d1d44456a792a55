"""Exact end-to-end oracle for the post-selected interferometer.

Runs the full pipeline in truncated Fock space with no approximations:

    prepare |alpha/sqrt(2)>_1 |alpha/sqrt(2)>_2 |beta>_pr
    -> cross-Kerr phi_plus on (arm 1, probe)
    -> cross-Kerr phi_minus on (arm 2, probe)
    -> recombining beam splitter at theta(delta)   [arms -> bright, dark]
    -> detector of efficiency eta on the dark port, as its POVM on the
       dark-port count d: one click with weight d eta (1-eta)^(d-1), no
       click with weight (1-eta)^d

The register holds three modes (dark, bright, probe); the detector needs no
mode of its own, because the photons it misses are orthogonal across d and
so enter probe observables only through the weights.  Probabilities come
from the dark-port distribution, and the probe phase is the argument of the
conditional mean field.  For the real beta >= 0 that the parameters admit,
the unperturbed probe field is real and positive, so the phase needs no
reference run.  Outcomes with two or more detected photons are tallied into
``p_multi`` and kept out of the phase statistics.

``run_protocol`` runs in two stages.  The optics stage (preparation, both
cross-Kerr phases, the recombiner) does not involve eta; it reduces the
register to the dark-port distribution P(d) and the P(d)-weighted probe
mean field at each d with P(d) > 0.  The sum of P(d) is the register's
norm^2, so its shortfall from 1 is the truncation deficit.  The detector
stage weighs the per-d results with the POVM.  The optics stage is cached
with one entry, keyed on the point with eta set to 1; the entry holds the
two O(cutoff) arrays, never the register.  ``sweep_validity`` runs its
points in grid order, so points that differ only in eta share one optics
stage when they are adjacent, as in ``oracle-validate``'s grid, where eta
varies fastest.

Everything here is deterministic; sweeps are embarrassingly parallel.
numpy is imported by each function that uses it, when called, so it
loads on the first call; several threads may make that call together,
since the import system's module lock loads numpy once for all of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

from . import fock
from .model import InterferometerParams, PhasePrediction, check_validity, predict_phases

# A branch below this squared norm is degenerate: its phase is nan.
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
    truncation_deficit: float

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


@lru_cache(maxsize=1)
def _optics_stage(optics: InterferometerParams) -> tuple[np.ndarray, np.ndarray]:
    """The eta-independent stage: prepare, phase and recombine the register.

    ``optics`` is a point with eta set to 1, so points that differ only in
    eta share its one cache entry.  Returns the dark-port distribution P(d),
    whose sum is the register's norm^2, and the P(d)-weighted probe field at
    every d with P(d) > 0, both read-only.  The entry keeps these O(cutoff)
    arrays, never the register.  A register over the amplitude budget
    raises RegisterBudgetError before any mode is built, since a mode's
    cutoff grows as its amplitude squared.
    """
    import numpy as np
    cutoffs = default_cutoffs(optics)
    fock.check_register_size(math.prod(cutoffs))
    arm1_cut, arm2_cut, probe_cut = cutoffs
    root2 = math.sqrt(2.0)
    reg = fock.tensor(
        fock.tensor(
            fock.make_coherent(optics.alpha / root2, arm2_cut),
            fock.make_coherent(optics.alpha / root2, arm1_cut),
        ),
        fock.make_coherent(optics.beta, probe_cut),
    )
    # modes: 0 arm2, 1 arm1, 2 probe
    reg = fock.apply_cross_kerr(reg, 1, 2, optics.phi_plus)
    reg = fock.apply_cross_kerr(reg, 0, 2, optics.phi_minus)
    reg = fock.apply_beam_splitter(reg, 1, 0, optics.theta)
    # modes: 0 dark port, 1 bright port, 2 probe; with the dark port first,
    # each projection onto a dark-port count is a contiguous slice

    dark = fock.fock_distribution(reg, 0)
    fields = np.zeros(dark.size, dtype=np.complex128)
    for n in np.flatnonzero(dark > 0.0):
        fields[n] = dark[n] * fock.mean_field(fock.project_fock(reg, 0, int(n)), 1)
    dark.setflags(write=False)
    fields.setflags(write=False)
    return dark, fields


def run_protocol(params: InterferometerParams) -> ProtocolResult:
    """Execute the exact pipeline and condition on the detector's POVM.

    Modes are truncated at ``default_cutoffs(params)``.  The optics stage
    (preparation, both cross-Kerr phases, the recombiner) does not depend on
    eta; it yields the dark-port distribution P(d) and the P(d)-weighted
    probe mean field at each fixed d.  Its last result is cached under the
    point with eta set to 1, so a call that differs from the previous one
    only in eta skips it.  A point that raises is not cached and raises
    again.  The detector stage then acts on d with the binomial
    weights w0 = (1-eta)^d (no click) and w1 = d eta (1-eta)^(d-1) (one
    click), by one rule for both branches: the probability is the sum of
    w_k(d) P(d), and the phase is the argument of the w_k(d)-weighted sum
    of the P(d)-weighted fields (the undetected d - k photons are
    orthogonal across d), or nan below ``DEGENERATE_NORM2`` or where that
    sum is exactly 0 (a vacuum probe, beta = 0, has no phase).  The sum of
    P(d) is the register's norm^2: its shortfall from 1, floored at 0, is
    the truncation deficit, and ``p_multi`` is what the two branches leave
    of that sum, the sum less both branch probabilities, floored at 0.
    """
    import numpy as np
    dark, fields = _optics_stage(replace(params, eta=1.0))
    d = np.arange(dark.size)
    w_noclick = (1.0 - params.eta) ** d
    # the factor d makes w1(0) exactly 0, also where 0**0 = 1 at eta = 1
    w_click = d * params.eta * (1.0 - params.eta) ** np.maximum(d - 1, 0)
    # beta >= 0 is real, so the unperturbed probe field has phase exactly 0
    branches = [(float(w @ dark), complex(w @ fields)) for w in (w_noclick, w_click)]
    (p_noclick, phase_noclick), (p_click, phase_click) = (
        (p, math.nan if p < DEGENERATE_NORM2 or field == 0 else cmath.phase(field))
        for p, field in branches
    )
    total = float(dark.sum())
    return ProtocolResult(
        p_click=p_click,
        p_noclick=p_noclick,
        p_multi=max(0.0, total - p_noclick - p_click),
        phase_click_exact=phase_click,
        phase_noclick_exact=phase_noclick,
        truncation_deficit=max(0.0, 1.0 - total),
    )


def differential_rel_error(result: ProtocolResult, prediction: PhasePrediction) -> float:
    """Relative disagreement of the exact differential against the closed form."""
    exact = result.differential_exact
    analytic = prediction.differential
    if analytic == 0.0:
        return 0.0 if abs(exact) < _ZERO_PHASE_ATOL else math.inf
    return abs(exact - analytic) / abs(analytic)


def _sweep_row(params: InterferometerParams) -> SweepRow:
    """One point's row.  A point whose engine fails (over the amplitude
    budget, a truncation leak past its tolerance, a non-unitary block) is
    recorded in the row's note; any other exception propagates."""
    prediction = predict_phases(params)
    verdict = check_validity(params).verdict
    try:
        result = run_protocol(params)
    except (MemoryError, RuntimeError, ValueError) as exc:  # the bases of the engine's own errors
        return SweepRow(params, prediction, None, math.nan, verdict, note=f"error: {exc}")
    # a degenerate branch (below DEGENERATE_NORM2, or a zero field) has a nan phase
    note = "degenerate branch" if math.isnan(result.differential_exact) else ""
    rel = math.nan if note else differential_rel_error(result, prediction)
    return SweepRow(params, prediction, result, rel, verdict, note=note)


def sweep_validity(params_grid: Iterable[InterferometerParams]) -> list[SweepRow]:
    """Oracle-versus-analytic comparison over a parameter grid.

    One row per point, in grid order; a point's engine failure (over the
    amplitude budget, truncation, a non-unitary block) or degenerate branch
    is recorded in the row note and never aborts the sweep, and any other
    exception, such as a missing numpy, propagates before any row is
    returned.  Each row depends on its point alone, never on the grid's order;
    adjacent points that differ only in eta build one register.
    """
    rows = [_sweep_row(p) for p in params_grid]
    if not rows:
        raise ValueError("parameter grid is empty")
    return rows
