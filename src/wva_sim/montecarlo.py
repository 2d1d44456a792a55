"""Monte Carlo model of the measurement campaign, one point at a time.

``simulate_trials`` draws one point, ``estimate_phases`` turns it into
group means with standard errors, and the two fits combine the points;
the commands that run points (fig3, fig4 and the snr comparison) are in
``cli``.

Each trial is one probe shot: the dark-port detector clicks with the
design probability (signal) or fires on a stray photon (background), and
one phase sample is recorded.  True phases come from the closed-form
model; background-only clicks are false post-selections that add no
photon, so they carry the no-click phase.  Measured phase = true phase +
Gaussian read-out noise.

The estimators need only the count, mean and summed squared deviation
(M2) of each conditioning group, so no trial is ever drawn: each point
draws those statistics from their exact law.  A trial's true phase is one
of two constants, so a group splits into three constant-phase subgroups:
signal clicks, background-only clicks and no-clicks.  Their counts are one
multinomial draw over n_trials with probabilities p_s, b (1 - p_s) and
(1 - p_s)(1 - b).  A subgroup of m phases ``phase + sigma z`` with unit
normal z has mean ``phase + sigma zbar``, with zbar ~ N(0, 1/m), and M2
``sigma^2 X``, with X ~ chi^2 on m - 1 degrees of freedom independent of
zbar (Cochran, Proc. Camb. Phil. Soc. 30, 178 (1934)); an empty subgroup
has no statistics and one of one trial has M2 = 0.  One pairwise update of
Chan, Golub & LeVeque (Am. Stat. 37(3), 1983) joins the two click
subgroups.  A point costs a handful of variates in constant memory,
whatever its trial count.

Reproducibility contract: the statistics are a pure function of
(params, noise, n_trials, seed).  The seed sequence ``seed`` spawns two
PCG64 streams: the first draws the multinomial, the second the noise, in
subgroup order (signal, background-only, no-click) with the mean before
the chi^2 within each subgroup.  The multinomial takes a number of raw
draws that depends on n_trials and the probabilities, and that variation
stays inside its own stream.  ``workers`` never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError, InvalidRegimeError
from .model import InterferometerParams, predict_phases

_MIN_GROUP = 2  # samples needed per conditioning group for a stderr


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot read-out noise and false post-selection rate."""

    phase_sigma: float = 0.100
    background_click_rate: float = 0.06

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phase_sigma) and self.phase_sigma >= 0.0):
            raise ValueError(f"phase_sigma must be >= 0, got {self.phase_sigma!r}")
        if not (0.0 <= self.background_click_rate < 1.0):
            raise ValueError(
                f"background_click_rate must lie in [0, 1), got {self.background_click_rate!r}"
            )


@dataclass(frozen=True)
class GroupStats:
    """Count, mean and summed squared deviation (M2) of one group's phases."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def merge(self, other: GroupStats) -> GroupStats:
        """The statistics of both groups together (Chan, Golub & LeVeque)."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        n = self.count + other.count
        delta = other.mean - self.mean
        return GroupStats(
            count=n,
            mean=self.mean + delta * (other.count / n),
            m2=self.m2 + other.m2 + delta * delta * (self.count * other.count / n),
        )


@dataclass(frozen=True)
class TrialStats:
    """Sufficient statistics of one simulated point: click and no-click groups."""

    n_trials: int
    click: GroupStats
    noclick: GroupStats


@dataclass(frozen=True)
class EstimatorResult:
    """Group means with standard errors; differential combines in quadrature."""

    phi_click: tuple[float, float]
    phi_noclick: tuple[float, float]
    differential: tuple[float, float]
    click_fraction: float


@dataclass(frozen=True)
class FitResult:
    parameter: float
    stderr: float
    chi_squared: float
    dof: int


def simulate_trials(
    params: InterferometerParams,
    noise: NoiseModel,
    n_trials: int,
    seed: int,
    *,
    p_signal: float | None = None,
    workers: int = 1,
) -> TrialStats:
    """Simulate one campaign point and reduce it to its group statistics.

    ``p_signal`` overrides the design click probability eta delta^2 n_bar
    (needed when that dark-port formula is outside its regime, e.g. a
    bright-port control point).  Raises InvalidRegimeError unless that
    probability p_s lies in [0, 1): stray clicks are drawn independently of
    the signal, so every such p_s leaves a no-click population, a fraction
    (1 - p_s)(1 - background).  Deterministic given the seed.  ``workers``
    is accepted, must be at least 1, and never changes the output: the draw
    is a few variates per point, so nothing is run in parallel.
    """
    if not 1 <= n_trials < 2**63:
        raise ValueError(f"n_trials must be in [1, 2^63), got {n_trials!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    prediction = predict_phases(params)
    p_s = prediction.p_click if p_signal is None else float(p_signal)
    b = noise.background_click_rate
    if not 0.0 <= p_s < 1.0:
        raise InvalidRegimeError(f"signal click probability {p_s:.4g} is outside [0, 1)")
    sigma = noise.phase_sigma
    count_rng, noise_rng = (
        np.random.Generator(np.random.PCG64(child)) for child in np.random.SeedSequence(seed).spawn(2)
    )
    # signal clicks, stray-only clicks, no-clicks
    counts = count_rng.multinomial(n_trials, (p_s, b * (1.0 - p_s), (1.0 - p_s) * (1.0 - b)))

    def subgroup(count: int, phase: float) -> GroupStats:
        """``count`` phases ``phase + sigma z``: the mean of z is N(0, 1/count)
        and its M2 an independent chi^2 with count - 1 degrees of freedom."""
        if count == 0:
            return GroupStats()
        z_mean = noise_rng.normal(0.0, 1.0 / math.sqrt(count))
        chi2 = noise_rng.chisquare(count - 1) if count > 1 else 0.0
        return GroupStats(count, phase + sigma * z_mean, sigma * sigma * chi2)

    phases = (prediction.phase_click, prediction.phase_noclick, prediction.phase_noclick)
    signal_clicks, stray_clicks, noclicks = (
        subgroup(int(count), phase) for count, phase in zip(counts, phases)
    )
    return TrialStats(n_trials, click=signal_clicks.merge(stray_clicks), noclick=noclicks)


def _group_estimate(group: GroupStats) -> tuple[float, float]:
    return group.mean, math.sqrt(group.m2 / (group.count - 1)) / math.sqrt(group.count)


def estimate_phases(stats: TrialStats) -> EstimatorResult:
    """Click / no-click group means, standard errors, and their difference."""
    if stats.click.count < _MIN_GROUP or stats.noclick.count < _MIN_GROUP:
        raise InsufficientDataError(
            f"need at least {_MIN_GROUP} samples in each group, got "
            f"{stats.click.count} clicks / {stats.noclick.count} no-clicks"
        )
    mc, sc = _group_estimate(stats.click)
    mn, sn = _group_estimate(stats.noclick)
    if not (math.isfinite(sc) and math.isfinite(sn)):  # the spread's square overflowed
        raise InsufficientDataError(f"non-finite stderr: {sc:.4g} clicks / {sn:.4g} no-clicks")
    return EstimatorResult(
        phi_click=(mc, sc),
        phi_noclick=(mn, sn),
        differential=(mc - mn, math.hypot(sc, sn)),
        click_fraction=stats.click.count / stats.n_trials,
    )


def _validated_points(points: Sequence[tuple[float, float, float]], what: str):
    if any(len(p) != 3 for p in points):
        raise ValueError(f"{what} points must be (abscissa, value, sigma) triples")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    s = np.array([p[2] for p in points], dtype=np.float64)
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise ValueError(f"{what} sigmas must be positive and finite")
    if np.any(s == 0.0):
        # a noise-free point, or a stderr that underflowed: infinite weight
        raise DegenerateFitError(f"{what} has a zero sigma")
    return x, y, s


def _weighted_slope(design, target, s, dof: int, *, intercept: bool) -> FitResult:
    """Weighted least-squares slope of ``target`` on ``design`` at sigmas ``s``.

    Through the origin, or with a free intercept when ``intercept`` is set:
    that line has the slope of the through-origin fit to both series less
    their weighted means, so one formula serves both fits.  Sigmas are
    known measurement errors: the stderr is 1/sqrt(sum w design^2) and
    chi^2 is reported unscaled.

    The weights are 1/(s 2^-k)^2, with the k that puts max(s 2^-k) in
    [1/2, 1): dividing every sigma by one power of two leaves the slope
    unchanged and the stderr and chi^2 off by exactly 2^-k and 4^k, which
    are undone at the end, and keeps 1/s^2 from underflowing (or
    overflowing) when every sigma is huge (or tiny).  The scaling is
    exact, so a fit at ordinary sigmas gives the bits of the unscaled one.
    A sigma below about 1e-154 of the largest still gets an infinite
    weight, and that raises DegenerateFitError.
    """
    k = math.frexp(float(s.max()))[1]
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / np.ldexp(s, -k) ** 2
    if not np.all(np.isfinite(w)):
        raise DegenerateFitError("a sigma below ~1e-154 of the largest has an infinite weight")
    if intercept:
        design = design - (w * design).sum() / w.sum()
        target = target - (w * target).sum() / w.sum()
    denom = float((w * design**2).sum())
    if not denom > 0.0:
        raise DegenerateFitError("singular normal equations")
    slope = float((w * design * target).sum() / denom)
    chi2 = float((w * (target - slope * design) ** 2).sum())
    return FitResult(
        parameter=slope,
        stderr=math.ldexp(1.0 / math.sqrt(denom), k),
        chi_squared=math.ldexp(chi2, -2 * k),
        dof=int(dof),
    )


def fit_per_photon_phase(points: Sequence[tuple[float, float, float]]) -> FitResult:
    """Weighted least-squares line phase = c + slope * n_bar; returns the slope.

    Needs at least three points (so the two-parameter fit keeps a degree of
    freedom) with at least two distinct abscissas.  The slope is fitted to
    the points less their weighted means, which drops the intercept without
    solving for it; the stderr is the slope's, with the intercept free.
    """
    x, y, s = _validated_points(points, "per-photon fit")
    if x.size < 3:
        raise DegenerateFitError("need >= 3 points for the slope-plus-intercept fit")
    if np.unique(x).size < 2:
        raise DegenerateFitError("degenerate abscissas: all n_bar equal")
    return _weighted_slope(x, y, s, x.size - 2, intercept=True)


def fit_differential(
    points: Sequence[tuple[float, float, float]],
    phi_bar_fixed: float,
    *,
    include_delta_one: bool = False,
) -> FitResult:
    """One-parameter fit of diff = phi_bar + span / (2 delta) for the span.

    ``phi_bar_fixed`` is held fixed (the separately measured per-photon
    phase).  The model is a small-delta form, so delta = 1 control points
    are dropped unless ``include_delta_one`` is set.
    """
    x, y, s = _validated_points(points, "differential fit")
    if not include_delta_one:
        keep = x < 1.0
        x, y, s = x[keep], y[keep], s[keep]
    if x.size < 2:
        raise DegenerateFitError("need >= 2 points below delta = 1 for the fit")
    if np.unique(x).size < 2:
        raise DegenerateFitError("degenerate abscissas: all delta equal")
    return _weighted_slope(1.0 / (2.0 * x), y - phi_bar_fixed, s, x.size - 1, intercept=False)
