"""Monte Carlo model of the measurement campaign.

Each trial is one probe shot: the dark-port detector clicks with the
design probability (signal) or fires on a stray photon (background), and
one phase sample is recorded.  True phases come from the closed-form
model; background-only clicks are false post-selections that add no
photon, so they carry the no-click phase.  Measured phase = true phase +
Gaussian read-out noise.

Reproducibility contract: a batch is a pure function of
(params, noise, n_trials, seed).  Trials are laid out in fixed chunks of
``CHUNK_TRIALS``; chunk k draws from a counter-based Philox stream keyed
(seed, k) and consumes exactly three uniforms per trial (the Gaussian
noise uses the inverse normal CDF rather than rejection sampling so the
draw count per trial is constant).  Worker count therefore never changes
the output, bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateFitError, InsufficientDataError, InvalidRegimeError
from .model import InterferometerParams, predict_phases

CHUNK_TRIALS = 1 << 17

# SNR sentinel when a scheme's spread collapses to zero (noise-free data).
SNR_CAP = 1e9

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
class TrialBatch:
    """Per-trial click flags and measured phase samples (radians)."""

    n_trials: int
    clicks: np.ndarray
    phases: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.clicks.shape != (self.n_trials,) or self.phases.shape != (self.n_trials,):
            raise ValueError("clicks and phases must both have length n_trials")
        self.clicks.setflags(write=False)
        self.phases.setflags(write=False)


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


@dataclass(frozen=True)
class SchemeConfig:
    """One measurement scheme for the SNR comparison."""

    params: InterferometerParams
    noise: NoiseModel
    p_signal: float | None = None


@dataclass(frozen=True)
class SnrComparison:
    snr_wva: float
    snr_direct: float
    ratio: float


def signal_click_probability(params: InterferometerParams) -> float:
    """Design post-selection probability eta delta^2 n_bar."""
    return params.eta * params.delta**2 * params.n_bar


def _chunk_samples(seed: int, chunk: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = np.array([seed, chunk], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((count, 3))
    return u[:, 0], u[:, 1], u[:, 2]


def simulate_trials(
    params: InterferometerParams,
    noise: NoiseModel,
    n_trials: int,
    seed: int,
    *,
    p_signal: float | None = None,
    workers: int = 1,
) -> TrialBatch:
    """Simulate one campaign point.

    ``p_signal`` overrides the design click probability eta delta^2 n_bar
    (needed when that dark-port formula is outside its regime, e.g. a
    bright-port control point).  Deterministic given the seed; ``workers``
    only parallelizes chunk evaluation, on at most one thread per chunk
    and per CPU.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    p_s = signal_click_probability(params) if p_signal is None else float(p_signal)
    b = noise.background_click_rate
    if p_s < 0.0 or p_s + b >= 1.0:
        raise InvalidRegimeError(
            f"signal click probability {p_s:.4g} plus background {b:.4g} "
            "leaves no no-click population"
        )
    prediction = predict_phases(params)
    phi_c, phi_n = prediction.phase_click, prediction.phase_noclick
    sigma = noise.phase_sigma

    clicks = np.empty(n_trials, dtype=bool)
    phases = np.empty(n_trials, dtype=np.float64)

    def fill(chunk: int) -> None:
        start = chunk * CHUNK_TRIALS
        count = min(CHUNK_TRIALS, n_trials - start)
        u_sig, u_bg, u_ph = _chunk_samples(seed, chunk, count)
        signal = u_sig < p_s
        background = u_bg < b
        sl = slice(start, start + count)
        clicks[sl] = signal | background
        true_phase = np.where(signal, phi_c, phi_n)
        # clip away the measure-zero u == 0 so ndtri stays finite
        noise_z = ndtri(np.maximum(u_ph, 1e-300))
        phases[sl] = true_phase + sigma * noise_z

    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    # a thread beyond the chunk count or the cores would only wait
    threads = min(workers, n_chunks, os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(n_chunks)))
    else:
        for chunk in range(n_chunks):
            fill(chunk)
    return TrialBatch(n_trials=n_trials, clicks=clicks, phases=phases, seed=seed)


def _group_stats(samples: np.ndarray) -> tuple[float, float]:
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(samples.size))
    return mean, stderr


def estimate_phases(batch: TrialBatch) -> EstimatorResult:
    """Click / no-click group means, standard errors, and their difference."""
    click_samples = batch.phases[batch.clicks]
    noclick_samples = batch.phases[~batch.clicks]
    if click_samples.size < _MIN_GROUP or noclick_samples.size < _MIN_GROUP:
        raise InsufficientDataError(
            f"need at least {_MIN_GROUP} samples in each group, got "
            f"{click_samples.size} clicks / {noclick_samples.size} no-clicks"
        )
    mc, sc = _group_stats(click_samples)
    mn, sn = _group_stats(noclick_samples)
    return EstimatorResult(
        phi_click=(mc, sc),
        phi_noclick=(mn, sn),
        differential=(mc - mn, math.hypot(sc, sn)),
        click_fraction=float(batch.clicks.mean()),
    )


def _validated_points(points: Sequence[tuple[float, float, float]], what: str):
    if any(len(p) != 3 for p in points):
        raise ValueError(f"{what} points must be (abscissa, value, sigma) triples")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    s = np.array([p[2] for p in points], dtype=np.float64)
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        raise ValueError(f"{what} sigmas must be positive and finite")
    return x, y, s


def fit_per_photon_phase(points: Sequence[tuple[float, float, float]]) -> FitResult:
    """Weighted least-squares line phase = c + slope * n_bar; returns the slope.

    Needs at least three points (so the two-parameter fit keeps a degree of
    freedom) with at least two distinct abscissas.  Sigmas are treated as
    known measurement errors: the slope variance comes from the normal
    equations, chi^2 is reported unscaled.
    """
    x, y, s = _validated_points(points, "per-photon fit")
    if x.size < 3:
        raise DegenerateFitError("need >= 3 points for the slope-plus-intercept fit")
    if np.unique(x).size < 2:
        raise DegenerateFitError("degenerate abscissas: all n_bar equal")
    w = 1.0 / s**2
    sw, swx, swxx = w.sum(), (w * x).sum(), (w * x * x).sum()
    swy, swxy = (w * y).sum(), (w * x * y).sum()
    det = sw * swxx - swx**2
    if det <= 0.0:
        raise DegenerateFitError("singular normal equations")
    slope = (sw * swxy - swx * swy) / det
    intercept = (swxx * swy - swx * swxy) / det
    resid = y - intercept - slope * x
    chi2 = float((w * resid**2).sum())
    return FitResult(
        parameter=float(slope),
        stderr=float(math.sqrt(sw / det)),
        chi_squared=chi2,
        dof=int(x.size - 2),
    )


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
    w = 1.0 / s**2
    design = 1.0 / (2.0 * x)
    target = y - phi_bar_fixed
    denom = float((w * design**2).sum())
    span = float((w * design * target).sum() / denom)
    resid = target - span * design
    chi2 = float((w * resid**2).sum())
    return FitResult(
        parameter=span,
        stderr=float(1.0 / math.sqrt(denom)),
        chi_squared=chi2,
        dof=int(x.size - 1),
    )


def _scheme_snr(config: SchemeConfig, n_trials: int, seed: int, workers: int) -> float:
    batch = simulate_trials(
        config.params,
        config.noise,
        n_trials,
        seed,
        p_signal=config.p_signal,
        workers=workers,
    )
    est = estimate_phases(batch)
    value, stderr = est.differential
    if not math.isfinite(stderr) or stderr <= 0.0:
        return SNR_CAP
    return min(abs(value) / stderr, SNR_CAP)


def snr_compare(
    wva_config: SchemeConfig,
    direct_config: SchemeConfig,
    n_trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> SnrComparison:
    """|differential| / stderr for the amplified and the direct scheme.

    Equal trial budgets; independent substreams derived from the seed.
    Zero-spread schemes return the capped sentinel, so two noise-free
    schemes compare at ratio 1.
    """
    seed_wva, seed_direct = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64)
    )
    snr_wva = _scheme_snr(wva_config, n_trials, seed_wva, workers)
    snr_direct = _scheme_snr(direct_config, n_trials, seed_direct, workers)
    return SnrComparison(snr_wva=snr_wva, snr_direct=snr_direct, ratio=snr_wva / snr_direct)
