"""Monte Carlo model of the measurement campaign.

Each trial is one probe shot: the dark-port detector clicks with the
design probability (signal) or fires on a stray photon (background), and
one phase sample is recorded.  True phases come from the closed-form
model; background-only clicks are false post-selections that add no
photon, so they carry the no-click phase.  Measured phase = true phase +
Gaussian read-out noise.

The estimators need only the count, mean and summed squared deviation
(M2) of each conditioning group, so trials are never kept: each chunk of
``CHUNK_TRIALS`` trials is reduced to its two group triples as soon as it
is drawn, and the triples are merged in chunk order with the pairwise
update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983).  Memory is
O(threads x chunk) for any trial count.

Reproducibility contract: the statistics are a pure function of
(params, noise, n_trials, seed).  Chunk k draws from a counter-based
Philox stream keyed (seed, k) and consumes exactly three uniforms per
trial (the Gaussian noise uses the inverse normal CDF rather than
rejection sampling so the draw count per trial is constant), and the merge
order is fixed.  Worker count therefore never changes the output, bit for
bit.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
class GroupStats:
    """Count, mean and summed squared deviation (M2) of one group's phases."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, samples: np.ndarray, shift: float) -> GroupStats:
        """Two-pass statistics of ``samples``, with the mean summed about ``shift``.

        ``shift`` should lie near the group mean.  It is rounded to 24 bits,
        so that ``samples - shift`` rounds without a bias from its low bits,
        and a group whose every sample equals ``shift`` gets that mean and
        M2 = 0 exactly.
        """
        if samples.size == 0:
            return cls()
        shift = float(np.float32(shift))
        dev = samples - shift
        mean = shift + float(dev.mean())
        np.subtract(samples, mean, out=dev)
        # np.square + sum, not a BLAS dot: a dot starts BLAS threads
        return cls(samples.size, mean, float(np.square(dev, out=dev).sum()))

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
    seed: int
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


def check_regime(
    params: InterferometerParams, noise: NoiseModel, p_signal: float | None = None
) -> float:
    """The signal click probability, checked to leave a no-click population.

    The design value is ``predict_phases(params).p_click``, eta delta^2
    n_bar; ``p_signal`` overrides it.  Raises InvalidRegimeError.
    """
    p_s = predict_phases(params).p_click if p_signal is None else float(p_signal)
    b = noise.background_click_rate
    if p_s < 0.0 or p_s + b >= 1.0:
        raise InvalidRegimeError(
            f"signal click probability {p_s:.4g} plus background {b:.4g} "
            "leaves no no-click population"
        )
    return p_s


def _chunk_samples(seed: int, chunk: int, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill ``out`` (count x 3) with chunk ``chunk``'s uniforms; return its columns."""
    key = np.array([seed, chunk], dtype=np.uint64)
    np.random.Generator(np.random.Philox(key=key)).random(out=out)
    return out[:, 0], out[:, 1], out[:, 2]


class _ChunkBuffers(threading.local):
    """One thread's work arrays, reused by every chunk that thread draws.

    Arrays allocated afresh for each chunk would go back to the OS between
    chunks and be faulted in again page by page: about a quarter of a
    serial run's time on a 2-core x86 VM.
    """

    def __init__(self) -> None:
        self.uniforms = np.empty((CHUNK_TRIALS, 3))
        self.noise = np.empty(CHUNK_TRIALS)
        self.phases = np.empty(CHUNK_TRIALS)


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
    bright-port control point).  Deterministic given the seed; ``workers``
    only parallelizes chunk evaluation, on at most one thread per chunk
    and per CPU this process may use.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    p_s = check_regime(params, noise, p_signal)
    # imported here, before any worker thread starts, and not at module level:
    # processes that draw no noise (the oracle, --help) never load scipy
    from scipy.special import ndtri

    b = noise.background_click_rate
    prediction = predict_phases(params)
    phi_c, phi_n = prediction.phase_click, prediction.phase_noclick
    sigma = noise.phase_sigma

    buffers = _ChunkBuffers()

    def reduce_chunk(chunk: int) -> tuple[GroupStats, GroupStats]:
        count = min(CHUNK_TRIALS, n_trials - chunk * CHUNK_TRIALS)
        u_sig, u_bg, u_ph = _chunk_samples(seed, chunk, buffers.uniforms[:count])
        signal = u_sig < p_s
        clicks = signal | (u_bg < b)
        # clip away the measure-zero u == 0 so ndtri stays finite
        noise_z = np.maximum(u_ph, 1e-300, out=buffers.noise[:count])
        ndtri(noise_z, out=noise_z)
        noise_z *= sigma
        phases = buffers.phases[:count]  # true phase + sigma * z
        phases.fill(phi_n)
        phases[signal] = phi_c
        phases += noise_z
        click = GroupStats.of(np.extract(clicks, phases), phi_c)
        return click, GroupStats.of(np.extract(~clicks, phases), phi_n)

    def merged(chunk_stats) -> TrialStats:
        click = noclick = GroupStats()
        for chunk_click, chunk_noclick in chunk_stats:  # in chunk order
            click, noclick = click.merge(chunk_click), noclick.merge(chunk_noclick)
        return TrialStats(n_trials=n_trials, seed=seed, click=click, noclick=noclick)

    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    # a thread beyond the chunk count or the usable CPUs would only wait; the
    # affinity mask, where the platform has one, honours taskset and cpusets
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = min(workers, n_chunks, cpus)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return merged(pool.map(reduce_chunk, range(n_chunks)))
    return merged(map(reduce_chunk, range(n_chunks)))


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
    stats = simulate_trials(
        config.params,
        config.noise,
        n_trials,
        seed,
        p_signal=config.p_signal,
        workers=workers,
    )
    est = estimate_phases(stats)
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
