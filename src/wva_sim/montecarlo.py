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
(M2) of each conditioning group, so trials are never kept.  A trial's
true phase is one of two constants, so a group's triple follows from the
count, sum and sum of squares of the unit noise z (phase = true phase +
sigma z) in three constant-phase subgroups: signal clicks, background-only
clicks and no-clicks.  Each chunk of ``CHUNK_TRIALS`` trials is drawn in
blocks of ``BLOCK`` trials, and each block is reduced at once to those
subgroup sums.  Sums add, so the chunks' sums are added in chunk order;
only then does each subgroup become a triple, and one pairwise update of
Chan, Golub & LeVeque (Am. Stat. 37(3), 1983) joins the two click
subgroups.  A threaded run keeps at most four chunks per thread in
flight, so memory is O(threads x block) for any trial count.

Reproducibility contract: the statistics are a pure function of
(params, noise, n_trials, seed).  Chunk k draws from two PCG64 streams,
both spawned from the seed sequence (seed, k): the first gives each trial
its two uniforms, signal and background, and the second its unit noise z
through numpy's ziggurat normal sampler.  Each stream is drawn in trial
order, block after block, so the blocks of a chunk hold the same draws as
one fill of the whole chunk, even though the ziggurat takes a varying
number of raw draws per normal.  The summation order is fixed.  Worker
count and block size therefore never change the output, bit for bit.
"""

from __future__ import annotations

import collections
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError, InvalidRegimeError
from .model import InterferometerParams, predict_phases

CHUNK_TRIALS = 1 << 17
# Trials drawn and reduced at a time within a chunk: 256 KB of uniforms.
BLOCK = 1 << 14

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


def _chunk_streams(seed: int, chunk: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Chunk ``chunk``'s two PCG64 streams, in trial order: two uniforms per
    trial from the first, one standard normal per trial from the second."""
    children = np.random.SeedSequence((seed, chunk)).spawn(2)
    return tuple(np.random.Generator(np.random.PCG64(child)) for child in children)


def _constant_phase_group(
    phase: float, sigma: float, count: float, z_sum: float, z_sq_sum: float
) -> GroupStats:
    """Statistics of ``count`` phases ``phase + sigma * z`` from the sums of z and z^2.

    With the constant phase factored out and z of mean ~0, z_sum^2 / count
    is ~1/count of z_sq_sum, so the M2 subtraction loses almost nothing;
    with sigma = 0 the mean is ``phase`` and M2 is 0 exactly.
    """
    if count == 0:
        return GroupStats()
    count, z_mean = int(count), float(z_sum / count)
    m2 = sigma * sigma * float(z_sq_sum - z_sum * z_mean)
    return GroupStats(count, phase + sigma * z_mean, max(0.0, m2))


def _ordered_results(pool, fn, n: int, depth: int):
    """``fn(0), ..., fn(n - 1)`` run on ``pool``, yielded in order.

    At most ``depth`` calls are submitted ahead of the one being yielded:
    ``pool.map`` submits all ``n`` at once, so its queue grows with ``n``.
    """
    pending = collections.deque()
    for i in range(n):
        pending.append(pool.submit(fn, i))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


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
    (1 - p_s)(1 - background).  Deterministic given the seed; ``workers`` only
    parallelizes chunk evaluation, on at most one thread per chunk and per
    CPU this process may use.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    prediction = predict_phases(params)
    p_s = prediction.p_click if p_signal is None else float(p_signal)
    b = noise.background_click_rate
    if not 0.0 <= p_s < 1.0:
        raise InvalidRegimeError(f"signal click probability {p_s:.4g} is outside [0, 1)")
    phi_c, phi_n = prediction.phase_click, prediction.phase_noclick
    sigma = noise.phase_sigma

    def chunk_sums(chunk: int) -> np.ndarray:
        count = min(CHUNK_TRIALS, n_trials - chunk * CHUNK_TRIALS)
        uniform_rng, normal_rng = _chunk_streams(seed, chunk)
        # work arrays reused by every block of the chunk: allocating them per
        # block made a serial run about an eighth slower on a 2-vCPU x86 VM
        uniform_buf, noise_buf, masked_buf = np.empty((BLOCK, 2)), np.empty(BLOCK), np.empty(BLOCK)
        # count, sum z and sum z^2 of the unit noise z in each constant-phase
        # subgroup: signal clicks, background-only clicks, no-clicks
        sums = np.zeros((3, 3))
        for start in range(0, count, BLOCK):
            size = min(BLOCK, count - start)
            u_sig, u_bg = uniform_rng.random(out=uniform_buf[:size]).T
            z = normal_rng.standard_normal(out=noise_buf[:size])
            signal = u_sig < p_s
            stray = u_bg < b
            for sub, mask in zip(sums, (signal, stray & ~signal, ~(signal | stray))):
                # z inside the subgroup, exact zeros outside: cheaper than z[mask]
                z_sub = np.multiply(z, mask, out=masked_buf[:size])
                sub += (np.count_nonzero(mask), z_sub.sum(), np.square(z_sub, out=z_sub).sum())
        return sums

    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    # a thread beyond the chunk count or the usable CPUs would only wait; the
    # affinity mask, where the platform has one, honours taskset and cpusets
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = min(workers, n_chunks, cpus)
    # sum() folds left in chunk order, which map and _ordered_results both keep
    if threads > 1:
        # imported here, so the oracle and --help load neither the thread
        # pool nor the logging module it imports
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = sum(_ordered_results(pool, chunk_sums, n_chunks, 4 * threads))
    else:
        sums = sum(map(chunk_sums, range(n_chunks)))
    signal_clicks, stray_clicks, noclicks = (
        _constant_phase_group(phase, sigma, *row) for row, phase in zip(sums, (phi_c, phi_n, phi_n))
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
