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
signal clicks, background-only clicks and no-clicks.  Their counts are two
binomial draws: k1 ~ Bin(n_trials, p_s) signal clicks, then
k2 ~ Bin(n_trials - k1, b) background-only clicks among the rest, which
leaves n_trials - k1 - k2 no-clicks (the multinomial over p_s, b (1 - p_s)
and (1 - p_s)(1 - b)).  A subgroup of m phases ``phase + sigma z`` with
unit normal z has mean ``phase + sigma zbar``, with zbar ~ N(0, 1/m), and
M2 ``sigma^2 X``, with X ~ chi^2 on m - 1 degrees of freedom independent
of zbar (Cochran, Proc. Camb. Phil. Soc. 30, 178 (1934)); an empty
subgroup has no statistics and one of one trial has M2 = 0.  One pairwise
update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983) joins the two
click subgroups.  A point costs a handful of variates in constant memory,
whatever its trial count.

The variates come from the standard library's Mersenne Twister through
this module's samplers, exact at every trial count below 2^63 and without
numpy.  A binomial is split at its j-th order statistic, j = round(n p),
whose law is Beta(j, n - j + 1) (Devroye, Non-Uniform Random Variate
Generation (1986), X.4), until its mean on the rarer side is below 10; the
rest is counted by geometric waiting times.  A chi^2 on k degrees of
freedom is twice a Gamma(k/2) variate, drawn by Marsaglia & Tsang (ACM
TOMS 26, 363 (2000)), which also draws the order statistics, and each
mean by ``random.gauss``.

Reproducibility contract: the statistics are a pure function of
(params, noise, n_trials, seed).  Two streams are drawn from: stream k is
``random.Random`` seeded with the 9 bytes ``seed.to_bytes(8, "little")
+ bytes([k])``, which Random hashes with SHA-512.  Stream 0 draws the two
binomials, stream 1 the noise, in subgroup order (signal, background-only,
no-click) with the mean before the chi^2 within each subgroup.  The
samplers take a number of raw draws that depends on their arguments, and
that variation stays inside its own stream.  ``workers`` never changes
the output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFitError, InsufficientDataError, InvalidRegimeError, require
from .model import InterferometerParams, predict_phases

_MIN_GROUP = 2  # samples needed per conditioning group for a stderr


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot read-out noise and false post-selection rate."""

    phase_sigma: float = 0.100
    background_click_rate: float = 0.06

    def __post_init__(self) -> None:
        sigma = self.phase_sigma
        for name, ok, rule in (
            ("phase_sigma", math.isfinite(sigma) and sigma >= 0.0, "finite and >= 0"),
            ("background_click_rate", 0.0 <= self.background_click_rate < 1.0, "in [0, 1)"),
        ):
            require(ok, name, rule, getattr(self, name))


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


def _stream(seed: int, index: int) -> random.Random:
    """Stream ``index`` of ``seed``, as the module docstring defines it."""
    return random.Random(seed.to_bytes(8, "little") + bytes([index]))


def _gamma(rng: random.Random, shape: float) -> float:
    """A Gamma(shape, 1) variate for shape > 0 (Marsaglia & Tsang 2000).

    The acceptance test's d (1 - v + ln v), with v = (1 + t)^3, is written
    as d (3 log1p(t) - t (3 + t (3 + t))): the bracket, of order t^2, is
    formed before it is scaled by d, so no number of size d is rounded
    (d - d v rounds to multiples of 1024 at shapes near 2^62).  A shape
    below 1 is boosted: Gamma(a) = Gamma(a + 1) U^(1/a).
    """
    if shape < 1.0:
        return _gamma(rng, shape + 1.0) * (1.0 - rng.random()) ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.gauss(0.0, 1.0)
        t = c * x
        if t <= -1.0:
            continue
        log_ratio = 0.5 * x * x + d * (3.0 * math.log1p(t) - t * (3.0 + t * (3.0 + t)))
        if math.log(1.0 - rng.random()) < log_ratio:
            return d * (1.0 + t) ** 3


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """A Bin(n, p) variate for 0 <= n < 2^63 and 0 <= p <= 1.

    While n min(p, 1 - p) >= 10, the j-th smallest U of the n trials'
    uniforms, j = round(n p), splits them: if U < p, the j trials up to U
    all succeed and the n - j above it succeed with probability
    (p - U) / (1 - U); otherwise the j - 1 below it succeed with
    probability p / U.  U is drawn as G_j / (G_j + G_{n-j+1}), from two
    gamma variates of those shapes.  The split is exact for any j; at
    j = round(n p) it leaves a mean of about the square root of the one
    before, so a few splits suffice at any n.  The rarer outcome is then
    counted by its waiting times, Geometric(min(p, 1 - p)), that fit in n;
    log1p keeps a p below 2^-53, where 1 - p rounds to 1, drawing its
    successes.
    """
    successes = 0
    while n * min(p, 1.0 - p) >= 10.0:
        j = min(max(round(n * p), 1), n)
        below = _gamma(rng, j)
        u = below / (below + _gamma(rng, n - j + 1))
        if u < p:
            successes += j
            n, p = n - j, (p - u) / (1.0 - u)
        else:
            n, p = j - 1, p / u
    rare = min(p, 1.0 - p)
    count = trial = 0
    if n > 0 and rare > 0.0:
        log_q = math.log1p(-rare)
        while True:
            # at a subnormal p the wait can overflow to inf; any wait of n
            # or more ends the count, so it is capped at n
            wait = min(math.log(1.0 - rng.random()) / log_q, n)
            trial += math.floor(wait) + 1
            if trial > n:
                break
            count += 1
    return successes + (count if p <= 0.5 else n - count)


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
    count_rng, noise_rng = _stream(seed, 0), _stream(seed, 1)
    signal = _binomial(count_rng, n_trials, p_s)
    stray = _binomial(count_rng, n_trials - signal, b)
    counts = (signal, stray, n_trials - signal - stray)

    def subgroup(count: int, phase: float) -> GroupStats:
        """``count`` phases ``phase + sigma z``: the mean of z is N(0, 1/count)
        and its M2 an independent chi^2 with count - 1 degrees of freedom."""
        if count == 0:
            return GroupStats()
        z_mean = noise_rng.gauss(0.0, 1.0 / math.sqrt(count))
        chi2 = 2.0 * _gamma(noise_rng, 0.5 * (count - 1)) if count > 1 else 0.0
        return GroupStats(count, phase + sigma * z_mean, sigma * sigma * chi2)

    phases = (prediction.phase_click, prediction.phase_noclick, prediction.phase_noclick)
    signal_clicks, stray_clicks, noclicks = (
        subgroup(count, phase) for count, phase in zip(counts, phases)
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
    x, y, s = ([float(p[i]) for p in points] for i in range(3))
    if not all(math.isfinite(v) and v >= 0.0 for v in s):
        raise ValueError(f"{what} sigmas must be positive and finite")
    if 0.0 in s:
        # a noise-free point, or a stderr that underflowed: infinite weight
        raise DegenerateFitError(f"{what} has a zero sigma")
    return x, y, s


def _weighted_slope(design, target, s, dof: int, *, intercept: bool) -> FitResult:
    """Weighted least-squares slope of ``target`` on ``design`` at sigmas ``s``.

    Through the origin, or with a free intercept when ``intercept`` is set:
    that line has the slope of the through-origin fit to both series less
    their weighted means, so one formula serves both fits.  Sigmas are
    known measurement errors: the stderr is 1/sqrt(sum w design^2) and
    chi^2 is reported unscaled.  Every sum is a correctly rounded
    ``math.fsum``.

    The weights are 1/(s 2^-k)^2, with the k that puts max(s 2^-k) in
    [1/2, 1): dividing every sigma by one power of two leaves the slope
    unchanged and the stderr and chi^2 off by exactly 2^-k and 4^k, which
    are undone at the end, and keeps 1/s^2 from underflowing (or
    overflowing) when every sigma is huge (or tiny).  The scaling is
    exact, so a fit at ordinary sigmas gives the bits of the unscaled one.
    A sigma below about 1e-154 of the largest still gets an infinite
    weight, and that raises DegenerateFitError.
    """
    k = math.frexp(max(s))[1]
    scaled = [math.ldexp(v, -k) for v in s]
    w = [1.0 / (v * v) if v * v > 0.0 else math.inf for v in scaled]
    if not all(map(math.isfinite, w)):
        raise DegenerateFitError("a sigma below ~1e-154 of the largest has an infinite weight")

    def centred(values):
        mean = math.fsum(wi * v for wi, v in zip(w, values)) / math.fsum(w)
        return [v - mean for v in values]

    if intercept:
        design, target = centred(design), centred(target)
    denom = math.fsum(wi * (d * d) for wi, d in zip(w, design))
    if not denom > 0.0:
        raise DegenerateFitError("singular normal equations")
    slope = math.fsum(wi * d * t for wi, d, t in zip(w, design, target)) / denom
    residuals = [t - slope * d for d, t in zip(design, target)]
    chi2 = math.fsum(wi * (r * r) for wi, r in zip(w, residuals))
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
    if len(x) < 3:
        raise DegenerateFitError("need >= 3 points for the slope-plus-intercept fit")
    if len(set(x)) < 2:
        raise DegenerateFitError("degenerate abscissas: all n_bar equal")
    return _weighted_slope(x, y, s, len(x) - 2, intercept=True)


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
        keep = [delta < 1.0 for delta in x]
        x, y, s = ([v for v, kept in zip(values, keep) if kept] for values in (x, y, s))
    if len(x) < 2:
        raise DegenerateFitError("need >= 2 points below delta = 1 for the fit")
    if len(set(x)) < 2:
        raise DegenerateFitError("degenerate abscissas: all delta equal")
    design = [1.0 / (2.0 * delta) for delta in x]
    target = [value - phi_bar_fixed for value in y]
    return _weighted_slope(design, target, s, len(x) - 1, intercept=False)
