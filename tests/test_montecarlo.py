import dataclasses
import math
import random
import statistics
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest
from scipy.stats import chi2

from wva_sim.errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidRegimeError,
)
from wva_sim import montecarlo
from wva_sim.model import predict_phases
from wva_sim.montecarlo import (
    GroupStats,
    NoiseModel,
    TrialStats,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
)
from wva_sim.presets import CAMPAIGN, point_params


def row1_params():
    return point_params(CAMPAIGN[0])


def mixture_click_mean(params, p_signal, background):
    """Closed-form click-group mean: signal clicks mixed with false tags."""
    pred = predict_phases(params)
    f_bg = background * (1.0 - p_signal) / (p_signal + background * (1.0 - p_signal))
    return (1.0 - f_bg) * pred.phase_click + f_bg * pred.phase_noclick


def drawn_counts(seed, n_trials, p_s, background):
    """simulate_trials' (signal, stray-only, no-click) counts, drawn again
    from its count stream: Bin(n, p_s) signal clicks, then Bin(rest,
    background) stray-only clicks among the rest."""
    count_rng = montecarlo._stream(seed, 0)
    signal = montecarlo._binomial(count_rng, n_trials, p_s)
    stray = montecarlo._binomial(count_rng, n_trials - signal, background)
    return np.array((signal, stray, n_trials - signal - stray))


def per_trial_reference(params, noise, n_trials, seed, p_signal=None):
    """The per-trial sampler simulate_trials once ran, kept as the reference law.

    Each trial draws two uniforms (signal click, stray click) from one PCG64
    stream and a unit normal z (numpy's ziggurat) from another, both spawned
    from the seed sequence (seed, 0); the trials are reduced to the count,
    sum z and sum z^2 of the three constant-phase subgroups, and the two
    click subgroups are joined.  Returns the subgroup counts and the stats.
    """
    pred = predict_phases(params)
    p_s = pred.p_click if p_signal is None else p_signal
    sigma = noise.phase_sigma
    uniform_rng, normal_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence((seed, 0)).spawn(2)
    )
    u_sig, u_bg = uniform_rng.random((n_trials, 2)).T
    z = normal_rng.standard_normal(n_trials)
    signal = u_sig < p_s
    stray = u_bg < noise.background_click_rate
    groups = []
    for mask, phase in (
        (signal, pred.phase_click),
        (stray & ~signal, pred.phase_noclick),
        (~(signal | stray), pred.phase_noclick),
    ):
        count, z_sum, z_sq_sum = np.count_nonzero(mask), z[mask].sum(), np.square(z[mask]).sum()
        if count == 0:
            groups.append(GroupStats())
            continue
        z_mean = z_sum / count
        m2 = sigma * sigma * float(z_sq_sum - z_sum * z_mean)
        groups.append(GroupStats(int(count), phase + sigma * float(z_mean), max(0.0, m2)))
    signal_clicks, stray_clicks, noclicks = groups
    counts = tuple(group.count for group in groups)
    return counts, TrialStats(n_trials, signal_clicks.merge(stray_clicks), noclicks)


class TestSimulateTrials:
    def test_design_click_probability(self):
        assert predict_phases(row1_params()).p_click == pytest.approx(0.19)

    def test_zero_noise_click_group_is_exact(self):
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.0, 0.0), 50_000, seed=9)
        est = estimate_phases(stats)
        pred = predict_phases(params)
        assert est.phi_click[0] == pytest.approx(pred.phase_click, rel=1e-12)
        assert est.phi_noclick[0] == pytest.approx(pred.phase_noclick, rel=1e-12)
        # click fraction within binomial scatter of the design value
        p = 0.19
        assert abs(est.click_fraction - p) < 5 * math.sqrt(p * (1 - p) / 50_000)

    def test_row1_click_fraction_includes_background(self):
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.1, 0.06), 200_000, seed=5)
        expected = 0.19 + 0.06 * (1.0 - 0.19)  # ~0.24 design value
        assert stats.click.count / stats.n_trials == pytest.approx(expected, abs=0.005)

    def test_delta_one_control_click_fraction(self):
        point = CAMPAIGN[4]
        params = point_params(point)
        stats = simulate_trials(
            params,
            NoiseModel(0.1, point.background),
            200_000,
            seed=6,
            p_signal=point.p_signal,
        )
        assert stats.click.count / stats.n_trials == pytest.approx(0.20, abs=0.005)

    def test_delta_one_without_override_is_invalid_regime(self):
        # the dark-port design formula gives eta delta^2 n_bar = 1.2 there
        point = CAMPAIGN[4]
        params = point_params(point)
        assert predict_phases(params).p_click == pytest.approx(1.2)
        with pytest.raises(InvalidRegimeError):
            simulate_trials(params, NoiseModel(0.1, point.background), 100, seed=0)

    def test_background_plus_signal_must_leave_noclicks(self):
        params = row1_params()
        with pytest.raises(InvalidRegimeError):
            simulate_trials(params, NoiseModel(0.1, 0.9), 100, seed=0, p_signal=1.0)

    def test_nan_signal_probability_is_invalid_regime(self):
        with pytest.raises(InvalidRegimeError):
            simulate_trials(row1_params(), NoiseModel(0.1, 0.06), 100, seed=0, p_signal=math.nan)

    def test_signal_plus_background_above_one_leaves_noclicks(self):
        # stray clicks are independent of the signal: P(no click) = (1 - p_s)(1 - b)
        point = dataclasses.replace(CAMPAIGN[0], n_bar=3.0, delta=0.5, eta=1.0, background=0.3)
        params = point_params(point)
        assert predict_phases(params).p_click == pytest.approx(0.75)
        stats = simulate_trials(params, NoiseModel(0.1, point.background), 200_000, seed=9)
        # binomial sigma ~0.00085
        assert stats.click.count / stats.n_trials == pytest.approx(1 - 0.25 * 0.7, abs=0.005)

    def test_bit_exact_reproducibility(self):
        params = row1_params()
        noise = NoiseModel(0.1, 0.06)
        n = 667_705
        a = simulate_trials(params, noise, n, seed=77)
        for workers in (2, 4):
            # every count, mean and M2 bit for bit
            assert simulate_trials(params, noise, n, seed=77, workers=workers) == a
        c = simulate_trials(params, noise, n, seed=78)
        assert c.click != a.click and c.noclick != a.noclick

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate_trials(row1_params(), NoiseModel(), 100, seed=1, workers=workers)

    @pytest.mark.parametrize(
        "n_trials,seed,match",
        [
            (0, 1, "n_trials"),
            (-5, 1, "n_trials"),
            (2**63, 1, "n_trials"),
            (100, 2**64, "64 bits"),
            (100, -1, "64 bits"),
        ],
        ids=["zero-trials", "negative-trials", "trials-2-63", "seed-over-64-bits", "negative-seed"],
    )
    def test_bad_trial_count_or_seed_rejected(self, n_trials, seed, match):
        with pytest.raises(ValueError, match=match):
            simulate_trials(row1_params(), NoiseModel(), n_trials, seed=seed)

    @pytest.mark.parametrize("background", [0.06, 0.0], ids=["background-only", "no-clicks"])
    def test_zero_efficiency_has_no_signal_clicks(self, background):
        # at eta = 0 the signal-click group is empty, so the click group is
        # the background group alone, every phase the no-click phase
        params = dataclasses.replace(row1_params(), eta=0.0)
        n = 20_000
        stats = simulate_trials(params, NoiseModel(0.0, background), n, seed=4)
        assert stats.click.count + stats.noclick.count == n
        if background == 0.0:
            assert stats.click == GroupStats()
        else:
            phase = predict_phases(params).phase_noclick
            assert (stats.click.mean, stats.click.m2) == (phase, 0.0)
            assert abs(stats.click.count - background * n) < 5 * math.sqrt(n * background)

    def test_batches_are_frozen(self):
        stats = simulate_trials(row1_params(), NoiseModel(), 100, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.click = stats.noclick
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.click.mean = 0.0

    def test_single_phase_click_group_has_zero_stderr(self):
        # no noise, no background: every click carries exactly the click phase
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.0, 0.0), 393_221, seed=12)
        est = estimate_phases(stats)
        assert est.phi_click == (predict_phases(params).phase_click, 0.0)
        assert est.phi_noclick[1] == 0.0

    def test_zero_noise_two_phase_click_group_is_exact(self):
        # no noise, with background: the click group holds exactly two phases
        params, background = row1_params(), 0.06
        n, seed = 130_072, 13
        stats = simulate_trials(params, NoiseModel(0.0, background), n, seed=seed)
        pred = predict_phases(params)
        n_s, n_b, n_n = (int(c) for c in drawn_counts(seed, n, pred.p_click, background))
        n_click = n_s + n_b
        delta = pred.phase_noclick - pred.phase_click
        assert (stats.click.count, stats.noclick.count) == (n_click, n_n)
        # the mixture mean and M2 n_s n_b / n (phi_c - phi_n)^2, in the merge's rounding
        assert stats.click.mean == pred.phase_click + delta * (n_b / n_click)
        assert stats.click.m2 == delta * delta * (n_s * n_b / n_click)
        assert estimate_phases(stats).phi_noclick == (pred.phase_noclick, 0.0)

    def test_largest_campaign_point_in_constant_memory(self):
        import tracemalloc

        # the delta = 1 control's full count, the campaign's largest point:
        # the per-trial engine held O(block) arrays and took ~16 s for it
        point = CAMPAIGN[4]
        params, noise, n = point_params(point), NoiseModel(0.1, point.background), point.n_total
        assert n == 374_443_000
        # one untraced call first, so that no one-time set-up is traced
        simulate_trials(params, noise, 100, seed=5, p_signal=point.p_signal)
        tracemalloc.start()
        try:
            stats = simulate_trials(params, noise, n, seed=5, p_signal=point.p_signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.click.count + stats.noclick.count == n
        assert peak < 64 * 2**10

    def test_largest_trial_count_draws(self):
        # 2^63 - 1, the most trials simulate_trials takes: each count's draw
        # splits it a few times before it counts the rest by waiting times
        n = 2**63 - 1
        stats = simulate_trials(row1_params(), NoiseModel(0.1, 0.06), n, seed=3)
        assert stats.click.count + stats.noclick.count == n


class TestExactLaw:
    """simulate_trials against the per-trial reference, over many seeds.

    For each statistic, the two engines' means over the seeds must agree
    within 4 standard errors of their difference, and their standard
    deviations within a ratio of 0.8 to 1.25.
    """

    SEEDS = 600

    @staticmethod
    def statistics(counts, stats):
        return (
            *counts,
            stats.click.mean,
            stats.noclick.mean,
            stats.click.mean - stats.noclick.mean,
            stats.click.m2,
            stats.noclick.m2,
        )

    # the two points at ~20 000 trials, and n_bar = 95 at 60 trials, whose
    # subgroups of a few trials tell chi^2 on m - 1 degrees of freedom from m
    @pytest.mark.parametrize(
        "index,n_trials", [(0, 20_000), (4, 20_000), (0, 60)], ids=["n95", "control", "n95-small"]
    )
    def test_moments_match_per_trial_engine(self, index, n_trials):
        point = CAMPAIGN[index]
        params, noise = point_params(point), NoiseModel(0.1, point.background)
        p_s = predict_phases(params).p_click if point.p_signal is None else point.p_signal
        exact, reference = [], []
        for seed in range(self.SEEDS):
            stats = simulate_trials(params, noise, n_trials, seed, p_signal=point.p_signal)
            counts = drawn_counts(seed, n_trials, p_s, noise.background_click_rate)
            assert counts.sum() == n_trials
            assert (stats.click.count, stats.noclick.count) == (counts[0] + counts[1], counts[2])
            exact.append(self.statistics(counts, stats))
            reference.append(
                self.statistics(*per_trial_reference(params, noise, n_trials, seed, point.p_signal))
            )
        exact, reference = np.array(exact, dtype=float), np.array(reference, dtype=float)
        sd_exact, sd_reference = exact.std(axis=0, ddof=1), reference.std(axis=0, ddof=1)
        z = (exact.mean(axis=0) - reference.mean(axis=0)) / np.hypot(sd_exact, sd_reference)
        z *= math.sqrt(self.SEEDS)
        assert np.all(np.abs(z) < 4.0), z
        ratio = sd_exact / sd_reference
        assert np.all((ratio > 0.8) & (ratio < 1.25)), ratio


class TestSamplers:
    """The exact samplers' standardized draws, at fixed seeds, and the
    binomial's law at small counts.

    Over N draws the sample mean of a standardized variate has SD
    1/sqrt(N), and its sample SD has SD sqrt((kurtosis - 1) / (4N)), which
    is sqrt(1/(2N)) at the binomial's near-normal kurtosis of 3; both must
    lie within 4 of those SDs of 0 and 1.  The large counts and degrees of
    freedom are where shortcuts fail: with the standard library's
    gammavariate (Cheng's method) for the gamma variates, the SD reads 1.27
    on chi^2 at 2^62 and on Bin(2^63 - 1, 0.06).  Small counts are where an
    off-by-one in the order-statistic split shows: keeping j trials below
    the split, not j - 1, moves no standardized moment here, but the
    exact-law test reads chi^2 = 1326 on 19 degrees of freedom at
    Bin(60, 0.19).
    """

    @staticmethod
    def assert_standard(z, kurtosis=3.0):
        n = len(z)
        mean, sd = statistics.fmean(z), statistics.stdev(z)
        assert abs(mean) < 4.0 / math.sqrt(n), mean
        assert abs(sd - 1.0) < 4.0 * math.sqrt((kurtosis - 1.0) / (4 * n)), sd

    @pytest.mark.parametrize("p", [0.06, 0.2])
    @pytest.mark.parametrize(
        "n", [10**8, 2**40 + 1, 10**15, 2**63 - 1], ids=["1e8", "2^40+1", "1e15", "2^63-1"]
    )
    def test_binomial(self, n, p):
        rng = random.Random(f"binomial {n} {p}")
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        self.assert_standard([(montecarlo._binomial(rng, n, p) - mean) / sd for _ in range(4000)])

    # (n, p, exact probabilities of 0, 1, 2, ... successes): waiting times
    # alone, also reflected; one or two splits; a split then reflected
    # waiting times; one trial; and a p below 2^-53, where Bin(2^62, 2^-60)
    # is Poisson(4) to within 2^-58
    @pytest.mark.parametrize(
        "n,p,pmf",
        [
            *(
                (n, p, [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
                for n, p in [(30, 0.1), (20, 0.9), (60, 0.19), (200, 0.06), (500, 0.5),
                             (1000, 0.97), (1, 0.3)]
            ),
            (2**62, 2.0**-60, [math.exp(-4.0) * 4.0**k / math.factorial(k) for k in range(40)]),
        ],
        ids=["waiting", "waiting-reflected", "60-0.19", "200-0.06", "500-0.5", "1000-0.97",
             "one-trial", "poisson"],
    )
    def test_binomial_exact_law(self, n, p, pmf):
        # chi^2 goodness of fit over 10 000 draws, in bins of consecutive
        # counts that each expect at least 5 draws (the last bin takes every
        # count above); the fit must not be rejected at the 1e-4 level
        rng = random.Random(f"binomial law {n} {p}")
        draws = [montecarlo._binomial(rng, n, p) for _ in range(10_000)]
        assert 0 <= min(draws) and max(draws) <= n
        seen, observed, expected = Counter(draws), [], []
        o = e = 0.0
        for k, prob in enumerate(pmf):
            o, e = o + seen[k], e + len(draws) * prob
            if e >= 5.0:
                observed.append(o)
                expected.append(e)
                o = e = 0.0
        observed[-1] = len(draws) - sum(observed[:-1])
        expected[-1] = len(draws) - sum(expected[:-1])
        statistic = sum((a - b) ** 2 / b for a, b in zip(observed, expected))
        assert chi2.sf(statistic, len(expected) - 1) > 1e-4, (statistic, len(expected) - 1)

    def test_binomial_subnormal_p_has_no_successes(self):
        # log(U) / log1p(-p) overflows to inf at p = 5e-324; the waiting time
        # is capped at n, so the draw ends with no success, not OverflowError
        rng = random.Random("binomial subnormal")
        assert [montecarlo._binomial(rng, n, 5e-324) for n in (1, 10**6, 2**63 - 1)] == [0, 0, 0]

    def test_gamma_boost_takes_no_zero_uniform(self):
        # random() returns 0.0 with probability 2^-53; the shape < 1 boost
        # U^(1/shape) must not use it, or a two-trial subgroup's chi^2 is 0
        class Stub:
            uniforms = iter([0.5, 0.0])  # Gamma(1.5) accepts t = 0, then the boost

            def gauss(self, mu, sigma):
                return 0.0

            def random(self):
                return next(self.uniforms)

        assert montecarlo._gamma(Stub(), 0.5) > 0.0

    @pytest.mark.parametrize(
        "df", [1, 2, 10**8, 10**15, 2**62], ids=["1", "2", "1e8", "1e15", "2^62"]
    )
    def test_chi_squared(self, df):
        rng = random.Random(f"chi2 {df}")
        z = [(2.0 * montecarlo._gamma(rng, 0.5 * df) - df) / math.sqrt(2.0 * df) for _ in range(20_000)]
        self.assert_standard(z, kurtosis=3.0 + 12.0 / df)


class TestEstimatePhases:
    def test_all_click_batch_is_insufficient(self):
        # one no-click among 1000 trials leaves that group no stderr
        stats = TrialStats(1000, click=GroupStats(999, 2e-4, 9.99), noclick=GroupStats(1, 1e-4, 0.0))
        with pytest.raises(InsufficientDataError):
            estimate_phases(stats)

    def test_zero_noise_mixture_mean(self):
        params = row1_params()
        background = 0.06
        stats = simulate_trials(params, NoiseModel(0.0, background), 400_000, seed=3)
        est = estimate_phases(stats)
        expected = mixture_click_mean(params, 0.19, background)
        # realized group composition fluctuates binomially around the mixture
        assert est.phi_click[0] == pytest.approx(expected, rel=2e-3)

    def test_convergence_to_mixture_at_sqrt_n_rate(self):
        params = row1_params()
        noise = NoiseModel(0.1, 0.06)
        expected = mixture_click_mean(params, 0.19, 0.06)
        for n, seed in ((10_000, 10), (100_000, 11), (1_000_000, 12)):
            est = estimate_phases(simulate_trials(params, noise, n, seed=seed))
            # group stderr already scales as 1/sqrt(N); stay within 5 of them
            assert abs(est.phi_click[0] - expected) < 5 * est.phi_click[1]

    def test_differential_stderr_combines_in_quadrature(self):
        stats = simulate_trials(row1_params(), NoiseModel(0.1, 0.06), 50_000, seed=4)
        est = estimate_phases(stats)
        assert est.differential[1] == pytest.approx(
            math.hypot(est.phi_click[1], est.phi_noclick[1]), rel=1e-12
        )

    def test_stderr_calibration_over_seeds(self):
        params = row1_params()
        noise = NoiseModel(0.1, 0.06)
        estimates, stderrs = [], []
        for seed in range(100):
            est = estimate_phases(simulate_trials(params, noise, 20_000, seed=seed))
            estimates.append(est.differential[0])
            stderrs.append(est.differential[1])
        spread = np.std(estimates, ddof=1)
        assert spread == pytest.approx(np.mean(stderrs), rel=0.2)

    def test_delta_one_differential_is_unamplified(self):
        # overlap 1 control: differential -> phi_bar + span/2 = 9.94 urad
        point = CAMPAIGN[4]
        params = point_params(point)
        stats = simulate_trials(
            params, NoiseModel(0.0, 0.0), 100_000, seed=17, p_signal=point.p_signal
        )
        est = estimate_phases(stats)
        assert est.differential[0] == pytest.approx(9.94e-6, rel=1e-3)

    def test_background_dilution_is_monotone(self):
        params = row1_params()
        pred = predict_phases(params)
        means = []
        for background in (0.0, 0.1, 0.3, 0.6):
            stats = simulate_trials(
                params, NoiseModel(0.0, background), 500_000, seed=8
            )
            means.append(estimate_phases(stats).phi_click[0])
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[0] == pytest.approx(pred.phase_click, rel=1e-9)
        assert means[-1] > pred.phase_noclick


class TestFits:
    def test_exact_line_recovered(self):
        slope, intercept = 5.59e-6, 1.1e-6
        points = [(n, intercept + slope * n, 1e-7) for n in (10.0, 20.0, 45.0, 95.0)]
        fit = fit_per_photon_phase(points)
        assert fit.parameter == pytest.approx(slope, rel=1e-9)
        assert fit.chi_squared == pytest.approx(0.0, abs=1e-12)
        assert fit.dof == 2

    def test_mc_noclick_means_recover_slope(self):
        phi_bar = 5.59e-6
        points = []
        for i, point in enumerate(CAMPAIGN[:4]):
            params = point_params(point)
            stats = simulate_trials(
                params, NoiseModel(0.1, point.background), 400_000, seed=100 + i
            )
            est = estimate_phases(stats)
            points.append((point.n_bar, est.phi_noclick[0], est.phi_noclick[1]))
        fit = fit_per_photon_phase(points)
        assert abs(fit.parameter - phi_bar) < 3 * fit.stderr

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_per_photon_phase([(1.0, 1.0, 0.1), (2.0, 2.0, 0.1)])

    def test_repeated_abscissas_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_per_photon_phase([(1.0, 1.0, 0.1), (1.0, 1.1, 0.1), (1.0, 0.9, 0.1)])

    def test_underflowing_abscissas_singular(self):
        # the centred squares of 1e-200-sized abscissas underflow to 0
        points = [(n * 1e-200, n, 0.1) for n in (1.0, 2.0, 3.0)]
        with pytest.raises(DegenerateFitError, match="singular normal equations"):
            fit_per_photon_phase(points)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            fit_per_photon_phase([(1.0, 1.0, 0.0), (2.0, 2.0, 0.1), (3.0, 3.0, 0.1)])

    @pytest.mark.parametrize(
        "bad,match",
        [((0.3, 2e-5), "triples"), ((0.3, 2e-5, 1e-6, 0.0), "triples"),
         ((0.3, 2e-5, -1e-6), "positive and finite"),
         ((0.3, 2e-5, math.nan), "positive and finite"),
         ((0.3, 2e-5, math.inf), "positive and finite")],
        ids=["pair", "quadruple", "negative-sigma", "nan-sigma", "inf-sigma"],
    )
    @pytest.mark.parametrize("which", ["per_photon", "differential"])
    def test_malformed_point_rejected(self, which, bad, match):
        if which == "per_photon":
            fit = fit_per_photon_phase
        else:
            fit = partial(fit_differential, phi_bar_fixed=5.59e-6)
        good = [(0.1, 5e-5, 1e-6), (0.14, 4e-5, 1e-6), (0.22, 3e-5, 1e-6)]
        with pytest.raises(ValueError, match=match):
            fit(good + [bad])

    def test_differential_fit_recovers_span(self):
        phi_bar, span = 5.59e-6, 8.7e-6
        points = [
            (d, phi_bar + span / (2 * d), 1e-6) for d in (0.10, 0.14, 0.22, 0.32)
        ]
        fit = fit_differential(points, phi_bar)
        assert fit.parameter == pytest.approx(span, rel=1e-9)
        assert fit.chi_squared == pytest.approx(0.0, abs=1e-12)
        assert fit.dof == 3

    def test_delta_one_excluded_by_default(self):
        phi_bar, span = 5.59e-6, 8.7e-6
        good = [(d, phi_bar + span / (2 * d), 1e-6) for d in (0.10, 0.22)]
        poisoned = good + [(1.0, phi_bar, 1e-6)]  # off-model control point
        fit = fit_differential(poisoned, phi_bar)
        assert fit.dof == 1
        assert fit.parameter == pytest.approx(span, rel=1e-9)
        fit_all = fit_differential(poisoned, phi_bar, include_delta_one=True)
        assert fit_all.dof == 2
        assert fit_all.parameter != pytest.approx(span, rel=1e-9)

    @pytest.mark.parametrize("which", ["per_photon", "differential"])
    def test_overflowing_weight_is_degenerate(self, which):
        # a sigma 1e-170 of the largest has an infinite weight even after the
        # power-of-two scaling; the through-origin fit returned a nan slope
        if which == "per_photon":
            fit = fit_per_photon_phase
            points = [(10.0, 5e-5, 1.0), (20.0, 3e-5, 1e-170), (45.0, 4e-5, 1.0)]
        else:
            fit = partial(fit_differential, phi_bar_fixed=5.59e-6)
            points = [(0.1, 5e-5, 1.0), (0.2, 3e-5, 1e-170)]
        with pytest.raises(DegenerateFitError):
            fit(points)

    @pytest.mark.parametrize("which", ["per_photon", "differential"])
    def test_power_of_two_sigma_scaling_is_exact(self, which):
        # scaling every sigma by 2**400 moves no bit of the parameter and
        # scales stderr by 2**400 and chi^2 by 2**-800, exactly; unscaled,
        # the weights 1/s**2 (s ~ 1e114) made the normal equations singular
        phi_bar, scale = 5.59e-6, 2.0**400
        if which == "per_photon":
            fit = fit_per_photon_phase
            xs, offsets = (10.0, 20.0, 45.0, 95.0), (3e-8, -5e-8, 1e-8, 4e-8)
            points = [(n, 1.1e-6 + phi_bar * n + e, 1e-7 * (1 + n / 50)) for n, e in zip(xs, offsets)]
        else:
            fit = partial(fit_differential, phi_bar_fixed=phi_bar)
            xs, offsets = (0.10, 0.14, 0.22, 0.32), (2e-7, -4e-7, 1e-7, 3e-7)
            points = [(d, phi_bar + 8.7e-6 / (2 * d) + e, 1e-6 * (1 + d)) for d, e in zip(xs, offsets)]
        base = fit(points)
        scaled = fit([(x, y, s * scale) for x, y, s in points])
        assert base.chi_squared > 0.0
        assert scaled.parameter == base.parameter
        assert scaled.stderr == base.stderr * scale
        assert scaled.chi_squared == base.chi_squared / scale**2
        # chi^2 is invariant when the values scale with the sigmas
        joint = [(x, y * scale, s * scale) for x, y, s in points]
        if which == "differential":
            fit = partial(fit_differential, phi_bar_fixed=phi_bar * scale)
        both = fit(joint)
        assert both.chi_squared == base.chi_squared
        assert both.parameter == base.parameter * scale
        assert both.stderr == base.stderr * scale

    def test_per_photon_slope_exact_to_rounding(self):
        def exact_slope(points):
            # the normal equations in exact rational arithmetic
            w, x, y = zip(*((1 / Fraction(s) ** 2, Fraction(n), Fraction(v)) for n, v, s in points))
            sw, swx, swy = sum(w), sum(map(mul, w, x)), sum(map(mul, w, y))
            swxx, swxy = sum(map(mul, w, map(mul, x, x))), sum(map(mul, w, map(mul, x, y)))
            return (sw * swxy - swx * swy) / (sw * swxx - swx * swx)

        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(200):
            xs = rng.uniform(10.0, 95.0, int(rng.integers(3, 9)))
            ys = 1.1e-6 + 5.59e-6 * xs + rng.normal(0.0, 1e-7, xs.size)
            sigmas = rng.uniform(5e-8, 2e-7, xs.size)
            points = list(zip(xs.tolist(), ys.tolist(), sigmas.tolist()))
            exact = exact_slope(points)
            error = abs(Fraction(fit_per_photon_phase(points).parameter) - exact) / abs(exact)
            worst = max(worst, float(error))
        assert worst < 1e-15

    def test_single_delta_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_differential([(0.1, 5e-5, 1e-6)], 5.59e-6)
        with pytest.raises(DegenerateFitError):
            fit_differential(
                [(1.0, 1e-5, 1e-6), (1.0, 1.1e-5, 1e-6)], 5.59e-6
            )

    @pytest.mark.parametrize(
        "deltas", [(0.1, 0.1), (0.22, 0.22, 0.22), (0.1, 1.0, 0.1)],
        ids=["two-equal", "three-equal", "equal-below-control-point"],
    )
    def test_single_distinct_delta_degenerate(self, deltas):
        points = [(d, 5e-5 + 1e-6 * i, 1e-6) for i, d in enumerate(deltas)]
        with pytest.raises(DegenerateFitError, match="all delta equal"):
            fit_differential(points, 5.59e-6)


class TestNoiseModel:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(phase_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(background_click_rate=1.0)

    def test_defaults_match_campaign(self):
        noise = NoiseModel()
        assert noise.phase_sigma == 0.100
        assert noise.background_click_rate == 0.06
