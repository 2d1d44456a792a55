import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

from wva_sim.errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidRegimeError,
)
from wva_sim.model import InterferometerParams, predict_phases
from wva_sim.montecarlo import (
    CHUNK_TRIALS,
    SNR_CAP,
    NoiseModel,
    SchemeConfig,
    _chunk_samples,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
    snr_compare,
)
from wva_sim.presets import CAMPAIGN, point_noise, point_params


def row1_params():
    return point_params(CAMPAIGN[0])


def mixture_click_mean(params, p_signal, background):
    """Closed-form click-group mean: signal clicks mixed with false tags."""
    pred = predict_phases(params)
    f_bg = background * (1.0 - p_signal) / (p_signal + background * (1.0 - p_signal))
    return (1.0 - f_bg) * pred.phase_click + f_bg * pred.phase_noclick


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
            point_noise(point),
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
            simulate_trials(params, point_noise(point), 100, seed=0)

    def test_background_plus_signal_must_leave_noclicks(self):
        params = row1_params()
        with pytest.raises(InvalidRegimeError):
            simulate_trials(params, NoiseModel(0.1, 0.9), 100, seed=0)

    def test_bit_exact_reproducibility(self):
        params = row1_params()
        noise = NoiseModel(0.1, 0.06)
        n = CHUNK_TRIALS + 12_345  # spans a chunk boundary
        a = simulate_trials(params, noise, n, seed=77)
        b = simulate_trials(params, noise, n, seed=77, workers=4)
        assert a == b  # every count, mean and M2 bit for bit
        c = simulate_trials(params, noise, n, seed=78)
        assert c.click != a.click and c.noclick != a.noclick

    @pytest.mark.parametrize(
        "workers,chunks,cpus,threads",
        [(64, 3, 8, 3), (64, 10, 4, 4), (2, 10, 8, 2), (400, 400, None, None), (64, 10, 1, None)],
    )
    def test_thread_count_capped(self, monkeypatch, workers, chunks, cpus, threads):
        import wva_sim.montecarlo as montecarlo

        pools = []

        class RecordingExecutor:
            """Records max_workers and runs the chunks serially: starts no thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 16)
        # cpus: the affinity mask's size, on a 64-CPU host; None: a platform
        # with no affinity call whose CPU count is unknown
        if cpus is None:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        else:
            affinity = set(range(cpus))
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: affinity, raising=False)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        stats = simulate_trials(params, noise, 16 * chunks, seed=3, workers=workers)
        assert pools == ([] if threads is None else [threads])  # None: serial, no pool
        serial = simulate_trials(params, noise, 16 * chunks, seed=3)
        assert stats == serial

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate_trials(row1_params(), NoiseModel(), 100, seed=1, workers=workers)

    def test_batches_are_frozen(self):
        stats = simulate_trials(row1_params(), NoiseModel(), 100, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.click = stats.noclick
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.click.mean = 0.0

    def test_merged_chunks_match_concatenated_samples(self, monkeypatch):
        import wva_sim.montecarlo as montecarlo

        chunk = 1000
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        n, seed = 3 * chunk + 417, 31  # three full chunks and a partial one
        pred = predict_phases(params)
        clicks, phases = [], []
        for k in range(4):
            u_sig, u_bg, u_ph = _chunk_samples(seed, k, np.empty((min(chunk, n - k * chunk), 3)))
            signal = u_sig < pred.p_click
            clicks.append(signal | (u_bg < noise.background_click_rate))
            true_phase = np.where(signal, pred.phase_click, pred.phase_noclick)
            phases.append(true_phase + noise.phase_sigma * ndtri(u_ph))
        clicks, phases = np.concatenate(clicks), np.concatenate(phases)
        stats = simulate_trials(params, noise, n, seed=seed)
        est = estimate_phases(stats)
        for group, samples, (mean, stderr) in (
            (stats.click, phases[clicks], est.phi_click),
            (stats.noclick, phases[~clicks], est.phi_noclick),
        ):
            assert group.count == samples.size
            assert group.mean == pytest.approx(samples.mean(), rel=1e-12)
            std = samples.std(ddof=1)
            assert math.sqrt(group.m2 / (group.count - 1)) == pytest.approx(std, rel=1e-12)
            assert mean == group.mean
            assert stderr == pytest.approx(std / math.sqrt(samples.size), rel=1e-12)

    def test_single_phase_click_group_has_zero_stderr(self):
        # no noise, no background: every click carries exactly the click phase
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.0, 0.0), 3 * CHUNK_TRIALS + 5, seed=12)
        est = estimate_phases(stats)
        assert est.phi_click == (predict_phases(params).phase_click, 0.0)
        assert est.phi_noclick[1] == 0.0

    def test_memory_bounded_in_trial_count(self):
        import tracemalloc

        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        peaks = []
        for chunks in (8, 64):
            tracemalloc.start()
            try:
                simulate_trials(params, noise, chunks * CHUNK_TRIALS, seed=5, workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        assert max(peaks) < 64 * 2**20


class TestEstimatePhases:
    def test_all_click_batch_is_insufficient(self):
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.1, 0.0), 1000, seed=2, p_signal=0.999)
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
                params, point_noise(point), 400_000, seed=100 + i
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

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            fit_per_photon_phase([(1.0, 1.0, 0.0), (2.0, 2.0, 0.1), (3.0, 3.0, 0.1)])

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

    def test_single_delta_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_differential([(0.1, 5e-5, 1e-6)], 5.59e-6)
        with pytest.raises(DegenerateFitError):
            fit_differential(
                [(1.0, 1e-5, 1e-6), (1.0, 1.1e-5, 1e-6)], 5.59e-6
            )


class TestSnr:
    # only sigma / sqrt(N) matters, so shrinking the per-shot noise stands in
    # for the campaign's 1e8-to-1e9 trial budgets at desk-scale trial counts

    def test_identical_configs_ratio_near_one(self):
        config = SchemeConfig(row1_params(), NoiseModel(0.001, 0.06))
        cmp = snr_compare(config, config, 1_000_000, seed=21)
        assert cmp.ratio == pytest.approx(1.0, abs=0.3)

    def test_amplified_scheme_wins_at_equal_budget(self):
        wva = SchemeConfig(row1_params(), NoiseModel(0.001, 0.06))
        direct_params = InterferometerParams(
            alpha=1.0,
            beta=CAMPAIGN[0].n_bar**0.5,
            delta=1.0,
            eta=0.3,
            phi_plus=9.94e-6,
            phi_minus=9.94e-6,
        )
        direct = SchemeConfig(direct_params, NoiseModel(0.001, 0.0))
        cmp = snr_compare(wva, direct, 1_000_000, seed=22)
        assert cmp.snr_wva > cmp.snr_direct > 1.0
        assert cmp.ratio > 1.5

    def test_zero_noise_returns_capped_sentinel(self):
        config = SchemeConfig(row1_params(), NoiseModel(0.0, 0.0))
        cmp = snr_compare(config, config, 10_000, seed=23)
        assert cmp.snr_wva == SNR_CAP
        assert cmp.snr_direct == SNR_CAP
        assert cmp.ratio == 1.0


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
