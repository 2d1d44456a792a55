import concurrent.futures
import dataclasses
import math
from concurrent.futures import Future
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest

from wva_sim.errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidRegimeError,
)
from wva_sim.model import predict_phases
from wva_sim.montecarlo import (
    BLOCK,
    CHUNK_TRIALS,
    GroupStats,
    NoiseModel,
    _chunk_streams,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
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
        n = 5 * CHUNK_TRIALS + 12_345  # six chunks, the last one partial
        a = simulate_trials(params, noise, n, seed=77)
        for workers in (2, 4):
            # every count, mean and M2 bit for bit
            assert simulate_trials(params, noise, n, seed=77, workers=workers) == a
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

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # simulate_trials imports the pool class from its module when it runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
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

    @pytest.mark.parametrize(
        "n_trials,seed,match",
        [(0, 1, "n_trials"), (-5, 1, "n_trials"), (100, 2**64, "64 bits"), (100, -1, "64 bits")],
        ids=["zero-trials", "negative-trials", "seed-over-64-bits", "negative-seed"],
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

    # 300 divides neither the full chunks nor the partial one
    @pytest.mark.parametrize("block", [BLOCK, 300], ids=["whole-chunk", "block-300"])
    def test_merged_chunks_match_concatenated_samples(self, monkeypatch, block):
        import wva_sim.montecarlo as montecarlo

        chunk = 1000
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        monkeypatch.setattr(montecarlo, "BLOCK", block)
        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        n, seed = 3 * chunk + 417, 31  # three full chunks and a partial one
        pred = predict_phases(params)
        clicks, phases = [], []
        for k in range(4):
            # each chunk's draws in one fill per stream; simulate_trials draws them block by block
            size = min(chunk, n - k * chunk)
            uniform_rng, normal_rng = _chunk_streams(seed, k)
            u_sig, u_bg = uniform_rng.random((size, 2)).T
            signal = u_sig < pred.p_click
            clicks.append(signal | (u_bg < noise.background_click_rate))
            true_phase = np.where(signal, pred.phase_click, pred.phase_noclick)
            phases.append(true_phase + noise.phase_sigma * normal_rng.standard_normal(size))
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

    def test_chunk_streams_distinct_and_uncorrelated(self):
        n, seed = CHUNK_TRIALS, 31
        # two chunks' four streams share no raw draw, not even shifted: a
        # stream seeded from the same key as another would repeat its draws
        streams = [*_chunk_streams(seed, 0), *_chunk_streams(seed, 1)]
        raw = [rng.bit_generator.random_raw(2 * n) for rng in streams]
        assert np.unique(np.concatenate(raw)).size == 4 * 2 * n
        uniform_rng, normal_rng = _chunk_streams(seed, 0)
        u_sig, u_bg = uniform_rng.random((n, 2)).T
        z = normal_rng.standard_normal(n)
        for u in (u_sig, u_bg):
            assert abs(np.corrcoef(u, z)[0, 1]) < 5 / math.sqrt(n)

    def test_single_phase_click_group_has_zero_stderr(self):
        # no noise, no background: every click carries exactly the click phase
        params = row1_params()
        stats = simulate_trials(params, NoiseModel(0.0, 0.0), 3 * CHUNK_TRIALS + 5, seed=12)
        est = estimate_phases(stats)
        assert est.phi_click == (predict_phases(params).phase_click, 0.0)
        assert est.phi_noclick[1] == 0.0

    def test_zero_noise_two_phase_click_group_is_exact(self):
        # no noise, with background: the click group holds exactly two phases
        params, background = row1_params(), 0.06
        n, seed = CHUNK_TRIALS - 1000, 13  # one chunk of several blocks
        stats = simulate_trials(params, NoiseModel(0.0, background), n, seed=seed)
        pred = predict_phases(params)
        u_sig, u_bg = _chunk_streams(seed, 0)[0].random((n, 2)).T
        signal = u_sig < pred.p_click
        n_s = int(np.count_nonzero(signal))
        n_b = int(np.count_nonzero(~signal & (u_bg < background)))
        n_click = n_s + n_b
        delta = pred.phase_noclick - pred.phase_click
        assert stats.click.count == n_click
        # the mixture mean and M2 n_s n_b / n (phi_c - phi_n)^2, in the merge's rounding
        assert stats.click.mean == pred.phase_click + delta * (n_b / n_click)
        assert stats.click.m2 == delta * delta * (n_s * n_b / n_click)
        assert estimate_phases(stats).phi_noclick == (pred.phase_noclick, 0.0)

    def test_memory_bounded_in_trial_count(self, monkeypatch):
        import tracemalloc

        # the threaded runs import the thread pool's module: import it before
        # tracing, so the first traced peak holds no one-time import
        from concurrent.futures import ThreadPoolExecutor  # noqa: F401

        import wva_sim.montecarlo as montecarlo

        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        # serial at the real chunk size, then two threads over thousands of
        # tiny chunks, where chunks queued all at once would show
        for workers, chunk_counts in ((1, (8, 64)), (2, (500, 4000))):
            if workers == 2:
                monkeypatch.setattr(
                    montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
                )
                monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 64)
                monkeypatch.setattr(montecarlo, "BLOCK", 32)
            peaks = []
            for chunks in chunk_counts:
                tracemalloc.start()
                try:
                    n = chunks * montecarlo.CHUNK_TRIALS
                    simulate_trials(params, noise, n, seed=5, workers=workers)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 1.5 * peaks[0], workers
            assert max(peaks) < 64 * 2**20

    def test_serial_run_holds_only_block_buffers(self):
        import tracemalloc

        params, noise = row1_params(), NoiseModel(0.1, 0.06)
        simulate_trials(params, noise, 100, seed=5)  # one-time set-up before tracing
        tracemalloc.start()
        try:
            simulate_trials(params, noise, 4 * CHUNK_TRIALS + 5, seed=5, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
