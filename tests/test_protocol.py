import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from wva_sim import fock, protocol
from wva_sim.cli import ORACLE_DEFAULTS
from wva_sim.errors import BlockUnitarityError, RegisterBudgetError, TruncationError
from wva_sim.model import InterferometerParams, predict_phases
from wva_sim.presets import CAMPAIGN, point_params
from wva_sim.protocol import (
    default_cutoffs,
    differential_rel_error,
    run_protocol,
    sweep_validity,
)


def make_params(**kwargs):
    defaults = dict(
        alpha=0.3, beta=1.0, delta=0.2, eta=1.0, phi_plus=1e-3, phi_minus=0.0
    )
    defaults.update(kwargs)
    return InterferometerParams(**defaults)


def recombined_register(p):
    """Dense (bright, dark, probe) register after the recombiner, from fock primitives."""
    arm_cut, _, probe_cut = default_cutoffs(p)
    reg = fock.tensor(
        fock.tensor(
            fock.make_coherent(p.alpha / math.sqrt(2), arm_cut),
            fock.make_coherent(p.alpha / math.sqrt(2), arm_cut),
        ),
        fock.make_coherent(p.beta, probe_cut),
    )
    reg = fock.apply_cross_kerr(reg, 0, 2, p.phi_plus)
    reg = fock.apply_cross_kerr(reg, 1, 2, p.phi_minus)
    return fock.apply_beam_splitter(reg, 0, 1, p.theta)


class TestRunProtocol:
    def test_no_interaction_means_no_phase(self):
        p = make_params(phi_plus=0.0, phi_minus=0.0, alpha=0.5, delta=0.3, eta=0.8)
        r = run_protocol(p)
        assert r.phase_click_exact == pytest.approx(0.0, abs=1e-12)
        assert r.phase_noclick_exact == pytest.approx(0.0, abs=1e-12)
        # dark-port amplitude for the normalized recombiner carries
        # alpha^2 delta^2 / (1 + delta^2) mean photons; the detector sees
        # eta of them and clicks on the single-photon Poisson weight
        mu = p.eta * p.alpha**2 * p.delta**2 / (1.0 + p.delta**2)
        assert r.p_click == pytest.approx(mu * math.exp(-mu), rel=1e-9)

    def test_click_phase_matches_closed_form_in_regime(self):
        p = make_params()
        r = run_protocol(p)
        pred = predict_phases(p)
        # alpha^2 phi_bar + (1 - eta mu_d)(phi_bar + span / 2 delta)
        # with mu_d = alpha^2 delta^2 / (1 + delta^2) = 0.09/26: 3.0346153846e-3 rad
        # (exact pipeline: 3.034565e-3 rad)
        assert pred.phase_click == pytest.approx(3.0346153846153846e-3, rel=1e-12)
        assert r.phase_click_exact == pytest.approx(pred.phase_click, rel=0.05)

    def test_differential_matches_closed_form_tightly(self):
        p = make_params()
        r = run_protocol(p)
        pred = predict_phases(p)
        assert differential_rel_error(r, pred) < 1e-3

    def test_eta_zero_unconditioned_phase(self):
        # detector decoupled: no clicks, and the no-click branch carries the
        # unconditioned phase n_bar * phi_bar independent of delta
        phases = []
        for delta in (0.1, 0.5, 1.0):
            p = make_params(alpha=0.6, delta=delta, eta=0.0, phi_plus=2e-3, phi_minus=5e-4)
            r = run_protocol(p)
            assert r.p_click == 0.0
            assert math.isnan(r.phase_click_exact)
            phases.append(r.phase_noclick_exact)
        expected = 0.36 * 1.25e-3
        for ph in phases:
            assert ph == pytest.approx(expected, rel=1e-5)
        assert phases[0] == pytest.approx(phases[-1], rel=1e-9)

    def test_probability_completeness(self):
        p = make_params(alpha=0.8, beta=1.2, delta=0.4, eta=0.6)
        r = run_protocol(p)
        total = r.p_click + r.p_noclick + r.p_multi
        assert total == pytest.approx(1.0 - r.truncation_deficit, abs=1e-10)
        assert r.truncation_deficit < 1e-8

    @pytest.mark.parametrize(
        "alpha,beta,delta,eta",
        [
            *itertools.product((0.5, 2.0), (0.5, 2.0), (0.1, 0.3, 1.0), (0.2, 1.0)),
            (1.0, 44.72, 0.2, 1.0),  # the campaign probe
        ],
    )
    def test_deficit_is_dense_register_shortfall(self, alpha, beta, delta, eta):
        # the deficit comes from the sum of P(d), which is the recombined
        # register's norm^2 summed in another order
        params = make_params(alpha=alpha, beta=beta, delta=delta, eta=eta)
        reg = recombined_register(params)
        deficit = run_protocol(params).truncation_deficit
        assert deficit == pytest.approx(1.0 - fock.norm_squared(reg), rel=0, abs=1e-12)

    def test_campaign_point_dense_register(self):
        # n_bar = 10, delta = 0.32, eta = 0.2 with the campaign probe
        # beta = 44.72: a 39 x 39 x 2279 register, about 0.35 s and 150 MB
        point = CAMPAIGN[3]
        assert (point.n_bar, point.delta, point.eta) == (10.0, 0.32, 0.2)
        p = point_params(point)
        r = run_protocol(p)
        assert r.differential_exact == pytest.approx(1.9174729249825555e-05, rel=1e-12)
        assert r.p_click == pytest.approx(0.1543631536762108, rel=1e-12)
        assert differential_rel_error(r, predict_phases(p)) < 1e-3
        total = r.p_noclick + r.p_click + r.p_multi + r.truncation_deficit
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_phase_noclick_linear_in_mean_photon_number(self):
        # slope phi_bar within 1e-3 relative, in the small-delta regime
        phi_bar = 1e-3
        phi_plus, phi_minus = phi_bar * 1.05, phi_bar * 0.95
        slopes = []
        for alpha in (0.3, 0.6, 0.9):
            p = make_params(
                alpha=alpha, delta=0.01, phi_plus=phi_plus, phi_minus=phi_minus
            )
            r = run_protocol(p)
            slopes.append(r.phase_noclick_exact / alpha**2)
        for s in slopes:
            assert s == pytest.approx(phi_bar, rel=1e-3)
        assert slopes[0] == pytest.approx(slopes[-1], rel=1e-6)

    def test_eta_one_equals_direct_dark_port_projection(self):
        p = make_params(alpha=0.4, beta=0.9, delta=0.3, phi_plus=1e-3, phi_minus=2e-4)
        r = run_protocol(p)
        # rebuild the pipeline without the detector splitter and project the
        # dark port directly onto |1>
        reg = recombined_register(p)
        outcome = fock.project_fock(reg, 1, 1)
        ref = cmath.phase(fock.mean_field(fock.make_coherent(p.beta, reg.cutoffs[2]), 0))
        phase = cmath.phase(fock.mean_field(outcome, 1) * cmath.exp(-1j * ref))
        assert fock.norm_squared(outcome) == pytest.approx(r.p_click, abs=1e-12)
        assert phase == pytest.approx(r.phase_click_exact, abs=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            make_params(alpha=0.8, beta=1.2, delta=0.4, eta=0.3, phi_minus=2e-4),
            make_params(alpha=0.8, beta=1.2, delta=0.4, eta=0.7, phi_minus=2e-4),
            make_params(alpha=0.3, beta=2.0, delta=0.2, eta=1.0, phi_plus=0.5),
        ],
        ids=["eta0.3", "eta0.7", "criterion2"],
    )
    def test_povm_equals_detector_ancilla_splitter(self, params):
        # reference formulation: the detector as a fourth mode behind a
        # splitter of transmission eta, conditioned on that mode's count
        r = run_protocol(params)
        reg = recombined_register(params)
        reg = fock.tensor(reg, fock.make_fock(0, reg.cutoffs[1]))
        reg = fock.apply_beam_splitter(reg, 1, 3, math.asin(math.sqrt(params.eta)))
        detected = fock.fock_distribution(reg, 3)
        assert detected[1] == pytest.approx(r.p_click, abs=1e-12)
        assert detected[0] == pytest.approx(r.p_noclick, abs=1e-12)
        assert detected[2:].sum() == pytest.approx(r.p_multi, abs=1e-12)
        for k, phase in ((1, r.phase_click_exact), (0, r.phase_noclick_exact)):
            branch = fock.project_fock(reg, 3, k)
            assert cmath.phase(fock.mean_field(branch, 2)) == pytest.approx(phase, abs=1e-12)

    def test_degenerate_click_branch_at_zero_signal(self):
        r = run_protocol(make_params(alpha=0.0))
        assert r.p_click == 0.0
        assert math.isnan(r.phase_click_exact)
        assert not math.isnan(r.phase_noclick_exact)
        assert r.phase_noclick_exact == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_branches_at_vacuum_probe(self):
        # beta = 0: both branches occur, but the probe is vacuum and each
        # conditioned field is exactly 0, which has no phase
        r = run_protocol(make_params(beta=0.0, delta=0.1))
        assert r.p_click > 1e-4 and r.p_noclick > 0.9
        assert math.isnan(r.phase_click_exact)
        assert math.isnan(r.phase_noclick_exact)

    def test_multi_photon_branch_is_tallied(self):
        p = make_params(alpha=1.0, delta=0.5, eta=1.0)
        r = run_protocol(p)
        assert r.p_multi > 0.0
        assert r.p_multi < r.p_click

    @pytest.mark.parametrize(
        "dark,nan_phase,phase,level",
        [([0.0, 0.6, 0.4], "phase_noclick_exact", "phase_click_exact", 1),
         ([0.7, 0.0, 0.3], "phase_click_exact", "phase_noclick_exact", 0)],
        ids=["no-noclick", "no-click"],
    )
    def test_one_branch_rule_on_both_sides(self, monkeypatch, dark, nan_phase, phase, level):
        # at eta = 1 the no-click branch is d = 0 and the click branch d = 1
        dark = np.array(dark)
        fields = dark * np.exp(1j * np.array([0.1, 0.2, 0.3]))
        monkeypatch.setattr(protocol, "_optics_stage", lambda *args: (dark, fields))
        r = run_protocol(make_params(eta=1.0))
        assert (r.p_noclick, r.p_click) == (dark[0], dark[1])
        assert math.isnan(getattr(r, nan_phase))
        assert getattr(r, phase) == pytest.approx(cmath.phase(fields[level]), abs=1e-15)
        assert r.p_multi == pytest.approx(dark[2], abs=1e-15)


class TestOpticsCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        protocol._optics_stage.cache_clear()
        yield
        protocol._optics_stage.cache_clear()

    def test_eta_sweep_builds_each_register_once(self, monkeypatch):
        calls = []
        apply = fock.apply_beam_splitter

        def counted(*args, **kwargs):
            calls.append(args)
            return apply(*args, **kwargs)

        monkeypatch.setattr(fock, "apply_beam_splitter", counted)
        grid = [
            make_params(alpha=alpha, delta=delta, phi_minus=phi_minus, eta=eta)
            for alpha in (0.3, 0.8)
            for delta in (0.1, 0.4)
            for phi_minus in (0.0, 2e-4)
            for eta in (0.5, 1.0)
        ]
        rows = sweep_validity(grid)
        assert len(calls) == len(grid) // 2
        for row in rows:
            protocol._optics_stage.cache_clear()
            # repr round-trips every float, so equal reprs are equal bits
            assert repr(run_protocol(row.params)) == repr(row.result)
        assert len(calls) == len(grid) // 2 + len(grid)

    def test_build_counts_of_cli_grid(self, monkeypatch):
        counts = {"apply_beam_splitter": 0, "_next_block": 0}
        for name in counts:

            def counted(*args, _name=name, _original=getattr(fock, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(fock, name, counted)
        # oracle-validate's axis order, eta innermost
        order = ("alpha", "delta", "beta", "phi_bar_urad", "eta")
        grid = []
        for values in itertools.product(*(ORACLE_DEFAULTS[name] for name in order)):
            point = dict(zip(order, values))
            phi_bar = point.pop("phi_bar_urad") * 1e-6
            grid.append(InterferometerParams(**point, phi_plus=2.0 * phi_bar, phi_minus=0.0))
        rows = sweep_validity(grid)
        assert [row.params for row in rows] == grid
        # 36 registers (eta pairs share one), each rotated once with its own
        # blocks: 12 per alpha, whose arm cutoffs 12, 14 and 17 need
        # B_1 .. B_22, B_1 .. B_26 and B_1 .. B_32, 960 steps in all
        assert counts == {"apply_beam_splitter": 36, "_next_block": 12 * (22 + 26 + 32)}
        # the reversed grid, eta still innermost, gives the same rows, reversed
        reversed_rows = sweep_validity(grid[::-1])[::-1]
        assert [repr(row) for row in reversed_rows] == [repr(row) for row in rows]

    def test_cache_holds_read_only_per_level_arrays(self):
        p = make_params(alpha=0.8, eta=0.5)
        run_protocol(p)
        # keyed on the point with eta set to 1, as run_protocol keys it
        dark, fields = protocol._optics_stage(dataclasses.replace(p, eta=1.0))
        assert protocol._optics_stage.cache_info().hits == 1
        for array in (dark, fields):
            assert array.shape == (default_cutoffs(p)[1],)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_failed_point_raises_again(self):
        p = make_params(alpha=10.0, beta=44.72)
        for _ in range(2):
            with pytest.raises(RegisterBudgetError):
                run_protocol(p)
        info = protocol._optics_stage.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_over_budget_point_raises_before_any_mode_is_built(self, monkeypatch):
        # alpha 2.5 needs a (32, 32, 16) register, past this budget; a probe
        # mode's cutoff grows as beta^2, so building modes first can itself
        # exhaust memory
        calls = []
        monkeypatch.setattr(fock, "DEFAULT_AMPLITUDE_BUDGET", 5000)
        monkeypatch.setattr(fock, "make_coherent", lambda *args: calls.append(args))
        with pytest.raises(RegisterBudgetError, match="tensor product needs 16384 amplitudes"):
            run_protocol(make_params(alpha=2.5, beta=0.8))
        assert calls == []


class TestBreakdown:
    def test_strong_backaction_breaks_closed_form(self):
        # probe back-action ratio n_probe * span / delta = 10: the amplified
        # closed form must fail by more than half of itself
        p = make_params(alpha=0.3, beta=2.0, delta=0.2, phi_plus=0.5, phi_minus=0.0)
        assert p.n_bar_probe * p.delta_phi / p.delta == pytest.approx(10.0)
        r = run_protocol(p)
        pred = predict_phases(p)
        assert differential_rel_error(r, pred) > 0.5


class TestSweep:
    def test_rows_cover_grid_and_flag_verdicts(self):
        grid = [
            make_params(),
            make_params(beta=2.0, delta=0.05, phi_plus=0.3),  # invalid regime
        ]
        rows = sweep_validity(grid)
        assert len(rows) == 2
        assert rows[0].verdict == "valid"
        assert rows[0].rel_error < 0.05
        assert rows[1].verdict == "invalid"

    def test_per_point_errors_recorded_not_raised(self):
        grid = [make_params(), make_params(alpha=0.0)]
        rows = sweep_validity(grid)
        assert rows[0].note == ""
        assert rows[1].note == "degenerate branch"
        assert math.isnan(rows[1].rel_error)

    def test_point_failure_captured_in_row(self):
        # a 170 x 170 x 2279 = 65.9M-amplitude register, over the budget:
        # the RegisterBudgetError is recorded
        grid = [make_params(alpha=10.0, beta=44.72)]
        assert math.prod(default_cutoffs(grid[0])) > fock.DEFAULT_AMPLITUDE_BUDGET
        rows = sweep_validity(grid)
        assert rows[0].result is None
        assert "error" in rows[0].note
        assert "budget" in rows[0].note

    @pytest.mark.parametrize(
        "error", [TruncationError("leaked norm^2"), BlockUnitarityError("drifted")],
        ids=["truncation", "block-unitarity"],
    )
    def test_engine_failure_captured_in_row(self, monkeypatch, error):
        def fail(optics):
            raise error

        monkeypatch.setattr(protocol, "_optics_stage", fail)
        rows = sweep_validity([make_params()])
        assert rows[0].result is None
        assert rows[0].note == f"error: {error}"

    @pytest.mark.parametrize(
        "error", [ModuleNotFoundError("No module named 'numpy'"), TypeError("a defect")],
        ids=["missing-numpy", "type-error"],
    )
    def test_other_exception_propagates(self, monkeypatch, error):
        # only the engine's own failures become rows; a missing dependency
        # or a defect is not a point's physics
        def fail(optics):
            raise error

        monkeypatch.setattr(protocol, "_optics_stage", fail)
        with pytest.raises(type(error)):
            sweep_validity([make_params()])

    def test_empty_interaction_sentinel(self):
        rows = sweep_validity([make_params(phi_plus=0.0, phi_minus=0.0)])
        assert rows[0].rel_error == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_validity([])
