import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from wva_sim.errors import DivergentWeakValueError
from wva_sim.model import (
    InterferometerParams,
    check_validity,
    predict_phases,
    weak_value_photon_number,
)


def make_params(**kwargs):
    defaults = dict(
        alpha=1.0, beta=1.0, delta=0.2, eta=1.0, phi_plus=1e-3, phi_minus=0.0
    )
    defaults.update(kwargs)
    return InterferometerParams(**defaults)


class TestParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", -0.1),
            ("beta", -1.0),
            ("delta", 0.0),
            ("delta", 1.5),
            ("eta", -0.2),
            ("eta", 1.2),
            ("phi_plus", float("nan")),
        ],
    )
    def test_domain_validation(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_derived_quantities(self):
        p = make_params(alpha=2.0, phi_plus=3e-6, phi_minus=1e-6)
        assert p.n_bar == 4.0
        assert p.phi_bar == pytest.approx(2e-6)
        assert p.delta_phi == pytest.approx(2e-6)

    def test_theta_realizes_overlap(self):
        # the rotation must keep tan(theta + pi/4) = -delta, which pins the
        # dark-port weak-value ratio at -1/delta for every delta
        for delta in (0.05, 0.3, 1.0):
            p = make_params(delta=delta)
            assert math.tan(p.theta + math.pi / 4) == pytest.approx(-delta, rel=1e-12)
        assert make_params(delta=1.0).theta == pytest.approx(-math.pi / 2)


class TestWeakValuePhotonNumber:
    def test_single_photon_bright_port(self):
        assert weak_value_photon_number(0.0, 1.0) == (1.0, 0.0)

    def test_split_is_inverse_delta(self):
        # the anomalous part: the pair differs by exactly 1/delta
        n_plus, n_minus = weak_value_photon_number(17.3, 0.1)
        assert n_plus - n_minus == pytest.approx(10.0, rel=1e-12)

    def test_campaign_scale_values(self):
        n_plus, n_minus = weak_value_photon_number(40.0, 0.14)
        assert n_plus == pytest.approx(0.5 * (41.0 + 1.0 / 0.14), rel=1e-12)
        assert n_minus == pytest.approx(0.5 * (41.0 - 1.0 / 0.14), rel=1e-12)
        assert n_plus + n_minus == 41.0

    @given(st.floats(0.0, 200.0), st.floats(0.005, 1.0))
    def test_sum_rule(self, n_bar, delta):
        n_plus, n_minus = weak_value_photon_number(n_bar, delta)
        assert n_plus + n_minus == pytest.approx(n_bar + 1.0, rel=1e-14)

    @given(st.floats(5.0, 200.0), st.floats(0.1, 1.0))
    def test_sum_rule_exact_in_float(self, n_bar, delta):
        n_plus, n_minus = weak_value_photon_number(n_bar, delta)
        assert n_plus + n_minus == n_bar + 1.0

    def test_divergence_at_zero_overlap(self):
        with pytest.raises(DivergentWeakValueError):
            weak_value_photon_number(1.0, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weak_value_photon_number(-1.0, 0.5)
        with pytest.raises(ValueError):
            weak_value_photon_number(1.0, 1.5)


class TestPredictPhases:
    def test_equal_arms_kill_amplification(self):
        for delta in (0.1, 0.37, 1.0):
            p = make_params(delta=delta, phi_plus=2e-6, phi_minus=2e-6)
            assert predict_phases(p).differential == pytest.approx(2e-6, rel=1e-12)

    def test_campaign_scale_differential(self):
        phi_bar, span = 5.59e-6, 8.7e-6
        p = make_params(
            delta=0.1,
            phi_plus=phi_bar + span / 2,
            phi_minus=phi_bar - span / 2,
        )
        pred = predict_phases(p)
        assert pred.differential == pytest.approx(49.09e-6, rel=1e-3)
        assert pred.amplification_factor == pytest.approx(8.78, abs=0.01)

    def test_design_click_probability(self):
        p = make_params(alpha=math.sqrt(95.0), delta=0.10, eta=0.2)
        assert predict_phases(p).p_click == pytest.approx(0.19, rel=1e-12)

    def test_differential_identity_is_exact(self):
        p = make_params(alpha=1.7, delta=0.23, phi_plus=3.1e-4, phi_minus=1.2e-5)
        pred = predict_phases(p)
        assert pred.differential == pred.phase_click - pred.phase_noclick

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.011, 1.0),
        st.floats(1e-7, 1e-3),
    )
    def test_differential_decreases_with_delta(self, d_lo, d_hi, span):
        if d_lo >= d_hi:
            d_lo, d_hi = d_hi, d_lo
        if d_lo == d_hi:
            return
        lo = predict_phases(make_params(delta=d_lo, phi_plus=span, phi_minus=0.0))
        hi = predict_phases(make_params(delta=d_hi, phi_plus=span, phi_minus=0.0))
        assert lo.differential > hi.differential

    def test_delta_one_recovers_strong_arm_phase(self):
        p = make_params(delta=1.0, phi_plus=7.7e-6, phi_minus=0.0)
        assert predict_phases(p).differential == pytest.approx(7.7e-6, rel=1e-14)

    def test_noclick_linear_in_n_bar(self):
        phi_bar = 2.5e-6
        values = [
            predict_phases(
                make_params(alpha=math.sqrt(n), phi_plus=2 * phi_bar, phi_minus=0.0)
            ).phase_noclick
            for n in (10.0, 20.0, 45.0, 95.0)
        ]
        slopes = [v / n for v, n in zip(values, (10.0, 20.0, 45.0, 95.0))]
        # the bright-port depletion term eta mu_d (phi_bar + delta_phi/(2 delta)),
        # mu_d = n_bar delta^2/(1 + delta^2), is linear in n_bar too; at
        # delta = 0.2, eta = 1, phi_minus = 0 the slope is 10/13 phi_bar, which
        # the exact pipeline reproduces (0.769230769 phi_bar at alpha = 0.5..1.5)
        delta, eta, delta_phi = 0.2, 1.0, 2 * phi_bar
        expected = phi_bar * (
            1.0
            - eta * delta**2 / (1.0 + delta**2) * (1.0 + delta_phi / (2 * delta * phi_bar))
        )
        assert expected == pytest.approx(10.0 / 13.0 * phi_bar, rel=1e-12)
        for s in slopes:
            assert s == pytest.approx(expected, rel=1e-12)

    def test_amplification_nan_without_mean_phase(self):
        p = make_params(phi_plus=1e-6, phi_minus=-1e-6)
        assert math.isnan(predict_phases(p).amplification_factor)


class TestValidity:
    def test_zero_probe_backaction(self):
        r = check_validity(make_params(beta=0.0, alpha=0.3, delta=0.2))
        assert r.ratio_backaction == 0.0
        assert r.verdict == "valid"

    def test_example_arithmetic(self):
        r = check_validity(
            make_params(alpha=0.3, beta=1.0, delta=0.2, phi_plus=1e-3, phi_minus=0.0)
        )
        assert r.ratio_backaction == pytest.approx(5e-3)
        assert r.ratio_darkport == pytest.approx(3.6e-3)
        assert r.verdict == "valid"

    def test_small_delta_invalidates(self):
        r = check_validity(
            make_params(beta=2.0, delta=0.01, phi_plus=1e-3, phi_minus=0.0)
        )
        assert r.ratio_backaction > 0.3
        assert r.verdict == "invalid"

    def test_marginal_band(self):
        r = check_validity(
            make_params(alpha=1.0, beta=0.0, delta=0.45, phi_plus=0.0, phi_minus=0.0)
        )
        assert 0.1 < r.ratio_darkport < 0.3
        assert r.verdict == "marginal"

    def test_negative_span_uses_magnitude(self):
        r = check_validity(
            make_params(beta=1.0, delta=0.2, phi_plus=0.0, phi_minus=1e-3)
        )
        assert r.ratio_backaction == pytest.approx(5e-3)
