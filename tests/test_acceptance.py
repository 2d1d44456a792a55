"""End-to-end acceptance checks.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them live) and then asserts.  Criteria 4, 5 and 7 exercise the Monte
Carlo harness at one percent of the campaign trial counts; the whole
module runs in about two seconds.
"""

import json
import math

import numpy as np
import pytest

from wva_sim import fock
from wva_sim.cli import _simulate_points, main as cli_main
from wva_sim.model import (
    InterferometerParams,
    check_validity,
    predict_phases,
    weak_value_photon_number,
)
from wva_sim.montecarlo import fit_differential
from wva_sim.presets import (
    CAMPAIGN,
    DEFAULT_PHASE_SIGMA,
    PER_PHOTON_PHASE_URAD,
    PHASE_SPLIT_URAD,
    point_params,
)
from wva_sim.protocol import run_protocol

URAD = 1e-6


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_analytic_agreement():
    """Valid grid points: exact vs closed-form click and no-click phases < 5%."""
    alphas = (0.2, 0.5, 1.0)
    deltas = (0.1, 0.2, 0.5)
    betas = (0.5, 1.0)
    phi_bars = (1e-4, 1e-3)
    etas = (0.5, 1.0)
    tolerance = 0.05

    n_valid = 0
    failures = []
    worst = {"click": 0.0, "noclick": 0.0}
    for alpha in alphas:
        for delta in deltas:
            for beta in betas:
                for phi_bar in phi_bars:
                    for eta in etas:
                        params = InterferometerParams(
                            alpha=alpha,
                            beta=beta,
                            delta=delta,
                            eta=eta,
                            phi_plus=2.0 * phi_bar,
                            phi_minus=0.0,
                        )
                        if check_validity(params).verdict != "valid":
                            continue
                        n_valid += 1
                        result = run_protocol(params)
                        pred = predict_phases(params)
                        for name, exact, analytic in (
                            ("click", result.phase_click_exact, pred.phase_click),
                            ("noclick", result.phase_noclick_exact, pred.phase_noclick),
                        ):
                            rel = abs(exact - analytic) / abs(analytic)
                            worst[name] = max(worst[name], rel)
                            if not rel < tolerance:
                                failures.append(
                                    f"{name} rel={rel:.3f} at alpha={alpha} "
                                    f"delta={delta} beta={beta} phi_bar={phi_bar} eta={eta}"
                                )
    ok = report(
        1,
        not failures,
        f"{n_valid} valid points; worst click rel {worst['click']:.4f}, "
        f"worst noclick rel {worst['noclick']:.4f}; {len(failures)} over 5%",
    )
    shown = "\n".join(failures[:8])
    assert ok, f"{len(failures)} points over tolerance, first of them:\n{shown}"


def test_criterion_2_breakdown_outside_validity():
    """Probe back-action ratio >= 10 pushes the exact differential off by > 50%."""
    params = InterferometerParams(
        alpha=0.3, beta=2.0, delta=0.2, eta=1.0, phi_plus=0.5, phi_minus=0.0
    )
    ratio = params.n_bar_probe * params.delta_phi / params.delta
    result = run_protocol(params)
    pred = predict_phases(params)
    deviation = abs(result.differential_exact - pred.differential) / abs(pred.differential)
    ok = report(
        2,
        ratio >= 10.0 and deviation > 0.5,
        f"back-action ratio {ratio:.1f}, exact diff {result.differential_exact:.3f} rad "
        f"vs closed form {pred.differential:.3f} rad, deviation {deviation:.0%}",
    )
    assert ok


def test_criterion_3_sum_rule_exact():
    """n_plus + n_minus == n_bar + 1 exactly for 1e4 random draws."""
    rng = np.random.default_rng(12345)
    violations = 0
    for _ in range(10_000):
        n_bar = float(rng.uniform(5.0, 200.0))
        delta = float(rng.uniform(0.1, 1.0))
        n_plus, n_minus = weak_value_photon_number(n_bar, delta)
        if n_plus + n_minus != n_bar + 1.0:
            violations += 1
    ok = report(3, violations == 0, f"{violations} violations in 10000 draws")
    assert ok


def _campaign_estimates(trials_scale, seed=20260808):
    """``(point, EstimatorResult)`` per campaign point from the CLI's own
    point loop, at the campaign's phases: what fig3 and fig4 run."""
    points = [
        (f"points[{i}]", point, PER_PHOTON_PHASE_URAD, PHASE_SPLIT_URAD)
        for i, point in enumerate(CAMPAIGN)
    ]
    results = _simulate_points(points, DEFAULT_PHASE_SIGMA, trials_scale, seed)
    return [(point, est) for point, _, est in results]


def test_criterion_4_differential_scan_fit():
    """Campaign Monte Carlo at 1% trials: span fit within 2 stderr of 8.7 urad."""
    rows = _campaign_estimates(0.01)
    points = [(p.delta, est.differential[0], est.differential[1]) for p, est in rows]
    fit = fit_differential(points, PER_PHOTON_PHASE_URAD * URAD)
    span_urad = fit.parameter / URAD
    stderr_urad = fit.stderr / URAD
    pull = abs(span_urad - PHASE_SPLIT_URAD) / stderr_urad

    small_delta = rows[0]
    amp = small_delta[1].differential[0] / (PER_PHOTON_PHASE_URAD * URAD)
    amp_stderr = small_delta[1].differential[1] / (PER_PHOTON_PHASE_URAD * URAD)
    expected_amp = predict_phases(point_params(small_delta[0])).amplification_factor
    amp_pull = abs(amp - expected_amp) / amp_stderr

    ok = report(
        4,
        pull < 2.0 and amp_pull < 2.0 and expected_amp == pytest.approx(8.78, abs=0.01),
        f"span fit {span_urad:.1f} +/- {stderr_urad:.1f} urad (pull {pull:.2f}); "
        f"delta=0.1 amplification {amp:.1f} +/- {amp_stderr:.1f} "
        f"vs design {expected_amp:.2f} (pull {amp_pull:.2f})",
    )
    assert ok


def test_criterion_5_delta_one_control():
    """The delta = 1 control stays unamplified: phi_bar + span/2 ~ 9.9 urad."""
    trials_scale = 0.01
    point = CAMPAIGN[4]
    params = point_params(point)
    expected = predict_phases(params).differential  # phi_bar + span / 2
    assert expected / URAD == pytest.approx(9.94, abs=0.01)

    # the control is campaign point 4, so it runs on fig3's and fig4's point-4 seed
    est = _campaign_estimates(trials_scale)[4][1]
    mc_pull = abs(est.differential[0] - expected) / est.differential[1]

    # full-campaign scale: our stderr shrinks by sqrt(trials_scale); the
    # campaign's measured control value was 6.7 +/- 7.5 urad
    stderr_full_urad = est.differential[1] * math.sqrt(trials_scale) / URAD
    combined = math.hypot(7.5, stderr_full_urad)
    gap = abs(expected / URAD - 6.7)

    ok = report(
        5,
        mc_pull < 2.0 and gap < combined,
        f"MC differential {est.differential[0] / URAD:.1f} +/- "
        f"{est.differential[1] / URAD:.1f} urad vs {expected / URAD:.2f} "
        f"(pull {mc_pull:.2f}); control gap {gap:.1f} urad < combined {combined:.1f}",
    )
    assert ok


def test_criterion_6_unitarity_suite():
    """1e3 random registers through random splitter/Kerr sequences."""
    rng = np.random.default_rng(777)
    worst_norm = 0.0
    for _ in range(1000):
        cut = int(rng.integers(4, 7))
        probe_cut = int(rng.integers(2, 5))
        shape = (cut, cut, probe_cut)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # keep pooled photon number below the last level so repeated
        # splitters never touch the cutoff edge
        top = (cut - 2) // 2
        amps[top + 1 :, :, :] = 0.0
        amps[:, top + 1 :, :] = 0.0
        amps /= np.linalg.norm(amps)
        reg = fock.FockRegister(amps)

        occupied_totals = {
            i + j
            for i in range(cut)
            for j in range(cut)
            if np.any(np.abs(reg.amplitudes[i, j, :]) > 0)
        }
        for _ in range(int(rng.integers(2, 5))):
            if rng.random() < 0.5:
                reg = fock.apply_beam_splitter(
                    reg, 0, 1, float(rng.uniform(-math.pi, math.pi))
                )
            else:
                mode_s = int(rng.integers(0, 2))
                reg = fock.apply_cross_kerr(
                    reg, mode_s, 2, float(rng.uniform(-math.pi, math.pi))
                )
        worst_norm = max(worst_norm, abs(fock.norm_squared(reg) - 1.0))
        # photon number in the two coupled modes is conserved exactly:
        # no amplitude may appear outside the initially occupied totals
        for i in range(cut):
            for j in range(cut):
                if i + j not in occupied_totals:
                    assert np.all(reg.amplitudes[i, j, :] == 0.0)
    ok = report(6, worst_norm < 1e-12, f"worst norm drift {worst_norm:.2e}")
    assert ok


def test_criterion_7_determinism_across_workers(runner, tmp_path):
    """fig4 twice with the same seed, different worker counts: identical bytes."""
    outputs = []
    for workers, name in ((1, "w1"), (3, "w3")):
        csv_path = tmp_path / f"{name}.csv"
        result = runner.invoke(
            cli_main,
            ["fig4", "--seed", "555", "--trials-scale", "1e-3",
             "--out", str(csv_path), "--workers", str(workers)],
        )
        assert result.exit_code == 0, result.stderr
        outputs.append(csv_path.read_bytes() + (tmp_path / f"{name}.fit.json").read_bytes())
    ok = report(
        7,
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes, identical across 1 and 3 workers",
    )
    assert ok


def test_criterion_8_click_probability_design_values():
    """Design click probabilities: ~19% for the four dark-port points and the
    stated value for the delta = 1 control row."""
    design = [predict_phases(point_params(p)).p_click for p in CAMPAIGN]
    dark_ok = all(0.175 <= p <= 0.205 for p in design[:4])
    # stated control-row value; the dark-port formula eta delta^2 n_bar
    # evaluates to 1.2 at (eta=0.03, delta=1, n_bar=40)
    control_ok = design[4] == pytest.approx(0.012, rel=0.05)
    ok = report(
        8,
        dark_ok and control_ok,
        "dark-port rows " + ", ".join(f"{p:.4f}" for p in design[:4])
        + f" (all ~0.19: {dark_ok}); control row {design[4]:.4g} vs stated 0.012",
    )
    assert ok
