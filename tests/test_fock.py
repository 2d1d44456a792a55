import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln
from hypothesis import given

from wva_sim import fock
from wva_sim.errors import (
    BlockUnitarityError,
    DegenerateStateError,
    RegisterBudgetError,
    TruncationError,
)


def random_register(rng, cutoffs, max_level=None):
    """Normalized register with support limited to max_level per mode."""
    amps = rng.normal(size=cutoffs) + 1j * rng.normal(size=cutoffs)
    if max_level is not None:
        for axis, cut in enumerate(cutoffs):
            idx = [slice(None)] * len(cutoffs)
            idx[axis] = slice(max_level + 1, cut)
            amps[tuple(idx)] = 0.0
    amps /= np.linalg.norm(amps)
    return fock.FockRegister(amps)


complex_amps = st.lists(
    st.tuples(
        st.floats(-1, 1, allow_nan=False, width=32),
        st.floats(-1, 1, allow_nan=False, width=32),
    ),
    min_size=2,
    max_size=5,
)


def register_from_list(pairs):
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0:
        amps[0] = 1.0
        norm = 1.0
    return fock.FockRegister(amps / norm)


def mean_number(state, mode):
    """<n> of one mode from its occupation probabilities, per unit norm."""
    dist = fock.fock_distribution(state, mode)
    return float(np.dot(np.arange(dist.size), dist) / fock.norm_squared(state))


class TestCoherent:
    def test_zero_amplitude_is_vacuum(self):
        reg = fock.make_coherent(0.0, 5)
        assert reg.amplitudes[0] == 1.0
        assert np.all(reg.amplitudes[1:] == 0.0)
        assert 1.0 - fock.norm_squared(reg) == 0.0

    def test_mean_photon_number_matches_poisson_sum(self):
        # brute-force oracle: sum the Poisson series directly
        expected = sum(
            n * math.exp(-1.0) / math.factorial(n) for n in range(25)
        ) / sum(math.exp(-1.0) / math.factorial(n) for n in range(25))
        reg = fock.make_coherent(1.0, 25)
        assert mean_number(reg, 0) == pytest.approx(expected, abs=1e-12)
        assert mean_number(reg, 0) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_deficit_partial_poisson_sum(self):
        reg = fock.make_coherent(2.0, 3)
        expected = 1.0 - math.exp(-4.0) * (1.0 + 4.0 + 8.0)
        assert 1.0 - fock.norm_squared(reg) == pytest.approx(expected, rel=1e-12)

    def test_policy_cutoff_keeps_deficit_tiny(self):
        # 38.3 and 44.72 (the campaign probe) put exp(-|a|^2 / 2) below the
        # smallest normal double
        for alpha in (0.3, 1.0, 2.0, 3.0, 38.3, 44.72):
            reg = fock.make_coherent(alpha, fock.suggested_cutoff(alpha))
            assert 1.0 - fock.norm_squared(reg) < 1e-9

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 0.7 - 0.4j, -1.1 + 0.9j, 2j])
    def test_matches_recursion_at_small_amplitude(self, alpha):
        cutoff = fock.suggested_cutoff(alpha)
        expected = np.zeros(cutoff, dtype=np.complex128)
        expected[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for n in range(1, cutoff):
            expected[n] = expected[n - 1] * alpha / math.sqrt(n)
        amps = fock.make_coherent(alpha, cutoff).amplitudes
        assert np.max(np.abs(amps - expected)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 3.0, 44.72])
    def test_matches_scipy_gammaln_reference(self, alpha):
        # the log-space formula with scipy's gammaln; at 44.72 (the campaign
        # probe) the exponent's terms reach ~1.7e4, where one ulp is 3.6e-12,
        # so both evaluations are only good to a few eps times those terms
        cutoff = fock.suggested_cutoff(alpha)
        n = np.arange(cutoff)
        terms = (-0.5 * alpha * alpha, n * math.log(alpha), -0.5 * gammaln(n + 1.0))
        expected = np.exp(sum(terms))
        scale = sum(np.abs(t) for t in terms)
        amps = fock.make_coherent(alpha, cutoff).amplitudes
        assert np.all(amps.imag == 0.0)
        kept = expected > 1e-300
        rel = np.abs(amps.real[kept] - expected[kept]) / expected[kept]
        assert np.all(rel <= np.maximum(1e-13, 2 * np.finfo(float).eps * scale[kept]))
        norm = float(np.sum(expected**2))
        assert fock.norm_squared(fock.FockRegister(amps)) == pytest.approx(norm, rel=1e-12)

    def test_rejects_non_finite_amplitude(self):
        with pytest.raises(ValueError):
            fock.make_coherent(float("nan"), 5)
        with pytest.raises(ValueError):
            fock.make_coherent(complex(1, float("inf")), 5)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            fock.make_coherent(1.0, 0)


class TestTensor:
    def test_two_mode_vacuum(self):
        reg = fock.tensor(fock.make_coherent(0, 3), fock.make_coherent(0, 4))
        assert reg.cutoffs == (3, 4)
        assert fock.norm_squared(reg) == pytest.approx(1.0)

    @given(complex_amps, complex_amps)
    def test_norm_multiplies(self, pa, pb):
        a, b = register_from_list(pa), register_from_list(pb)
        prod = fock.tensor(a, b)
        assert fock.norm_squared(prod) == pytest.approx(
            fock.norm_squared(a) * fock.norm_squared(b), rel=1e-12, abs=1e-15
        )

    def test_coherent_product_amplitudes(self):
        a, b = fock.make_coherent(0.7, 6), fock.make_coherent(0.4 + 0.2j, 5)
        prod = fock.tensor(a, b)
        expected = np.multiply.outer(a.amplitudes, b.amplitudes)
        np.testing.assert_allclose(prod.amplitudes, expected, atol=1e-15)

    def test_budget_guard(self):
        # 8001^2 = 64,016,001 amplitudes, just over DEFAULT_AMPLITUDE_BUDGET
        big = fock.make_coherent(1.0, 8001)
        assert big.amplitudes.size**2 > fock.DEFAULT_AMPLITUDE_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(RegisterBudgetError):
                fock.tensor(big, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rejected before the ~1 GiB product is allocated
        assert peak < 1_000_000


class TestBeamSplitter:
    def test_theta_zero_is_identity(self):
        rng = np.random.default_rng(5)
        reg = random_register(rng, (5, 6), max_level=3)
        out = fock.apply_beam_splitter(reg, 0, 1, 0.0)
        np.testing.assert_allclose(out.amplitudes, reg.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.3, -0.7, 1.2])
    def test_coherent_maps_to_coherent(self, theta):
        a, b = 0.5 + 0.2j, -0.3 + 0.1j
        cut = 16
        reg = fock.tensor(fock.make_coherent(a, cut), fock.make_coherent(b, cut))
        out = fock.apply_beam_splitter(reg, 0, 1, theta)
        ta = math.cos(theta) * a - math.sin(theta) * b
        tb = math.sin(theta) * a + math.cos(theta) * b
        target = fock.tensor(fock.make_coherent(ta, cut), fock.make_coherent(tb, cut))
        fid = abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2
        fid /= fock.norm_squared(target) * fock.norm_squared(out)
        assert fid >= 1.0 - 1e-9

    def test_single_photon_block_is_rotation(self):
        reg = fock.tensor(fock.make_fock(1, 3), fock.make_fock(0, 3))
        out = fock.apply_beam_splitter(reg, 0, 1, math.pi / 4)
        inv = 1.0 / math.sqrt(2.0)
        assert out.amplitudes[1, 0] == pytest.approx(inv, abs=1e-15)
        assert out.amplitudes[0, 1] == pytest.approx(inv, abs=1e-15)
        # second input port picks up the minus sign
        reg2 = fock.tensor(fock.make_fock(0, 3), fock.make_fock(1, 3))
        out2 = fock.apply_beam_splitter(reg2, 0, 1, math.pi / 4)
        assert out2.amplitudes[1, 0] == pytest.approx(-inv, abs=1e-15)
        assert out2.amplitudes[0, 1] == pytest.approx(inv, abs=1e-15)

    @given(st.integers(0, 10_000), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    def test_norm_and_number_conservation(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        reg = random_register(rng, (7, 7), max_level=2)
        out = fock.apply_beam_splitter(reg, 0, 1, t1)
        assert abs(fock.norm_squared(out) - 1.0) < 1e-12
        # block structure: components outside the occupied totals stay zero
        totals_in = {
            i + j
            for i in range(7)
            for j in range(7)
            if abs(reg.amplitudes[i, j]) > 0
        }
        for i in range(7):
            for j in range(7):
                if i + j not in totals_in:
                    assert out.amplitudes[i, j] == 0.0
        # composition: theta1 then theta2 equals theta1 + theta2
        out12 = fock.apply_beam_splitter(out, 0, 1, t2)
        direct = fock.apply_beam_splitter(reg, 0, 1, t1 + t2)
        np.testing.assert_allclose(out12.amplitudes, direct.amplitudes, atol=1e-10)

    def test_number_expectation_sum_conserved(self):
        rng = np.random.default_rng(11)
        reg = random_register(rng, (6, 6), max_level=2)
        before = mean_number(reg, 0) + mean_number(reg, 1)
        out = fock.apply_beam_splitter(reg, 0, 1, 0.83)
        after = mean_number(out, 0) + mean_number(out, 1)
        assert after == pytest.approx(before, rel=1e-12)

    def test_leakage_raises_truncation_error(self):
        # alpha = 2 crammed into cutoff 4 leaks 0.126 once rotated, past
        # LEAK_FAIL_TOL
        reg = fock.tensor(fock.make_coherent(2.0, 4), fock.make_coherent(2.0, 4))
        with pytest.raises(TruncationError, match="leaked norm\\^2 1.258e-01"):
            fock.apply_beam_splitter(reg, 0, 1, math.pi / 4)

    def test_clipped_multiplets_match_enlarged_exponential(self):
        # cutoffs (5, 8) clip every multiplet of total >= 5 (and cut its low
        # levels from total 8 on); the last levels are empty and the angle is
        # small, so the clipped norm, 2.0e-7, stays below LEAK_FAIL_TOL and is
        # left as the output's norm^2 shortfall
        da, db, spectator, theta = 5, 8, 3, 0.01
        rng = np.random.default_rng(3)
        amps = np.zeros((da, db, spectator), dtype=np.complex128)
        inner = (da - 1, db - 1, spectator)
        amps[: da - 1, : db - 1] = rng.normal(size=inner) + 1j * rng.normal(size=inner)
        amps /= np.linalg.norm(amps)
        out = fock.apply_beam_splitter(fock.FockRegister(amps), 0, 1, theta)

        # reference: exp(theta K), K = a2+ a1 - a1+ a2, on cutoffs that hold
        # every occupied multiplet whole, truncated back afterwards
        big = da + db - 1
        lower = np.diag(np.sqrt(np.arange(1.0, big)), 1)
        a1, a2 = np.kron(lower, np.eye(big)), np.kron(np.eye(big), lower)
        padded = np.zeros((big, big, spectator), dtype=np.complex128)
        padded[:da, :db] = amps
        rotated = scipy.linalg.expm(theta * (a2.T @ a1 - a1.T @ a2)) @ padded.reshape(big * big, -1)
        expected = rotated.reshape(big, big, spectator)[:da, :db]
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-13)
        leaked = 1.0 - fock.norm_squared(out)
        assert 0 < leaked < fock.LEAK_FAIL_TOL
        assert leaked == pytest.approx(2.0367e-7, rel=1e-4)

    def test_mode_order_and_layout_agree(self):
        # the clipped register of the test above, rotated through other axis
        # orders and with its two modes named the other way round (b, a at
        # -theta is the same rotation), which puts the larger cutoff first;
        # every rotation leaks the same 2.0e-7
        da, db, spectator, theta = 5, 8, 3, 0.01
        rng = np.random.default_rng(3)
        amps = np.zeros((da, db, spectator), dtype=np.complex128)
        inner = (da - 1, db - 1, spectator)
        amps[: da - 1, : db - 1] = rng.normal(size=inner) + 1j * rng.normal(size=inner)
        amps /= np.linalg.norm(amps)

        def rotate(reg, *args):
            out = fock.apply_beam_splitter(reg, *args)
            assert 1.0 - fock.norm_squared(out) == pytest.approx(2.0367e-7, rel=1e-4)
            return out.amplitudes

        out = rotate(fock.FockRegister(amps), 0, 1, theta)
        swapped = rotate(fock.FockRegister(amps.copy()), 1, 0, -theta)
        np.testing.assert_allclose(swapped, out, rtol=0, atol=1e-15)
        for order in [(2, 1, 0), (1, 2, 0), (0, 2, 1)]:
            moved = fock.FockRegister(np.ascontiguousarray(amps.transpose(order)))
            a, b = order.index(0), order.index(1)
            for modes, angle in (((a, b), theta), ((b, a), -theta)):
                result = rotate(moved, *modes, angle)
                np.testing.assert_allclose(result, out.transpose(order), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "cutoffs,modes",
        [((37, 37, 26), (0, 1)), ((37, 37, 26, 37), (0, 1)), ((37, 37, 26, 37), (1, 3)),
         ((39, 39, 600), (0, 1)), ((17, 17, 17), (0, 1)), ((164, 164, 14), (0, 1))],
        ids=["37x37x26", "37x37x26x37", "37x37x26x37-modes-1-3", "39x39x600", "17x17x17",
             "164x164x14"],
    )
    def test_peak_memory_within_one_and_a_half_registers(self, cutoffs, modes):
        # from a cold start: the result is one register; beside it one
        # multiplet is in flight at a time, gathered and rotated, under 0.15
        # of a register, and the blocks are built as the rotation reaches
        # them, so at most eight (N + 1)^2 arrays of reals, N < count, are
        # alive at once
        reg = fock.make_coherent(1.0, cutoffs[0])
        for cut in cutoffs[1:]:
            reg = fock.tensor(reg, fock.make_coherent(1.0, cut))
        count = cutoffs[modes[0]] + cutoffs[modes[1]] - 1
        tracemalloc.start()
        try:
            result = fock.apply_beam_splitter(reg, *modes, 0.4)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * reg.amplitudes.nbytes + 8 * count**2 * 8
        # nothing but the result outlives the call
        assert left - result.amplitudes.nbytes < 4096

    def test_same_mode_rejected(self):
        reg = fock.tensor(fock.make_fock(0, 3), fock.make_fock(0, 3))
        with pytest.raises(ValueError, match="distinct modes"):
            fock.apply_beam_splitter(reg, 1, 1, 0.1)

    @pytest.mark.parametrize(
        "level,weight",
        [((2, 3), 1e-9), ((2, 0), 0.5), ((1, 3), 1e-8), ((2, 3), 1e-8)],
        ids=["corner-below-tol", "first-mode-edge", "second-mode-edge", "corner-above-tol"],
    )
    @pytest.mark.parametrize("modes", [(0, 1), (1, 0)], ids=["small-first", "large-first"])
    def test_edge_weight_counts_corner_once(self, level, weight, modes):
        # the only last-level weight sits at ``level`` of a (3, 4) register;
        # the corner (2, 3) is on both modes' last level but is one amplitude,
        # so it leaks once: what its multiplet's rotation carries past the
        # cutoffs. (2, 0) is on a last level, but its multiplet N = 2 fits
        # whole, so even half the norm there leaks nothing
        amps = np.zeros((3, 4), dtype=np.complex128)
        amps[0, 0] = math.sqrt(1.0 - weight)
        amps[level] = math.sqrt(weight)
        total = sum(level)
        column = scipy.linalg.expm(0.2 * hopping_generator(total))[:, level[0]]
        clipped = [m >= 3 or total - m >= 4 for m in range(total + 1)]
        expected = weight * float(np.sum(np.abs(column[clipped]) ** 2))
        out = fock.apply_beam_splitter(fock.FockRegister(amps), *modes, 0.2)
        leaked = 1.0 - fock.norm_squared(out)
        assert leaked == pytest.approx(expected, rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "levels,theta,leak",
        [((3, 3), 0.005, 3.7494e-8), ((3, 3), 0.001, 5.9999e-11), ((4, 0), 0.3, 0.0)],
        ids=["leak-above-warn-tol", "leak-below-warn-tol", "lossless-last-level"],
    )
    @pytest.mark.parametrize("modes", [(0, 1), (1, 0)], ids=["forward", "reversed"])
    def test_measured_leak_follows_clipped_multiplet(self, levels, theta, leak, modes):
        # on cutoffs (5, 5), |3, 3> has no weight on a last level, yet its
        # multiplet N = 6 is clipped: it leaks 3.7e-8 at theta = 0.005 and
        # 6.0e-11 at 0.001 (the leak grows as theta^4); |4, 0> sits on a last
        # level, yet its multiplet N = 4 fits whole and it leaks only rounding
        reg = fock.tensor(fock.make_fock(levels[0], 5), fock.make_fock(levels[1], 5))
        out = fock.apply_beam_splitter(reg, *modes, theta)
        leaked = 1.0 - fock.norm_squared(out)
        assert leaked == pytest.approx(leak, rel=1e-4, abs=1e-15)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        reg = fock.tensor(fock.make_fock(0, 3), fock.make_fock(0, 4))
        with pytest.raises(ValueError, match="theta must be finite"):
            fock.apply_beam_splitter(reg, 0, 1, theta)


class TestCrossKerr:
    def test_phi_zero_is_identity(self):
        rng = np.random.default_rng(2)
        reg = random_register(rng, (4, 4))
        out = fock.apply_cross_kerr(reg, 0, 1, 0.0)
        np.testing.assert_array_equal(out.amplitudes, reg.amplitudes)

    def test_one_one_component_advances_by_phi(self):
        reg = fock.tensor(fock.make_fock(1, 2), fock.make_fock(1, 2))
        x = 0.4217
        out = fock.apply_cross_kerr(reg, 0, 1, x)
        assert out.amplitudes[1, 1] == pytest.approx(np.exp(1j * x), abs=1e-15)

    def test_coherent_probe_rotates_per_signal_fock(self):
        m, phi, beta = 3, 0.217, 0.9
        cut = 16
        reg = fock.tensor(fock.make_fock(m, 5), fock.make_coherent(beta, cut))
        out = fock.apply_cross_kerr(reg, 0, 1, phi)
        target = fock.tensor(
            fock.make_fock(m, 5), fock.make_coherent(beta * np.exp(1j * m * phi), cut)
        )
        fid = abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2
        fid /= fock.norm_squared(target) * fock.norm_squared(out)
        assert fid >= 1.0 - 1e-12

    @given(st.integers(0, 10_000), st.floats(-3, 3))
    def test_unitary_and_commutes_with_number(self, seed, phi):
        rng = np.random.default_rng(seed)
        reg = random_register(rng, (4, 5))
        out = fock.apply_cross_kerr(reg, 0, 1, phi)
        assert abs(fock.norm_squared(out) - 1.0) < 1e-12
        np.testing.assert_allclose(
            np.abs(out.amplitudes) ** 2, np.abs(reg.amplitudes) ** 2, rtol=1e-14
        )
        for mode in (0, 1):
            assert mean_number(out, mode) == pytest.approx(mean_number(reg, mode), rel=1e-12)

    @pytest.mark.parametrize(
        "modes,phi,match",
        [((1, 1), 0.1, "distinct modes"), ((0, 0), 0.0, "distinct modes"),
         ((0, 1), math.nan, "phi must be finite"), ((1, 0), math.inf, "phi must be finite"),
         ((0, 1), -math.inf, "phi must be finite")],
        ids=["same-mode-1", "same-mode-0", "nan-phi", "inf-phi", "minus-inf-phi"],
    )
    def test_rejections(self, modes, phi, match):
        reg = fock.tensor(fock.make_fock(1, 3), fock.make_fock(1, 3))
        with pytest.raises(ValueError, match=match):
            fock.apply_cross_kerr(reg, *modes, phi)


class TestProjection:
    def test_vacuum_projects_to_one(self):
        reg = fock.make_coherent(0.0, 4)
        assert fock.norm_squared(fock.project_fock(reg, 0, 0)) == pytest.approx(1.0)

    def test_coherent_single_photon_weight(self):
        reg = fock.make_coherent(0.3, 12)
        out = fock.project_fock(reg, 0, 1)
        assert fock.norm_squared(out) == pytest.approx(math.exp(-0.09) * 0.09, rel=1e-12)

    @given(complex_amps)
    def test_completeness(self, pairs):
        reg = register_from_list(pairs)
        probs = [
            fock.norm_squared(fock.project_fock(reg, 0, n)) for n in range(reg.cutoffs[0])
        ]
        assert sum(probs) == pytest.approx(fock.norm_squared(reg), abs=1e-12)

    def test_level_beyond_cutoff_rejected(self):
        reg = fock.make_coherent(0.3, 4)
        with pytest.raises(ValueError):
            fock.project_fock(reg, 0, 4)

    def test_projection_reduces_register(self):
        reg = fock.tensor(fock.make_coherent(0.5, 6), fock.make_coherent(0.2, 4))
        out = fock.project_fock(reg, 1, 0)
        assert out.cutoffs == (6,)


class TestExpectations:
    def test_mean_field_of_coherent_is_amplitude(self):
        beta = 0.7 + 0.2j
        reg = fock.make_coherent(beta, 18)
        assert fock.mean_field(reg, 0) == pytest.approx(beta, abs=1e-9)

    def test_mean_field_of_fock_is_zero(self):
        reg = fock.make_fock(2, 6)
        assert fock.mean_field(reg, 0) == 0.0

    def test_rotated_coherent_phase(self):
        beta, phi = 0.8, 0.37
        reg = fock.make_coherent(beta * np.exp(1j * phi), 18)
        ref = fock.make_coherent(beta, 18)
        measured = np.angle(fock.mean_field(reg, 0)) - np.angle(fock.mean_field(ref, 0))
        assert measured == pytest.approx(phi, abs=1e-9)

    def test_mean_field_matches_level_loop(self):
        rng = np.random.default_rng(9)
        reg = random_register(rng, (4, 7, 3))
        for mode, cut in enumerate(reg.cutoffs):
            flat = np.moveaxis(reg.amplitudes, mode, 0).reshape(cut, -1)
            loop = sum(math.sqrt(n + 1) * np.vdot(flat[n], flat[n + 1]) for n in range(cut - 1))
            # the contraction only reorders about 30 products of size <= 3
            assert abs(fock.mean_field(reg, mode) - loop) < 1e-13

    def test_zero_norm_state_rejected(self):
        zero = fock.FockRegister(np.zeros(3, dtype=np.complex128))
        with pytest.raises(DegenerateStateError):
            fock.mean_field(zero, 0)


class TestHelpers:
    def test_fock_distribution_matches_poisson(self):
        reg = fock.make_coherent(0.8, 14)
        dist = fock.fock_distribution(reg, 0)
        for n in (0, 1, 3):
            expected = math.exp(-0.64) * 0.64**n / math.factorial(n)
            assert dist[n] == pytest.approx(expected, rel=1e-12)

    def test_suggested_cutoff_grows_with_amplitude(self):
        assert fock.suggested_cutoff(0.0) == 10
        assert fock.suggested_cutoff(1.0) == 17
        assert fock.suggested_cutoff(2.0) == 26
        assert fock.suggested_cutoff(1j) == fock.suggested_cutoff(1.0)

    def test_make_fock_bounds(self):
        with pytest.raises(ValueError):
            fock.make_fock(3, 3)
        assert fock.make_fock(2, 3).amplitudes[2] == 1.0


def hopping_generator(total):
    """K_N = a2+ a1 - a1+ a2 on the N-photon multiplet, rows indexed by output m."""
    m = np.arange(total)
    off = np.sqrt((m + 1.0) * (total - m))
    return np.diag(off, 1) - np.diag(off, -1)


@pytest.fixture
def built(monkeypatch):
    """The sizes of the blocks B_(N-1) that ``fock._next_block`` steps from."""
    sizes = []
    next_block = fock._next_block

    def counted(prev, roots):
        sizes.append(prev.shape[0])
        return next_block(prev, roots)

    monkeypatch.setattr(fock, "_next_block", counted)
    return sizes


class TestBeamSplitterBlocks:
    @pytest.mark.parametrize(
        "theta,total",
        [
            # _blocks checks every block it yields, so each N = 400 case also
            # covers the blocks below it at its angle
            *itertools.product([0.813, -2.1, math.pi / 2], [400]),
            # the recombiner angles -(pi/4 + atan(delta)) at delta = 0.1 and 1;
            # the campaign's n_bar = 95 point at a small probe builds blocks
            # up to N = 326 at each, and every block up to N = 400 is checked
            # as it is built
            (-(math.pi / 4 + math.atan(0.1)), 400),
            (-math.pi / 2, 400),
        ],
    )
    def test_unitary_at_large_n(self, theta, total):
        (block,) = itertools.islice(fock._blocks(theta, total + 1), total, None)
        gram = block @ block.T
        assert np.max(np.abs(gram - np.eye(total + 1))) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 0.813, -0.5, 1.0])
    def test_matches_matrix_exponential(self, theta):
        # scipy's expm itself drifts by ~2e-13 at N = 30 once |theta| passes
        # about 1.5 (checked against 40-digit mpmath), so the independent
        # reference stays at |theta| <= 1; larger angles follow from the
        # composition property tested above.
        blocks = itertools.islice(fock._blocks(theta, 31), 31)
        for total, block in enumerate(blocks):
            expected = scipy.linalg.expm(theta * hopping_generator(total))
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-13)
        assert total == 30

    def test_every_call_rebuilds_its_blocks(self, built):
        reg = fock.tensor(fock.make_coherent(0.5, 14), fock.make_coherent(1.0, 17))
        count = 17 + 14 - 1
        angles = [0.1 + 0.07 * k for k in range(5)]
        first = [fock.apply_beam_splitter(reg, 0, 1, theta).amplitudes for theta in angles]
        # B_0 = [[1]] needs no step; each call builds B_1 .. B_29 from B_0
        assert built == list(range(1, count)) * len(angles)
        # a call at the same angle builds them all again, to the same bits
        del built[:]
        for _ in range(3):
            again = fock.apply_beam_splitter(reg, 0, 1, angles[-1]).amplitudes
            assert np.array_equal(again, first[-1])
        assert built == list(range(1, count)) * 3
        # so does a call at an earlier angle, after other angles
        del built[:]
        assert np.array_equal(fock.apply_beam_splitter(reg, 0, 1, angles[1]).amplitudes, first[1])
        assert built == list(range(1, count))

    def test_block_entries_within_budget(self, built, monkeypatch):
        # cutoffs (20, 20) need blocks up to N = 38: 39 * 40 * 79 / 6 = 20,540 entries
        reg = fock.tensor(fock.make_coherent(1.0, 20), fock.make_coherent(1.0, 20))
        monkeypatch.setattr(fock, "DEFAULT_AMPLITUDE_BUDGET", 1000)
        with pytest.raises(RegisterBudgetError, match="20540 entries"):
            fock.apply_beam_splitter(reg, 0, 1, 0.3)
        # rejected before any block is built
        assert built == []

    def test_non_unitary_block_raises(self, monkeypatch):
        next_block = fock._next_block

        def perturbed(prev, roots):
            block = next_block(prev, roots)
            if block.shape[0] == 13:
                block[3, 5] += 1e-9
            return block

        monkeypatch.setattr(fock, "_next_block", perturbed)
        reg = fock.tensor(fock.make_coherent(0.3, 8), fock.make_coherent(0.3, 13))
        with pytest.raises(BlockUnitarityError, match="N=12"):
            fock.apply_beam_splitter(reg, 0, 1, 0.4)

    def test_threads_alternating_angles_get_serial_bits(self):
        # each call builds its own blocks B_1 .. B_46, so threads that
        # alternate angles share no state and get the serial bits
        reg = random_register(np.random.default_rng(5), (24, 24, 2), max_level=11)
        angles = (0.3, -1.1)
        serial = [fock.apply_beam_splitter(reg, 0, 1, theta).amplitudes for theta in angles]

        def alternate(start):
            return [
                fock.apply_beam_splitter(reg, 0, 1, angles[(start + j) % 2]).amplitudes
                for j in range(20)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the builds too
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = list(pool.map(alternate, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for start, run in enumerate(runs):
            for j, amplitudes in enumerate(run):
                assert np.array_equal(amplitudes, serial[(start + j) % 2])


class TestRegisterInvariants:
    def test_amplitudes_are_frozen(self):
        reg = fock.make_coherent(0.5, 6)
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 0.0

    def test_zero_length_axis_rejected(self):
        with pytest.raises(ValueError, match="zero-length axis"):
            fock.FockRegister(np.zeros((3, 0), dtype=np.complex128))
        # projecting out the last mode leaves a legal 0-d register
        assert fock.FockRegister(np.array(1.0 + 0.0j)).cutoffs == ()

    def test_mode_index_out_of_range_rejected(self):
        reg = fock.tensor(fock.make_fock(0, 3), fock.make_fock(0, 3))
        with pytest.raises(ValueError, match="mode index 2"):
            fock.apply_beam_splitter(reg, 0, 2, 0.1)
        with pytest.raises(ValueError, match="mode index -1"):
            fock.project_fock(reg, -1, 0)
        with pytest.raises(ValueError, match="mode index 2"):
            fock.apply_cross_kerr(reg, 2, 0, 0.1)
        with pytest.raises(ValueError, match="mode index 2"):
            fock.fock_distribution(reg, 2)
        with pytest.raises(ValueError, match="mode index -1"):
            fock.mean_field(reg, -1)

    @pytest.mark.parametrize(
        "values,dtype",
        [([1, 0, 0], np.int64), ([0.5, -0.5, 0.5, 0.5], np.float64),
         ([0.5, 0.5j, -0.5, 0.5], np.complex64), ([[0.75], [0.5]], np.float32)],
        ids=["int64", "float64", "complex64", "float32-two-modes"],
    )
    def test_amplitudes_cast_to_complex128(self, values, dtype):
        given_amps = np.array(values, dtype=dtype)
        reg = fock.FockRegister(given_amps)
        assert reg.amplitudes.dtype == np.complex128
        assert reg.cutoffs == given_amps.shape
        assert np.array_equal(reg.amplitudes, given_amps.astype(np.complex128))
        assert not reg.amplitudes.flags.writeable
        # the cast is a copy: the caller's array stays writable
        assert given_amps.flags.writeable

    def test_overnormalized_rejected(self):
        with pytest.raises(ValueError):
            fock.FockRegister(np.array([1.0, 1.0], dtype=np.complex128))
