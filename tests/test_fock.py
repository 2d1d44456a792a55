import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given

from wva_sim import fock
from wva_sim.errors import (
    BlockUnitarityError,
    DegenerateStateError,
    RegisterBudgetError,
    TruncationError,
    TruncationWarning,
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


class TestCoherent:
    def test_zero_amplitude_is_vacuum(self):
        reg = fock.make_coherent(0.0, 5)
        assert reg.amplitudes[0] == 1.0
        assert np.all(reg.amplitudes[1:] == 0.0)
        assert fock.truncation_deficit(reg) == 0.0

    def test_mean_photon_number_matches_poisson_sum(self):
        # brute-force oracle: sum the Poisson series directly
        expected = sum(
            n * math.exp(-1.0) / math.factorial(n) for n in range(25)
        ) / sum(math.exp(-1.0) / math.factorial(n) for n in range(25))
        reg = fock.make_coherent(1.0, 25)
        assert fock.number_expectation(reg, 0) == pytest.approx(expected, abs=1e-12)
        assert fock.number_expectation(reg, 0) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_deficit_partial_poisson_sum(self):
        reg = fock.make_coherent(2.0, 3)
        expected = 1.0 - math.exp(-4.0) * (1.0 + 4.0 + 8.0)
        assert fock.truncation_deficit(reg) == pytest.approx(expected, rel=1e-12)

    def test_policy_cutoff_keeps_deficit_tiny(self):
        # 38.3 and 44.72 (the campaign probe) put exp(-|a|^2 / 2) below the
        # smallest normal double
        for alpha in (0.3, 1.0, 2.0, 3.0, 38.3, 44.72):
            reg = fock.make_coherent(alpha, fock.suggested_cutoff(alpha))
            assert fock.truncation_deficit(reg) < 1e-9

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 0.7 - 0.4j, -1.1 + 0.9j, 2j])
    def test_matches_recursion_at_small_amplitude(self, alpha):
        cutoff = fock.suggested_cutoff(alpha)
        expected = np.zeros(cutoff, dtype=np.complex128)
        expected[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for n in range(1, cutoff):
            expected[n] = expected[n - 1] * alpha / math.sqrt(n)
        amps = fock.make_coherent(alpha, cutoff).amplitudes
        assert np.max(np.abs(amps - expected)) < 1e-14

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
        before = fock.number_expectation(reg, 0) + fock.number_expectation(reg, 1)
        out = fock.apply_beam_splitter(reg, 0, 1, 0.83)
        after = fock.number_expectation(out, 0) + fock.number_expectation(out, 1)
        assert after == pytest.approx(before, rel=1e-12)

    def test_leakage_raises_truncation_error(self):
        # alpha = 2 crammed into cutoff 4 leaks badly once rotated
        reg = fock.tensor(fock.make_coherent(2.0, 4), fock.make_coherent(2.0, 4))
        with pytest.warns(TruncationWarning):
            with pytest.raises(TruncationError):
                fock.apply_beam_splitter(reg, 0, 1, math.pi / 4)

    def test_edge_occupation_warns(self):
        reg = fock.tensor(fock.make_fock(2, 3), fock.make_fock(0, 3))
        with pytest.warns(TruncationWarning):
            fock.apply_beam_splitter(reg, 0, 1, 0.2)

    def test_same_mode_rejected(self):
        reg = fock.tensor(fock.make_fock(0, 3), fock.make_fock(0, 3))
        with pytest.raises(ValueError):
            fock.apply_beam_splitter(reg, 1, 1, 0.1)


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
            assert fock.number_expectation(out, mode) == pytest.approx(
                fock.number_expectation(reg, mode), rel=1e-12
            )


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

    def test_number_expectation_of_coherent(self):
        reg = fock.make_coherent(1.3, 24)
        assert fock.number_expectation(reg, 0) == pytest.approx(1.69, abs=1e-8)

    def test_zero_norm_state_rejected(self):
        zero = fock.FockRegister(np.zeros(3, dtype=np.complex128))
        with pytest.raises(DegenerateStateError):
            fock.mean_field(zero, 0)
        with pytest.raises(DegenerateStateError):
            fock.number_expectation(zero, 0)


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

    def test_beam_splitter_block_unitarity_large_n(self):
        for total in (10, 25, 40, 55):
            block = fock._bs_block(total, 0.813)
            gram = block.T @ block
            assert np.max(np.abs(gram - np.eye(total + 1))) < 1e-12


def hopping_generator(total):
    """K_N = a2+ a1 - a1+ a2 on the N-photon multiplet, rows indexed by output m."""
    m = np.arange(total)
    off = np.sqrt((m + 1.0) * (total - m))
    return np.diag(off, 1) - np.diag(off, -1)


@pytest.fixture
def cold_block_caches():
    fock._bs_block.cache_clear()
    fock._bs_eigensystem.cache_clear()
    yield
    fock._bs_block.cache_clear()
    fock._bs_eigensystem.cache_clear()


class TestBeamSplitterBlocks:
    @pytest.mark.parametrize("total", [100, 200, 400])
    @pytest.mark.parametrize("theta", [0.813, -2.1, math.pi / 2])
    def test_unitary_at_large_n(self, total, theta):
        block = fock._bs_block(total, theta)
        gram = block @ block.T
        assert np.max(np.abs(gram - np.eye(total + 1))) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 0.813, -0.5, 1.0])
    def test_matches_matrix_exponential(self, theta):
        # scipy's expm itself drifts by ~2e-13 at N = 30 once |theta| passes
        # about 1.5 (checked against 40-digit mpmath), so the independent
        # reference stays at |theta| <= 1; larger angles follow from the
        # composition property tested above.
        for total in range(31):
            expected = scipy.linalg.expm(theta * hopping_generator(total))
            np.testing.assert_allclose(
                fock._bs_block(total, theta), expected, rtol=0, atol=1e-13
            )

    def test_eigensystem_built_once_per_photon_number(self, cold_block_caches):
        reg = fock.tensor(fock.make_coherent(1.0, 17), fock.make_coherent(0.5, 14))
        n_totals = 17 + 14 - 1
        for k in range(20):
            fock.apply_beam_splitter(reg, 0, 1, 0.1 + 0.07 * k)
        assert fock._bs_eigensystem.cache_info().misses == n_totals
        assert fock._bs_block.cache_info().misses == 20 * n_totals

    def test_non_unitary_block_raises(self, cold_block_caches, monkeypatch):
        w, vecs = fock._bs_eigensystem(12)
        perturbed = vecs.copy()
        perturbed[3, 5] += 1e-9
        monkeypatch.setattr(fock, "_bs_eigensystem", lambda total: (w, perturbed))
        with pytest.raises(BlockUnitarityError, match="N=12"):
            fock._bs_block(12, 0.4)


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

    def test_overnormalized_rejected(self):
        with pytest.raises(ValueError):
            fock.FockRegister(np.array([1.0, 1.0], dtype=np.complex128))
