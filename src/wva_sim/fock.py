"""State-vector engine for a register of truncated bosonic modes.

A register is its dense complex amplitude tensor over a product of
single-mode Fock spaces: axis k holds mode k's levels |0>, ..., |c_k - 1>,
so the tensor's shape is the tuple of cutoffs.  The three
primitives a post-selected interferometer needs are provided exactly:
coherent-state preparation, a two-mode beam-splitter rotation (built
blockwise per total photon number, so photon number is conserved by
construction), and a cross-Kerr phase (diagonal, hence exactly unitary).
Each photon-number-N block comes from one eigendecomposition of its
angle-independent generator, cached per N, so a new angle costs only a
matrix product; every block is checked for unitarity and a failure raises
BlockUnitarityError instead of silently losing norm.
Projection onto a Fock level and the usual expectation values round out
the surface.

All operations are pure: they take a register and return a new one.
Amplitude arrays are frozen after construction, so registers are safe to
share between threads or processes.  A projected register keeps its norm
below one: its squared norm is the outcome probability.  Renormalizing,
dividing the amplitudes by sqrt(norm_squared), is left to the caller
because post-selection probabilities are data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import (
    BlockUnitarityError,
    DegenerateStateError,
    RegisterBudgetError,
    TruncationError,
    TruncationWarning,
)

# Amplitude-count ceiling for tensor products (~1 GiB of complex128).
DEFAULT_AMPLITUDE_BUDGET = 64_000_000

# Beam-splitter leakage handling: warn when the last retained level of an
# affected mode carries more weight than WARN_TOL, fail when the realized
# leaked norm^2 exceeds FAIL_TOL.
LEAK_WARN_TOL = 1e-9
LEAK_FAIL_TOL = 1e-6

# Largest max|B B^T - I| accepted for a beam-splitter multiplet block.
BLOCK_UNITARITY_TOL = 1e-12

_NORM_SLACK = 1e-12


@dataclass(frozen=True)
class FockRegister:
    """Immutable register: a dense amplitude tensor with one axis per mode.

    The cutoffs are the tensor's shape; a 0-d tensor is a register with no
    modes left.  The amplitude array is frozen in place at construction (no
    copy), so pass ownership rather than a buffer you intend to keep writing.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if 0 in self.amplitudes.shape:
            raise ValueError(
                f"amplitude tensor shape {self.amplitudes.shape} has a zero-length axis"
            )
        if self.amplitudes.dtype != np.complex128:
            object.__setattr__(self, "amplitudes", self.amplitudes.astype(np.complex128))
        n2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not (0.0 <= n2 <= 1.0 + _NORM_SLACK):
            raise ValueError(f"squared norm {n2} outside [0, 1]")
        self.amplitudes.setflags(write=False)

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return self.amplitudes.shape


def norm_squared(state: FockRegister) -> float:
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def truncation_deficit(state: FockRegister) -> float:
    """Norm^2 missing relative to a unit-norm preparation (clipped at 0)."""
    return max(0.0, 1.0 - norm_squared(state))


def suggested_cutoff(amplitude: complex) -> int:
    """Cutoff keeping the Poisson tail of a coherent state below ~1e-9."""
    a = abs(amplitude)
    return math.ceil(a * a + 6.0 * a + 10.0)


def make_coherent(amplitude: complex, cutoff: int) -> FockRegister:
    """Truncated coherent state c_n = exp(-|a|^2/2) a^n / sqrt(n!).

    |c_n| is built in log space, -|a|^2/2 + n ln|a| - lgamma(n+1)/2, with
    phase n arg(a): a recursion from c_0 = exp(-|a|^2/2) starts subnormal
    past |a|^2 of about 1416 and loses the whole state.  The truncation
    deficit 1 - sum |c_n|^2 is recoverable from the returned register via
    :func:`truncation_deficit`.
    """
    if not (np.isfinite(np.real(amplitude)) and np.isfinite(np.imag(amplitude))):
        raise ValueError(f"coherent amplitude must be finite, got {amplitude!r}")
    n = np.arange(int(cutoff))
    r = abs(amplitude)
    if r == 0.0:
        amps = (n == 0).astype(np.complex128)
    else:
        log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1.0)
        amps = np.exp(log_mag + 1j * (n * np.angle(amplitude)))
    return FockRegister(amps)


def make_fock(n: int, cutoff: int) -> FockRegister:
    """Single-mode number state |n>."""
    cutoff = int(cutoff)
    if not 0 <= n < cutoff:
        raise ValueError(f"Fock level {n} outside [0, {cutoff - 1}]")
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[n] = 1.0
    return FockRegister(amps)


def tensor(a: FockRegister, b: FockRegister) -> FockRegister:
    """Tensor product; mode axes concatenate and norms multiply."""
    size = a.amplitudes.size * b.amplitudes.size
    if size > DEFAULT_AMPLITUDE_BUDGET:
        raise RegisterBudgetError(
            f"tensor product needs {size} amplitudes, budget is {DEFAULT_AMPLITUDE_BUDGET}"
        )
    return FockRegister(np.multiply.outer(a.amplitudes, b.amplitudes))


def _check_mode(state: FockRegister, mode: int) -> int:
    if not 0 <= mode < state.amplitudes.ndim:
        raise ValueError(
            f"mode index {mode} outside register of {state.amplitudes.ndim} modes"
        )
    return mode


@lru_cache(maxsize=None)
def _bs_eigensystem(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of the N-photon beam-splitter generator G_N.

    G_N is real symmetric tridiagonal on the basis m = 0..N, with zero
    diagonal and off-diagonal entries sqrt((m+1)(N-m)); it is 2 J_x for
    spin N/2, so w is {-N, -N+2, ..., N}.  Independent of the angle, hence
    computed once per N.
    """
    m = np.arange(total)
    off = np.sqrt((m + 1.0) * (total - m))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=4096)
def _bs_block(total: int, theta: float) -> np.ndarray:
    """Unitary on the total-photon-N multiplet of a two-mode beam splitter.

    Basis index m = photons in the first mode, the second holds N - m.
    Creation operators map as a1+ -> c a1+ + s a2+ and a2+ -> -s a1+ + c a2+
    (c = cos(theta), s = sin(theta)), i.e. coherent amplitudes transform with
    the matrix [[c, -s], [s, c]].  The block is exp(theta K_N) with the real
    antisymmetric hopping generator K_N = a2+ a1 - a1+ a2, which fixes the
    otherwise arbitrary global phase of each multiplet.

    K_N = -i D G_N D* with D = diag((-i)^m), so the block is evaluated by
    exact diagonalization as Re[D V diag(exp(-i theta w)) V^T D*] from the
    cached eigenpairs of G_N (Feng, Wang, Yang & Jin, Phys. Rev. E 92,
    043307 (2015)).  That stays unitary to ~1e-15 at least through N = 400;
    every block is still checked and a departure past BLOCK_UNITARITY_TOL
    raises BlockUnitarityError.  This cache on (N, theta) only saves the
    matrix product when many registers share an angle.
    """
    w, vecs = _bs_eigensystem(total)
    phase = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(total + 1) % 4]  # exact (-i)^m
    left = phase[:, None] * vecs * np.exp(-1j * theta * w)
    block = np.ascontiguousarray((left @ (vecs.T * phase.conj())).real)
    error = float(np.max(np.abs(block @ block.T - np.eye(total + 1))))
    if not error <= BLOCK_UNITARITY_TOL:  # NaN fails too
        raise BlockUnitarityError(
            f"beam-splitter block N={total}, theta={theta!r} departs from "
            f"unitarity by {error:.3e} (tolerance {BLOCK_UNITARITY_TOL:.0e})"
        )
    return block


def apply_beam_splitter(
    state: FockRegister, mode_a: int, mode_b: int, theta: float
) -> FockRegister:
    """Two-mode rotation: coherent amplitudes map to
    (cos(theta) a - sin(theta) b, sin(theta) a + cos(theta) b).

    Exactly number-conserving: every total-photon multiplet is rotated by a
    unitary block.  Multiplets that do not fit inside the cutoffs lose their
    clipped part; the lost norm^2 is raised as a truncation error past
    LEAK_FAIL_TOL.  Occupation on the last retained level of either mode
    triggers a truncation warning above LEAK_WARN_TOL.
    """
    mode_a = _check_mode(state, mode_a)
    mode_b = _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")

    da, db = state.cutoffs[mode_a], state.cutoffs[mode_b]
    work = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    tail_shape = work.shape[2:]
    work = work.reshape(da, db, -1)

    edge = float(np.sum(np.abs(work[da - 1, :, :]) ** 2)) + float(
        np.sum(np.abs(work[:, db - 1, :]) ** 2)
    )
    if edge > LEAK_WARN_TOL:
        warnings.warn(
            f"beam splitter input has weight {edge:.3e} on the last Fock level",
            TruncationWarning,
            stacklevel=2,
        )

    out = np.zeros_like(work)
    leaked = 0.0
    for total in range(da + db - 1):
        lo = max(0, total - db + 1)
        hi = min(total, da - 1)
        ms = np.arange(lo, hi + 1)
        block = _bs_block(total, float(theta))
        if lo == 0 and hi == total:
            out[ms, total - ms, :] = block @ work[ms, total - ms, :]
        else:
            full = np.zeros((total + 1, work.shape[2]), dtype=np.complex128)
            full[ms] = work[ms, total - ms, :]
            rotated = block @ full
            out[ms, total - ms, :] = rotated[ms]
            leaked += float(np.sum(np.abs(rotated[:lo]) ** 2))
            leaked += float(np.sum(np.abs(rotated[hi + 1 :]) ** 2))
    if leaked > LEAK_FAIL_TOL:
        raise TruncationError(
            f"beam splitter leaked norm^2 {leaked:.3e} past the cutoffs "
            f"(tolerance {LEAK_FAIL_TOL:.1e})"
        )

    out = out.reshape((da, db) + tail_shape)
    out = np.moveaxis(out, (0, 1), (mode_a, mode_b))
    return FockRegister(np.ascontiguousarray(out))


def apply_cross_kerr(
    state: FockRegister, mode_s: int, mode_pr: int, phi: float
) -> FockRegister:
    """Diagonal phase exp(i phi n_s n_pr); magnitudes are untouched."""
    mode_s = _check_mode(state, mode_s)
    mode_pr = _check_mode(state, mode_pr)
    if mode_s == mode_pr:
        raise ValueError("cross-Kerr coupling needs two distinct modes")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    # level grids, one per axis, so the phase table broadcasts over the rest
    levels = np.ix_(*(np.arange(c, dtype=np.float64) for c in state.cutoffs))
    exponent = levels[mode_s] * levels[mode_pr]
    return FockRegister(state.amplitudes * np.exp(1j * phi * exponent))


def project_fock(state: FockRegister, mode: int, n: int) -> FockRegister:
    """Project one mode onto |n>: the reduced register, not rescaled.

    Its ``norm_squared`` is the outcome probability.
    """
    mode = _check_mode(state, mode)
    if not 0 <= n < state.cutoffs[mode]:
        raise ValueError(f"Fock level {n} outside mode cutoff {state.cutoffs[mode]}")
    reduced = np.take(state.amplitudes, n, axis=mode)
    return FockRegister(np.array(reduced, dtype=np.complex128))


def fock_distribution(state: FockRegister, mode: int) -> np.ndarray:
    """Occupation probabilities P(n) for one mode; they sum to norm_squared."""
    mode = _check_mode(state, mode)
    moved = np.moveaxis(state.amplitudes, mode, 0)
    flat = moved.reshape(moved.shape[0], -1)
    return np.sum(np.abs(flat) ** 2, axis=1)


def mean_field(state: FockRegister, mode: int) -> complex:
    """Conditional mean field <a> = <psi|a|psi> / <psi|psi> for one mode."""
    mode = _check_mode(state, mode)
    n2 = norm_squared(state)
    if n2 <= 0.0:
        raise DegenerateStateError("mean field of a zero-norm state is undefined")
    moved = np.moveaxis(state.amplitudes, mode, 0)
    flat = moved.reshape(moved.shape[0], -1)
    acc = 0.0 + 0.0j
    for n in range(flat.shape[0] - 1):
        acc += math.sqrt(n + 1) * np.vdot(flat[n], flat[n + 1])
    return complex(acc / n2)


def number_expectation(state: FockRegister, mode: int) -> float:
    """<n> for one mode, divided by the state's squared norm."""
    n2 = norm_squared(state)
    if n2 <= 0.0:
        raise DegenerateStateError("<n> of a zero-norm state is undefined")
    dist = fock_distribution(state, mode)
    return float(np.dot(np.arange(dist.size), dist) / n2)
