"""State-vector engine for a register of truncated bosonic modes.

A register is its dense complex amplitude tensor over a product of
single-mode Fock spaces: axis k holds mode k's levels |0>, ..., |c_k - 1>,
so the tensor's shape is the tuple of cutoffs.  The three
primitives a post-selected interferometer needs are provided exactly:
coherent-state preparation, a two-mode beam-splitter rotation (built
blockwise per total photon number, so photon number is conserved by
construction), and a cross-Kerr phase (diagonal, hence exactly unitary).
The photon-number-N block comes from the N - 1 block by Risbo's recursion
(J. Geodesy 70, 383, 1996), a few O(N^2) array operations with no
eigendecomposition.  Each call builds its blocks as the rotation reaches
them and drops each after use, so it holds at most two blocks and the
module keeps no state between calls.  Every block is checked for
unitarity and a failure raises BlockUnitarityError instead of silently
losing norm.  The rotation is one real matrix product per multiplet,
batched over all the other modes.
Projection onto a Fock level (a view, not a copy) and the usual
expectation values round out the surface.

All operations are pure: they take a register and return a new one.
Amplitude arrays are frozen after construction, so registers are safe to
share between threads or processes.  A projected register keeps its norm
below one: its squared norm is the outcome probability.  Renormalizing,
dividing the amplitudes by sqrt(norm_squared), is left to the caller
because post-selection probabilities are data.

Each function that uses numpy imports it when called, so importing this
module does not load numpy; the ``np.ndarray`` annotations are never
evaluated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BlockUnitarityError,
    DegenerateStateError,
    RegisterBudgetError,
    TruncationError,
    TruncationWarning,
)

# Amplitude-count ceiling for tensor products (~1 GiB of complex128) and for
# the entries of the beam-splitter blocks one rotation builds, i.e. work, not
# memory: a rotation holds two blocks at a time.
DEFAULT_AMPLITUDE_BUDGET = 64_000_000

# Beam-splitter leakage handling: the norm^2 one rotation loses past the
# cutoffs, as measured from its input and output, warns past WARN_TOL and
# fails past FAIL_TOL.
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
        import numpy as np
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
    import numpy as np
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def suggested_cutoff(amplitude: complex) -> int:
    """Cutoff keeping the Poisson tail of a coherent state below ~1e-9."""
    a = abs(amplitude)
    return math.ceil(a * a + 6.0 * a + 10.0)


def make_coherent(amplitude: complex, cutoff: int) -> FockRegister:
    """Truncated coherent state c_n = exp(-|a|^2/2) a^n / sqrt(n!).

    |c_n| is built in log space, -|a|^2/2 + n ln|a| - lgamma(n+1)/2 with
    :func:`math.lgamma` (the C library's), and its phase is n arg(a): a
    recursion from c_0 = exp(-|a|^2/2) starts subnormal past |a|^2 of
    about 1416 and loses the whole state.  The truncation deficit is
    1 - sum |c_n|^2, one minus the returned register's ``norm_squared``.
    """
    import numpy as np
    if not (np.isfinite(np.real(amplitude)) and np.isfinite(np.imag(amplitude))):
        raise ValueError(f"coherent amplitude must be finite, got {amplitude!r}")
    n = np.arange(int(cutoff))
    r = abs(amplitude)
    if r == 0.0:
        amps = (n == 0).astype(np.complex128)
    else:
        log_factorial = np.fromiter(map(math.lgamma, n + 1.0), float, n.size)
        log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * log_factorial
        amps = np.exp(log_mag + 1j * (n * np.angle(amplitude)))
    return FockRegister(amps)


def make_fock(n: int, cutoff: int) -> FockRegister:
    """Single-mode number state |n>."""
    import numpy as np
    cutoff = int(cutoff)
    if not 0 <= n < cutoff:
        raise ValueError(f"Fock level {n} outside [0, {cutoff - 1}]")
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[n] = 1.0
    return FockRegister(amps)


def check_register_size(size: int) -> None:
    """Raise RegisterBudgetError if ``size`` amplitudes exceed DEFAULT_AMPLITUDE_BUDGET."""
    if size > DEFAULT_AMPLITUDE_BUDGET:
        raise RegisterBudgetError(
            f"tensor product needs {size} amplitudes, budget is {DEFAULT_AMPLITUDE_BUDGET}"
        )


def tensor(a: FockRegister, b: FockRegister) -> FockRegister:
    """Tensor product; mode axes concatenate and norms multiply."""
    import numpy as np
    check_register_size(a.amplitudes.size * b.amplitudes.size)
    return FockRegister(np.multiply.outer(a.amplitudes, b.amplitudes))


def _check_modes(state: FockRegister, *modes: int) -> None:
    """Raise ValueError unless ``modes`` are distinct axes of ``state``."""
    for mode in modes:
        if not 0 <= mode < state.amplitudes.ndim:
            raise ValueError(f"mode index {mode} outside register of {state.amplitudes.ndim} modes")
    if len(set(modes)) < len(modes):
        raise ValueError(f"two-mode operation needs distinct modes, got {modes}")


def _block_entries(count: int) -> int:
    """Entries of the blocks B_0 .. B_(count - 1): sum (N + 1)^2."""
    return count * (count + 1) * (2 * count + 1) // 6


def _next_block(prev: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """B_N from P = B_(N-1) by Risbo's recursion (J. Geodesy 70, 383, 1996).

    |m, N-m> = (sqrt(m) a1+ |m-1, N-m> + sqrt(N-m) a2+ |m, N-m-1>) / N, and
    the rotation maps a1+ and a2+ to c a1+ + s a2+ and c a2+ - s a1+, so
    B_N[m', m] = (c sqrt(m' m) P[m'-1, m-1] + s sqrt((N-m') m) P[m', m-1]
                  - s sqrt(m' (N-m)) P[m'-1, m] + c sqrt((N-m')(N-m)) P[m', m]) / N.
    The rows of ``roots`` are sqrt(m), c sqrt(m) and s sqrt(m) for m = 1 .. N
    or beyond; each step reads their first N columns.
    """
    import numpy as np
    total = prev.shape[0]
    up, c_up, s_up = roots[:, :total]  # sqrt(m) times 1, c and s; m = 1 .. N
    raised = prev * up  # columns m = 1 .. N
    kept = prev * up[::-1]  # columns m = 0 .. N - 1, times sqrt(N - m)
    block = np.zeros((total + 1, total + 1))
    block[1:, 1:] = c_up[:, None] * raised
    block[:-1, 1:] += s_up[::-1, None] * raised
    block[1:, :-1] -= s_up[:, None] * kept
    block[:-1, :-1] += c_up[::-1, None] * kept
    block /= total
    return block


def _blocks(theta: float, count: int) -> Iterator[np.ndarray]:
    """Yield the beam-splitter blocks B_0 .. B_(count - 1) at ``theta``.

    B_N is the unitary on the total-photon-N multiplet, basis index m =
    photons in the first mode (the second holds N - m), rows the output m'.
    Creation operators map as a1+ -> c a1+ + s a2+ and a2+ -> -s a1+ + c a2+
    (c = cos(theta), s = sin(theta)), i.e. coherent amplitudes transform with
    the matrix [[c, -s], [s, c]]; B_N is exp(theta K_N) with the real
    antisymmetric hopping generator K_N = a2+ a1 - a1+ a2.

    The blocks come from B_0 = [[1]] by ``_next_block``, each built only
    when the one before it has been taken, and each is checked before it is
    yielded: a departure from unitarity past BLOCK_UNITARITY_TOL raises
    BlockUnitarityError and ends the blocks there.
    """
    import numpy as np
    factors = np.array([[1.0], [math.cos(theta)], [math.sin(theta)]])
    roots = factors * np.sqrt(np.arange(1.0, count))  # m = 1 .. count - 1
    block = np.ones((1, 1))
    yield block
    for total in range(1, count):
        block = _next_block(block, roots)
        gram = block @ block.T
        gram.flat[:: total + 2] -= 1.0
        error = float(np.max(np.abs(gram)))
        if not error <= BLOCK_UNITARITY_TOL:  # NaN fails too
            raise BlockUnitarityError(
                f"beam-splitter block N={total}, theta={theta!r} departs from "
                f"unitarity by {error:.3e} (tolerance {BLOCK_UNITARITY_TOL:.0e})"
            )
        del gram  # not held while the caller uses the block
        yield block


def apply_beam_splitter(
    state: FockRegister, mode_a: int, mode_b: int, theta: float
) -> FockRegister:
    """Two-mode rotation: coherent amplitudes map to
    (cos(theta) a - sin(theta) b, sin(theta) a + cos(theta) b).

    Exactly number-conserving: every total-photon multiplet is rotated by a
    unitary block (``_blocks``), built when the rotation reaches it and
    dropped after use.  Blocks whose entries would exceed the amplitude
    budget raise RegisterBudgetError before any is built.
    Multiplets that do not fit inside the cutoffs lose their clipped part.
    That loss is the measured leak, the input's norm^2 less the output's:
    warned past LEAK_WARN_TOL (a TruncationWarning naming the caller's
    line), raised past LEAK_FAIL_TOL (a TruncationError).

    Each multiplet is rotated where it lies: the levels (m, N - m) of the
    two modes that fit inside the cutoffs are gathered for all other modes
    at once, multiplied by the matching square of B_N in one real product,
    and scattered into the result.  The block index m is always mode_a's
    level, so the blocks are built at the caller's own angle.
    """
    import numpy as np
    _check_modes(state, mode_a, mode_b)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    cut_a, cut_b = state.cutoffs[mode_a], state.cutoffs[mode_b]
    count = cut_a + cut_b - 1  # blocks N = 0 .. cut_a + cut_b - 2
    entries = _block_entries(count)
    if entries > DEFAULT_AMPLITUDE_BUDGET:
        raise RegisterBudgetError(
            f"beam-splitter blocks for cutoffs ({cut_a}, {cut_b}) need {entries} entries, "
            f"budget is {DEFAULT_AMPLITUDE_BUDGET}"
        )
    source = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    out = np.empty(state.cutoffs, dtype=np.complex128)
    target = np.moveaxis(out, (mode_a, mode_b), (0, 1))
    for total, block in enumerate(_blocks(float(theta), count)):
        lo, hi = max(0, total - cut_b + 1), min(total, cut_a - 1) + 1
        levels = np.arange(lo, hi)  # mode_a's; mode_b holds total - levels
        index = (levels, total - levels)
        gathered = source[index]
        real = gathered.reshape(levels.size, -1).view(np.float64)
        rotated = block[lo:hi, lo:hi] @ real
        target[index] = rotated.view(np.complex128).reshape(gathered.shape)

    # the blocks are unitary, so the norm^2 missing from the result is the
    # part the truncated rows of each block would have put past a cutoff
    leaked = norm_squared(state) - float(np.vdot(out, out).real)
    if leaked > LEAK_FAIL_TOL:
        raise TruncationError(
            f"beam splitter leaked norm^2 {leaked:.3e} past the cutoffs "
            f"(tolerance {LEAK_FAIL_TOL:.1e})"
        )
    if leaked > LEAK_WARN_TOL:
        warnings.warn(
            f"beam splitter leaked norm^2 {leaked:.3e} past the cutoffs "
            f"(tolerance {LEAK_WARN_TOL:.1e})",
            TruncationWarning,
            stacklevel=2,
        )
    return FockRegister(out)


def apply_cross_kerr(
    state: FockRegister, mode_s: int, mode_pr: int, phi: float
) -> FockRegister:
    """Diagonal phase exp(i phi n_s n_pr); magnitudes are untouched."""
    import numpy as np
    _check_modes(state, mode_s, mode_pr)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    # level grids, one per axis, so the phase table broadcasts over the rest
    levels = np.ix_(*(np.arange(c, dtype=np.float64) for c in state.cutoffs))
    exponent = levels[mode_s] * levels[mode_pr]
    return FockRegister(state.amplitudes * np.exp(1j * phi * exponent))


def _levels(amplitudes: np.ndarray, mode: int) -> np.ndarray:
    """``amplitudes`` as (modes before, levels of ``mode``, modes after).

    A reshape: a view wherever numpy can reshape without a copy, as for any
    contiguous register.
    """
    before = math.prod(amplitudes.shape[:mode])
    return amplitudes.reshape(before, amplitudes.shape[mode], -1)


def project_fock(state: FockRegister, mode: int, n: int) -> FockRegister:
    """Project one mode onto |n>: the reduced register, not rescaled.

    Its ``norm_squared`` is the outcome probability.  Its amplitudes are a
    read-only view into the parent's, not a copy.
    """
    _check_modes(state, mode)
    if not 0 <= n < state.cutoffs[mode]:
        raise ValueError(f"Fock level {n} outside mode cutoff {state.cutoffs[mode]}")
    return FockRegister(state.amplitudes[(slice(None),) * mode + (n,)])


def fock_distribution(state: FockRegister, mode: int) -> np.ndarray:
    """Occupation probabilities P(n) for one mode; they sum to norm_squared."""
    import numpy as np
    _check_modes(state, mode)
    return np.square(np.abs(_levels(state.amplitudes, mode))).sum(axis=(0, 2))


def mean_field(state: FockRegister, mode: int) -> complex:
    """Conditional mean field <a> = <psi|a|psi> / <psi|psi> for one mode."""
    import numpy as np
    _check_modes(state, mode)
    n2 = norm_squared(state)
    if n2 <= 0.0:
        raise DegenerateStateError("mean field of a zero-norm state is undefined")
    levels = _levels(state.amplitudes, mode)
    # a|psi>: level n + 1 moved down to level n with the weight sqrt(n + 1)
    lowered = levels[:, 1:] * np.sqrt(np.arange(1.0, levels.shape[1]))[:, None]
    return complex(np.vdot(levels[:, :-1], lowered) / n2)

