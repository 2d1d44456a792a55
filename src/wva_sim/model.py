"""Closed-form layer: weak values, conditioned probe phases, validity checks.

Conventions.  A signal coherent state of amplitude ``alpha`` is split evenly
over two interferometer arms that write per-photon cross-phases ``phi_plus``
(strongly coupled arm) and ``phi_minus`` (weakly coupled arm) on a probe of
amplitude ``beta``.  The recombining beam splitter is tuned so the dark-port
output keeps a residual overlap ``delta`` with the input; a detector of
efficiency ``eta`` watches that port.  Detecting exactly one photon there
("click") post-selects an added photon whose arm occupation takes the weak
values ``(n_bar + 1 +/- 1/delta)/2``, amplifying the differential probe
phase to ``phi_bar + delta_phi / (2 delta)``.  Both conditioned phases also
carry the bright-port depletion and arm-imbalance term
``-eta mu_d (phi_bar + delta_phi / (2 delta))``, with ``mu_d`` the mean
photon number reaching the dark port; it cancels in the differential.

All phases are radians.  ``alpha``, ``beta`` and ``delta`` are restricted to
real non-negative values (real pre/post-selection overlap); imaginary weak
values are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentWeakValueError, require

# Verdict thresholds on the two validity ratios: both below VALID_MAX is
# "valid", both below MARGINAL_MAX is "marginal", anything else "invalid".
VALID_MAX = 0.1
MARGINAL_MAX = 0.3


@dataclass(frozen=True)
class InterferometerParams:
    """All scalar knobs of one interferometer configuration.

    alpha:      signal coherent amplitude, mean photon number n_bar = alpha^2
    beta:       probe coherent amplitude
    delta:      post-selection overlap in (0, 1] (dark port residual)
    eta:        detector efficiency in [0, 1]
    phi_plus:   per-photon cross-phase of the strongly coupled arm [rad]
    phi_minus:  per-photon cross-phase of the weakly coupled arm [rad]
    """

    alpha: float
    beta: float
    delta: float
    eta: float
    phi_plus: float
    phi_minus: float

    def __post_init__(self) -> None:
        # the mean photon numbers alpha^2 and beta^2 must be finite too
        squared = ">= 0 with a finite square"
        for name, ok, rule in (
            ("alpha", math.isfinite(self.alpha * self.alpha) and self.alpha >= 0.0, squared),
            ("beta", math.isfinite(self.beta * self.beta) and self.beta >= 0.0, squared),
            ("delta", 0.0 < self.delta <= 1.0, "in (0, 1]"),
            ("eta", 0.0 <= self.eta <= 1.0, "in [0, 1]"),
            ("phi_plus", math.isfinite(self.phi_plus), "finite"),
            ("phi_minus", math.isfinite(self.phi_minus), "finite"),
        ):
            require(ok, name, rule, getattr(self, name))

    @property
    def n_bar(self) -> float:
        return self.alpha**2

    @property
    def n_bar_probe(self) -> float:
        return self.beta**2

    @property
    def phi_bar(self) -> float:
        return 0.5 * (self.phi_plus + self.phi_minus)

    @property
    def delta_phi(self) -> float:
        return self.phi_plus - self.phi_minus

    @property
    def theta(self) -> float:
        """Recombiner rotation angle realizing the overlap ``delta``.

        The rotation with cos/sin proportional to (1 - delta, -(1 + delta))
        keeps the dark-port weak-value ratio at exactly -1/delta for every
        delta; at delta = 1 the dark port coincides with the strong arm.
        """
        return -(0.25 * math.pi + math.atan(self.delta))


@dataclass(frozen=True)
class PhasePrediction:
    """Closed-form probe phases for one configuration (radians)."""

    phase_click: float
    phase_noclick: float
    differential: float
    p_click: float
    amplification_factor: float


@dataclass(frozen=True)
class ValidityReport:
    """Smallness ratios behind the closed forms and a coarse verdict."""

    ratio_backaction: float  # n_bar_probe * |delta_phi| / delta
    ratio_darkport: float  # alpha^2 * delta^2
    verdict: str  # "valid" | "marginal" | "invalid"


def weak_value_photon_number(n_bar: float, delta: float) -> tuple[float, float]:
    """Arm photon-number weak values for a click: (n_bar + 1 +/- 1/delta)/2.

    The pair partitions the post-selected photon budget:
    ``n_plus + n_minus == n_bar + 1`` is pinned exactly in floating point
    (the partner value is snapped onto the representable complement, a
    sub-ulp adjustment; always possible while 1/delta stays within a few
    binades of n_bar, which covers the whole anomalous-amplification regime).
    """
    if not (math.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar!r}")
    if not math.isfinite(delta) or not (0.0 < delta <= 1.0):
        if delta == 0.0:
            raise DivergentWeakValueError("delta = 0 makes the weak value diverge")
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    total = n_bar + 1.0
    half = 0.5 / delta
    n_plus = 0.5 * total + half
    n_minus = 0.5 * total - half
    # pin the float identity n_plus + n_minus == total
    if n_plus + n_minus != total:
        n_minus = total - n_plus
        if n_plus + n_minus != total:
            n_plus = total - n_minus
    return n_plus, n_minus


def predict_phases(params: InterferometerParams) -> PhasePrediction:
    """Closed-form click / no-click / differential probe phases.

    With D = phi_bar + delta_phi / (2 delta) and mu_d = n_bar delta^2 /
    (1 + delta^2) the dark-port mean photon number of the recombiner,

    phase_noclick = n_bar phi_bar - eta mu_d D
    phase_click   = phase_noclick + D
    differential  = phase_click - phase_noclick   (exact identity, = D up
                    to rounding)
    p_click       = eta delta^2 n_bar             (dark-port design value,
                    meaningful only while it is small)
    amplification_factor = differential / phi_bar (nan when phi_bar = 0)

    The phases are exact for coherent arm states to first order in probe
    back-action: the no-click weak value of exp(i chi) is
    exp(b* b' + (1 - eta) d* d' - n_bar + eta |d|^2), with (b, d) and
    (b', d') the bright- and dark-port amplitudes before and after the
    cross-Kerr phases, and the click weak value is that times d'/d.  The
    -eta mu_d D term is the bright-port depletion and arm-imbalance shift
    that both branches share; the eta -> 0 limit is n_bar phi_bar.
    """
    n_bar = params.n_bar
    phi_bar = params.phi_bar
    kick = phi_bar + params.delta_phi / (2.0 * params.delta)
    mu_dark = n_bar * params.delta**2 / (1.0 + params.delta**2)
    phase_noclick = n_bar * phi_bar - params.eta * mu_dark * kick
    phase_click = phase_noclick + kick
    differential = phase_click - phase_noclick
    p_click = params.eta * params.delta**2 * n_bar
    amplification = differential / phi_bar if phi_bar != 0.0 else math.nan
    return PhasePrediction(
        phase_click=phase_click,
        phase_noclick=phase_noclick,
        differential=differential,
        p_click=p_click,
        amplification_factor=amplification,
    )


def check_validity(params: InterferometerParams) -> ValidityReport:
    """Ratios that must stay small for the closed forms to apply.

    ratio_backaction: probe-induced phase on the signal versus the overlap,
    n_bar_probe * |delta_phi| / delta.  ratio_darkport: dark-port mean photon
    number alpha^2 delta^2 (two-level truncation of that port).
    """
    backaction = params.n_bar_probe * abs(params.delta_phi) / params.delta
    darkport = params.n_bar * params.delta**2
    if backaction < VALID_MAX and darkport < VALID_MAX:
        verdict = "valid"
    elif backaction < MARGINAL_MAX and darkport < MARGINAL_MAX:
        verdict = "marginal"
    else:
        verdict = "invalid"
    return ValidityReport(
        ratio_backaction=backaction, ratio_darkport=darkport, verdict=verdict
    )
