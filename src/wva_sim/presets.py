"""Default parameter sets for the measurement-campaign reproductions.

The five campaign points pair a mean signal photon number with the
post-selection overlap and detector efficiency that kept the design click
probability near 19%, plus each point's total trial count and false-tag
rate.  The delta = 1 control ran behind an extra attenuator, so its
background rate is lower and its signal click probability is an empirical
value (the dark-port design formula eta delta^2 n_bar does not apply on a
bright port).

Per-photon phases: the strongly and weakly coupled arms imprint 9.94 and
1.24 microradians, i.e. a 5.59 urad mean and an 8.70 urad split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require
from .model import InterferometerParams

URAD = 1e-6

PER_PHOTON_PHASE_URAD = 5.59
PHASE_SPLIT_URAD = 8.7

# Probe pulses carried about 2000 photons.
PROBE_AMPLITUDE = 44.72

DEFAULT_PHASE_SIGMA = 0.100


@dataclass(frozen=True)
class CampaignPoint:
    """One configuration of the click / no-click phase measurement."""

    n_bar: float
    delta: float
    eta: float
    n_total: int
    background: float
    p_signal: float | None = None  # overrides eta*delta^2*n_bar when set

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("n_bar", math.isfinite(self.n_bar) and self.n_bar >= 0.0, "finite and >= 0"),
            ("delta", 0.0 < self.delta <= 1.0, "in (0, 1]"),
            ("eta", 0.0 <= self.eta <= 1.0, "in [0, 1]"),
            ("n_total", float(self.n_total).is_integer() and self.n_total >= 1, "an integer >= 1"),
            ("background", 0.0 <= self.background < 1.0, "in [0, 1)"),
            ("p_signal", self.p_signal is None or 0.0 <= self.p_signal < 1.0, "in [0, 1)"),
        ):
            require(ok, name, rule, getattr(self, name))


CAMPAIGN: tuple[CampaignPoint, ...] = (
    CampaignPoint(n_bar=95.0, delta=0.10, eta=0.2, n_total=42_111_000, background=0.06),
    CampaignPoint(n_bar=45.0, delta=0.14, eta=0.2, n_total=104_111_000, background=0.06),
    CampaignPoint(n_bar=20.0, delta=0.22, eta=0.2, n_total=102_380_000, background=0.06),
    CampaignPoint(n_bar=10.0, delta=0.32, eta=0.2, n_total=204_112_000, background=0.06),
    CampaignPoint(
        n_bar=40.0,
        delta=1.00,
        eta=0.03,
        n_total=374_443_000,
        background=0.015,
        p_signal=0.185,
    ),
)


def point_params(
    point: CampaignPoint,
    phi_bar_urad: float = PER_PHOTON_PHASE_URAD,
    span_urad: float = PHASE_SPLIT_URAD,
) -> InterferometerParams:
    """The point's interferometer, its arm phases given as mean and split in urad.

    Its probe amplitude is PROBE_AMPLITUDE, which only the exact oracle reads.
    """
    phi_bar = phi_bar_urad * URAD
    half_span = 0.5 * span_urad * URAD
    return InterferometerParams(
        alpha=math.sqrt(point.n_bar),
        beta=PROBE_AMPLITUDE,
        delta=point.delta,
        eta=point.eta,
        phi_plus=phi_bar + half_span,
        phi_minus=phi_bar - half_span,
    )

