"""Simulation and measurement harness for post-selected cross-phase interferometry."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    InterferometerParams,
    PhasePrediction,
    ValidityReport,
    check_validity,
    predict_phases,
    weak_value_finite_efficiency,
    weak_value_photon_number,
)
from .montecarlo import (  # noqa: F401
    EstimatorResult,
    FitResult,
    GroupStats,
    NoiseModel,
    SchemeConfig,
    TrialStats,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
    snr_compare,
)
from .protocol import ProtocolResult, run_protocol, sweep_validity  # noqa: F401
