"""Simulation and measurement harness for post-selected cross-phase interferometry."""

__version__ = "0.1.0"

import os

# Loading numpy starts a pool of busy-waiting OpenBLAS threads sized to the
# CPU count.  The harness's linear algebra is on small blocks and its
# parallelism is ``workers``, so BLAS runs on one thread unless the caller
# chose a count through one of these variables.  This must run before the
# first numpy import: once numpy is loaded its pool is sized, and the pin
# changes nothing.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OMP_NUM_THREADS"] = "1"

from .model import (  # noqa: E402, F401
    InterferometerParams,
    PhasePrediction,
    ValidityReport,
    check_validity,
    predict_phases,
    weak_value_photon_number,
)
from .montecarlo import (  # noqa: E402, F401
    EstimatorResult,
    FitResult,
    GroupStats,
    NoiseModel,
    TrialStats,
    estimate_phases,
    fit_differential,
    fit_per_photon_phase,
    simulate_trials,
)
from .protocol import ProtocolResult, run_protocol, sweep_validity  # noqa: E402, F401
