"""Simulation and measurement harness for post-selected cross-phase interferometry."""

__version__ = "0.1.0"

import importlib.util
import os
import sys

# Loading numpy starts a pool of busy-waiting OpenBLAS threads sized to the
# CPU count.  The harness's linear algebra is on small blocks and it starts
# no threads of its own, so BLAS runs on one thread unless the caller
# chose a count through one of these variables.  This must run before the
# first numpy import: once numpy is loaded its pool is sized, and the pin
# changes nothing.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OMP_NUM_THREADS"] = "1"


def lazy_numpy():
    """numpy, bound now and executed on its first attribute access.

    Only the exact oracle (``fock``, ``protocol``) uses numpy, so the Monte
    Carlo commands never pay for loading it, and the BLAS pin above is in
    place whenever it does load.  A ``sys.modules["numpy"]`` entry that is
    already there, a loaded numpy or a None that blocks the import, is
    returned as it is.  Before Python 3.13 the first access takes no lock,
    so a program that starts the oracle in several threads at once should
    import numpy itself first.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


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
