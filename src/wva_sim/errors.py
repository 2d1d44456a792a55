"""Exception and warning types shared across the package."""


class RegisterBudgetError(MemoryError):
    """Tensor product would exceed the configured amplitude budget."""


class TruncationError(RuntimeError):
    """An operation leaked more norm past the mode cutoffs than tolerated."""


class BlockUnitarityError(RuntimeError):
    """A beam-splitter block departs from unitarity past the tolerance."""


class TruncationWarning(UserWarning):
    """State has non-negligible weight on the last retained Fock level."""


class DegenerateStateError(ValueError):
    """Expectation value requested on a zero-norm state."""


class DivergentWeakValueError(ValueError):
    """Post-selection overlap is zero; the weak value diverges."""


class InvalidRegimeError(ValueError):
    """Trial probabilities leave the physically meaningful range."""


class InsufficientDataError(ValueError):
    """An estimator needs samples in every conditioning group."""


class DegenerateFitError(ValueError):
    """Fit has no degrees of freedom or degenerate abscissas."""
