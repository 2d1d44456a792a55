"""Exception and warning types shared across the package."""


class FieldError(ValueError):
    """A value rejected at the config or record field that ``field`` names."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"field '{field}': {message}")
        self.field = field
        self.message = message


def require(ok: bool, field: str, rule: str, *got) -> None:
    """Unless ``ok``, raise FieldError(field, "must be <rule>"), followed by
    ", got <repr>" when the rejected value is given as the one ``got``."""
    if not ok:
        shown = f", got {got[0]!r}" if got else ""
        raise FieldError(field, f"must be {rule}{shown}")


class RegisterBudgetError(MemoryError):
    """Tensor product would exceed the configured amplitude budget."""


class TruncationError(RuntimeError):
    """An operation leaked more norm past the mode cutoffs than tolerated."""


class BlockUnitarityError(RuntimeError):
    """A beam-splitter block departs from unitarity past the tolerance."""


class TruncationWarning(UserWarning):
    """An operation leaked norm past the mode cutoffs, below the failure tolerance."""


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
