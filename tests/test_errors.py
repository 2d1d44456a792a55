import math

import pytest

from wva_sim.errors import FieldError
from wva_sim.model import InterferometerParams
from wva_sim.montecarlo import NoiseModel
from wva_sim.presets import CampaignPoint

GOOD = {
    InterferometerParams: dict(alpha=0.3, beta=1.0, delta=0.2, eta=1.0, phi_plus=1e-3, phi_minus=0.0),
    CampaignPoint: dict(n_bar=95.0, delta=0.1, eta=0.2, n_total=1000, background=0.06),
    NoiseModel: dict(phase_sigma=0.1, background_click_rate=0.06),
}


@pytest.mark.parametrize(
    "record,field,value,rule",
    [
        (InterferometerParams, "alpha", -0.1, ">= 0 with a finite square"),
        (InterferometerParams, "alpha", 1e200, ">= 0 with a finite square"),
        (InterferometerParams, "beta", -1.0, ">= 0 with a finite square"),
        (InterferometerParams, "delta", 0.0, "in (0, 1]"),
        (InterferometerParams, "delta", 1.5, "in (0, 1]"),
        (InterferometerParams, "eta", -0.2, "in [0, 1]"),
        (InterferometerParams, "eta", 1.2, "in [0, 1]"),
        (InterferometerParams, "phi_plus", math.nan, "finite"),
        (InterferometerParams, "phi_minus", -math.inf, "finite"),
        (CampaignPoint, "n_bar", math.inf, "finite and >= 0"),
        (CampaignPoint, "delta", 1.5, "in (0, 1]"),
        (CampaignPoint, "eta", -0.2, "in [0, 1]"),
        (CampaignPoint, "n_total", 0.5, "an integer >= 1"),
        (CampaignPoint, "background", 1.0, "in [0, 1)"),
        (CampaignPoint, "p_signal", 1.0, "in [0, 1)"),
        (NoiseModel, "phase_sigma", -0.1, "finite and >= 0"),
        (NoiseModel, "background_click_rate", 1.0, "in [0, 1)"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_every_record_rule_names_its_field(record, field, value, rule):
    record(**GOOD[record])
    with pytest.raises(ValueError) as info:
        record(**dict(GOOD[record], **{field: value}))
    assert isinstance(info.value, FieldError)
    assert info.value.field == field
    assert str(info.value) == f"field '{field}': must be {rule}, got {value!r}"
