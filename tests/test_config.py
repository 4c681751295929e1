import re

import pytest

from tdsnn import ConfigurationError
from tdsnn.config import SimulationConfig, parse_config, serialize_config


@pytest.mark.parametrize("section, key, value", [
    ("network", "dt", "nan"),
    ("network", "sample_interval", "inf"),
    ("reservoir", "learn_interval", "inf"),
    ("synapse", "tau_leak", "inf"),
    ("feedback", "gain", "inf"),
    ("neuron", "v_th", "-inf"),
    ("network", "dt", "1" + "0" * 400),  # an integer beyond the float range
    ("reservoir", "frequency_range", "[15.0, inf]"),
    ("reservoir", "frequency_range", "[nan, 200.0]"),
])
def test_non_finite_number_is_rejected_with_its_key(section, key, value):
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"[{section}] {key} must be finite")):
        parse_config(text)


def test_finite_numbers_still_round_trip():
    cfg = SimulationConfig()
    assert parse_config(serialize_config(cfg)) == cfg
