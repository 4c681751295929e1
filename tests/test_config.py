import re

import pytest

from tdsnn import (ConfigurationError, Connection, NetworkConfig,
                   TrainConfig)
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


def test_config_with_connections_round_trips():
    cfg = SimulationConfig(
        network=NetworkConfig(n_neurons=3, connections=[
            Connection(0, 1, "exc", 0), Connection(1, 2, "inh", 15),
            Connection(2, 0, "exc", 15), Connection(0, 2, "inh", 0)]),
        train=TrainConfig(frequency_range=(22.5, 180.0), learn_interval=2.5e-4))
    assert parse_config(serialize_config(cfg)) == cfg
