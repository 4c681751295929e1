import math
import re
from pathlib import Path

import pytest

from tdsnn import (ConfigurationError, Connection, FeedbackParams, NetworkConfig,
                   NeuronParams, SynapseParams, TargetSpec, TrainConfig,
                   WeightParams)
from tdsnn.config import SimulationConfig, parse_config, serialize_config

DATA = Path(__file__).parent / "data" / "config"

CONNECTIONS_CONFIG = SimulationConfig(
    network=NetworkConfig(n_neurons=3, connections=[
        Connection(0, 1, "exc", 0), Connection(1, 2, "inh", 15),
        Connection(2, 0, "exc", 15), Connection(0, 2, "inh", 0)]),
    train=TrainConfig(frequency_range=(22.5, 180.0), learn_interval=2.5e-4,
                      teacher_forcing=False))


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


@pytest.mark.parametrize("cls, name", [
    (NeuronParams, "v_th"), (NeuronParams, "r_base"), (NeuronParams, "r_exc"),
    (NeuronParams, "r_inh"), (SynapseParams, "tau_leak"), (WeightParams, "tau_unit"),
    (WeightParams, "w0"), (FeedbackParams, "gain"), (FeedbackParams, "f_fb_max"),
    (FeedbackParams, "pulse_width"), (TargetSpec, "frequency"),
    (TargetSpec, "amplitude"), (TrainConfig, "learn_interval"),
    (TrainConfig, "rls_init_alpha"), (NetworkConfig, "sample_interval"),
])
def test_nan_model_parameter_is_rejected(cls, name):
    # nan fails every comparison, so each check asks for the valid range
    with pytest.raises(ValueError):
        cls(**{name: math.nan})


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


@pytest.mark.parametrize("name, cfg", [
    ("default.toml", SimulationConfig()),
    ("connections.toml", CONNECTIONS_CONFIG),
])
def test_serialized_config_matches_its_golden_bytes(name, cfg):
    # weights.json and summary.json embed this text, so its bytes are pinned.
    golden = (DATA / name).read_bytes()
    assert serialize_config(cfg).encode() == golden
    assert parse_config(golden.decode()) == cfg
