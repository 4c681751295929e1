"""Behavioral simulator for time-domain spiking neural circuits.

Building blocks: leaky integrate-and-fire neurons driven by pulse inputs,
ring-oscillator synapses whose frequency encodes activity, and delay-line
weight modules whose pulse width encodes a 4-bit coupling weight. Networks
of these advance with a fixed-step kernel; a reservoir-computing harness
trains a linear readout online with recursive least squares.
"""

from .errors import CalibrationError, ConfigurationError
from .neuron import NeuronParams, free_run_period, neuron_step, run_neuron
from .pulses import PulseTrain
from .synapse import (SynapseParams, osc_frequency, run_synapse,
                      steady_state_frequency, steady_state_v, synapse_step)
from .weight import WeightParams, pulse_width, shape_pulses
from .network import (Connection, Network, NetworkConfig, NetworkSim, TraceSet,
                      build_network, simulate)
from .reservoir import (FeedbackParams, RlsState, TargetSpec, TrainConfig,
                        encode_feedback, evaluate, normalized_state, readout,
                        rls_update, train_force)
from .measure import CalibrationResult, PAPER_ANCHORS, calibrate, weighted_drive
from .config import SimulationConfig, parse_config, serialize_config
from .traceio import write_run, write_traces

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "ConfigurationError",
    "NeuronParams", "free_run_period", "neuron_step", "run_neuron",
    "PulseTrain",
    "SynapseParams", "osc_frequency", "run_synapse",
    "steady_state_frequency", "steady_state_v", "synapse_step",
    "WeightParams", "pulse_width", "shape_pulses",
    "Connection", "Network", "NetworkConfig", "NetworkSim", "TraceSet",
    "build_network", "simulate",
    "FeedbackParams", "RlsState", "TargetSpec", "TrainConfig",
    "encode_feedback", "evaluate", "normalized_state", "readout", "rls_update",
    "train_force",
    "CalibrationResult", "PAPER_ANCHORS", "calibrate", "weighted_drive",
    "SimulationConfig", "parse_config", "serialize_config",
    "write_run", "write_traces",
]
