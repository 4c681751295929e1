"""Network composition and the fixed-step simulation kernel.

Neurons, synapses, and weight modules are wired into a directed graph: each
neuron owns one output synapse, and every connection runs from a synapse
through its own weight module into the excitatory or inhibitory input of a
target neuron. The whole system advances in lockstep with a fixed dt, but
the events inside a step keep their own times: a ring edge starts its
pulses at the instant the oscillator phase wraps, each pulse lasts its exact
width, a neuron is driven by the fraction of the step its pulses cover, and
a spike charges its synapse at the threshold crossing. The edges of a step
depend only on the synapse state at the step's start, so the connections
need no transport delay to break same-step causality cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .neuron import NeuronParams
from .synapse import SynapseParams, osc_frequency
from .weight import WeightParams, N_CODES, pulse_width

POLARITIES = ("exc", "inh")


@dataclass(frozen=True)
class Connection:
    """One weighted edge: pre synapse -> weight module -> post neuron input."""

    pre: int
    post: int
    polarity: str
    code: int


@dataclass
class NetworkConfig:
    n_neurons: int = 1
    connection_probability: float = 0.0
    excitatory_fraction: float = 0.5
    code_min: int = 0
    code_max: int = N_CODES - 1
    connections: Optional[list[Connection]] = None
    seed: int = 0
    dt: float = 1e-5
    sample_interval: float = 1e-4
    neuron: NeuronParams = field(default_factory=NeuronParams)
    synapse: SynapseParams = field(default_factory=SynapseParams)
    weight: WeightParams = field(default_factory=WeightParams)

    def __post_init__(self):
        if self.n_neurons < 1:
            raise ConfigurationError("n_neurons must be >= 1")
        if not 0.0 <= self.connection_probability <= 1.0:
            raise ConfigurationError("connection_probability must be in [0, 1]")
        if not 0.0 <= self.excitatory_fraction <= 1.0:
            raise ConfigurationError("excitatory_fraction must be in [0, 1]")
        if not 0 <= self.code_min <= self.code_max < N_CODES:
            raise ConfigurationError("need 0 <= code_min <= code_max <= 15")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.dt > self.neuron.spike_width:
            raise ConfigurationError(
                "dt must not exceed the neuron spike width (spikes would be skipped)")
        if self.dt * self.synapse.f_max >= 0.5:
            raise ConfigurationError(
                f"dt={self.dt:g} undersamples the fastest oscillator "
                f"(dt*f_max = {self.dt * self.synapse.f_max:g} >= 0.5)")
        if self.sample_interval < self.dt:
            raise ConfigurationError("sample_interval must be >= dt")


class Network:
    """A built topology: parameter set plus flat connection arrays."""

    def __init__(self, config: NetworkConfig, pre, post, is_exc, codes):
        self.config = config
        self.pre = np.asarray(pre, dtype=np.intp)
        self.post = np.asarray(post, dtype=np.intp)
        self.is_exc = np.asarray(is_exc, dtype=bool)
        self.codes = np.asarray(codes, dtype=np.intp)

    @property
    def n_neurons(self) -> int:
        return self.config.n_neurons

    @property
    def n_connections(self) -> int:
        return len(self.pre)


def build_network(config: NetworkConfig) -> Network:
    """Materialize a topology from the config, deterministically in the seed.

    Explicit connection lists are used as given. Otherwise each ordered pair
    (i, j), i != j, is connected independently with the configured
    probability; polarity and 4-bit code are drawn per connection and stay
    fixed afterwards.
    """
    n = config.n_neurons
    if config.connections is not None:
        pre, post, is_exc, codes = [], [], [], []
        for k, c in enumerate(config.connections):
            if not (0 <= c.pre < n and 0 <= c.post < n):
                raise ConfigurationError(
                    f"connection {k}: indices ({c.pre}, {c.post}) out of range for "
                    f"{n} neurons")
            if c.polarity not in POLARITIES:
                raise ConfigurationError(
                    f"connection {k}: polarity must be 'exc' or 'inh', got "
                    f"{c.polarity!r}")
            if not 0 <= c.code < N_CODES:
                raise ConfigurationError(
                    f"connection {k}: code {c.code} out of [0, {N_CODES - 1}]")
            pre.append(c.pre)
            post.append(c.post)
            is_exc.append(c.polarity == "exc")
            codes.append(c.code)
        return Network(config, pre, post, is_exc, codes)

    rng = np.random.default_rng(config.seed)
    u = rng.random((n, n))
    mask = u < config.connection_probability
    np.fill_diagonal(mask, False)
    pre, post = np.nonzero(mask)
    is_exc = rng.random(len(pre)) < config.excitatory_fraction
    codes = rng.integers(config.code_min, config.code_max + 1, len(pre))
    return Network(config, pre, post, is_exc, codes)


@dataclass
class TraceSet:
    """Time series produced by a simulation run.

    Analog samples are decimated to the configured sample interval; a spike
    is dated at the end of the step in which its neuron crossed the
    threshold, at most dt late. Readout traces (z, target) are attached by the
    reservoir harness and stay None for plain network runs.
    """

    dt: float
    duration: float
    n_neurons: int
    spikes: list  # per neuron, np.ndarray of spike times
    sample_times: np.ndarray
    v_mem: np.ndarray  # (n_samples, n_neurons)
    v_syn: np.ndarray
    freq_hz: np.ndarray
    z_times: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    target: Optional[np.ndarray] = None
    r_states: Optional[np.ndarray] = None
    train_end_time: Optional[float] = None

    def spike_counts(self) -> np.ndarray:
        return np.array([len(s) for s in self.spikes])


class NetworkSim:
    """Stepping kernel over one built network.

    State lives in flat arrays; step() advances everything by dt. External
    excitatory/inhibitory pulse levels can be injected per step, either as a
    boolean per neuron or as a scalar broadcast to all neurons. Within a
    step: find the ring edges the oscillators reach during the step, start
    one weighted pulse per outgoing connection at each edge's time, drive
    every neuron by the fraction of the step its OR-ed pulses cover, advance
    the neurons, and charge the owned synapse of each neuron that fired at
    its threshold crossing. An edge depends only on the synapse state at the
    step's start, so a pulse acts from the step it starts in. What stays
    approximate inside a step: the crossing time assumes the step's mean
    rate, a ring runs at its frequency at the step's midpoint, external
    inputs keep their level at the step start, and a ring wrap that a
    spike's charge causes late in the step is emitted at the next step start.
    """

    def __init__(self, network: Network, synapse_override: Optional[SynapseParams] = None):
        cfg = network.config
        self.network = network
        self.n = cfg.n_neurons
        self.dt = cfg.dt
        self.neuron = cfg.neuron
        self.synapse = synapse_override if synapse_override is not None else cfg.synapse
        if self.dt * self.synapse.f_max >= 0.5:
            raise ConfigurationError(
                f"dt={self.dt:g} undersamples the oscillator "
                f"(dt*f_max = {self.dt * self.synapse.f_max:g} >= 0.5)")

        self.v = np.zeros(self.n)
        self.sv = np.zeros(self.n)
        self.sphase = np.zeros(self.n)
        self.fired = np.zeros(self.n, dtype=bool)
        self.edged = np.zeros(self.n, dtype=bool)
        self.k = 0

        # Each connection drives one input channel of its target: channel
        # j < n is neuron j's excitatory input, n + j its inhibitory one.
        # The OR of a channel's pulses is high from before the step start
        # until _until[channel] (absolute time), so a step without new
        # pulses needs no scan of the connections.
        self._widths = np.array([pulse_width(int(c), cfg.weight) for c in network.codes])
        self._channel = network.post + self.n * ~network.is_exc
        self._out = np.argsort(network.pre, kind="stable")
        self._out_ptr = np.searchsorted(network.pre[self._out], np.arange(self.n + 1))
        self._until = np.full(2 * self.n, -np.inf)
        self._starts = None  # (channel, start, end) of this step's new pulses
        self._decay = math.exp(-self.dt / self.synapse.tau_leak)
        self._mid_decay = math.exp(-0.5 * self.dt / self.synapse.tau_leak)

    @property
    def t(self) -> float:
        """Time at the end of the last completed step."""
        return self.k * self.dt

    def _start_pulses(self, ids: np.ndarray, offsets: np.ndarray) -> None:
        """Start a pulse on every outgoing connection of the neurons ids, at
        the given offsets (s) into the current step."""
        lo = self._out_ptr[ids]
        counts = self._out_ptr[ids + 1] - lo
        total = int(counts.sum())
        if total == 0:
            return
        block = np.cumsum(counts) - counts  # where each neuron's edges go in conn
        conn = self._out[np.arange(total) + np.repeat(lo - block, counts)]
        start = np.repeat(offsets, counts)
        self._starts = (self._channel[conn], start, start + self._widths[conn])

    def recurrent_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-neuron fraction of the current step that the pulses of the
        excitatory and of the inhibitory connections cover.

        The pulses on one input are OR-ed, so their union counts once.
        """
        dt = self.dt
        t0 = self.k * dt
        high = self._until - t0  # relative to the step start
        level = np.minimum(np.maximum(high, 0.0), dt)
        if self._starts is not None:
            channel, start, end = self._starts
            self._starts = None
            # Add the pulses of a channel in order of their start, each
            # covering what the union so far leaves uncovered.
            order = np.lexsort((start, channel))
            channel, start, end = channel[order], start[order], end[order]
            index = np.arange(len(channel))
            first = np.concatenate(([True], channel[1:] != channel[:-1]))
            rank = index - np.maximum.accumulate(np.where(first, index, 0))
            for r in range(int(rank.max()) + 1):
                sel = rank == r
                c = channel[sel]
                covered = high[c]
                level[c] += np.maximum(
                    np.minimum(end[sel], dt) - np.maximum(start[sel], covered), 0.0)
                high[c] = np.maximum(covered, end[sel])
                self._until[c] = t0 + high[c]
        level /= dt
        return level[:self.n], level[self.n:]

    def synapse_frequencies(self) -> np.ndarray:
        return osc_frequency(self.sv, self.synapse)

    def step(self, ext_exc=None, ext_inh=None) -> np.ndarray:
        """Advance by dt; returns the fired mask for this step."""
        p = self.neuron
        s = self.synapse
        dt = self.dt
        f = osc_frequency(self.sv * self._mid_decay, s)
        phase = self.sphase + f * dt
        edged = phase >= 1.0
        self.edged = edged
        if edged.any():
            ids = np.flatnonzero(edged)
            # a wrap carried over from a spike late in the last step starts at 0
            to_wrap = np.maximum(1.0 - self.sphase[ids], 0.0)
            self._start_pulses(ids, to_wrap / np.maximum(f[ids], s.f_min))
            phase[ids] -= 1.0

        exc, inh = self.recurrent_levels()
        if ext_exc is not None:
            exc = np.maximum(exc, ext_exc)
        if ext_inh is not None:
            inh = np.maximum(inh, ext_inh)
        rate = p.r_base + p.r_exc * exc - p.r_inh * inh
        v = np.maximum(self.v + rate * dt, 0.0)
        fired = v >= p.v_th
        v[fired] -= p.v_th
        self.v = v
        self.fired = fired

        sv = self.sv * self._decay
        if fired.any():
            # Charge each synapse at its neuron's threshold crossing, which
            # the overshoot dates back from the step end, and credit its
            # ring the extra phase from the crossing to the step end.
            ids = np.flatnonzero(fired)
            after = v[ids] / rate[ids]
            to_end = np.exp(-after / s.tau_leak)
            at_crossing = sv[ids] / to_end
            charged = at_crossing + s.delta_up * (s.v_max - at_crossing)
            half = np.exp(-0.5 * after / s.tau_leak)
            f_mid = osc_frequency(np.stack([charged, at_crossing]) * half, s)
            phase[ids] += (f_mid[0] - f_mid[1]) * after
            sv[ids] = charged * to_end
        self.sv = sv
        self.sphase = phase
        self.k += 1
        return fired


def _external_level_arrays(external_inputs, n_neurons, dt, n_steps):
    """Materialize pulse trains into per-step boolean matrices (or None)."""
    if not external_inputs:
        return None, None
    exc = np.zeros((n_steps, n_neurons), dtype=bool)
    inh = np.zeros((n_steps, n_neurons), dtype=bool)
    any_exc = any_inh = False
    for idx, (exc_train, inh_train) in external_inputs.items():
        if not 0 <= idx < n_neurons:
            raise ConfigurationError(f"external input for unknown neuron {idx}")
        if exc_train is not None and len(exc_train) > 0:
            exc[:, idx] = exc_train.step_levels(dt, n_steps)
            any_exc = True
        if inh_train is not None and len(inh_train) > 0:
            inh[:, idx] = inh_train.step_levels(dt, n_steps)
            any_inh = True
    return (exc if any_exc else None), (inh if any_inh else None)


def simulate(network: Network, external_inputs=None, duration: float = 1.0) -> TraceSet:
    """Run the network for the given duration and collect traces.

    external_inputs maps a neuron index to a pair (excitatory PulseTrain,
    inhibitory PulseTrain); either entry may be None. Trains extending past
    the duration are accepted, the excess is ignored.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    cfg = network.config
    dt = cfg.dt
    n_steps = int(round(duration / dt))
    sim = NetworkSim(network)
    ext_exc, ext_inh = _external_level_arrays(external_inputs, cfg.n_neurons,
                                              dt, n_steps)

    every = max(1, int(round(cfg.sample_interval / dt)))
    n_samples = n_steps // every + 1
    sample_times = np.empty(n_samples)
    v_mem = np.empty((n_samples, cfg.n_neurons))
    v_syn = np.empty((n_samples, cfg.n_neurons))
    freq = np.empty((n_samples, cfg.n_neurons))
    sample_times[0] = 0.0
    v_mem[0] = sim.v
    v_syn[0] = sim.sv
    freq[0] = sim.synapse_frequencies()

    spike_steps: list[int] = []
    spike_ids: list[int] = []
    si = 1
    for k in range(n_steps):
        fired = sim.step(None if ext_exc is None else ext_exc[k],
                         None if ext_inh is None else ext_inh[k])
        if fired.any():
            ids = np.nonzero(fired)[0]
            spike_steps.extend([k + 1] * len(ids))
            spike_ids.extend(ids.tolist())
        if (k + 1) % every == 0:
            sample_times[si] = (k + 1) * dt
            v_mem[si] = sim.v
            v_syn[si] = sim.sv
            freq[si] = sim.synapse_frequencies()
            si += 1

    spike_steps = np.asarray(spike_steps, dtype=np.int64)
    spike_ids = np.asarray(spike_ids, dtype=np.intp)
    spikes = [spike_steps[spike_ids == i] * dt for i in range(cfg.n_neurons)]
    return TraceSet(dt=dt, duration=duration, n_neurons=cfg.n_neurons,
                    spikes=spikes, sample_times=sample_times[:si],
                    v_mem=v_mem[:si], v_syn=v_syn[:si], freq_hz=freq[:si])
