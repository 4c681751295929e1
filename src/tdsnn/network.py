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
need no transport delay to break same-step causality cycles. A ring edge
is the only event by which one neuron affects another, so runs compute many
steps as one window of array rows, every neuron on its own between the
edges, and apply each edge's pulses as the window reaches its row,
bit-identical to stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .neuron import NeuronParams
from .synapse import SynapseParams, check_dt, check_duration, osc_frequency
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
        check_dt(self.synapse, self.dt)
        if self.dt > self.neuron.spike_width:
            raise ConfigurationError(
                "dt must not exceed the neuron spike width (spikes would be skipped)")
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

    step(rows=...) and advance() commit many steps at once as one window of
    array rows, bit-identical to as many single steps. The window first
    folds every synapse as if no neuron fired, then walks the rows in step
    order, each membrane row one array operation. A ring edge is the only
    event that couples one neuron to another: at an edge's row the ring
    starts its pulses, the inputs of all membranes are computed again from
    that row to the next edge, and the ring's phase is folded again from
    its wrap. A spike charges its synapse at once if its ring could still
    reach phase 1 inside the window; the other spikes are applied at the
    window's end, all in one block. A window holds fewer than
    v_th / ((r_base + r_exc) * dt) rows, so no neuron fires twice in it,
    fewer than 1 / (f_max * dt) - 1, so no ring wraps twice in it, and at
    most _WINDOW_CELLS / N, so its planes stay in cache.
    """

    # Cells (rows x neurons) of each window plane. Past about this many the
    # planes fall out of a core's L2 cache: CPU time of a driven N=1000
    # simulate (2-vCPU Xeon, medians of 4 alternating runs, two seeds) was
    # 0.46 s with 165-row windows and 0.41 s with 65-row ones (2**16
    # cells), against 0.44 s at 2**15 and 0.46 s at 2**17 cells.
    _WINDOW_CELLS = 2 ** 16

    def __init__(self, network: Network, synapse_override: Optional[SynapseParams] = None):
        cfg = network.config
        self.network = network
        self.n = cfg.n_neurons
        self.dt = cfg.dt
        self.neuron = cfg.neuron
        self.synapse = synapse_override if synapse_override is not None else cfg.synapse
        check_dt(self.synapse, self.dt)

        self.v = np.zeros(self.n)
        self.sv = np.zeros(self.n)
        self.sphase = np.zeros(self.n)
        self.edged = np.zeros(self.n, dtype=bool)
        self.k = 0

        # Each connection drives one input channel of its target: channel
        # j < n is neuron j's excitatory input, n + j its inhibitory one.
        # The OR of a channel's pulses is high from before the step start
        # until _until[channel] (absolute time), so a step without new
        # pulses needs no scan of the connections.
        for code in np.unique(network.codes).tolist():
            pulse_width(code, cfg.weight)  # rejects a code out of range
        self._widths = cfg.weight.w0 + (network.codes + 1) * cfg.weight.tau_unit
        self._channel = network.post + self.n * ~network.is_exc
        self._out = np.argsort(network.pre, kind="stable")
        self._out_ptr = np.searchsorted(network.pre[self._out], np.arange(self.n + 1))
        self._until = np.full(2 * self.n, -np.inf)
        self._starts = None  # (channel, start, end) of this step's new pulses
        self._decay = math.exp(-self.dt / self.synapse.tau_leak)
        self._mid_decay = math.exp(-0.5 * self.dt / self.synapse.tau_leak)

        # A neuron restarts from v >= 0 after a spike and rises by at most
        # (r_base + r_exc) * dt per step, so it cannot fire twice in fewer
        # than v_th / ((r_base + r_exc) * dt) steps. A ring gains at most
        # f_max * dt of phase per step and as much again from a spike's
        # credit, and starts a window below phase 1 + f_max * dt (below 1
        # unless its neuron just fired), so it cannot wrap twice in fewer
        # than 1 / (f_max * dt) - 1 steps; 1e-9 covers rounding. A window
        # never holds more rows than either bound, nor more than
        # _WINDOW_CELLS / n.
        p = self.neuron
        self._phase_step = self.dt * self.synapse.f_max
        self._max_rows = max(min(math.floor(p.v_th / ((p.r_base + p.r_exc) * self.dt)) - 1,
                                 math.floor((1.0 - 1e-9) / self._phase_step) - 1,
                                 self._WINDOW_CELLS // self.n), 1)
        self._win = np.empty((6, 2, self.n))  # window rows, grown on demand

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

    def recurrent_levels(self, k: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """Per-neuron fraction of step k (by default the current step) that
        the pulses of the excitatory and of the inhibitory connections cover.

        The pulses on one input are OR-ed, so their union counts once.
        """
        dt = self.dt
        t0 = (self.k if k is None else k) * dt
        high = self._until - t0  # relative to the step start
        level = np.minimum(np.maximum(high, 0.0), dt)
        if self._starts is not None:
            channel, start, end = self._starts
            self._starts = None
            # Add the pulses of a channel in order of their start, each
            # covering what the union so far leaves uncovered; one pass
            # adds every channel's first pulse, the next its second.
            passes = [slice(None)]
            if np.bincount(channel).max() > 1:
                order = np.lexsort((start, channel))
                channel, start, end = channel[order], start[order], end[order]
                index = np.arange(len(channel))
                first = np.concatenate(([True], channel[1:] != channel[:-1]))
                rank = index - np.maximum.accumulate(np.where(first, index, 0))
                passes = [rank == r for r in range(int(rank.max()) + 1)]
            for sel in passes:
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

    def _charge(self, sv_end: np.ndarray, after: np.ndarray):
        """Charge synapses whose neurons crossed the threshold `after`
        seconds before the step end, at the crossing.

        sv_end holds their v_syn at the step end without the charge. Returns
        the charged v_syn at the step end and the extra phase each ring
        gains from the crossing to the step end.
        """
        s = self.synapse
        to_end = np.exp(-after / s.tau_leak)
        at_crossing = sv_end / to_end
        charged = at_crossing + s.delta_up * (s.v_max - at_crossing)
        half = np.exp(-0.5 * after / s.tau_leak)
        f_mid = osc_frequency(np.stack([charged, at_crossing]) * half, s)
        return charged * to_end, (f_mid[0] - f_mid[1]) * after

    def step(self, ext_exc=None, ext_inh=None, rows: Optional[int] = None) -> np.ndarray:
        """Advance by dt; returns the fired mask for this step.

        Given rows, advance instead by rows steps as one window, at most
        self._max_rows of them. ext_exc and ext_inh then hold one row of
        levels per step (a column per neuron or one for all), the mask has
        one row per step, self.edged marks every ring that wrapped in the
        window, and self._win[2] and self._win[0] hold the membranes and
        v_syn after step r in row r + 1.
        """
        if rows is None:
            return self._step(ext_exc, ext_inh)
        if not 1 <= rows <= self._max_rows:
            raise ValueError(f"rows must be in [1, {self._max_rows}], got {rows}")
        return self._window(rows, ext_exc, ext_inh)

    def _step(self, ext_exc, ext_inh) -> np.ndarray:
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

        sv = self.sv * self._decay
        if fired.any():
            # Charge each synapse at its neuron's threshold crossing, which
            # the overshoot dates back from the step end, and credit its
            # ring the extra phase from the crossing to the step end.
            ids = np.flatnonzero(fired)
            sv[ids], credit = self._charge(sv[ids], v[ids] / rate[ids])
            phase[ids] += credit
        self.sv = sv
        self.sphase = phase
        self.k += 1
        return fired

    def advance(self, n_steps: int, ext_exc=None, ext_inh=None,
                recorder: Optional["Recorder"] = None) -> None:
        """Advance by n_steps steps, bit-identical to as many step() calls.

        ext_exc and ext_inh hold one row of levels per step: a boolean per
        neuron, or one boolean for all neurons. The recorder, if given,
        receives the state after every step and the spikes.
        """
        ext = [e if e is None or np.ndim(e) == 2 else np.asarray(e)[:, None]
               for e in (ext_exc, ext_inh)]
        for done in range(0, n_steps, self._max_rows):
            rows = min(n_steps - done, self._max_rows)
            k = self.k
            fired = self.step(*[None if e is None else e[done:done + rows] for e in ext],
                              rows=rows)
            if recorder is not None:
                recorder.record(k, self._win[2, 1:rows + 1], self._win[0, 1:rows + 1],
                                fired)

    def _window(self, rows: int, ext_exc, ext_inh) -> np.ndarray:
        """Commit rows steps as one window; returns their fired mask.

        self._win holds per step row r the states at its start (r) and end
        (r + 1): v_syn in [0], the ring phase in [1] and the membrane in
        [2]; [3] and [4] the membrane rate and rise of step r, and [5] its
        ring frequency. After the call, [0] and [2] stay valid.
        """
        n, dt, s = self.n, self.dt, self.synapse
        if self._win.shape[1] <= rows:
            self._win = None  # free the old rows before the new ones are made
            self._win = np.empty((6, rows + 1, n))
        sv, phase, v = self._win[:3, :rows + 1]
        level = self._win[3:5, :rows]
        rate, x = level
        freq = self._win[5, :rows]

        # Synapses as if no neuron fired: v_syn decays step by step, and the
        # ring phase integrates the frequency at each step's midpoint.
        sv[0] = self.sv
        sv[1:] = self._decay
        np.multiply.accumulate(sv, axis=0, out=sv)
        np.multiply(sv[:-1], self._mid_decay, out=freq)
        osc_frequency(freq, s, out=freq)
        phase[0] = self.sphase
        np.multiply(freq, dt, out=phase[1:])
        np.add.accumulate(phase, axis=0, out=phase)
        # the row of each ring's next edge, rows for none in this window
        edge_row = self._edge_rows(-1, rows, slice(None))
        next_edge = int(edge_row.min())

        # The membranes are driven in stretches from one edge to the next,
        # each under the pulses started before it.
        t0 = np.arange(self.k, self.k + rows) * dt  # the steps' start times
        falling = [False] * rows  # rows whose membrane may need the clamp

        def drive(r, end, first=None):
            self._drive(level[:, r:end], t0[r:end],
                        [None if e is None else e[r:end] for e in (ext_exc, ext_inh)],
                        first)
            # v >= 0, so only a falling membrane can need the clamp
            falling[r:end] = (x[r:end] < 0.0).any(axis=1).tolist()

        drive(0, next_edge)
        v[0] = self.v
        v_th = self.neuron.v_th
        reach = 1.0 - 1e-9 - (rows - np.arange(rows)) * self._phase_step
        fired = np.zeros((rows, n), dtype=bool)
        charged = np.zeros(n, dtype=bool)  # spikes applied in their own row
        edged = np.zeros(n, dtype=bool)
        for r in range(rows):
            if r == next_edge:
                # The rings start their pulses at their edge times and wrap;
                # the membranes are driven again from this row on.
                ids = np.flatnonzero(edge_row == r)
                edged[ids] = True
                self._start_pulses(ids, np.maximum(1.0 - phase[r, ids], 0.0)
                                   / np.maximum(freq[r, ids], s.f_min))
                first = self.recurrent_levels(self.k + r)
                fold = np.empty((rows - r, len(ids)))
                fold[0] = phase[r + 1, ids] - 1.0
                np.multiply(freq[r + 1:, ids], dt, out=fold[1:])
                phase[r + 1:, ids] = np.add.accumulate(fold, axis=0, out=fold)
                edge_row[ids] = self._edge_rows(r, rows, ids)
                next_edge = int(edge_row.min())
                drive(r, next_edge, first)

            row = v[r + 1]
            np.add(v[r], x[r], out=row)
            if falling[r]:
                np.maximum(row, 0.0, out=row)
            if np.maximum.reduce(row) >= v_th:
                hit = np.greater_equal(row, v_th, out=fired[r])
                np.subtract(row, v_th, out=row, where=hit)
                # A ring gains at most f_max * dt of phase per row and from
                # its credit. One that stays short of phase 1 by more takes
                # its charge at the window's end: until then its rows lack
                # the charge, which only speeds a ring, so they show no
                # false edge. The others are charged now.
                now = hit & (phase[r + 1] >= reach[r])
                if now.any():
                    ids = np.flatnonzero(now)
                    charged[ids] = True
                    self._refold(np.full(len(ids), r), ids, rows, rate)
                    edge_row[ids] = self._edge_rows(r, rows, ids)
                    next_edge = int(edge_row.min())

        rs, cs = np.nonzero(fired)
        late = ~charged[cs]
        if late.any():
            self._refold(rs[late], cs[late], rows, rate, at_end=True)

        self.v = v[rows].copy()
        self.sv = sv[rows].copy()
        self.sphase = phase[rows].copy()
        self.edged = edged
        self.k += rows
        return fired

    def _edge_rows(self, r: int, end: int, cols) -> np.ndarray:
        """The first window row after r in which each ring of cols reaches
        phase 1, or end for none. The phase only grows along the rows after
        r, so the rows below 1 are the rows before the edge."""
        return r + 1 + (self._win[1][r + 2:end + 1, cols] < 1.0).sum(axis=0)

    def _drive(self, level, t0, ext, first=None) -> None:
        """Fill level, shape (2, rows, n), for the steps that start at the
        times t0: the membranes' rate in level[0] and their rise over the
        step in level[1].

        Each input level follows from the end time of its channel's pulses;
        first, if given, holds the excitatory and inhibitory levels of the
        first step instead. ext holds the external levels of these steps.
        """
        dt, p = self.dt, self.neuron
        np.subtract(self._until.reshape(2, 1, self.n), t0[:, None], out=level)
        np.clip(level, 0.0, dt, out=level)
        np.divide(level, dt, out=level)
        if first is not None:
            level[0, 0], level[1, 0] = first
        rate, x = level
        for lv, e in zip(level, ext):
            if e is not None:
                np.maximum(lv, e, out=lv)
        np.multiply(rate, p.r_exc, out=rate)
        np.add(rate, p.r_base, out=rate)
        np.multiply(x, p.r_inh, out=x)
        np.subtract(rate, x, out=rate)
        np.multiply(rate, dt, out=x)

    def _refold(self, rs, cs, end: int, rate, at_end: bool = False) -> None:
        """Apply the spikes of neurons cs in window rows rs (ascending, one
        per neuron) to their synapses, up to state row end.

        Each charged column is folded again from its spike on, in one block
        of state rows whose rows before a column's spike hold identity
        elements: 1.0 in the v_syn product and 0.0 in the phase sum; those
        rows then take their old values back. At the window's end the block
        lives in the level planes, which the window no longer needs once
        rate has been read, and only the last phase row is kept.
        """
        sv, phase, v = self._win[:3]
        freq = self._win[5]
        charged, credit = self._charge(sv[rs + 1, cs], v[rs + 1, cs] / rate[rs, cs])
        spike_phase = phase[rs + 1, cs] + credit
        lo = int(rs[0]) + 1  # first state row that changes
        shape = (end + 1 - lo, len(cs))
        blocks = self._win[3:5] if at_end else np.empty((2,) + shape)
        old, new = (plane.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
                    for plane in blocks)
        rel = rs + 1 - lo    # the spike's state row in the block
        at = (rel, np.arange(len(cs)))
        after = np.arange(shape[0])[:, None] >= rel

        new[...] = 1.0
        np.copyto(new, self._decay, where=after)
        new[at] = charged
        np.multiply.accumulate(new, axis=0, out=new)
        np.take(sv[lo:end + 1], cs, axis=1, out=old, mode="clip")
        np.copyto(old, new, where=after)
        sv[lo:end + 1, cs] = old

        f = np.multiply(old[:-1], self._mid_decay, out=new[1:])
        osc_frequency(f, self.synapse, out=f)
        if not at_end:
            np.take(freq[lo:end], cs, axis=1, out=old[:-1], mode="clip")
            np.copyto(old[:-1], f, where=after[:-1])
            freq[lo:end, cs] = old[:-1]
        f *= self.dt
        np.copyto(new, 0.0, where=~after)
        new[at] = spike_phase
        np.add.accumulate(new, axis=0, out=new)
        if at_end:
            phase[end, cs] = new[-1]
            return
        np.take(phase[lo:end + 1], cs, axis=1, out=old, mode="clip")
        np.copyto(old, new, where=after)
        phase[lo:end + 1, cs] = old


class Recorder:
    """Samples a run's state every `every` steps and collects its spikes.

    simulate and train_force share it; the sample at time 0 is taken from
    the kernel's state when the recorder is made.
    """

    def __init__(self, sim: NetworkSim, n_steps: int, every: int):
        self.sim = sim
        self.every = every
        n_samples = n_steps // every + 1
        self.sample_times = np.empty(n_samples)
        self.v_mem = np.empty((n_samples, sim.n))
        self.v_syn = np.empty((n_samples, sim.n))
        self.n_samples = 0
        self._spike_steps: list[np.ndarray] = []
        self._spike_ids: list[np.ndarray] = []
        self.record(sim.k - 1, sim.v[None], sim.sv[None])  # the state now

    def record(self, k: int, v, sv, fired=None) -> None:
        """Record the state after steps k + 1, k + 2, ...: row i of v, sv
        and the fired mask holds it after step k + 1 + i."""
        first = -(k + 1) % self.every  # the first row to sample
        if first < len(v):
            rows = np.arange(first, len(v), self.every)
            i, j = self.n_samples, self.n_samples + len(rows)
            self.sample_times[i:j] = (k + 1 + rows) * self.sim.dt
            self.v_mem[i:j] = v[rows]
            self.v_syn[i:j] = sv[rows]
            self.n_samples = j
        if fired is not None and fired.any():
            spike_rows, spike_ids = np.nonzero(fired)
            self._spike_steps.append(k + 1 + spike_rows)
            self._spike_ids.append(spike_ids)

    def traces(self, duration: float, **readout) -> TraceSet:
        """The recorded run as a TraceSet; readout holds its z fields."""
        sim = self.sim
        steps = np.concatenate(self._spike_steps or [np.empty(0, dtype=np.int64)])
        ids = np.concatenate(self._spike_ids or [np.empty(0, dtype=np.intp)])
        spikes = [steps[ids == i] * sim.dt for i in range(sim.n)]
        n = self.n_samples
        return TraceSet(dt=sim.dt, duration=duration, n_neurons=sim.n,
                        spikes=spikes, sample_times=self.sample_times[:n],
                        v_mem=self.v_mem[:n], v_syn=self.v_syn[:n],
                        freq_hz=osc_frequency(self.v_syn[:n], sim.synapse),
                        **readout)


def _external_level_arrays(external_inputs, n_neurons, dt, n_steps):
    """Materialize pulse trains into per-step boolean matrices (or None).

    A step is high where its start time lies in [rise, rise + width) of a
    pulse, as PulseTrain.step_levels samples it. The pulses of one train do
    not overlap, so +1 at each pulse's first step and -1 after its last,
    summed down the steps in place, leave 0 or 1.
    """
    if not external_inputs:
        return None, None
    for idx in external_inputs:
        if not 0 <= idx < n_neurons:
            raise ConfigurationError(f"external input for unknown neuron {idx}")
    times = np.arange(n_steps) * dt
    levels = []
    for side in (0, 1):
        trains = [(idx, pair[side]) for idx, pair in external_inputs.items()
                  if pair[side] is not None and len(pair[side]) > 0]
        if not trains:
            levels.append(None)
            continue
        cols = np.concatenate([np.full(len(train), idx) for idx, train in trains])
        rises = np.concatenate([train.rises for _, train in trains])
        ends = np.concatenate([train.ends for _, train in trains])
        marks = np.zeros((n_steps + 1, n_neurons), dtype=np.int8)
        np.add.at(marks, (np.searchsorted(times, rises), cols), 1)
        np.add.at(marks, (np.searchsorted(times, ends), cols), -1)
        np.add.accumulate(marks, axis=0, out=marks)
        levels.append(marks[:n_steps].view(bool))
    return tuple(levels)


def simulate(network: Network, external_inputs=None, duration: float = 1.0) -> TraceSet:
    """Run the network for the given duration and collect traces.

    external_inputs maps a neuron index to a pair (excitatory PulseTrain,
    inhibitory PulseTrain); either entry may be None. Trains extending past
    the duration are accepted, the excess is ignored. The run is one
    NetworkSim.advance call, which commits its steps in windows of array
    rows and is bit-identical to stepping.
    """
    check_duration(duration)
    cfg = network.config
    dt = cfg.dt
    n_steps = int(round(duration / dt))
    sim = NetworkSim(network)
    ext_exc, ext_inh = _external_level_arrays(external_inputs, cfg.n_neurons,
                                              dt, n_steps)
    every = max(1, int(round(cfg.sample_interval / dt)))
    recorder = Recorder(sim, n_steps, every)
    sim.advance(n_steps, ext_exc, ext_inh, recorder)
    return recorder.traces(duration)
