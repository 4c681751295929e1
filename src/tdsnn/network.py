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
steps as one window of array rows, bit-identical to stepping: each window
first plans all of its edges and the inputs they give every row, then sums
the membranes down the rows on their own, and ends at the first edge that a
spike's charge brings into it. Outside pulses enter as
(channel, rise, end) rows, as the connections' own pulses do, and each
window ORs those that rise in its steps with its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .neuron import NeuronParams
from .pulses import PulseTrain, check_duration, step_search
from .synapse import SynapseParams, check_dt, osc_frequency
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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        check_dt(self.synapse, self.dt)
        rise = (self.neuron.r_base + self.neuron.r_exc) * self.dt
        if not rise < self.neuron.v_th:
            raise ConfigurationError(
                f"dt={self.dt:g} is too coarse for a driven neuron "
                f"(need (r_base + r_exc)*dt < v_th = {self.neuron.v_th:g}, got {rise:g})")
        if not self.sample_interval >= self.dt:
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
    pre, post = np.divmod(mask.reshape(-1).nonzero()[0], n)
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


# Columns up to which _scan folds a block with one accumulate. NumPy
# accumulates down axis 0 one strided column at a time, about 4 ns a cell
# at any width, while a loop pays about 0.7 us of calls a row plus its
# cells. Per block (2-vCPU Xeon, best of 7, add / multiply), the
# accumulate against the loop took 39/45 against 78/87 us at (101, 100),
# 52/56 against 50/56 us at (66, 200), 75/83 against 47/56 us at (66, 300)
# and 252/270 against 82/70 us at (66, 1000).
_SCAN_WIDTH = 200


def _scan(ufunc, block) -> None:
    """Fold block in place down its rows in row order: row r becomes
    ufunc(row r - 1, row r). Up to _SCAN_WIDTH columns one accumulate does
    it, above a loop of one call a row; both give the same bytes."""
    if block.shape[1] <= _SCAN_WIDTH:
        ufunc.accumulate(block, axis=0, out=block)
    else:
        rows = list(block)
        for prev, row in zip(rows, rows[1:]):
            ufunc(prev, row, out=row)


def _rescan(ufunc, block, start, first) -> np.ndarray:
    """Fold each column of block again from its row start on, where it
    takes the value first; returns the mask of each column's rows from its
    start on. The rows before a start hold ufunc's identity, which the
    fold keeps."""
    after = np.arange(len(block))[:, None] >= start
    np.putmask(block, ~after, ufunc.identity)
    block[start, np.arange(block.shape[1])] = first
    _scan(ufunc, block)
    return after


class NetworkSim:
    """Stepping kernel over one built network.

    State lives in flat arrays; step() advances everything by dt. Outside
    pulses are (channel, rise, end) rows in absolute seconds, where channel
    j is neuron j's excitatory input and n + j its inhibitory one, as for
    the connections. Within a step: find the ring edges the oscillators
    reach during the step, start one weighted pulse per outgoing connection
    at each edge's time, drive every neuron by the fraction of the step the
    OR of its pulses covers, advance the neurons, and charge the owned
    synapse of each neuron that fired at its threshold crossing. An edge
    depends only on the synapse state at the step's start, so a pulse acts
    from the step it starts in. What stays approximate inside a step: the
    crossing time assumes the step's mean rate, a ring runs at its frequency
    at the step's midpoint, train_force's feedback levels cover whole steps,
    and a ring wrap that a spike's charge causes late in the step is emitted
    at the next step start.

    step(rows=...) and advance() commit many steps at once as one window of
    array rows, bit-identical to as many single steps. The window first
    folds every synapse as if no neuron fired. A ring edge is the only
    event that couples one neuron to another, so one plan then covers all
    of the window's edges: each ring's edge row and time follow from its
    folded phase, its phase is folded again from the wrap, its pulses
    start there, the unions of the pulses on each input chain from row to
    row, and the inputs of every row follow in one pass. The membranes are
    then summed down the rows, each column restarted where it clamps or
    fires. The spikes are charged last, all in one block: each charged ring
    is folded again from its spike to the window's end. A charge can make
    or move its ring's edge, so the window ends at the first edge of a
    charged ring, at the earliest in the step after its spike, and the next
    window plans from there. The steps before that edge are the ones step()
    gives, since a charge changes only its own ring and that ring stays
    below phase 1 in them. Each of these folds down the rows, of v_syn,
    phase or membrane, is one _scan. A window holds fewer than
    v_th / ((r_base + r_exc) * dt) rows, so no neuron fires twice in it,
    fewer than 1 / (f_max * dt) - 1, so no ring wraps twice in it, and at
    most _WINDOW_CELLS / N, so its planes stay in cache.
    NetworkConfig keeps both bounds above one row: it requires
    (r_base + r_exc) * dt < v_th, and check_dt requires f_max * dt < 0.5.
    """

    # Cells (rows x neurons) of each window plane. Past about this many the
    # planes fall out of a core's L2 cache: CPU time of a driven N=1000
    # simulate (2-vCPU Xeon, medians of 4 alternating runs, two seeds) was
    # 0.46 s with 165-row windows and 0.41 s with 65-row ones (2**16
    # cells), against 0.44 s at 2**15 and 0.46 s at 2**17 cells.
    _WINDOW_CELLS = 2 ** 16

    def __init__(self, network: Network):
        cfg = network.config
        self.network = network
        self.n = cfg.n_neurons
        self.dt = cfg.dt
        self.neuron = cfg.neuron
        self.synapse = cfg.synapse

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
        codes, which = np.unique(network.codes, return_inverse=True)
        self._widths = np.array([pulse_width(code, cfg.weight)  # rejects bad codes
                                 for code in codes.tolist()])[which]
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
        # _WINDOW_CELLS / n. NetworkConfig requires (r_base + r_exc) * dt
        # < v_th and f_max * dt < 0.5, so both bounds exceed one row and
        # the one-row window that max(..., 1) leaves keeps them too.
        p, phase_step = self.neuron, self.dt * self.synapse.f_max
        self._max_rows = max(min(math.floor(p.v_th / ((p.r_base + p.r_exc) * self.dt)) - 1,
                                 math.floor((1.0 - 1e-9) / phase_step) - 1,
                                 self._WINDOW_CELLS // self.n), 1)
        self._win = np.empty((6, self._max_rows + 1, self.n))  # window rows

    def _start_pulses(self, ids: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
        """A pulse on every outgoing connection of the rings ids, in ring
        order: its channel, its start and end (s into the step of its
        ring's edge, at the given offsets) and that step's window row, from
        the rows given per ring."""
        lo = self._out_ptr[ids]
        counts = self._out_ptr[ids + 1] - lo
        block = np.cumsum(counts) - counts  # where each ring's edges go in conn
        conn = self._out[np.arange(int(counts.sum())) + np.repeat(lo - block, counts)]
        start = np.repeat(offsets, counts)
        return (self._channel[conn], start, start + self._widths[conn],
                np.repeat(rows, counts))

    def _outside_pulses(self, pulses, rows: int):
        """The rows that rise before the end of the next rows steps, as
        _start_pulses gives pulses: channel, start and end (s into the step
        of the rise, clipped at the first step's start) and window row."""
        channel, rise, end = pulses
        row = np.maximum(step_search(rise, self.dt, "right") - self.k - 1, 0)
        keep = (row < rows).nonzero()[0]
        row = row[keep]
        t0 = (self.k + row) * self.dt
        return channel[keep], np.maximum(rise[keep] - t0, 0.0), end[keep] - t0, row

    def recurrent_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-neuron fraction of the current step that the pulses on the
        excitatory and on the inhibitory input cover.

        The pulses on one input are OR-ed, so their union counts once.
        """
        dt = self.dt
        t0 = self.k * dt
        level = np.minimum(np.maximum(self._until - t0, 0.0), dt)
        if self._starts is not None:
            channel, start, end, rows = self._starts
            self._starts = None
            c, _, covered, _ = self._unions(channel, rows, start, end,
                                            np.array([t0]), self._until)
            level[c] = covered
        level /= dt
        return level[:self.n], level[self.n:]

    def _unions(self, channel, row, start, end, t0, until):
        """The union of the pulses that start on each channel in each step.

        A pulse starts at start and ends at end (s) after t0[row], the
        start of its step; until holds each channel's absolute end of the
        pulses before them and is moved on to the end of every union. Per
        channel the unions follow in step order, and each pulse of a step
        covers, in order of start, what the union so far leaves uncovered;
        one pass adds every channel's first pulse, the next its second.
        Returns per union its channel, its row, the s of its step that the
        channel is high, and the channel's until after it.
        """
        dt = self.dt
        order = np.lexsort((start, channel * len(t0) + row))
        channel, row, start, end = channel[order], row[order], start[order], end[order]
        head = np.ones(len(channel), dtype=bool)  # a channel's first pulse
        np.not_equal(channel[1:], channel[:-1], out=head[1:])
        first = head.copy()  # the first pulse of a union
        first[1:] |= row[1:] != row[:-1]
        index = np.arange(len(channel))
        rank = index - np.maximum.accumulate(np.where(head, index, 0))
        union = np.cumsum(first) - 1
        covered = np.zeros(int(np.count_nonzero(first)))
        after = np.empty_like(covered)
        high = np.zeros_like(until)  # a channel's union end, relative to its step
        by_rank = np.argsort(rank, kind="stable")  # each pass is a slice of it
        ends = np.cumsum(np.bincount(rank)).tolist()
        c_, u_, f_, t_, s_, e_ = (a[by_rank] for a in (channel, union, first, t0[row],
                                                       start, end))
        for lo, hi in zip([0] + ends, ends):
            c, u, f, ts, e = c_[lo:hi], u_[lo:hi], f_[lo:hi], t_[lo:hi], e_[lo:hi]
            so_far = np.where(f, until[c] - ts, high[c])
            covered[u] = np.where(f, np.minimum(np.maximum(so_far, 0.0), dt), covered[u]) \
                + np.maximum(np.minimum(e, dt) - np.maximum(s_[lo:hi], so_far), 0.0)
            high[c] = np.maximum(so_far, e)
            until[c] = after[u] = ts + high[c]
        return channel[first], row[first], covered, after

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

    def step(self, pulses=None, levels=None, rows: Optional[int] = None) -> np.ndarray:
        """Advance by dt; returns the fired mask for this step.

        pulses holds (channel, rise, end) arrays of outside pulses: those that
        rise before the step's end act from their rise, or from its start if
        earlier. levels holds an excitatory and an inhibitory level, as
        train_force's feedback: one pair for all neurons, which only the single
        step, the windows' oracle, also takes as per-neuron arrays. Given rows,
        advance instead by up to rows steps as one window, at most
        self._max_rows of them, with levels of shape (2, rows), one pair per
        step for all neurons; the window ends early at the first ring edge that
        a spike's charge brings into it. The mask then has one row per
        committed step, self.edged marks every ring that wrapped in them, and
        rows r + 1 of self._win[2] and self._win[0] hold the membranes and
        v_syn after step r.
        """
        if rows is None:
            return self._step(pulses, levels)
        if not 1 <= rows <= self._max_rows:
            raise ValueError(f"rows must be in [1, {self._max_rows}], got {rows}")
        return self._window(rows, pulses, levels)

    def _step(self, pulses, levels) -> np.ndarray:
        p = self.neuron
        s = self.synapse
        dt = self.dt
        f = osc_frequency(self.sv * self._mid_decay, s)
        phase = self.sphase + f * dt
        edged = phase >= 1.0
        self.edged = edged
        if edged.any():
            ids = edged.nonzero()[0]
            # a wrap carried over from a spike late in the last step starts at 0
            to_wrap = np.maximum(1.0 - self.sphase[ids], 0.0)
            self._starts = self._start_pulses(ids, to_wrap / np.maximum(f[ids], s.f_min),
                                              np.zeros_like(ids))
            phase[ids] -= 1.0
        if pulses is not None:
            outside = self._outside_pulses(pulses, 1)
            self._starts = outside if self._starts is None else [
                np.concatenate(a) for a in zip(self._starts, outside)]

        exc, inh = self.recurrent_levels()
        if levels is not None:
            exc, inh = np.maximum(exc, levels[0]), np.maximum(inh, levels[1])
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
            ids = fired.nonzero()[0]
            sv[ids], credit = self._charge(sv[ids], v[ids] / rate[ids])
            phase[ids] += credit
        self.sv = sv
        self.sphase = phase
        self.k += 1
        return fired

    def advance(self, n_steps: int, pulses=None, levels=None,
                recorder: Optional["Recorder"] = None) -> None:
        """Advance by n_steps steps, bit-identical to as many step() calls.

        pulses are as for step(), and levels has shape (2, n_steps): one
        (excitatory, inhibitory) pair per step for all neurons. Each window
        gets the pulses that rise in its steps (or before the first), and
        those that rise after the last are dropped. The recorder, if given,
        receives the state after every step and the spikes.
        """
        if pulses is not None:
            order = np.argsort(pulses[1], kind="stable")
            channel, rise, end = (np.asarray(a)[order] for a in pulses)
        if levels is not None:  # _plan takes the maximum with floats 2x faster
            levels = np.asarray(levels, dtype=float)
        done = lo = 0
        while done < n_steps:
            rows = min(n_steps - done, self._max_rows)
            k = self.k
            window = None
            if pulses is not None:
                hi = int(np.searchsorted(rise, (k + rows) * self.dt))
                window = (channel[lo:hi], rise[lo:hi], end[lo:hi])
            fired = self.step(window, None if levels is None else levels[:, done:done + rows],
                              rows=rows)
            done += len(fired)
            if pulses is not None:
                lo = int(np.searchsorted(rise, self.k * self.dt))
            if recorder is not None:
                recorder.record(k, self._win[2, 1:len(fired) + 1],
                                self._win[0, 1:len(fired) + 1], fired)

    def _window(self, rows: int, pulses, levels) -> np.ndarray:
        """Commit up to rows steps as one window; returns their fired mask.

        self._win holds per step row r the states at its start (r) and end
        (r + 1): v_syn in [0], the ring phase in [1] and the membrane in
        [2]; [3] and [4] the membrane rate and rise of step r, and [5] its
        ring frequency. After the call, [0] and [2] stay valid.

        The fold fills [0], [1] and [5] of every ring as if no neuron
        fired; the plan finds every edge in [1], wraps its ring and fills
        [3] and [4] under all of the window's pulses. _membranes then only
        adds each rise, clamps and checks the threshold, for every row at
        once. _refold then charges the window's spikes, all in one block,
        and the window commits the steps before the first edge that a
        charge brings into it, or moves earlier in it: at least the step of
        the first spike.
        """
        n, dt, s = self.n, self.dt, self.synapse
        sv, phase, v = self._win[:3, :rows + 1]
        rate, x = self._win[3:5, :rows]
        freq = self._win[5, :rows]

        # Synapses as if no neuron fired: v_syn decays step by step, and the
        # ring phase integrates the frequency at each step's midpoint.
        sv[0] = self.sv
        sv[1:] = self._decay
        _scan(np.multiply, sv)
        np.multiply(sv[:-1], self._mid_decay, out=freq)
        osc_frequency(freq, s, out=freq)
        phase[0] = self.sphase
        np.multiply(freq, dt, out=phase[1:])
        _scan(np.add, phase)

        # The plan: each ring's edge row (rows for none), its wrap and its
        # pulses, and the membrane inputs of every row under them. Before
        # its edge a ring's phase only grows, so the state rows below 1 are
        # the rows before the edge.
        edge_row = (phase[1:] < 1.0).sum(axis=0)
        offset = np.zeros(n)  # each edge's time into its step
        edged = (edge_row < rows).nonzero()[0]
        if len(edged):
            self._wrap(edged, edge_row[edged], offset, rows)
        t0 = np.arange(self.k, self.k + rows) * dt  # the steps' start times
        outside = None if pulses is None else self._outside_pulses(pulses, rows)
        channel, union_row, until = self._plan(edge_row, offset, t0, outside, levels)

        v[0] = self.v
        fired = self._membranes(v, x)
        rs, cs = np.divmod(fired.reshape(-1).nonzero()[0], n)  # in step order
        if len(rs):
            sv_end, credit = self._charge(sv[rs + 1, cs], v[rs + 1, cs] / rate[rs, cs])
            rows = self._refold(rs, cs, rows, sv_end, phase[rs + 1, cs] + credit)
            fired = fired[:rows]

        # Each channel leaves with the until of its last union in the
        # committed rows; the unions follow by channel, then by row.
        kept = union_row < rows
        last = kept.copy()
        last[:-1] &= (channel[1:] != channel[:-1]) | ~kept[1:]
        self._until[channel[last]] = until[last]
        self.v = v[rows].copy()
        self.sv = sv[rows].copy()
        self.sphase = phase[rows].copy()
        self.edged = edge_row < rows
        self.k += rows
        return fired

    def _membranes(self, v, x) -> np.ndarray:
        """Fill the membrane rows v[1:] from v[0] under the rises x of the
        window's steps; returns the steps' fired mask.

        Each step adds its rise, clamps the membrane at 0 and fires at v_th,
        which it subtracts, as _step does and bit for bit. One scan sums
        every column down the window, adding in the steps' order. Each
        column that clamps or fires is fixed in its first such row and
        summed again from there, and so on until no column has an event
        left. A clamped membrane stays 0.0 through the rises <= 0 that
        follow it, so its new sum starts at the first rise above 0. Every
        round restarts each of its columns at a later row than the last, so
        the rounds end.
        """
        rows, n = x.shape
        v_th = self.neuron.v_th
        after = v[1:]  # the membrane after each step
        after[...] = x
        _scan(np.add, v)
        event = after < 0.0
        event |= after >= v_th
        step = np.arange(rows)[:, None]
        cols = np.arange(n)  # the columns of event
        while True:  # each round restarts its columns at later rows
            first = event.argmax(axis=0)
            has = event[first, np.arange(len(cols))].nonzero()[0]
            if not len(has):
                break
            cols, at = cols[has], first[has]
            k = np.arange(len(cols))
            total = after[at, cols]
            fire = total >= v_th
            run = x[:, cols]  # the rises, summed again from each start row
            start = at
            if not fire.all():
                up = run > 0.0
                up &= step > at
                to = up.argmax(axis=0)  # the first rise above 0 after a clamp
                to[~up[to, k]] = rows
                start = np.where(fire, at, to - 1)
            _rescan(np.add, run, start, np.where(fire, total - v_th, 0.0))
            old = after[:, cols]
            np.putmask(old, step >= at, run)  # a clamp's rows hold 0.0 up to start
            after[:, cols] = old
            event = run < 0.0  # zeros before the start are no event
            event |= run >= v_th
            event[start, k] = False  # set, not summed
        # a step fires where its sum before the clamp reaches v_th
        return np.add(v[:-1], x) >= v_th

    def _wrap(self, ids, edge_row, offset, end: int) -> None:
        """Wrap the rings ids in their edge rows: set offset[ids], the time
        into the step at which each reaches phase 1, and sum its phase
        again from the next state row on, 1 lower, up to state row end:
        each row adds its step's frequency times dt."""
        phase, freq = self._win[1], self._win[5]
        # a wrap carried over from a spike late in the last step starts at 0
        offset[ids] = (np.maximum(1.0 - phase[edge_row, ids], 0.0)
                       / np.maximum(freq[edge_row, ids], self.synapse.f_min))
        lo = int(edge_row.min()) + 1  # the first restart's state row
        block = np.multiply(freq[lo - 1:end, ids], self.dt)
        after = _rescan(np.add, block, edge_row + 1 - lo, phase[edge_row + 1, ids] - 1.0)
        old = phase[lo:end + 1, ids]
        np.putmask(old, after, block)
        phase[lo:end + 1, ids] = old

    def _plan(self, edge_row, offset, t0, outside, levels):
        """Fill the membranes' rate and rise (self._win[3:5]) in the window
        rows that start at the times t0, under the pulses of every ring edge
        in edge_row and the outside ones (or None). Returns the unions of
        the pulses that start on each channel in each row, by channel and
        then by row: per union its channel, its row and the channel's until
        after it.

        Each input level follows from the end time of its channel's pulses
        and, in the rows where pulses start, from their union, or from the
        levels of the row (or None) where they are higher.
        """
        n, dt, p = self.n, self.dt, self.neuron
        rows = len(t0)
        ids = (edge_row < rows).nonzero()[0]
        pulses = self._start_pulses(ids, offset[ids], edge_row[ids])
        if outside is not None:
            pulses = [np.concatenate(a) for a in zip(pulses, outside)]
        channel, start, end, row = pulses
        c, r, covered, after = self._unions(channel, row, start, end, t0,
                                            self._until.copy())
        plane, col = np.divmod(c, n)
        lv = self._win[3:5, :rows]
        lv[...] = self._until.reshape(2, 1, n)
        # A channel with unions holds its until from the window's start up
        # to its first union's row, then each union's up to the next one's
        # row: one column per channel, pieced together in channel order, a
        # plane at a time so that the columns take at most one plane.
        head = np.ones(len(c), dtype=bool)  # a channel's first union
        np.not_equal(c[1:], c[:-1], out=head[1:])
        piece = np.arange(len(c)) + np.cumsum(head)  # a union's piece
        value = np.empty(len(c) + int(np.count_nonzero(head)))
        stop = np.full(len(value), rows)  # the row after each piece
        value[piece], value[piece[head] - 1] = after, self._until[c[head]]
        stop[piece[:-1]] = np.where(head[1:], rows, r[1:] + 1)
        stop[piece[head] - 1] = r[head] + 1
        begin = np.empty_like(stop)
        begin[1:] = stop[:-1]
        begin[piece[head] - 1] = 0
        inh = int(np.searchsorted(c, n))  # the first union of an inhibitory input
        split = int(piece[inh]) - 1 if inh < len(c) else len(value)
        for side, pieces in enumerate((slice(split), slice(split, None))):
            lv[side, :, col[head & (plane == side)]] = np.repeat(
                value[pieces], (stop - begin)[pieces]).reshape(-1, rows)
        np.subtract(lv, t0[:, None], out=lv)
        np.clip(lv, 0.0, dt, out=lv)
        np.divide(lv, dt, out=lv)
        lv[plane, r, col] = covered / dt
        if levels is not None:
            np.maximum(lv, levels[:, :, None], out=lv)
        rate, x = lv
        np.multiply(rate, p.r_exc, out=rate)
        np.add(rate, p.r_base, out=rate)
        np.multiply(x, p.r_inh, out=x)
        np.subtract(rate, x, out=rate)
        np.multiply(rate, dt, out=x)
        return c, r, after

    def _refold(self, rs, cs, rows: int, charged, spike_phase) -> int:
        """Apply the spikes of neurons cs in window rows rs (ascending, one
        per neuron) to their synapses: each v_syn is charged in its spike's
        state row, and there its ring's phase is spike_phase. Returns the
        steps the window commits: rows, or fewer if a charge brings its
        ring's edge into them.

        Each charged column is folded again from its spike on, up to the
        window's last state row, in one block of state rows; the block's
        rows before a column's spike then take their old values back. A
        charged ring's first edge is in the first step after its spike that
        ends at phase 1: a ring whose credit alone takes it there wraps at
        the next step start. The window ends at the earliest such edge. Its
        steps before that edge are the ones step() gives: a charge changes
        only its own ring, which stays below phase 1 in them, and only
        speeds it, so the plan put no edge of that ring there. A spike from
        the end on is dropped; its own edge would come after it, so it
        cannot end the window sooner. The block lives in the level planes,
        which the window no longer needs once rate has been read, and of
        the phases only the end row is kept.
        """
        sv, phase = self._win[:2]
        lo = int(rs[0]) + 1  # first state row that changes
        shape = (rows + 1 - lo, len(cs))
        old, new = (plane.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
                    for plane in self._win[3:5])
        rel = rs + 1 - lo    # the spike's state row in the block

        new[...] = self._decay
        after = _rescan(np.multiply, new, rel, charged)
        np.take(sv[lo:rows + 1], cs, axis=1, out=old, mode="clip")
        np.putmask(old, after, new)
        sv[lo:rows + 1, cs] = old

        f = np.multiply(old[:-1], self._mid_decay, out=new[1:])
        osc_frequency(f, self.synapse, out=f)
        f *= self.dt
        _rescan(np.add, new, rel, spike_phase)
        # A column's rows before its spike hold 0 and its phase grows from
        # the spike on, so lo plus its rows past lo below 1 is its edge's
        # step; where the credit alone took it to 1, that count stops one
        # short of the step after the spike.
        edge = np.maximum(lo + (new[1:] < 1.0).sum(axis=0), rs + 1)
        end = min(rows, int(edge.min()))
        done = int(np.searchsorted(rs, end))  # the committed spikes
        phase[end, cs[:done]] = new[end - lo, :done]
        return end


def sample_stride(sample_interval: float, dt: float, n_steps: int) -> int:
    """The steps between two trace samples of an n_steps run:
    round(sample_interval / dt), at least 1. An interval of more than
    n_steps steps gives n_steps + 1, so only the time-0 sample is taken."""
    return max(1, int(round(min(sample_interval / dt, n_steps + 1))))


class Recorder:
    """Samples a run's state every sample_stride steps, collects its spikes.

    simulate and train_force share it; the sample at time 0 is taken from
    the kernel's state when the recorder is made.
    """

    def __init__(self, sim: NetworkSim, n_steps: int, sample_interval: float):
        self.sim = sim
        self.every = sample_stride(sample_interval, sim.dt, n_steps)
        n_samples = n_steps // self.every + 1
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
            spike_rows, spike_ids = np.divmod(fired.reshape(-1).nonzero()[0], self.sim.n)
            self._spike_steps.append(k + 1 + spike_rows)
            self._spike_ids.append(spike_ids)

    def traces(self, duration: float, **readout) -> TraceSet:
        """The recorded run as a TraceSet; readout holds its z fields."""
        sim = self.sim
        steps = np.concatenate(self._spike_steps or [np.empty(0, dtype=np.int64)])
        ids = np.concatenate(self._spike_ids or [np.empty(0, dtype=np.intp)])
        order = np.argsort(ids, kind="stable")  # by neuron, each in step order
        spikes = np.split(steps[order] * sim.dt,
                          np.cumsum(np.bincount(ids, minlength=sim.n))[:-1])
        n = self.n_samples
        return TraceSet(dt=sim.dt, duration=duration, n_neurons=sim.n,
                        spikes=spikes, sample_times=self.sample_times[:n],
                        v_mem=self.v_mem[:n], v_syn=self.v_syn[:n],
                        freq_hz=osc_frequency(self.v_syn[:n], sim.synapse),
                        **readout)


def _external_pulses(external_inputs, n_neurons, dt, n_steps):
    """Check external_inputs; give their pulses as rows (channel, rise, end)
    over the steps each drives (see the pulses module), or None for none."""
    if not external_inputs:
        return None
    for idx, pair in external_inputs.items():
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
            raise ConfigurationError(
                f"external input key {idx!r}: must be an int neuron index")
        if not 0 <= idx < n_neurons:
            raise ConfigurationError(f"external input for unknown neuron {idx}")
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(train is None or isinstance(train, PulseTrain) for train in pair)):
            raise ConfigurationError(
                f"external input {idx}: must be a pair of PulseTrain or None")
    trains = [(idx + side * n_neurons, train) for idx, pair in external_inputs.items()
              for side, train in enumerate(pair) if train is not None]
    if not trains:
        return None
    t = np.hstack([[train.rises, train.ends] for _, train in trains])
    first, stop = np.minimum(step_search(t, dt), n_steps)
    keep = (first < stop).nonzero()[0]  # the pulses that cover a step start
    if not len(keep):
        return None
    channel = np.concatenate([np.full(len(train), c) for c, train in trains])
    return channel[keep], first[keep] * dt, stop[keep] * dt


def simulate(network: Network, external_inputs=None, duration: float = 1.0) -> TraceSet:
    """Run the network for the given duration and collect traces.

    external_inputs maps a neuron index to a pair (excitatory PulseTrain,
    inhibitory PulseTrain); either entry may be None. A key that is not an
    int neuron index in range, or a value that is not such a pair, raises
    ConfigurationError. Trains extending past the duration are accepted, the
    excess is ignored. Each pulse becomes a row over the steps it drives,
    and the run is one NetworkSim.advance call over them, which commits its
    steps in windows of array rows and is bit-identical to stepping.
    """
    check_duration(duration)
    cfg = network.config
    n_steps = int(round(duration / cfg.dt))
    sim = NetworkSim(network)
    pulses = _external_pulses(external_inputs, cfg.n_neurons, cfg.dt, n_steps)
    recorder = Recorder(sim, n_steps, cfg.sample_interval)
    sim.advance(n_steps, pulses, recorder=recorder)
    return recorder.traces(duration)
