import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tdsnn import (ConfigurationError, Connection, Network, NetworkConfig,
                   NetworkSim, NeuronParams, PulseTrain, SynapseParams,
                   WeightParams, build_network, pulse_width, simulate,
                   weighted_drive)
from tdsnn import network
from tdsnn.network import Recorder, _external_pulses
from tdsnn.pulses import step_search
from tdsnn.measure import run_neuron
from tdsnn.synapse import osc_frequency
from tdsnn.weight import N_CODES
from trains import periodic_train


def test_isolated_neuron_free_runs():
    net = build_network(NetworkConfig(n_neurons=1))
    traces = simulate(net, None, 0.1)
    assert len(traces.spikes[0]) == 20  # about 20 spikes in a 100 ms cycle


def test_network_kernel_matches_scalar_neuron():
    net = build_network(NetworkConfig(n_neurons=1))
    traces = simulate(net, None, 0.2)
    scalar_spikes, _ = run_neuron(NeuronParams(), 0.2, 1e-5)
    assert np.array_equal(traces.spikes[0], scalar_spikes)


def test_random_topology_deterministic_and_frozen_count():
    cfg = NetworkConfig(n_neurons=100, connection_probability=0.1, seed=42)
    a = build_network(cfg)
    b = build_network(cfg)
    # expectation n*(n-1)*p = 990; the exact draw for seed 42 is pinned
    assert a.n_connections == 974
    assert np.array_equal(a.pre, b.pre)
    assert np.array_equal(a.post, b.post)
    assert np.array_equal(a.is_exc, b.is_exc)
    assert np.array_equal(a.codes, b.codes)


@pytest.mark.parametrize("n, p, seed", [(1, 0.5, 0), (7, 0.5, 3), (100, 0.1, 42),
                                        (300, 0.02, 5)])
def test_seeded_topology_takes_the_pairs_of_its_mask_in_row_order(n, p, seed):
    # The pairs a 2-D np.nonzero gives for the seed's mask, and the
    # polarities and codes drawn after them.
    net = build_network(NetworkConfig(n_neurons=n, connection_probability=p, seed=seed))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    pre, post = np.nonzero(mask)
    is_exc = rng.random(len(pre)) < 0.5
    codes = rng.integers(0, N_CODES, len(pre))
    for name, expected in (("pre", pre), ("post", post), ("is_exc", is_exc),
                           ("codes", codes)):
        got = getattr(net, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_different_seeds_differ():
    cfg1 = NetworkConfig(n_neurons=50, connection_probability=0.2, seed=1)
    cfg2 = NetworkConfig(n_neurons=50, connection_probability=0.2, seed=2)
    a, b = build_network(cfg1), build_network(cfg2)
    assert a.n_connections != b.n_connections or not np.array_equal(a.pre, b.pre)


def test_no_self_connections():
    cfg = NetworkConfig(n_neurons=30, connection_probability=0.5, seed=0)
    net = build_network(cfg)
    assert np.all(net.pre != net.post)


def test_explicit_connections_validated():
    with pytest.raises(ConfigurationError):
        build_network(NetworkConfig(
            n_neurons=2, connections=[Connection(0, 5, "exc", 3)]))
    with pytest.raises(ConfigurationError):
        build_network(NetworkConfig(
            n_neurons=2, connections=[Connection(0, 1, "both", 3)]))
    with pytest.raises(ConfigurationError):
        build_network(NetworkConfig(
            n_neurons=2, connections=[Connection(0, 1, "exc", 16)]))


def test_excitatory_code_raises_postsynaptic_rate():
    def run(code):
        cfg = NetworkConfig(
            n_neurons=2,
            connections=[Connection(0, 1, "exc", code)])
        traces = simulate(build_network(cfg), None, 1.0)
        return len(traces.spikes[1])

    assert run(15) > run(0)


def test_inhibitory_code_lowers_postsynaptic_rate():
    def run(code):
        cfg = NetworkConfig(
            n_neurons=2,
            connections=[Connection(0, 1, "inh", code)])
        traces = simulate(build_network(cfg), None, 1.0)
        return len(traces.spikes[1])

    assert run(15) < run(0)


def test_every_spike_charges_its_synapse():
    cfg = NetworkConfig(n_neurons=3, connection_probability=0.5, seed=5)
    net = build_network(cfg)
    sim = NetworkSim(net)
    decay = math.exp(-cfg.dt / cfg.synapse.tau_leak)
    spikes = 0
    charges = 0
    for _ in range(20_000):
        sv_before = sim.sv.copy()
        fired = sim.step()
        spikes += int(fired.sum())
        jumped = sim.sv > sv_before * decay + 1e-15
        charges += int(jumped.sum())
        assert np.array_equal(jumped, fired)
    assert charges == spikes
    assert spikes > 0


def test_overlapping_pulses_cover_their_union_from_the_edge_times():
    # Rings 0 and 1 wrap half and a quarter of the way into the first step;
    # their 200-us (code 3) and 50-us (code 0) pulses overlap on neuron 2's
    # excitatory input, which is high from 0.25 dt to 0.5 dt + 200 us.
    cfg = NetworkConfig(n_neurons=3, connections=[Connection(0, 2, "exc", 3),
                                                  Connection(1, 2, "exc", 0)])
    sim = NetworkSim(build_network(cfg))
    sim.sv[:2] = 1.0
    sim.sphase[:2] = [1.0 - 0.5 * cfg.dt * 200.0, 1.0 - 0.25 * cfg.dt * 200.0]
    levels = []
    delivered = sim.recurrent_levels

    def record():
        exc, inh = delivered()
        levels.append(exc[2])
        return exc, inh

    sim.recurrent_levels = record
    for _ in range(30):
        sim.step()
    assert levels[0] == pytest.approx(0.75, abs=1e-3)
    assert np.all(np.array(levels[1:20]) == 1.0)
    assert levels[20] == pytest.approx(0.5, abs=1e-3)
    assert sum(levels) == pytest.approx(20.25, abs=1e-3)
    assert not any(levels[21:])


def test_simulation_determinism():
    cfg = NetworkConfig(n_neurons=10, connection_probability=0.3, seed=9)
    net = build_network(cfg)
    t1 = simulate(net, None, 0.5)
    t2 = simulate(net, None, 0.5)
    for a, b in zip(t1.spikes, t2.spikes):
        assert np.array_equal(a, b)
    assert np.array_equal(t1.v_mem, t2.v_mem)
    assert np.array_equal(t1.v_syn, t2.v_syn)


def test_dt_refinement_within_2pct():
    counts = {}
    for dt in (1e-5, 5e-6):
        cfg = NetworkConfig(n_neurons=5, connection_probability=0.3, seed=3,
                            dt=dt)
        net = build_network(cfg)
        traces = simulate(net, None, 1.0)
        counts[dt] = traces.spike_counts()
    coarse, fine = counts[1e-5], counts[5e-6]
    assert np.all(np.abs(coarse - fine) <= np.maximum(0.02 * fine, 1))


@functools.cache
def convergence_counts(seed, driven, dt):
    """Spike counts of an N=20, p=0.2 network over 0.5 s. A driven run gives
    every neuron the benchmark's excitatory drive: a weighted_drive at
    U(20, 150) Hz with a code from U{0..15}, drawn from rng([seed, 1])."""
    n, duration = 20, 0.5
    inputs = None
    if driven:
        rng = np.random.default_rng([seed, 1])
        rates = rng.uniform(20.0, 150.0, n)
        codes = rng.integers(0, N_CODES, n)
        inputs = {i: (weighted_drive(float(rate), int(code), duration), None)
                  for i, (rate, code) in enumerate(zip(rates, codes))}
    cfg = NetworkConfig(n_neurons=n, connection_probability=0.2, seed=seed, dt=dt)
    return simulate(build_network(cfg), inputs, duration).spike_counts()


@pytest.mark.parametrize("dt", [
    5e-6,
    pytest.param(1e-5, marks=pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP direction 5: the kernel's O(dt) terms miss the fine "
               "count by more than 2% on some neurons at the default dt")),
])
@pytest.mark.parametrize("seed, driven", [(0, False), (1, True)],
                         ids=["free-seed0", "driven-seed1"])
def test_each_neuron_count_converges_to_a_fine_reference(seed, driven, dt):
    # |count(dt) - count(1.25 us)| <= max(2%, 1 spike) for every neuron
    fine = convergence_counts(seed, driven, 1.25e-6)
    coarse = convergence_counts(seed, driven, dt)
    misses = np.flatnonzero(np.abs(coarse - fine) > np.maximum(0.02 * fine, 1))
    assert misses.size == 0, list(zip(misses.tolist(), coarse[misses].tolist(),
                                      fine[misses].tolist()))


def test_external_train_beyond_duration_ignored():
    cfg = NetworkConfig(n_neurons=1)
    net = build_network(cfg)
    train = periodic_train(100.0, 650e-6, 2.0)  # extends past the 0.5 s run
    traces = simulate(net, {0: (train, None)}, 0.5)
    assert traces.duration == 0.5
    assert traces.spikes[0].max() <= 0.5 + 1e-12


def test_run_shorter_than_half_a_step_has_no_steps():
    net = build_network(NetworkConfig(n_neurons=2))
    train = periodic_train(100.0, 100e-6, 1.0)
    traces = simulate(net, {0: (train, train)}, 4e-6)
    assert traces.sample_times.tolist() == [0.0]
    assert [len(s) for s in traces.spikes] == [0, 0]


def test_trace_sampling_grid():
    cfg = NetworkConfig(n_neurons=2, sample_interval=1e-3)
    net = build_network(cfg)
    traces = simulate(net, None, 0.05)
    assert traces.sample_times[0] == 0.0
    assert np.allclose(np.diff(traces.sample_times), 1e-3)
    assert traces.v_mem.shape == (len(traces.sample_times), 2)


def test_sample_interval_past_the_run_records_only_time_zero():
    # 1e15 s is 1e20 steps of 1e-5 s, more than an int64 holds
    net = build_network(NetworkConfig(n_neurons=2, sample_interval=1e15))
    traces = simulate(net, None, 0.01)
    assert traces.sample_times.tolist() == [0.0]
    assert traces.v_mem.shape == traces.v_syn.shape == (1, 2)
    assert all(len(s) for s in traces.spikes)  # free runs at 200 Hz


def test_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(n_neurons=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(connection_probability=1.5)
    with pytest.raises(ConfigurationError):
        NetworkConfig(dt=-1e-5)
    # (r_base + r_exc) * dt = 0.6 reaches v_th = 0.5: a driven neuron would
    # have to fire more than once in a step
    with pytest.raises(ConfigurationError, match=r"need \(r_base \+ r_exc\)\*dt < v_th"):
        NetworkConfig(dt=2e-3)
    with pytest.raises(ConfigurationError, match=r"need \(r_base \+ r_exc\)\*dt < v_th"):
        NetworkConfig(neuron=NeuronParams(r_exc=60000.0))
    with pytest.raises(ConfigurationError):
        NetworkConfig(code_min=5, code_max=2)
    with pytest.raises(ConfigurationError):
        NetworkConfig(sample_interval=1e-6)  # below dt


def test_connection_widths_match_pulse_width_for_every_code():
    weight = WeightParams(tau_unit=37e-6, w0=3e-6)
    codes = list(range(N_CODES))
    cfg = NetworkConfig(n_neurons=2, weight=weight,
                        connections=[Connection(0, 1, "exc", c) for c in codes])
    sim = NetworkSim(build_network(cfg))
    expected = np.array([pulse_width(c, weight) for c in codes])
    assert sim._widths.tobytes() == expected.tobytes()
    bad = Network(NetworkConfig(n_neurons=2), [0], [1], [True], [N_CODES])
    with pytest.raises(ValueError, match="weight code must be in"):
        NetworkSim(bad)


def test_simulate_rejects_a_duration_that_is_not_finite():
    net = build_network(NetworkConfig(n_neurons=1))
    with pytest.raises(ValueError, match="duration must be finite"):
        simulate(net, None, math.inf)
    with pytest.raises(ValueError, match="duration must be positive"):
        simulate(net, None, math.nan)


# ---------------------------------------------------------------------------
# simulate() and NetworkSim.advance() against a plain loop over step()
# ---------------------------------------------------------------------------

def step_pulses(rows, k, dt):
    """The (channel, rise, end) arrays of the rows that rise in step k, or
    before it for k = 0; None for none."""
    rows = [row for row in rows if (k == 0 or k * dt <= row[1]) and row[1] < (k + 1) * dt]
    return tuple(np.array(column) for column in zip(*rows)) if rows else None


def train_rows(external_inputs, n, dt, n_steps):
    """simulate's (channel, rise, end) row of each pulse of the trains: it
    covers the steps whose start the pulse covers, as step_levels samples
    it, on channel i for neuron i's excitatory input and n + i for its
    inhibitory one."""
    times = np.arange(n_steps) * dt
    rows = []
    for i, pair in (external_inputs or {}).items():
        for side, train in enumerate(pair):
            for rise, end in zip(train.rises, train.ends) if train is not None else []:
                high = ((times >= rise) & (times < end)).nonzero()[0]
                if len(high):
                    rows.append((i + side * n, high[0] * dt, (high[-1] + 1) * dt))
    return rows


def stepped_run(network, external_inputs, duration):
    """simulate() written as a plain loop over NetworkSim.step.

    Returns the traces and, per step, the membranes, ring phases, fired and
    edge masks after it.
    """
    cfg = network.config
    dt, n = cfg.dt, cfg.n_neurons
    n_steps = int(round(duration / dt))
    rows = train_rows(external_inputs, n, dt, n_steps)
    sim = NetworkSim(network)
    every = max(1, int(round(cfg.sample_interval / dt)))
    run = {"sample_times": [0.0], "v_mem": [sim.v], "v_syn": [sim.sv],
           "freq_hz": [sim.synapse_frequencies()],
           "v": [], "phase": [], "fired": [], "edged": []}
    spikes = [[] for _ in range(n)]
    for k in range(n_steps):
        fired = sim.step(step_pulses(rows, k, dt))
        for i in np.flatnonzero(fired):
            spikes[i].append((k + 1) * dt)
        if (k + 1) % every == 0:
            run["sample_times"].append((k + 1) * dt)
            run["v_mem"].append(sim.v)
            run["v_syn"].append(sim.sv)
            run["freq_hz"].append(sim.synapse_frequencies())
        run["v"].append(sim.v)
        run["phase"].append(sim.sphase)
        run["fired"].append(fired)
        run["edged"].append(sim.edged)
    run = {key: np.array(value) for key, value in run.items()}
    run["spikes"] = [np.array(s, dtype=float) for s in spikes]
    return run


def assert_same_traces(traces, expected):
    """Equal bytes, so a -0.0 or a last-bit difference shows."""
    for name in ("sample_times", "v_mem", "v_syn", "freq_hz"):
        assert getattr(traces, name).tobytes() == expected[name].tobytes(), name
    assert [s.tobytes() for s in traces.spikes] == \
        [s.tobytes() for s in expected["spikes"]]


@pytest.fixture
def stepped_ks(monkeypatch):
    """The step index k of every single step, the steps outside a window."""
    ks = []
    step = NetworkSim._step

    def spy(self, *args):
        ks.append(self.k)
        return step(self, *args)

    monkeypatch.setattr(NetworkSim, "_step", spy)
    return ks


def test_simulate_matches_step_loop_with_inhibition_and_window_ends(stepped_ks,
                                                                   kernel_calls):
    # Per-neuron trains: an inhibitory one long enough to clamp its membrane
    # at 0 for many steps, an excitatory one, and both on one neuron. At
    # dt = 1e-4 a window spans at most 15 steps; the sample interval is
    # not a multiple of dt.
    cfg = NetworkConfig(n_neurons=8, connection_probability=0.2, seed=0,
                        dt=1e-4, sample_interval=3.5e-4)
    net = build_network(cfg)
    duration = 0.5
    inputs = {0: (None, periodic_train(40.0, 4e-3, duration)),
              1: (periodic_train(70.0, 1e-3, duration), None),
              2: (periodic_train(30.0, 2e-3, duration),
                  periodic_train(45.0, 3e-3, duration))}
    expected = stepped_run(net, inputs, duration)
    stepped_ks.clear()
    assert_same_traces(simulate(net, inputs, duration), expected)

    assert stepped_ks == []  # every step is a window row
    row, last = window_rows(kernel_calls)
    edged = expected["edged"].any(axis=1)
    fired = expected["fired"].any(axis=1)
    # a membrane clamped at 0
    assert (expected["v"] == 0.0).any()
    # an edge and a spike fall inside one window, the spike after the edge
    assert any(edged[k - row[k]:k].any() for k in np.flatnonzero(fired))
    # an edge on a window's last row
    assert (edged & last).any()


@pytest.mark.parametrize("cfg", [
    NetworkConfig(n_neurons=1),
    NetworkConfig(n_neurons=4),
    # v_syn stays below the oscillation onset: no ring ever has an edge
    NetworkConfig(n_neurons=3, connection_probability=1.0,
                  synapse=SynapseParams(delta_up=0.01)),
], ids=["one_neuron", "no_connections", "no_edges"])
def test_simulate_matches_step_loop(cfg, stepped_ks):
    net = build_network(cfg)
    expected = stepped_run(net, None, 0.1)
    stepped_ks.clear()
    assert_same_traces(simulate(net, None, 0.1), expected)
    assert len(stepped_ks) < len(expected["v"]) // 2
    if cfg.synapse.delta_up == 0.01:
        assert not expected["edged"].any()
        assert expected["fired"].any()


def test_simulate_matches_step_loop_at_the_fastest_firing_rate(stepped_ks):
    # An excitatory input that stays high makes the neuron fire every
    # v_th / ((r_base + r_exc) * dt) = 16.7 steps, just more than a window
    # of at most 15 steps at dt = 1e-4 can hold.
    cfg = NetworkConfig(n_neurons=1, dt=1e-4)
    net = build_network(cfg)
    inputs = {0: (periodic_train(4.0, 0.24, 0.3), None)}
    expected = stepped_run(net, inputs, 0.3)
    stepped_ks.clear()
    assert_same_traces(simulate(net, inputs, 0.3), expected)
    assert np.diff(np.flatnonzero(expected["fired"][:, 0])).min() == 16
    assert len(stepped_ks) < len(expected["v"]) // 2


def test_advance_wraps_a_phase_of_exactly_one(kernel_calls):
    # With f_max * dt = 2**-9 and v_syn held above saturation, the ring
    # phase is a sum of exact binary fractions and reaches exactly 1.0.
    cfg = NetworkConfig(n_neurons=1, dt=2.0 ** -17,
                        synapse=SynapseParams(f_max=256.0))

    def start():
        sim = NetworkSim(build_network(cfg))
        sim.sv[:] = 2.0
        return sim

    oracle = start()
    exactly_one = []  # steps whose phase reaches exactly 1.0 and wraps to 0
    for k in range(1200):
        oracle.step()
        if oracle.edged[0] and oracle.sphase[0] == 0.0:
            exactly_one.append(k)
    assert exactly_one
    sim = start()
    sim.advance(1200)
    # every exact wrap falls inside a window, not on its first row
    max_rows = sim._max_rows
    assert [rows for rows, _, _ in kernel_calls] == \
        [max_rows] * (1200 // max_rows) + [1200 % max_rows]
    assert all(k % max_rows for k in exactly_one)
    for name in ("v", "sv", "sphase"):
        assert getattr(sim, name).tobytes() == getattr(oracle, name).tobytes(), name


def test_spike_charge_that_wraps_its_ring_wraps_it_in_the_window(kernel_calls):
    # A lone neuron fires in step 10, half a step after its crossing. Its
    # ring phase is placed so that it stays below 1 in that step and only
    # the phase credit of the charge takes it past 1, so the wrap is
    # emitted at the start of step 11. The charge ends the first window
    # after step 10, and the wrap falls in the next window's first row.
    cfg = NetworkConfig(n_neurons=1, synapse=SynapseParams(delta_up=1.0))
    v_th, r_base, dt = cfg.neuron.v_th, cfg.neuron.r_base, cfg.dt

    def start(v, phase):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = v
        sim.sv[:] = 0.5
        sim.sphase[:] = phase
        return sim

    def phase_after(sim, n_steps):
        for _ in range(n_steps):
            sim.step()
        return sim.sphase[0]

    v0 = v_th - 10.5 * r_base * dt
    charged = phase_after(start(v0, 0.0), 11)
    uncharged = phase_after(start(0.0, 0.0), 11)
    assert charged > uncharged
    phase0 = 1.0 - 0.5 * (charged + uncharged)

    oracle = start(v0, phase0)
    fired = [bool(oracle.step()[0]) for _ in range(11)]
    assert fired == [False] * 10 + [True]
    assert not oracle.edged[0] and oracle.sphase[0] >= 1.0
    for _ in range(9):
        oracle.step()

    sim = start(v0, phase0)
    sim.advance(20)
    assert kernel_calls == [(20, 11, False), (9, 9, True)]
    for name in ("v", "sv", "sphase"):
        assert getattr(sim, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert sim.k == oracle.k == 20


def random_train(rng, dt):
    """30 pulses of random widths and gaps; some gaps are 0, so their
    pulses are adjacent."""
    widths = rng.uniform(0.2, 30.0, 30) * dt
    gaps = np.where(rng.random(30) < 0.3, 0.0, rng.uniform(0.1, 40.0, 30) * dt)
    rises = np.cumsum(np.concatenate(([rng.uniform(0.0, 5.0) * dt], (widths + gaps)[:-1])))
    return PulseTrain(rises, widths)


def edge_case_trains(dt):
    """A train with adjacent pulses at step 10, an end exactly on step 14,
    a pulse that covers only the start of step 20, one between two step
    starts and one past step 400, and a train whose first pulse rises
    before 0. Exact for dt a power of two."""
    exact = PulseTrain(np.array([3.0, 10.0, 20.0, 30.25, 450.0]) * dt,
                       np.array([7.0, 4.0, 0.5, 0.5, 9.0]) * dt)
    early = PulseTrain(np.array([-2.5, 5.5]) * dt, np.array([3.25, 2.0]) * dt)
    return exact, early


@pytest.mark.parametrize("dt", [2.0 ** -13, 7.3e-6])
def test_step_levels_are_high_on_the_step_starts_a_pulse_covers(dt):
    # Against a sample of every step start t: the last pulse rising at or
    # before t covers it if it ends after t.
    n_steps = 450
    starts = np.arange(n_steps) * dt
    rng = np.random.default_rng(11)
    for train in (*edge_case_trains(dt), random_train(rng, dt), PulseTrain()):
        idx = np.searchsorted(train.rises, starts, side="right") - 1
        expected = [i >= 0 and t < train.ends[i] for i, t in zip(idx, starts)]
        assert train.step_levels(dt, n_steps).tolist() == expected


def covered_fraction(pulses, t0, dt):
    """The fraction of the step [t0, t0 + dt) that the union of the
    [rise, end) pulses covers."""
    covered, reach = 0.0, t0
    for rise, end in sorted(pulses):
        start, stop = max(rise, reach), min(end, t0 + dt)
        if stop > start:
            covered += stop - start
            reach = stop
    return covered / dt


def test_stepped_input_levels_are_the_covered_fraction_of_the_union_of_pulses(
        monkeypatch):
    # A network without connections, whose inputs take only outside pulses:
    # two overlapping random trains on one input, adjacent pulses, ends on
    # step starts, pulses inside a step and one that rises before 0, of
    # which only the part from 0 on counts.
    dt, n_steps, n = 2.0 ** -13, 400, 6
    rng = np.random.default_rng(7)
    exact, early = edge_case_trains(dt)
    assert exact.ends[1] == np.arange(n_steps)[14] * dt
    pulses = [(0, random_train(rng, dt)), (0, random_train(rng, dt)), (1, exact),
              (2, early), (n + 1, random_train(rng, dt)), (n + 3, exact),
              (n + 3, random_train(rng, dt)), (2 * n - 1, early)]
    net = build_network(NetworkConfig(n_neurons=n, dt=dt, sample_interval=dt))

    levels = {}
    delivered = NetworkSim.recurrent_levels

    def spy(self):
        levels[self.k] = np.concatenate(delivered(self))
        return levels[self.k][:n], levels[self.k][n:]

    monkeypatch.setattr(NetworkSim, "recurrent_levels", spy)
    rows = [(c, rise, end) for c, train in pulses
            for rise, end in zip(train.rises.tolist(), train.ends.tolist())]
    oracle = NetworkSim(net)
    v, fired = [oracle.v], []
    for k in range(n_steps):
        fired.append(oracle.step(step_pulses(rows, k, dt)))
        v.append(oracle.v)
    by_channel = [[(rise, end) for c, rise, end in rows if c == channel]
                  for channel in range(2 * n)]
    expected = np.array([[covered_fraction(p, k * dt, dt) for p in by_channel]
                         for k in range(n_steps)])
    got = np.array([levels[k] for k in range(n_steps)])
    assert got == pytest.approx(expected, abs=1e-12, rel=0)
    assert ((got > 0.0) & (got < 1.0)).sum() > 50
    assert got[[9, 10, 13], 1].tolist() == [1.0] * 3
    assert got[[14, 21, 31], 1].tolist() == [0.0] * 3
    assert got[[20, 30], 1].tolist() == [0.5] * 2
    assert got[[0, 1, 5, 6, 7], 2].tolist() == [0.75, 0.0, 0.5, 1.0, 0.5]

    # advance over the same rows commits them in windows, bit-identical
    sim = NetworkSim(net)
    recorder = Recorder(sim, n_steps, dt)
    sim.advance(n_steps, tuple(np.array(column) for column in zip(*rows)), recorder=recorder)
    traces = recorder.traces(n_steps * dt)
    assert traces.v_mem.tobytes() == np.array(v).tobytes()
    steps, ids = np.nonzero(np.array(fired))
    assert len(steps) and [s.tobytes() for s in traces.spikes] == \
        [((steps[ids == i] + 1) * dt).tobytes() for i in range(n)]


def test_simulate_gives_each_pulse_a_row_over_the_step_starts_it_covers():
    # Each row rises and ends on step starts, and a channel's rows cover
    # the steps of its train's step levels; adjacent pulses keep a row
    # each, and a pulse that covers no step start has none.
    dt, n_steps, n = 2.0 ** -13, 400, 6
    rng = np.random.default_rng(7)
    exact, early = edge_case_trains(dt)
    inputs = {0: (random_train(rng, dt), None), 1: (None, random_train(rng, dt)),
              2: (random_train(rng, dt), random_train(rng, dt)), 3: (exact, PulseTrain()),
              4: (early, None), 5: (None, exact)}
    channel, rise, end = _external_pulses(inputs, n, dt, n_steps)
    starts = np.arange(n_steps + 1) * dt
    assert np.isin(rise, starts[:-1]).all() and np.isin(end, starts).all()
    times = starts[:-1]
    for i, pair in inputs.items():
        for side, train in enumerate(pair):
            covered = np.zeros(n_steps, dtype=bool)
            for a, b in zip(rise[channel == i + side * n], end[channel == i + side * n]):
                covered[(times >= a) & (times < b)] = True
            expected = PulseTrain() if train is None else train
            assert covered.tolist() == expected.step_levels(dt, n_steps).tolist(), (i, side)
    assert (rise[channel == 3] / dt).tolist() == [3.0, 10.0, 20.0]
    assert (end[channel == 3] / dt).tolist() == [10.0, 14.0, 21.0]
    assert (rise[channel == 4] / dt).tolist() == [0.0, 6.0]
    assert (end[channel == 4] / dt).tolist() == [1.0, 8.0]
    assert _external_pulses({0: (PulseTrain(), None)}, n, dt, n_steps) is None


@pytest.mark.parametrize("dt", [1e-5, 7.3e-6])
def test_step_search_is_a_search_of_the_step_starts(dt):
    # step_search gives what a search of the step starts np.arange(n) * dt
    # gives, for times on step starts, an ulp to either side of them,
    # between them, before 0 and past the run, and for the products
    # (k + 1) * dt that date run_neuron's spikes; floor(t / dt) puts some
    # of those a step low.
    n_steps = 50
    on = np.arange(-2, n_steps + 3) * dt
    rng = np.random.default_rng(3)
    products = (np.arange(200_000) + 1) * dt
    t = np.concatenate([on, np.nextafter(on, -1.0), np.nextafter(on, 1.0),
                        rng.uniform(-3.0, n_steps + 5.0, 50) * dt, products])
    starts = np.arange(len(products) + 3) * dt
    for side in ("left", "right"):
        expected = np.searchsorted(starts, t, side).astype(np.intp)
        assert step_search(t, dt, side).tobytes() == expected.tobytes(), side
    assert (np.floor(products / dt) < np.arange(1, len(products) + 1)).any()


def test_a_pulse_row_costs_no_memory_per_step_of_the_run():
    # One 100-us pulse over 1e7 steps (100 s at dt = 1e-5): the step starts
    # of the whole run as an array would take 80 MB.
    dt, n_steps = 1e-5, 10 ** 7
    tracemalloc.start()
    try:
        channel, rise, end = _external_pulses({0: (PulseTrain([50.0], [1e-4]), None)},
                                              1, dt, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert channel.tolist() == [0]
    assert (rise / dt).round().tolist() == [5e6]
    assert (end / dt).round().tolist() == [5e6 + 10]


@pytest.mark.parametrize("inputs, message", [
    ({True: (periodic_train(100.0, 1e-4, 0.01), None)}, "key True: must be an int"),
    ({0.0: (periodic_train(100.0, 1e-4, 0.01), None)}, "key 0.0: must be an int"),
    ({"0": (periodic_train(100.0, 1e-4, 0.01), None)}, "key '0': must be an int"),
    ({0: periodic_train(100.0, 1e-4, 0.01)}, "input 0: must be a pair"),
    ({0: ([0.001], None)}, "input 0: must be a pair"),
    ({2: (None, None)}, "unknown neuron 2"),
    ({-1: (None, None)}, "unknown neuron -1"),
], ids=["bool-key", "float-key", "str-key", "bare-train", "list-not-train",
        "unknown-neuron", "negative-neuron"])
def test_simulate_rejects_bad_external_inputs(inputs, message):
    net = build_network(NetworkConfig(n_neurons=2))
    with pytest.raises(ConfigurationError, match=message):
        simulate(net, inputs, 0.01)


def test_driven_simulate_allocates_no_per_step_level_plane():
    # A whole-run plane of one byte per step and neuron would take
    # n_steps * n bytes on its own; beyond the traces it returns, the run's
    # peak stays below that.
    n, duration = 200, 0.2
    net = build_network(NetworkConfig(n_neurons=n, connection_probability=0.1, seed=0))
    rng = np.random.default_rng(0)
    inputs = {i: (weighted_drive(float(rate), int(code), duration), None)
              for i, (rate, code) in enumerate(zip(rng.uniform(20.0, 150.0, n),
                                                   rng.integers(0, N_CODES, n)))}
    n_steps = int(round(duration / net.config.dt))
    tracemalloc.start()
    try:
        traces = simulate(net, inputs, duration)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (traces.sample_times, traces.v_mem, traces.v_syn,
                                  traces.freq_hz, *traces.spikes))
    assert traces.spike_counts().sum() > 0
    assert peak - kept < n_steps * n


# ---------------------------------------------------------------------------
# advance() commits windows that run to their row bound through ring edges
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """(rows asked for, steps committed, a ring wrapped in them) per call
    of NetworkSim.step with rows."""
    calls = []
    step = NetworkSim.step

    def spy(self, pulses=None, levels=None, rows=None):
        fired = step(self, pulses, levels, rows=rows)
        if rows is not None:
            calls.append((rows, len(fired), bool(self.edged.any())))
        return fired

    monkeypatch.setattr(NetworkSim, "step", spy)
    return calls


def window_rows(kernel_calls):
    """Per committed step, its row in its window and whether that row is
    the window's last."""
    row = np.concatenate([np.arange(kept) for _, kept, _ in kernel_calls])
    last = np.zeros(len(row), dtype=bool)
    last[np.cumsum([kept for _, kept, _ in kernel_calls]) - 1] = True
    return row, last


def assert_advance_matches_steps(make_sim, chunks):
    """Advance one kernel through advance() calls of the given step counts
    and another through as many single steps: the membranes and v_syn after
    every step, the spikes and the final ring phases are equal bytes."""
    oracle = make_sim()
    n_steps = sum(chunks)
    v, sv, fired = [oracle.v], [oracle.sv], []
    for _ in range(n_steps):
        fired.append(oracle.step())
        v.append(oracle.v)
        sv.append(oracle.sv)
    sim = make_sim()
    recorder = Recorder(sim, n_steps, sim.dt)
    for chunk in chunks:
        sim.advance(chunk, recorder=recorder)
    traces = recorder.traces(n_steps * sim.dt)
    assert traces.v_mem.tobytes() == np.array(v).tobytes()
    assert traces.v_syn.tobytes() == np.array(sv).tobytes()
    steps, ids = np.nonzero(np.array(fired))
    assert [s.tobytes() for s in traces.spikes] == \
        [((steps[ids == i] + 1) * sim.dt).tobytes() for i in range(sim.n)]
    assert sim.sphase.tobytes() == oracle.sphase.tobytes()
    assert sim.k == oracle.k
    return oracle


def step_events(make_sim, n_steps):
    """The (step, ring) of every ring edge and the (step, neuron) of every
    spike of a plain step loop."""
    sim = make_sim()
    edges, spikes = [], []
    for k in range(n_steps):
        fired = sim.step()
        edges += [(k, int(i)) for i in np.flatnonzero(sim.edged)]
        spikes += [(k, int(i)) for i in np.flatnonzero(fired)]
    return edges, spikes


@pytest.mark.parametrize("synapse, has_edges", [
    (SynapseParams(), True),
    # v_syn stays below the oscillation onset: the ring never has an edge
    (SynapseParams(delta_up=0.01), False),
], ids=["edges", "quiet"])
def test_quiet_start_asks_for_the_longest_windows(synapse, has_edges, kernel_calls):
    # A lone neuron without input needs one kernel call per _max_rows
    # steps; its ring edges fall inside the windows.
    cfg = NetworkConfig(n_neurons=1, synapse=synapse)
    n_steps = int(round(0.1 / cfg.dt))
    oracle = assert_advance_matches_steps(
        lambda: NetworkSim(build_network(cfg)), [n_steps])
    max_rows = oracle._max_rows
    n_edges = sum(edged for _, _, edged in kernel_calls)
    assert (n_edges > 0) == has_edges
    assert kernel_calls[0] == (max_rows, max_rows, False)
    assert len(kernel_calls) <= math.ceil(n_steps / max_rows) + 1 + n_edges


def test_window_that_ends_before_a_decaying_ring_reaches_its_edge(kernel_calls):
    # The ring's v_syn leaks with tau = 3 ms, so its frequency falls and it
    # wraps in step 173. The first windows end before that edge and
    # carry the ring's phase into the window that holds it. The neuron is
    # too slow to fire.
    cfg = NetworkConfig(n_neurons=1, neuron=NeuronParams(r_base=10.0),
                        synapse=SynapseParams(tau_leak=3e-3))

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.sv[:] = 1.0
        sim.sphase[:] = 0.75
        return sim

    edges, spikes = step_events(make_sim, 401)
    assert [k for k, _ in edges] == [173] and spikes == []
    oracle = assert_advance_matches_steps(make_sim, [1, 100, 300])
    max_rows = oracle._max_rows
    # each call asks for the steps left, at most max_rows of them
    assert kernel_calls == [(1, 1, False), (100, 100, False),
                            (max_rows, max_rows, True),
                            (300 - max_rows, 300 - max_rows, False)]


def test_carried_over_wrap_at_a_call_start_wraps_in_its_first_row(kernel_calls):
    # The neuron fires in step 10 and only the charge's phase credit takes
    # its ring past 1 (as in the test above), so the wrap carries over into
    # step 11, the first step of the second advance() call.
    cfg = NetworkConfig(n_neurons=1, synapse=SynapseParams(delta_up=1.0))
    v0 = cfg.neuron.v_th - 10.5 * cfg.neuron.r_base * cfg.dt

    def make_sim(v, phase):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = v
        sim.sv[:] = 0.5
        sim.sphase[:] = phase
        return sim

    def phase_after_11_steps(sim):
        for _ in range(11):
            sim.step()
        return sim.sphase[0]

    charged = phase_after_11_steps(make_sim(v0, 0.0))
    uncharged = phase_after_11_steps(make_sim(0.0, 0.0))
    phase0 = 1.0 - 0.5 * (charged + uncharged)
    probe = make_sim(v0, phase0)
    assert phase_after_11_steps(probe) >= 1.0 and not probe.edged[0]
    assert step_events(lambda: make_sim(v0, phase0), 20)[0] == [(11, 0)]

    assert_advance_matches_steps(lambda: make_sim(v0, phase0), [11, 9])
    assert kernel_calls == [(11, 11, False), (9, 9, True)]


def test_ring_at_phase_one_without_frequency_wraps_next(kernel_calls):
    # Ring 0 sits at phase exactly 1 with f = 0: it wraps in the window's
    # first row with a pulse offset of 0 / f_min, and no division by its
    # f = 0 may warn. Ring 1 oscillates.
    cfg = NetworkConfig(n_neurons=2)

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.sv[:] = [0.0, 0.5]
        sim.step()
        sim.sphase[0] = 1.0
        return sim

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_advance_matches_steps(make_sim, [50])
    assert kernel_calls == [(50, 50, True)]
    assert step_events(make_sim, 50)[0] == [(0, 0)]


# ---------------------------------------------------------------------------
# the events inside a window, each against a plain step loop
# ---------------------------------------------------------------------------

def test_edge_pulse_makes_its_target_fire_later_in_the_window(kernel_calls):
    # Ring 0 wraps in step 5 and starts an 800-us excitatory pulse (code 15)
    # on neuron 1, which then fires inside the same window; at its base
    # rate alone it would fire only after 200 steps.
    cfg = NetworkConfig(n_neurons=2, connections=[Connection(0, 1, "exc", 15)])
    p, dt = cfg.neuron, cfg.dt

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [0.0, p.v_th - 200 * p.r_base * dt]
        sim.sv[:] = [1.0, 0.0]
        sim.sphase[:] = [1.0 - 5.5 * cfg.synapse.f_max * dt, 0.0]
        return sim

    rows = make_sim()._max_rows
    edges, spikes = step_events(make_sim, rows)
    assert edges == [(5, 0)]
    assert len(spikes) == 1 and spikes[0][1] == 1 and 5 < spikes[0][0] < rows
    assert_advance_matches_steps(make_sim, [rows])
    assert kernel_calls == [(rows, rows, True)]


def test_rings_that_wrap_in_one_row_add_their_pulses_in_start_order(monkeypatch,
                                                                      kernel_calls):
    # Rings 0 and 1 wrap in step 40 of the window, a half and a quarter of
    # the way in; their 200-us (code 3) and 50-us (code 0) pulses overlap on
    # neuron 2's excitatory input, whose union covers 0.75 of the step: the
    # later ring's pulse is added first, and the overlap counts once.
    cfg = NetworkConfig(n_neurons=3, connections=[Connection(0, 2, "exc", 3),
                                                  Connection(1, 2, "exc", 0)])
    dt = cfg.dt

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.sv[:2] = 1.0
        for _ in range(40):  # the phase the rings gain before step 40
            sim.step()
        gain = sim.sphase[:2].copy()
        inc = osc_frequency(sim.sv[:2] * math.exp(-0.5 * dt / cfg.synapse.tau_leak),
                            cfg.synapse) * dt
        sim = NetworkSim(build_network(cfg))
        sim.sv[:2] = 1.0
        sim.sphase[:2] = 1.0 - gain - np.array([0.5, 0.25]) * inc
        return sim

    # neuron 2's excitatory level per step in single steps
    stepped = {}
    delivered = NetworkSim.recurrent_levels

    def spy(self):
        exc, inh = delivered(self)
        stepped[self.k] = exc[2]
        return exc, inh

    monkeypatch.setattr(NetworkSim, "recurrent_levels", spy)
    assert step_events(make_sim, 60)[0] == [(40, 0), (40, 1)]
    assert_advance_matches_steps(make_sim, [60])
    assert kernel_calls == [(60, 60, True)]

    # the window's plan: one union, on neuron 2's excitatory input in row 40
    unions = []
    found = NetworkSim._unions

    def spy_unions(self, *args):
        channel, row, covered, after = found(self, *args)
        unions.append((channel.tolist(), row.tolist(), covered / self.dt))
        return channel, row, covered, after

    monkeypatch.setattr(NetworkSim, "_unions", spy_unions)
    make_sim().advance(60)
    [(channels, rows, level)] = unions
    assert (channels, rows) == ([2], [40])
    assert level.tobytes() == stepped[40].tobytes()
    assert stepped[40] == pytest.approx(0.75, abs=1e-3)


def test_spike_charge_brings_its_ring_wrap_into_the_window(kernel_calls):
    # Ring 0 is silent (v_syn = 0) until its neuron fires in step 10, 0.9
    # of a step after its crossing; the charge (delta_up = 1) runs it at
    # nearly f_max from there. Its phase is placed so that it wraps in the
    # window's last row: the charge must end the window at that edge, so
    # the refold that finds it must cover every row to the window's end.
    # The next window holds the wrap.
    cfg = NetworkConfig(n_neurons=1,
                        synapse=SynapseParams(delta_up=1.0, tau_leak=10.0))
    p, dt = cfg.neuron, cfg.dt

    def make_sim(phase):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = p.v_th - 10.1 * p.r_base * dt
        sim.sphase[:] = phase
        return sim

    rows = make_sim(0.0)._max_rows
    probe = make_sim(0.0)
    gains = []
    for _ in range(rows):
        probe.step()
        gains.append(probe.sphase[0])
    phase0 = 1.0 - 0.5 * (gains[-1] + gains[-2])
    assert step_events(lambda: make_sim(phase0), rows) == ([(rows - 1, 0)], [(10, 0)])
    assert_advance_matches_steps(lambda: make_sim(phase0), [rows])
    assert kernel_calls == [(rows, rows - 1, False), (1, 1, True)]


def test_spike_far_from_its_edge_is_charged_at_the_window_end(kernel_calls):
    # Neuron 0 fires in step 10 with its ring at phase 0.1, which cannot
    # reach 1 in the window: its charge waits for the window's end, after
    # ring 1 wraps in step 60 and pulses neuron 0's input.
    cfg = NetworkConfig(n_neurons=2, connections=[Connection(1, 0, "exc", 5)])
    p, dt = cfg.neuron, cfg.dt

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [p.v_th - 10.5 * p.r_base * dt, 0.0]
        sim.sv[:] = [0.5, 1.0]
        sim.sphase[:] = [0.1, 1.0 - 60.5 * cfg.synapse.f_max * dt]
        return sim

    rows = make_sim()._max_rows
    assert step_events(make_sim, rows) == ([(60, 1)], [(10, 0)])
    assert_advance_matches_steps(make_sim, [rows])
    assert kernel_calls == [(rows, rows, True)]


def test_ring_bound_sizes_the_windows_at_a_coarse_step(kernel_calls):
    # At dt * f_max = 0.3 a ring can wrap every fourth step, so a window
    # holds at most floor(1 / 0.3) - 1 = 2 rows, far below the neuron
    # bound; edges and spikes still fall inside the windows. A spike in a
    # window's first row whose charge gives its ring an edge in the second
    # ends the window after its first row.
    cfg = NetworkConfig(n_neurons=20, connection_probability=0.2, seed=1,
                        synapse=SynapseParams(f_max=0.3 / 1e-5))
    net = build_network(cfg)
    expected = stepped_run(net, None, 0.05)
    assert_same_traces(simulate(net, None, 0.05), expected)
    assert NetworkSim(net)._max_rows == 2
    asked, kept = np.array([(rows, kept) for rows, kept, _ in kernel_calls]).T
    left = len(expected["v"]) - np.cumsum(kept) + kept  # steps left at each call
    assert asked.tolist() == np.minimum(left, 2).tolist()
    assert (kept < asked).any()
    row, _ = window_rows(kernel_calls)
    edged = expected["edged"].any(axis=1)
    fired = expected["fired"].any(axis=1)
    assert (edged & fired & (row == 1)).any() and (edged & fired & (row == 0)).any()


# ---------------------------------------------------------------------------
# the window's plan: every edge at once; a charge that moves one ends it
# ---------------------------------------------------------------------------

def test_charge_moves_a_planned_edge_onto_a_channel_another_edge_drives(
        kernel_calls):
    # Ring 0 would wrap in step 71 of the window. Its neuron fires in step
    # 10, and the charge (delta_up = 1) moves the wrap to step 36, so the
    # window ends there and drops the unions it planned past it. Ring 1
    # runs at f_max (v_syn above saturation) and wraps half way into step
    # 31; its 50-us pulse on neuron 2's excitatory input still covers half
    # of step 36, where ring 0's moved 200-us pulse starts on that input:
    # the next window starts with that edge and chains its union from
    # ring 1's.
    cfg = NetworkConfig(n_neurons=3, connections=[Connection(0, 2, "exc", 3),
                                                  Connection(1, 2, "exc", 0)],
                        synapse=SynapseParams(delta_up=1.0))
    p, dt = cfg.neuron, cfg.dt

    def make_sim(v0):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [v0, 0.0, p.v_th - 150 * p.r_base * dt]
        sim.sv[:] = [0.5, 2.0, 0.0]
        sim.sphase[:] = [0.94, 1.0 - 31.5 * cfg.synapse.f_max * dt, 0.0]
        return sim

    v0 = p.v_th - 10.5 * p.r_base * dt
    rows = make_sim(v0)._max_rows
    assert step_events(lambda: make_sim(0.0), rows)[0] == [(31, 1), (71, 0)]
    edges, spikes = step_events(lambda: make_sim(v0), rows)
    assert edges == [(31, 1), (36, 0)] and spikes[0] == (10, 0)
    assert any(i == 2 for _, i in spikes)
    assert_advance_matches_steps(lambda: make_sim(v0), [rows])
    # neuron 2's spike in the second window waits for its end
    assert kernel_calls == [(rows, 36, True), (rows - 36, rows - 36, True)]


def test_edges_in_two_rows_chain_their_union_on_one_channel(kernel_calls):
    # Rings 0 and 1 run at f_max and wrap in steps 20 and 50, three
    # quarters and a quarter of the way in. Ring 0's 300-us pulse (code 5)
    # on neuron 2's excitatory input covers step 50 up to three quarters;
    # ring 1's 800-us pulse (code 15) starts there earlier in its step than
    # ring 0's did in its own. The unions follow in row order, each from
    # the end of the one before, not in order of the pulses' starts.
    cfg = NetworkConfig(n_neurons=3, connections=[Connection(0, 2, "exc", 5),
                                                  Connection(1, 2, "exc", 15)])
    p, dt = cfg.neuron, cfg.dt
    inc = cfg.synapse.f_max * dt

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [0.0, 0.0, p.v_th - 120 * p.r_base * dt]
        sim.sv[:] = [2.0, 2.0, 0.0]
        sim.sphase[:] = [1.0 - 20.75 * inc, 1.0 - 50.25 * inc, 0.0]
        return sim

    rows = make_sim()._max_rows
    edges, spikes = step_events(make_sim, rows)
    assert edges == [(20, 0), (50, 1)] and [i for _, i in spikes] == [2]
    assert_advance_matches_steps(make_sim, [rows])
    assert kernel_calls == [(rows, rows, True)]


def test_charge_moves_an_edge_into_the_windows_last_row(kernel_calls):
    # As in test_spike_charge_brings_its_ring_wrap_into_the_window, ring 0
    # is silent until its neuron fires in step 10, and the charge makes it
    # wrap in step rows - 1: the first window ends there, and the wrap
    # falls in the second window's only row. Its 800-us pulse on neuron 1 starts
    # there and carries on into the third window.
    cfg = NetworkConfig(n_neurons=2, connections=[Connection(0, 1, "exc", 15)],
                        synapse=SynapseParams(delta_up=1.0, tau_leak=10.0))
    p, dt = cfg.neuron, cfg.dt

    def make_sim(phase):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [p.v_th - 10.1 * p.r_base * dt, p.v_th - 170 * p.r_base * dt]
        sim.sphase[:] = [phase, 0.0]
        return sim

    rows = make_sim(0.0)._max_rows
    probe = make_sim(0.0)
    gains = []
    for _ in range(rows):
        probe.step()
        gains.append(probe.sphase[0])
    phase0 = 1.0 - 0.5 * (gains[-1] + gains[-2])
    edges, spikes = step_events(lambda: make_sim(phase0), rows + 60)
    assert edges == [(rows - 1, 0)] and spikes[0] == (10, 0)
    assert any(i == 1 and k >= rows for k, i in spikes)
    assert_advance_matches_steps(lambda: make_sim(phase0), [rows, 60])
    # neuron 1 fires in the third window, charged at its end
    assert kernel_calls == [(rows, rows - 1, False), (1, 1, True), (60, 60, False)]


def test_charge_whose_ring_stays_silent_waits_for_the_window_end(kernel_calls):
    # Ring 0 sits at phase 0.9 without v_syn: f_max could take it past 1
    # in the window, but the charge of its spike in step 10 (delta_up =
    # 0.08) leaves v_syn below the oscillation onset, so its own frequency
    # stays 0 and the charge waits for the window's end.
    cfg = NetworkConfig(n_neurons=2, connections=[Connection(0, 1, "exc", 15)])
    p, dt = cfg.neuron, cfg.dt

    def make_sim():
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [p.v_th - 10.5 * p.r_base * dt, 0.0]
        sim.sphase[:] = [0.9, 0.0]
        return sim

    rows = make_sim()._max_rows
    assert 0.9 + rows * cfg.synapse.f_max * dt > 1.0
    assert step_events(make_sim, rows) == ([], [(10, 0)])
    assert_advance_matches_steps(make_sim, [rows])
    assert kernel_calls == [(rows, rows, False)]


# ---------------------------------------------------------------------------
# a window ends at the first edge that a spike's charge brings into it
# ---------------------------------------------------------------------------

def charged_edges(kernel_calls, run):
    """Per window of a run: the rows asked for, the steps committed, and per
    spike in those steps its row and the row of its ring's first edge after
    it in the step loop, or the rows asked for if that edge is past them."""
    windows, start = [], 0
    for asked, kept, _ in kernel_calls:
        spikes = []
        for r, i in zip(*run["fired"][start:start + kept].nonzero()):
            later = run["edged"][start + r + 1:start + asked, i].nonzero()[0]
            spikes.append((int(r), int(r + 1 + later[0]) if len(later) else asked))
        windows.append((asked, kept, spikes))
        start += kept
    return windows


def cut_run(seed, driven, delta_up, kernel_calls):
    """A 30-ms run of an N=20, p=0.2 network, free or with an excitatory
    train on every neuron, through simulate and through a step loop; the
    traces, sampled every step, are equal bytes. Returns charged_edges."""
    duration = 0.03
    net = build_network(NetworkConfig(n_neurons=20, connection_probability=0.2, seed=seed,
                                      sample_interval=1e-5,
                                      synapse=SynapseParams(delta_up=delta_up)))
    rng = np.random.default_rng(seed)
    inputs = {i: (periodic_train(rate, 2e-4, duration, start), None)
              for i, (rate, start) in enumerate(zip(rng.uniform(20.0, 150.0, 20).tolist(),
                                                    rng.uniform(0.0, 5e-3, 20).tolist()))
              } if driven else None
    expected = stepped_run(net, inputs, duration)
    assert_same_traces(simulate(net, inputs, duration), expected)
    return charged_edges(kernel_calls, expected)


@pytest.mark.parametrize("delta_up", [0.5, 1.0])
@pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_commits_the_steps_before_the_first_edge_a_charge_brings(seed, driven,
                                                                        delta_up,
                                                                        kernel_calls):
    # Strong charges cut many windows. Each window commits its rows up to
    # the first edge that one of its spikes gives its ring, and a cut
    # window runs on past the row of the spike that cuts it.
    windows = cut_run(seed, driven, delta_up, kernel_calls)
    assert [kept for _, kept, _ in windows] == \
        [min([asked] + [edge for _, edge in spikes]) for asked, _, spikes in windows]
    assert any(kept < asked and any(edge == kept and row < kept - 1 for row, edge in spikes)
               for asked, kept, spikes in windows)


def test_later_spike_whose_ring_edges_first_ends_the_window(kernel_calls):
    # Two spikes of one window could each bring their ring's edge into it;
    # the later spike's ring edges first, and the window ends there.
    windows = cut_run(0, False, 1.0, kernel_calls)
    assert any(r1 < r2 and kept == e2 < e1 < asked
               for asked, kept, spikes in windows
               for r1, e1 in spikes for r2, e2 in spikes)


@pytest.mark.parametrize("step", [0, 3])
def test_credit_that_wraps_a_ring_ends_the_window_after_its_spike(step, kernel_calls):
    # Neuron 0 fires in the given step, half a step after its crossing, and
    # only its charge's phase credit takes its ring past 1, so the wrap
    # goes out at the start of the next step: the first window ends there,
    # and the next one holds the wrap in its first row. A spike in the
    # window's first row so commits one step; a window of none would never
    # let advance() end. Neuron 1 fires in step 0 far from its edge.
    cfg = NetworkConfig(n_neurons=2, synapse=SynapseParams(delta_up=1.0))
    v_th, r_base, dt = cfg.neuron.v_th, cfg.neuron.r_base, cfg.dt
    v0 = v_th - (step + 0.5) * r_base * dt

    def make_sim(v, phase):
        sim = NetworkSim(build_network(cfg))
        sim.v[:] = [v, v_th - 0.5 * r_base * dt]
        sim.sv[:] = [0.5, 0.0]
        sim.sphase[:] = [phase, 0.0]
        return sim

    def phase_after_spike(sim):
        for _ in range(step + 1):
            sim.step()
        return sim.sphase[0]

    phase0 = 1.0 - 0.5 * (phase_after_spike(make_sim(v0, 0.0))
                          + phase_after_spike(make_sim(0.0, 0.0)))
    probe = make_sim(v0, phase0)
    assert phase_after_spike(probe) >= 1.0 and not probe.edged[0]
    assert step_events(lambda: make_sim(v0, phase0), 20) == \
        ([(step + 1, 0)], sorted([(0, 1), (step, 0)]))

    assert len(make_sim(v0, phase0).step(rows=20)) == step + 1
    kernel_calls.clear()
    assert_advance_matches_steps(lambda: make_sim(v0, phase0), [20])
    assert kernel_calls == [(20, step + 1, False), (19 - step, 19 - step, True)]

# ---------------------------------------------------------------------------
# Every fold down a window's rows, by accumulate and by row loop
# ---------------------------------------------------------------------------

def test_advance_with_row_loop_scans_matches_steps(monkeypatch, kernel_calls):
    # With _SCAN_WIDTH at 0 every scan of a window loops over its rows: the
    # no-spike fold, the wraps of the ring edges, the refolds of the
    # charged synapses and the membrane sums. In this small recurrent
    # network rings wrap inside windows, and spikes cut windows short.
    monkeypatch.setattr(network, "_SCAN_WIDTH", 0)
    net = build_network(NetworkConfig(n_neurons=10, connection_probability=0.3, seed=0))
    assert_advance_matches_steps(lambda: NetworkSim(net), [10000])
    assert any(edged for _, _, edged in kernel_calls)
    assert any(kept < rows for rows, kept, _ in kernel_calls)  # a cut, after a spike


def membranes_by_rows(v, x, v_th):
    """The window's membrane loop as the kernel walked it before the
    columns were summed: one row per step, each added, clamped at 0 where
    the row falls, and fired at v_th."""
    rows, n = x.shape
    falling = (x < 0.0).any(axis=1).tolist()
    fired = np.zeros((rows, n), dtype=bool)
    vs, xs = list(v), list(x)
    for r in range(rows):
        row = vs[r + 1]
        np.add(vs[r], xs[r], out=row)
        if falling[r]:
            np.maximum(row, 0.0, out=row)
        if np.maximum.reduce(row) < v_th:
            continue
        hit = np.greater_equal(row, v_th, out=fired[r])
        np.subtract(row, v_th, out=row, where=hit)
    return fired


def membrane_cases():
    """(v0, rises) per case: seeded random blocks, then blocks built for the
    events the pass must restart at. v_th = 0.5."""
    rng = np.random.default_rng(7)
    cases = {}
    for i, (rows, n) in enumerate([(100, 100), (40, 7), (1, 5), (65, 300)]):
        cases[f"random{i}"] = (rng.uniform(0.0, 0.5, n),
                               rng.uniform(-0.1, 0.08, (rows, n)))
    # the kernel's own rises: base, excitatory and inhibitory rates times dt
    p, dt = NeuronParams(), 1e-5
    x = (p.r_base + p.r_exc * (rng.random((150, 60)) < 0.5)
         - p.r_inh * (rng.random((150, 60)) < 0.2)) * dt
    cases["kernel_rates"] = (rng.uniform(0.45, 0.5, 60), x)

    # clamp runs with rises of exactly 0.0 and -0.0 inside and after them
    x = np.full((30, 4), 0.01)
    x[3:9] = -0.2
    x[5, 1] = x[12:15, 2] = 0.0
    x[6, 0] = x[15:18, 3] = -0.0
    x[20:22] = -0.0
    x[22:24, :2] = -0.3
    cases["clamp_runs_and_zeros"] = (np.array([0.05, 0.0, 0.3, 0.1]), x)
    cases["v0_zero"] = (np.zeros(6), rng.uniform(-0.02, 0.03, (50, 6)))

    # a fire in row 0 and one in the last row
    x = np.full((20, 3), 0.01)
    cases["fire_first_and_last_row"] = (np.array([0.495, 0.305, 0.0]), x)
    # a fire after a clamp, and a clamp after a fire
    x = np.full((40, 2), 0.02)
    x[2:5, 0] = -0.3
    x[10:13, 1] = -0.4
    cases["fire_after_clamp_and_clamp_after_fire"] = (np.array([0.1, 0.45]), x)
    # a rise above v_th leaves a fired membrane at v_th or more, which
    # fires again only in the next row
    x = np.full((10, 2), 0.01)
    x[3] = 0.7
    cases["rise_above_threshold"] = (np.array([0.4, 0.0]), x)
    # a broadcast inhibitory pulse holds every column at 0, as the
    # reservoir's feedback does, between rising stretches
    x = rng.uniform(0.001, 0.003, (90, 50))
    x[20:40] -= 0.03
    x[60:75] -= 0.03
    cases["broadcast_inhibition"] = (rng.uniform(0.4, 0.5, 50), x)
    return cases


MEMBRANE_CASES = membrane_cases()


@pytest.fixture(params=["sum", "walk"])
def membrane_pass(request, monkeypatch):
    """A kernel whose scans sum each block with one accumulate ("sum") or
    walk its rows in a loop ("walk") at any width."""
    monkeypatch.setattr(network, "_SCAN_WIDTH", 10 ** 9 if request.param == "sum" else 0)
    return NetworkSim(build_network(NetworkConfig(n_neurons=1)))


@pytest.mark.parametrize("case", list(MEMBRANE_CASES))
def test_membranes_match_the_row_loop(case, membrane_pass):
    v0, x = MEMBRANE_CASES[case]
    v_th = membrane_pass.neuron.v_th
    expected = np.empty((len(x) + 1, x.shape[1]))
    expected[0] = v0
    expected_fired = membranes_by_rows(expected, x, v_th)
    v = np.full_like(expected, np.nan)
    v[0] = v0
    fired = membrane_pass._membranes(v, x.copy())
    assert v.tobytes() == expected.tobytes()
    assert fired.dtype == bool and fired.tobytes() == expected_fired.tobytes()
    if case == "fire_first_and_last_row":
        assert fired[0, 0] and fired[-1, 1]
    if case == "rise_above_threshold":
        assert fired[3:5, 0].all()
    if case == "broadcast_inhibition":
        assert (v[40] == 0.0).all() and (v[75] == 0.0).all() and fired[:20].any()


def test_external_inhibition_that_clamps_every_membrane_matches_steps(membrane_pass,
                                                                      kernel_calls):
    # One whole-step inhibitory level for all neurons, as train_force feeds
    # back, high for 20 steps inside a window, clamps every membrane at 0;
    # the windows match single steps bit for bit.
    net = build_network(NetworkConfig(n_neurons=30, connection_probability=0.2, seed=3))
    n_steps = 1200
    inh = np.zeros(n_steps, dtype=bool)
    inh[10:30] = True
    levels = np.stack([np.zeros(n_steps, dtype=bool), inh])
    sim, oracle = NetworkSim(net), NetworkSim(net)
    oracle.v[:] = sim.v[:] = np.linspace(0.0, 0.06, 30)
    v, fired = [], []
    for k in range(n_steps):
        fired.append(oracle.step(levels=levels[:, k]))
        v.append(oracle.v)
    recorder = Recorder(sim, n_steps, sim.dt)
    sim.advance(n_steps, levels=levels, recorder=recorder)
    traces = recorder.traces(n_steps * sim.dt)
    assert traces.v_mem[1:].tobytes() == np.array(v).tobytes()
    steps, ids = np.nonzero(np.array(fired))
    assert [s.tobytes() for s in traces.spikes] == \
        [((steps[ids == i] + 1) * sim.dt).tobytes() for i in range(sim.n)]
    for name in ("sv", "sphase"):
        assert getattr(sim, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert (np.array(v)[29] == 0.0).all() and len(steps)
    # the pulse falls inside one window
    ends = np.cumsum([kept for _, kept, _ in kernel_calls])
    assert not ((ends > 10) & (ends < 30)).any()
