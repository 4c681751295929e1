"""The benchmark's traced run wraps names inside the package.

bench/tracing.py replaces each (owner, attribute) of its sites() list, so a
refactor that removes or renames one of them breaks the traced run. It
also counts spikes, ring edges and pulses started from what
NetworkSim.step returns. Its own tests are not part of this suite, so these
tests check both here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tdsnn
from tdsnn import NetworkConfig, NetworkSim, SynapseParams, build_network

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_exists():
    sites = load_tracing().sites(tdsnn)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in sites if attr not in vars(owner)]
    assert sites and missing == []


def counts_of_step_loop_and_traced_simulate(net, duration):
    """Spikes, ring edges and pulses started of a plain step() loop, and
    the tracer and traces of a traced simulate() run."""
    out_degree = np.bincount(net.pre, minlength=net.n_neurons)
    sim = NetworkSim(net)
    n_steps = int(round(duration / sim.dt))
    spikes = edges = pulses = 0
    for _ in range(n_steps):
        spikes += int(sim.step().sum())
        edges += int(sim.edged.sum())
        pulses += int(out_degree[sim.edged].sum())

    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tdsnn):
        traces = tdsnn.simulate(net, None, duration)
    return (spikes, edges, pulses), n_steps, tracer, traces


def test_traced_counts_match_a_step_loop():
    # simulate() commits most steps in windows; each window still passes
    # through NetworkSim.step, so the traced counts are those of stepping.
    net = build_network(NetworkConfig(n_neurons=20, connection_probability=0.2,
                                      seed=1))
    duration = 0.2
    (spikes, edges, pulses), n_steps, tracer, traces = \
        counts_of_step_loop_and_traced_simulate(net, duration)
    counts = tracer.counts
    assert spikes > 0 and traces.spike_counts().sum() == spikes
    assert (counts["network.spikes"], counts["network.ring_edges"],
            counts["network.pulses_started"]) == (spikes, edges, pulses)
    assert tracer.stats["network.step"][0] < n_steps // 2


def test_traced_counts_match_a_step_loop_when_rings_bound_the_windows():
    # At dt * f_max = 0.3 a ring can wrap every fourth step and each window
    # holds at most two rows; a ring wraps at most once in a window, so
    # counting the rings of self.edged once per step() call counts every
    # edge. Three spikes whose charge could move their ring's edge end a
    # window after its first row, which leaves one step for a last call:
    # the 5000 steps take 2502 calls.
    net = build_network(NetworkConfig(n_neurons=20, connection_probability=0.2,
                                      seed=1, synapse=SynapseParams(f_max=0.3 / 1e-5)))
    (spikes, edges, pulses), n_steps, tracer, traces = \
        counts_of_step_loop_and_traced_simulate(net, 0.05)
    counts = tracer.counts
    assert spikes > 0 and edges > n_steps // 10
    assert traces.spike_counts().sum() == spikes
    assert (counts["network.spikes"], counts["network.ring_edges"],
            counts["network.pulses_started"]) == (spikes, edges, pulses)
    assert tracer.stats["network.step"][0] == 2502
