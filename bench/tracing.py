"""Aggregating call tracer for the benchmark's traced run.

Functions are wrapped where their callers look them up, for example
``tdsnn.network.osc_frequency`` (called by the network kernel) and
``tdsnn.synapse.osc_frequency`` (called by the scalar synapse step), and
restored afterwards. Each span name aggregates its call count, total time
and self time, so millions of calls stay in constant memory. Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np

COUNT_SPAN = "trace.count"  # time spent in the tracer's own counters


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._open = []  # per open span: seconds its child spans covered
        self._patched = []

    def wrap(self, name, fn, on_return=None):
        """Wrap fn so each call is a span; on_return(counts, args, result)
        may add counts after the span closes, timed as COUNT_SPAN."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        count_stat = self.stats.setdefault(COUNT_SPAN, [0, 0.0, 0.0])
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def close(stat, elapsed, child):
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - child
            if open_spans:
                open_spans[-1] += elapsed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, clock() - start, open_spans.pop())
            if on_return is not None:
                start = clock()
                on_return(counts, args, result)
                close(count_stat, clock() - start, 0.0)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr (a module or class attribute) by its wrapper."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def per_job(self, n_jobs: int) -> dict:
        """Metric values per job: <span>.calls, <span>.s, <span>.self_s and
        the counters."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / n_jobs
            out[f"{name}.s"] = total / n_jobs
            out[f"{name}.self_s"] = self_s / n_jobs
        out.update({name: value / n_jobs for name, value in self.counts.items()})
        return out

    def self_total(self) -> float:
        return sum(self_s for _, _, self_s in self.stats.values())


def _step_counter():
    """Counts spikes, ring edges and pulses started after each kernel step."""
    out_degree = weakref.WeakKeyDictionary()

    def count(counts, args, fired):
        sim = args[0]
        counts["network.spikes"] += int(np.count_nonzero(fired))
        edged = sim.edged
        n_edges = int(np.count_nonzero(edged))
        if n_edges:
            network = sim.network
            if network not in out_degree:
                out_degree[network] = np.bincount(network.pre, minlength=sim.n)
            counts["network.ring_edges"] += n_edges
            counts["network.pulses_started"] += int(out_degree[network][edged].sum())

    return count


def sites(tdsnn):
    """(owner, attribute, span name, on_return) for every wrapped call."""
    network, reservoir, measure = tdsnn.network, tdsnn.reservoir, tdsnn.measure
    return [
        # public API the benchmark calls through the package
        (tdsnn, "build_network", "network.build_network", None),
        (tdsnn, "weighted_drive", "measure.weighted_drive", None),
        (tdsnn, "simulate", "network.simulate", None),
        (tdsnn, "write_traces", "traceio.write_traces", None),
        (tdsnn, "train_force", "reservoir.train_force", None),
        (tdsnn, "evaluate", "reservoir.evaluate", None),
        (tdsnn, "calibrate", "measure.calibrate", None),
        # calls inside the package, wrapped where the caller looks them up
        (network.NetworkSim, "step", "network.step", _step_counter()),
        (network.NetworkSim, "recurrent_levels", "network.recurrent_levels", None),
        (network, "osc_frequency", "network.osc_frequency", None),
        (network, "pulse_width", "weight.pulse_width", None),
        (tdsnn.weight, "pulse_width", "weight.pulse_width", None),
        (tdsnn.pulses.PulseTrain, "step_levels", "pulses.step_levels", None),
        (reservoir, "encode_feedback", "reservoir.encode_feedback", None),
        (reservoir, "readout", "reservoir.readout", None),
        (reservoir, "normalized_state", "reservoir.normalized_state", None),
        (reservoir, "rls_update", "reservoir.rls_update", None),
        (measure, "weighted_drive", "measure.weighted_drive", None),
        (measure, "shape_pulses", "weight.shape_pulses", None),
        (measure, "run_neuron", "measure.run_neuron", None),
        (measure, "run_synapse", "measure.run_synapse", None),
        (measure, "neuron_step", "neuron.neuron_step", None),
        (measure, "synapse_step", "synapse.synapse_step", None),
        (tdsnn.synapse, "osc_frequency", "synapse.osc_frequency", None),
    ]


@contextmanager
def installed(tracer: Tracer, tdsnn):
    """Wrap every site for the duration of the block, then restore."""
    try:
        for owner, attr, name, on_return in sites(tdsnn):
            tracer.patch(owner, attr, name, on_return)
        yield tracer
    finally:
        tracer.restore()
