"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its list of cases from the seed in ``setup`` (timed as
``setup_s``), runs one job on one case in ``run`` (timed as ``job_s``) and
checks the job's outputs in ``check`` (not timed). ``check`` returns the
problems it found, the simulated counts (which repeat exactly for a case)
and the task-quality numbers of the job. README.md gives the reason for
each workload.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import tdsnn

CONNECTION_P = 0.1  # both network workloads
DRIVE_RATE_HZ = (20.0, 150.0)  # range of the per-neuron drive rates


@dataclass
class JobResult:
    outputs: Any
    sim_host_s: float  # host seconds of the simulation call alone
    simulated_s: float  # simulated seconds covered by that call


def check_traces(traces, v_th: float, f_min: float, f_max: float) -> list[str]:
    """Problems in a TraceSet: non-finite values or states out of range."""
    problems = []
    arrays = {name: getattr(traces, name)
              for name in ("sample_times", "v_mem", "v_syn", "freq_hz",
                           "z_times", "z", "target", "r_states")}
    arrays["spikes"] = np.concatenate([np.asarray(s, dtype=float)
                                       for s in traces.spikes] or [np.empty(0)])
    for name, values in arrays.items():
        if values is not None and not np.all(np.isfinite(values)):
            problems.append(f"{name} has non-finite values")
    v = traces.v_mem
    if not np.all((v >= 0.0) & (v < v_th)):
        problems.append(f"v_mem leaves [0, {v_th:g})")
    f = traces.freq_hz
    if not np.all((f == 0.0) | ((f >= f_min) & (f <= f_max))):
        problems.append(f"freq_hz leaves {{0}} U [{f_min:g}, {f_max:g}]")
    return problems


def _count_lines(path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def check_written(out_dir, paths, n_spikes: int) -> tuple[list[str], dict]:
    """Row and byte counts of the CSVs write_traces produced.

    Every file has one header line; the rows of spikes.csv must match the
    spike count of the traces.
    """
    rows = {os.path.basename(p): _count_lines(p) - 1 for p in paths}
    problems = []
    if rows.get("spikes.csv") != n_spikes:
        problems.append(f"spikes.csv has {rows.get('spikes.csv')} rows for "
                        f"{n_spikes} spikes")
    counts = {"rows": sum(rows.values()),
              "bytes": sum(os.path.getsize(p) for p in paths)}
    return problems, counts


class NetDriven:
    """N=1000 recurrent network, every neuron under its own weighted drive.

    Job: ``simulate`` then ``write_traces`` into a fresh directory.
    """

    name = "net_n1000_driven"
    scaled = False  # its vector kernel does not move with ReferenceClock

    def __init__(self, n: int = 1000, duration: float = 0.08):
        self.n = n
        self.duration = duration

    def setup(self, seed: int):
        config = tdsnn.NetworkConfig(n_neurons=self.n,
                                     connection_probability=CONNECTION_P, seed=seed)
        rng = np.random.default_rng([seed, 1])
        rates = rng.uniform(*DRIVE_RATE_HZ, self.n)
        codes = rng.integers(0, tdsnn.weight.N_CODES, self.n)
        inputs = {i: (tdsnn.weighted_drive(float(rate), int(code), self.duration), None)
                  for i, (rate, code) in enumerate(zip(rates, codes))}
        return [(tdsnn.build_network(config), inputs)]

    def run(self, case, out_dir) -> JobResult:
        network, inputs = case
        t0 = time.perf_counter()
        traces = tdsnn.simulate(network, inputs, self.duration)
        sim_host_s = time.perf_counter() - t0
        paths = tdsnn.write_traces(traces, out_dir)
        return JobResult((traces, paths), sim_host_s, self.duration)

    def check(self, case, result: JobResult, out_dir):
        network, _ = case
        traces, paths = result.outputs
        cfg = network.config
        problems = check_traces(traces, cfg.neuron.v_th, cfg.synapse.f_min,
                                cfg.synapse.f_max)
        n_spikes = int(traces.spike_counts().sum())
        written_problems, counts = check_written(out_dir, paths, n_spikes)
        counts["spikes"] = n_spikes
        return problems + written_problems, counts, {}


class ForceN100:
    """FORCE training of the N=100 reservoir with default settings.

    Job: ``train_force`` then ``evaluate`` on the autonomous part. The
    autonomous NRMSE differs from one topology to the next by about 10%,
    so each seed gives several networks and the run reports the median.
    """

    name = "force_n100"
    scaled = True  # timings scaled by ReferenceClock

    def __init__(self, n: int = 100, networks: int = 5,
                 train_cfg: tdsnn.TrainConfig = None):
        self.n = n
        self.networks = networks
        self.train_cfg = train_cfg or tdsnn.TrainConfig()
        self.feedback = tdsnn.FeedbackParams()

    def setup(self, seed: int):
        return [tdsnn.build_network(tdsnn.NetworkConfig(
                    n_neurons=self.n, connection_probability=CONNECTION_P,
                    seed=seed * self.networks + i))
                for i in range(self.networks)]

    def run(self, network, out_dir) -> JobResult:
        t0 = time.perf_counter()
        rls, traces = tdsnn.train_force(network, self.train_cfg, self.feedback)
        sim_host_s = time.perf_counter() - t0
        auto = traces.z_times > traces.train_end_time
        quality = tdsnn.evaluate(traces.z[auto], traces.target[auto])
        return JobResult((rls, traces, quality), sim_host_s, traces.duration)

    def check(self, network, result: JobResult, out_dir):
        rls, traces, quality = result.outputs
        f_min, f_max = self.train_cfg.frequency_range
        problems = check_traces(traces, network.config.neuron.v_th, f_min, f_max)
        if not (np.all(np.isfinite(rls.w)) and np.all(np.isfinite(rls.P))):
            problems.append("RLS weights or P are not finite")
        nrmse = quality["nrmse"]
        if not np.isfinite(nrmse):
            problems.append(f"autonomous NRMSE is {nrmse}")
        counts = {"spikes": int(traces.spike_counts().sum()),
                  "rls_updates": int(np.count_nonzero(
                      traces.z_times <= traces.train_end_time))}
        return problems, counts, {"nrmse_autonomous": nrmse}


class CalibratePaper:
    """``calibrate()`` against the paper's anchor frequencies.

    The inputs are the paper's constants, so the seed changes nothing here.
    """

    name = "calibrate_paper"
    scaled = True  # timings scaled by ReferenceClock

    def __init__(self, sim_duration: float = 1.0):
        self.sim_duration = sim_duration

    def setup(self, seed: int):
        return [dict(tdsnn.PAPER_ANCHORS)]

    def run(self, anchors, out_dir) -> JobResult:
        t0 = time.perf_counter()
        result = tdsnn.calibrate(anchors, sim_duration=self.sim_duration)
        sim_host_s = time.perf_counter() - t0
        # one neuron run and one synapse run per synapse anchor
        simulated_s = 2 * len(result.drive_rates_hz) * self.sim_duration
        return JobResult(result, sim_host_s, simulated_s)

    def check(self, anchors, result: JobResult, out_dir):
        cal = result.outputs
        problems = []
        if set(cal.residuals) != set(anchors):
            problems.append(f"residuals cover {sorted(cal.residuals)}, "
                            f"anchors are {sorted(anchors)}")
        values = list(cal.achieved.values()) + list(cal.residuals.values())
        if not np.all(np.isfinite(values)):
            problems.append("achieved frequencies or residuals are not finite")
        duration = self.sim_duration
        counts = {
            "spikes": int(round(sum(cal.drive_rates_hz.values()) * duration)),
            "ring_edges": int(round(sum(
                cal.achieved[k] for k in cal.drive_rates_hz) * duration)),
        }
        quality = {"anchor_err_max": max(abs(r) for r in cal.residuals.values())}
        return problems, counts, quality


WORKLOADS = {w.name: w for w in (NetDriven, ForceN100, CalibratePaper)}
