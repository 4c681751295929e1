import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdsnn import (CalibrationError, NetworkConfig, NetworkSim, NeuronParams,
                   SynapseParams, build_network, calibrate, free_run_period,
                   neuron_step, osc_frequency, steady_state_frequency,
                   synapse_step)
from tdsnn.measure import run_neuron, run_synapse, weighted_drive
from tdsnn.pulses import regular_times
from trains import periodic_train


def test_firing_rate_matches_closed_form_over_1024_windows():
    # measurement protocol: average over 1024 windows of 100 ms
    params = NeuronParams()
    dt = 5e-5
    duration = 102.4
    spikes, _ = run_neuron(params, duration, dt)
    est = len(spikes) / duration
    assert est == pytest.approx(1.0 / free_run_period(params), rel=0.01)


def test_weighted_drive_is_shaped_source():
    train = weighted_drive(100.0, 12, 0.05)
    assert len(train) == 5
    assert np.allclose(train.widths, 650e-6)
    assert np.allclose(np.diff(train.rises), 0.01)


@pytest.mark.parametrize("build", [
    lambda duration: weighted_drive(100.0, 12, duration),
    lambda duration: regular_times(100.0, duration),
], ids=["weighted_drive", "regular_times"])
def test_pulse_train_builders_reject_a_duration_that_is_not_finite(build):
    for duration in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be finite"):
            build(duration)
    assert len(build(0.0)) == 0
    assert len(build(0.05)) == 5


@pytest.mark.parametrize("name", ["freq_hz", "start"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_periodic_train_rejects_an_argument_that_is_not_finite(name, value):
    args = {"freq_hz": 100.0, "duration": 0.05, "start": 0.0}
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        regular_times(**args)


def test_weighted_drive_rejects_a_rate_that_is_not_finite():
    for rate in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="input_freq must be finite"):
            weighted_drive(rate, 12, 1.0)


def test_calibrate_free_run_only_closed_form():
    result = calibrate({"free_run_hz": 200.0})
    assert result.neuron.r_base == pytest.approx(0.5 * 200.0)
    assert result.achieved["free_run_hz"] == pytest.approx(200.0)
    assert result.residuals["free_run_hz"] == pytest.approx(0.0, abs=1e-12)


def test_calibrate_unknown_anchor_rejected():
    with pytest.raises(ValueError):
        calibrate({"nonsense_hz": 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_calibrate_rejects_an_anchor_that_is_not_finite_and_positive(value):
    # a nan anchor used to give a nan residual and no error
    with pytest.raises(ValueError, match=r"^\[anchors\] free_run_hz must be positive$"):
        calibrate({"free_run_hz": value})


@pytest.fixture(scope="module")
def paper_fit():
    return calibrate()


def test_calibrate_paper_anchors_within_tolerance(paper_fit):
    res = paper_fit.residuals
    assert abs(res["free_run_hz"]) <= 0.02
    assert abs(res["syn_free_hz"]) <= 0.05
    assert abs(res["syn_excited_hz"]) <= 0.05
    assert abs(res["syn_inhibited_hz"]) <= 0.15


def test_calibrated_chain_reproduces_anchors(paper_fit):
    # The fitted neuron feeding its fitted synapse, re-simulated as a
    # one-neuron network: unlike the fit, the kernel charges the synapse at
    # the threshold crossing, not at the start of the firing step.
    cfg = NetworkConfig(n_neurons=1, neuron=paper_fit.neuron,
                        synapse=paper_fit.synapse)
    duration = 2.0
    n_steps = int(round(duration / cfg.dt))
    drive = weighted_drive(100.0, 12, duration).step_levels(cfg.dt, n_steps)[:, None]
    cases = {
        "syn_inhibited_hz": (None, drive, 41.0, 0.15),
        "syn_free_hz": (None, None, 90.0, 0.05),
        "syn_excited_hz": (drive, None, 98.0, 0.05),
    }
    for name, (exc, inh, target, tol) in cases.items():
        sim = NetworkSim(build_network(cfg))
        done = edges = 0
        while done < n_steps:
            rows = min(n_steps - done, sim._max_rows)
            fired = sim.step(*[None if e is None else e[done:done + rows]
                               for e in (exc, inh)], rows=rows)
            done += len(fired)
            edges += int(sim.edged.sum())  # a ring wraps once per window at most
        measured = edges / duration
        assert abs(measured - target) / target <= tol, (name, measured)


def test_perturbed_anchors_shift_fit_proportionally(paper_fit):
    anchors = {
        "free_run_hz": 200.0,
        "syn_inhibited_hz": 41.0 * 1.1,
        "syn_free_hz": 90.0 * 1.1,
        "syn_excited_hz": 98.0 * 1.1,
    }
    shifted = calibrate(anchors, tolerances={
        "free_run_hz": 0.02, "syn_inhibited_hz": 0.2,
        "syn_free_hz": 0.1, "syn_excited_hz": 0.1})
    base_free = steady_state_frequency(200.0, paper_fit.synapse)
    new_free = steady_state_frequency(200.0, shifted.synapse)
    assert new_free / base_free == pytest.approx(1.1, abs=0.15)


def test_calibrate_reports_failure_with_residuals():
    # an infeasible anchor set: synapse faster than its own ceiling
    anchors = {"free_run_hz": 200.0, "syn_free_hz": 90.0,
               "syn_excited_hz": 20.0, "syn_inhibited_hz": 41.0}
    with pytest.raises(CalibrationError) as exc_info:
        calibrate(anchors)
    assert exc_info.value.residuals


# --- run_neuron and run_synapse against plain loops over the step
# functions ---

def step_neuron(params, duration, dt, exc=None, inh=None):
    """Loop over neuron_step: (spike_times, v_mem before and after each step)."""
    n = int(round(duration / dt))
    exc = exc.step_levels(dt, n) if exc is not None else np.zeros(n, dtype=bool)
    inh = inh.step_levels(dt, n) if inh is not None else np.zeros(n, dtype=bool)
    v = 0.0
    spikes, v_mem = [], [v]
    for k in range(n):
        v, fired = neuron_step(v, params, bool(exc[k]), bool(inh[k]), dt)
        if fired:
            spikes.append((k + 1) * dt)
        v_mem.append(v)
    return np.array(spikes), np.array(v_mem)


def step_synapse(params, flags, dt):
    """Loop over synapse_step: (edge_times, v_syn, freq), traces from rest."""
    v, phase = 0.0, 0.0
    edges, v_syn, freq = [], [v], [0.0]
    for k, flag in enumerate(flags):
        v, phase, offsets = synapse_step(v, phase, params, bool(flag), dt)
        edges.extend(k * dt + off for off in offsets)
        v_syn.append(v)
        freq.append(osc_frequency(v, params))
    return np.array(edges), np.array(v_syn), np.array(freq)


def spike_flags(spike_times, duration, dt):
    flags = [False] * int(round(duration / dt))
    for t in spike_times:
        k = math.floor(t / dt)
        if 0 <= k < len(flags):
            flags[k] = True
    return flags


def assert_runs_match_step_loops(nparams, sparams, duration, dt, exc=None,
                                    inh=None, spike_times=None):
    """run_neuron and run_synapse (on spike_times, else on the neuron's
    spikes) equal the loops, traces included."""
    spikes, (times, v_mem) = run_neuron(nparams, duration, dt, exc, inh,
                                        record=True)
    ref_spikes, ref_v_mem = step_neuron(nparams, duration, dt, exc, inh)
    assert np.array_equal(spikes, ref_spikes)
    assert np.array_equal(v_mem, ref_v_mem)
    assert np.array_equal(times, np.arange(len(v_mem)) * dt)

    if spike_times is None:
        spike_times = spikes
    edges, (_, v_syn, freq) = run_synapse(sparams, spike_times, duration, dt,
                                          record=True)
    ref = step_synapse(sparams, spike_flags(spike_times, duration, dt), dt)
    assert np.array_equal(edges, ref[0])
    assert np.array_equal(v_syn, ref[1])
    assert np.array_equal(freq, ref[2])
    return ref_v_mem, ref


def test_runs_match_step_loops_at_the_paper_operating_point():
    # 200 Hz at dt = 1e-5: each crossing lands on a step boundary
    duration, dt = 0.1, 1e-5
    drive = weighted_drive(100.0, 12, duration)
    for exc, inh in ((None, None), (drive, None), (None, drive)):
        assert_runs_match_step_loops(NeuronParams(), SynapseParams(),
                                        duration, dt, exc, inh)


def test_runs_match_step_loops_on_random_cases():
    rng = np.random.default_rng(20221)
    for trial in range(12):
        dt = (1e-5, 4e-5, 2.5e-4, 1e-3)[trial % 4]
        duration = min(float(rng.uniform(0.05, 1.0)), 2500 * dt)
        r_base = float(rng.uniform(20.0, 400.0))
        r_exc = float(rng.uniform(0.0, 2000.0))
        # every third trial, exc and inh high together cancel exactly
        r_inh = r_base + r_exc if trial % 3 == 0 else float(rng.uniform(0.0, 3000.0))
        nparams = NeuronParams(v_th=float(rng.uniform(0.1, 1.0)), r_base=r_base,
                               r_exc=r_exc, r_inh=r_inh)
        f_max = float(rng.uniform(50.0, 0.45 / dt))
        sparams = SynapseParams(
            delta_up=1.0 if trial % 3 == 1 else float(rng.uniform(0.02, 1.0)),
            tau_leak=float(rng.uniform(2e-3, 0.2)),
            v_osc=0.0 if trial % 3 == 2 else float(rng.uniform(0.0, 0.9)),
            f_min=float(rng.uniform(1.0, f_max)), f_max=f_max)
        # overlapping trains put exc and inh high together
        exc = periodic_train(float(rng.uniform(20.0, 200.0)), 2e-3, duration)
        inh = periodic_train(float(rng.uniform(20.0, 200.0)), 2e-3, duration,
                             start=float(rng.uniform(0.0, 5e-3)))
        # a spike at step 0, and spikes before 0 and at or after duration
        spike_times = np.concatenate([
            [0.0, -dt, duration],
            np.sort(rng.uniform(-0.01, duration + 0.01, rng.integers(0, 100)))])
        assert_runs_match_step_loops(nparams, sparams, duration, dt, exc,
                                        inh, spike_times)


def test_runs_match_step_loops_across_stretches_longer_than_a_window():
    # At dt = 1 ms and f_min = 15 Hz an active ring wraps within 68 steps.
    dt, duration = 1e-3, 3.0
    window = math.ceil(1.0 / (15.0 * dt)) + 1
    sparams = SynapseParams(delta_up=0.3, tau_leak=0.02, v_osc=0.25,
                            f_min=15.0, f_max=400.0)
    # A spike every 0.1 s lifts v_syn above onset for about 3 steps, so the
    # phase creeps forward over many windows before it wraps.
    spike_times = np.arange(0.0, duration, 0.1)
    inh = periodic_train(1.0, 0.6, duration, start=0.2)  # long clamp at 0
    nparams = NeuronParams(r_inh=5000.0)
    v_mem, (edges, _, freq) = assert_runs_match_step_loops(
        nparams, sparams, duration, dt, inh=inh, spike_times=spike_times)

    assert np.count_nonzero(v_mem == 0.0) > window
    active = np.flatnonzero(freq > 0)
    assert np.diff(active).max() > window  # a silent stretch
    first_edge_step = int(edges[0] / dt)
    assert np.count_nonzero(active <= first_edge_step) > 1
    assert first_edge_step > 2 * window  # a non-wrapping stretch


def test_runs_match_step_loops_on_a_run_of_zero_steps():
    dt = 1e-5
    assert_runs_match_step_loops(NeuronParams(), SynapseParams(), 0.4 * dt,
                                    dt, spike_times=[0.0])


def test_run_synapse_wraps_when_the_phase_reaches_one_exactly():
    # at rest with v_osc = 0 the ring runs at f_min; f*dt = 256 * 2**-10 is
    # exactly 0.25, so every fourth step ends with the phase at 1.0
    dt = 2.0 ** -10
    params = SynapseParams(v_osc=0.0, f_min=256.0, f_max=300.0)
    edges, _ = run_synapse(params, [], 100 * dt, dt)
    assert np.array_equal(edges, step_synapse(params, [False] * 100, dt)[0])
    assert len(edges) == 25


def test_scipy_loads_on_the_first_fit_not_on_import():
    # a fresh interpreter: this one has loaded SciPy through other tests
    script = """
import sys
import tdsnn, tdsnn.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
tdsnn.calibrate(sim_duration=1.0)
assert "scipy.optimize" in sys.modules
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
