import math

import numpy as np
import pytest

from tdsnn import (ConfigurationError, SynapseParams, osc_frequency,
                   steady_state_frequency, steady_state_v, synapse_step)
from tdsnn.measure import run_synapse
from tdsnn.synapse import phase_wraps


def fixed_point_oracle(rate, params, iters=10_000):
    """Iterate the per-interval charge/leak map to convergence (test oracle)."""
    e = math.exp(-1.0 / (rate * params.tau_leak))
    v = 0.0
    for _ in range(iters):
        v = (v + params.delta_up * (params.v_max - v)) * e
    return v


def test_rest_state_is_fixed_point():
    params = SynapseParams()
    v, phase = 0.0, 0.0
    for _ in range(1000):
        v, phase, edges = synapse_step(v, phase, params, False, 1e-5)
        assert v == 0.0
        assert edges == []


def test_oscillation_begins_once_onset_is_crossed():
    params = SynapseParams(delta_up=0.5, v_osc=0.2)
    v, phase, _ = synapse_step(0.19, 0.0, params, True, 1e-5)
    assert v > params.v_osc
    # below onset the phase is frozen; above it, edges eventually appear
    edges = []
    for k in range(200_000):
        v, phase, e = synapse_step(v, phase, params, False, 1e-5)
        edges.extend(e)
        if edges:
            break
    assert edges, "oscillator never produced an edge after crossing onset"


def test_osc_frequency_endpoints_and_midpoint():
    params = SynapseParams()
    assert osc_frequency(params.v_osc, params) == pytest.approx(15.0)
    assert osc_frequency(params.v_max, params) == pytest.approx(200.0)
    assert osc_frequency(0.0, params) == 0.0
    mid = 0.5 * (params.v_osc + params.v_max)
    assert osc_frequency(mid, params) == pytest.approx(107.5)


def test_osc_frequency_monotone_and_range():
    params = SynapseParams()
    vs = np.linspace(0.0, 1.0, 201)
    fs = osc_frequency(vs, params)
    assert np.all(np.diff(fs) >= 0)
    active = fs[vs >= params.v_osc]
    assert np.all((active >= params.f_min) & (active <= params.f_max))
    assert np.all(fs[vs < params.v_osc] == 0.0)


def test_steady_state_v_matches_fixed_point_iteration():
    params = SynapseParams()
    for rate in (50.0, 100.0, 200.0, 400.0):
        assert steady_state_v(rate, params) == pytest.approx(
            fixed_point_oracle(rate, params), rel=1e-9)


def test_simulated_presyn_v_matches_fixed_point_within_1pct():
    params = SynapseParams()
    rate = 200.0
    dt = 1e-5
    duration = 2.0
    spikes = np.arange(0.0, duration, 1.0 / rate)
    _, (times, vs, _) = run_synapse(params, spikes, duration, dt, record=True)
    # the cycle minimum sits right before each charge step (floor binning,
    # same convention as run_synapse)
    idx = np.floor(spikes[-100:] / dt).astype(int)
    pre_vals = vs[idx]
    oracle = fixed_point_oracle(rate, params)
    assert np.allclose(pre_vals, oracle, rtol=0.01)


def test_steady_state_frequency_matches_long_simulation():
    params = SynapseParams()
    dt = 1e-5
    duration = 10.0
    for rate in (120.0, 200.0, 300.0):
        spikes = np.arange(0.0, duration, 1.0 / rate)
        edges, _ = run_synapse(params, spikes, duration, dt)
        measured = len(edges) / duration
        assert measured == pytest.approx(steady_state_frequency(rate, params),
                                         rel=0.02)


def test_steady_state_frequency_zero_and_monotone():
    params = SynapseParams()
    assert steady_state_frequency(0.0, params) == 0.0
    rates = np.linspace(0.0, 500.0, 26)
    fs = [steady_state_frequency(r, params) for r in rates]
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))


def test_v_syn_decays_monotonically_and_stays_bounded():
    params = SynapseParams()
    v, phase = 0.9, 0.0
    for _ in range(10_000):
        prev = v
        v, phase, _ = synapse_step(v, phase, params, False, 1e-5)
        assert v < prev
    # with a spike every step v_syn approaches but never exceeds v_max
    v, phase = 0.0, 0.0
    for _ in range(10_000):
        v, phase, _ = synapse_step(v, phase, params, True, 1e-5)
        assert v <= params.v_max


def test_edge_count_at_constant_voltage():
    # effectively frozen leak holds v_syn constant over the window
    params = SynapseParams(tau_leak=1e9)
    v = 0.7
    window = 1.0
    dt = 1e-5
    v_syn, phase = v, 0.0
    edges = 0
    for _ in range(int(window / dt)):
        v_syn, phase, e = synapse_step(v_syn, phase, params, False, dt)
        edges += len(e)
    f = osc_frequency(v, params)
    assert abs(edges - round(f * window)) <= 1


def test_determinism():
    params = SynapseParams()
    rng = np.random.default_rng(3)
    spike_flags = rng.random(20_000) < 0.002
    results = []
    for _ in range(2):
        v, phase = 0.0, 0.0
        vs, edge_count = [], 0
        for flag in spike_flags:
            v, phase, e = synapse_step(v, phase, params, bool(flag), 1e-5)
            vs.append(v)
            edge_count += len(e)
        results.append((vs, edge_count))
    assert results[0] == results[1]


def test_phase_wraps_is_the_same_for_any_window():
    # Each chunk ends near the next wrap or at the window, whichever comes
    # first, and every window must give a step-by-step loop's result.
    rng = np.random.default_rng(5)
    inc = rng.uniform(0.0, 0.03, 6000)
    inc[rng.random(6000) < 0.3] = 0.0  # silent steps
    inc[1000:1800] = 0.0  # a silent stretch longer than 7 steps
    inc[3000:3200] *= 30  # a wrap every few steps, from falling and rising rates
    phase, steps, entering = 0.25, [], []
    for k, step in enumerate(inc.tolist()):
        if phase + step >= 1.0:
            steps.append(k)
            entering.append(phase)
            phase = phase + step - 1.0
        else:
            phase += step
    assert len(steps) > 100
    for window in (1, 7, len(inc)):
        got_steps, got_entering, got_phase = phase_wraps(0.25, inc, window)
        assert got_steps.tolist() == steps
        assert got_entering.tolist() == entering
        assert got_phase == phase


def test_undersampled_oscillator_rejected():
    params = SynapseParams(f_max=20_000.0)
    with pytest.raises(ConfigurationError):
        synapse_step(0.0, 0.0, params, False, 5e-5)  # dt*f_max = 1.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        SynapseParams(delta_up=0.0)
    with pytest.raises(ValueError):
        SynapseParams(tau_leak=-1.0)
    with pytest.raises(ValueError):
        SynapseParams(v_osc=1.0, v_max=1.0)
    with pytest.raises(ValueError):
        SynapseParams(f_min=0.0)
    with pytest.raises(ValueError):
        SynapseParams(f_min=300.0, f_max=200.0)


def test_run_synapse_validates_before_running():
    params = SynapseParams()
    for dt in (0.0, -1e-5):
        with pytest.raises(ValueError, match="dt must be positive"):
            run_synapse(params, [0.0], 0.1, dt)
    with pytest.raises(ValueError, match="duration must be positive"):
        run_synapse(params, [0.0], 0.0, 1e-5)
    # rejected even when duration/dt rounds to zero steps
    with pytest.raises(ConfigurationError):
        run_synapse(params, [], 0.001, 0.01)
