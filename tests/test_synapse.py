import math

import numpy as np
import pytest

from tdsnn import (ConfigurationError, SynapseParams, osc_frequency,
                   steady_state_frequency, steady_state_v, synapse_step)
from tdsnn.measure import run_synapse
from tdsnn.synapse import _steady_states, phase_wraps


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
    # the cycle minimum sits right before each charge step, the step
    # [k*dt, (k+1)*dt) that holds the spike
    idx = np.searchsorted(times, spikes[-100:], "right") - 1
    pre_vals = vs[idx]
    oracle = fixed_point_oracle(rate, params)
    assert np.allclose(pre_vals, oracle, rtol=0.01)


def test_a_spike_on_a_step_end_charges_the_next_step():
    # A spike at (k + 1) * dt, as run_neuron dates one, lies in step k + 1,
    # [(k + 1) * dt, (k + 2) * dt), and charges the synapse there. For some
    # k, (k + 1) * dt / dt rounds below k + 1, so floor(t / dt) puts the
    # spike in step k.
    params = SynapseParams()
    dt, n = 1e-5, 2100
    spikes = (np.arange(2000) + 1) * dt
    assert (np.floor(spikes / dt) < np.arange(1, 2001)).any()
    _, (_, v, _) = run_synapse(params, spikes, n * dt, dt, record=True)
    decay = math.exp(-dt / params.tau_leak)
    expected = [0.0]
    for step in range(n):
        pre = expected[-1]
        if 1 <= step <= 2000:
            pre += params.delta_up * (params.v_max - pre)
        expected.append(pre * decay)
    assert v.tolist() == expected


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


def steady_state_oracle(rate, params):
    """(v_pre, mean_f) by the branch-per-case scalar formula (test oracle)."""
    if rate == 0:
        return 0.0, 0.0
    d, tau, c, v_max = params.delta_up, params.tau_leak, params.v_osc, params.v_max
    e = math.exp(-1.0 / (rate * tau))
    v_pre = d * v_max * e / (1.0 - (1.0 - d) * e)
    v_post = v_pre + d * (v_max - v_pre)
    if v_post <= c:
        return v_pre, 0.0
    if c <= 0 or v_pre >= c:
        t_active = 1.0 / rate
    else:
        t_active = min(1.0 / rate, tau * math.log(v_post / c))
    int_v = v_post * tau * (1.0 - math.exp(-t_active / tau))
    slope = (params.f_max - params.f_min) / (v_max - c)
    return v_pre, (t_active * params.f_min + slope * (int_v - c * t_active)) * rate


def test_steady_state_array_form_equals_the_scalar_calls():
    base = SynapseParams()
    rates = [0.0, 5.0, 41.0, 114.0, 200.0, 226.0, 1000.0]
    rows = [(0.08, 0.05, 0.2), (0.43, 0.02, 0.47), (1e-3, 1e-4, 0.9),
            (0.5, 0.05, 0.0), (1.0, 2.0, 0.95), (0.9, 1.0, 0.05)]
    v_pre, mean_f = _steady_states(rates, rows, base)
    v_post = v_pre + np.array(rows)[:, :1] * (base.v_max - v_pre)
    v_osc = np.array(rows)[:, 2:]
    # the grid reaches every branch: silent, frozen part of the cycle,
    # onset at zero and active all cycle
    assert (v_post <= v_osc).any() and (v_osc == 0).any()
    assert ((v_pre < v_osc) & (v_post > v_osc)).any()
    assert ((v_pre >= v_osc) & (v_osc > 0)).any()
    for i, (d, tau, c) in enumerate(rows):
        params = SynapseParams(delta_up=d, tau_leak=tau, v_osc=c)
        for j, rate in enumerate(rates):
            assert v_pre[i, j] == steady_state_v(rate, params)
            assert mean_f[i, j] == steady_state_frequency(rate, params)
            assert (v_pre[i, j], mean_f[i, j]) == pytest.approx(
                steady_state_oracle(rate, params), rel=1e-12, abs=1e-300)
    assert (v_pre[:, 0] == 0).all() and (mean_f[:, 0] == 0).all()
    assert steady_state_v(-0.0, base) == 0.0 == steady_state_frequency(-0.0, base)


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


def fold_steps(phase, inc, top):
    """phase_wraps as a step loop, written like neuron_step: (firing steps,
    the sum entering each, the final sum, the sum after each step)."""
    steps, entering, trace = [], [], []
    for k, step in enumerate(inc.tolist()):
        total = max(phase + step, 0.0)
        if total >= top:
            steps.append(k)
            entering.append(phase)
            total -= top
        phase = total
        trace.append(phase)
    return steps, entering, phase, trace


def test_phase_wraps_is_the_same_for_any_window():
    # Each chunk ends near the next event or at the window, whichever comes
    # first, and every window must give a step-by-step loop's result.
    rng = np.random.default_rng(5)
    ring = rng.uniform(0.0, 0.03, 6000)
    ring[rng.random(6000) < 0.3] = 0.0  # silent steps
    ring[1000:1800] = 0.0  # a silent stretch longer than 7 steps
    ring[3000:3200] *= 30  # a wrap every few steps, from falling and rising rates
    # A membrane's increments: stretches of rising ones, of falling ones
    # that clamp at 0, and of 0 and falling ones that hold the clamp.
    membrane = np.repeat(rng.choice([0.004, 0.011, -0.019, -0.006], 400,
                                    p=[0.5, 0.25, 0.125, 0.125]),
                         rng.integers(1, 30, 400))
    membrane[2000:2100] = -0.01
    membrane[2100:2150] = 0.0
    membrane[2150:2200] = rng.choice([0.0, -0.02], 50)
    above = rng.uniform(0.5, 0.9, 300)  # from a start above top
    above[100:140] = rng.uniform(1.2, 2.0, 40)  # increments above top
    above[200:230] = -1.5  # falling, from far above top, to a clamp
    cases = [(0.25, ring, 1.0, 100), (0.0, membrane, 0.37, 40),
             (3.7, above, 0.8, 100)]
    for phase, inc, top, n_fired in cases:
        steps, entering, final, trace = fold_steps(phase, inc, top)
        assert len(steps) > n_fired
        if inc.min() < 0:
            assert trace.count(0.0) > 10  # clamps
        for window in (1, 7, len(inc)):
            got_trace = np.full(len(inc), np.nan)
            got_steps, got_entering, got_phase = phase_wraps(phase, inc, window,
                                                             top, got_trace)
            assert got_steps.tolist() == steps
            assert got_entering.tolist() == entering
            assert got_phase == final
            assert got_trace.tolist() == trace


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
