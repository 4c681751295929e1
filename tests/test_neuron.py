import numpy as np
import pytest

from tdsnn import (NeuronParams, NeuronState, free_run_period, neuron_step,
                   periodic_train)
from tdsnn.measure import run_neuron, weighted_drive


def reference_integrator(duration, dt, exc_levels, inh_levels, v_th=0.5,
                         r_base=100.0, r_exc=200.0, r_inh=750.0):
    """Plain Euler oracle, written independently of neuron_step."""
    n = int(round(duration / dt))
    v = 0.0
    count = 0
    for k in range(n):
        rate = r_base
        if exc_levels is not None and exc_levels[k]:
            rate += r_exc
        if inh_levels is not None and inh_levels[k]:
            rate -= r_inh
        v = v + rate * dt
        if v < 0.0:
            v = 0.0
        if v >= v_th:
            v = 0.0
            count += 1
    return count


def test_first_fire_at_5ms():
    # v_th=0.5, r_base=100 -> period 5 ms, about 20 spikes per 100 ms
    spikes, _ = run_neuron(NeuronParams(), 0.1, 1e-5)
    assert abs(spikes[0] - 0.005) <= 1e-5
    assert len(spikes) == 20


def test_zero_rate_pulses_are_noops():
    params = NeuronParams(r_exc=0.0, r_inh=0.0)
    a = NeuronState()
    b = NeuronState()
    for _ in range(1000):
        a, fa = neuron_step(a, params, False, False, 1e-5)
        b, fb = neuron_step(b, params, True, True, 1e-5)
        assert fa == fb
        assert a.v_mem == b.v_mem


def test_fires_when_step_crosses_threshold():
    params = NeuronParams()
    state = NeuronState(v_mem=0.49)
    state, fired = neuron_step(state, params, False, False, 1e-3)
    assert fired
    # the reset keeps the overshoot: 0.49 + 100 * 1e-3 - 0.5
    assert state.v_mem == pytest.approx(0.09)
    assert state.last_spike_time == pytest.approx(1e-3)


def test_spike_count_matches_fine_step_oracle():
    # 100 Hz excitatory pulses, width 650 us (code 12)
    duration = 1.0
    train = weighted_drive(100.0, 12, duration)
    params = NeuronParams()

    fine_dt = 1e-6
    fine_levels = train.step_levels(fine_dt, int(round(duration / fine_dt)))
    expected = reference_integrator(duration, fine_dt, fine_levels, None)

    spikes, _ = run_neuron(params, duration, 1e-5, exc_train=train)
    assert abs(len(spikes) - expected) <= 1


def test_free_run_period_closed_form():
    assert free_run_period(NeuronParams()) == pytest.approx(5e-3)
    # Table-style 230 Hz operating point
    p230 = NeuronParams(r_base=115.0)
    assert 1.0 / free_run_period(p230) == pytest.approx(230.0)


def test_free_run_period_matches_simulation():
    params = NeuronParams(r_base=137.0)
    dt = 1e-6
    spikes, _ = run_neuron(params, 0.05, dt)
    measured = np.diff(spikes).mean()
    assert abs(measured - free_run_period(params)) <= 2 * dt


def test_rate_monotone_in_pulse_width():
    # wider excitatory pulses -> nondecreasing count; inhibitory -> nonincreasing
    counts_exc, counts_inh = [], []
    for code in (0, 5, 10, 15):
        train = weighted_drive(100.0, code, 1.0)
        se, _ = run_neuron(NeuronParams(), 1.0, 1e-5, exc_train=train)
        si, _ = run_neuron(NeuronParams(), 1.0, 1e-5, inh_train=train)
        counts_exc.append(len(se))
        counts_inh.append(len(si))
    assert all(b >= a for a, b in zip(counts_exc, counts_exc[1:]))
    assert all(b <= a for a, b in zip(counts_inh, counts_inh[1:]))


def test_rate_ordering_inh_none_exc():
    train = weighted_drive(100.0, 12, 1.0)
    s_inh, _ = run_neuron(NeuronParams(), 1.0, 1e-5, inh_train=train)
    s_non, _ = run_neuron(NeuronParams(), 1.0, 1e-5)
    s_exc, _ = run_neuron(NeuronParams(), 1.0, 1e-5, exc_train=train)
    assert len(s_inh) < len(s_non) < len(s_exc)


def test_membrane_stays_clamped():
    # strong inhibition drives v_mem toward 0 but never below
    params = NeuronParams(r_inh=5000.0)
    train = periodic_train(100.0, 5e-3, 0.5)
    _, (times, vs) = run_neuron(params, 0.5, 1e-5, inh_train=train, record=True)
    assert vs.min() >= 0.0
    assert vs.max() <= params.v_th


def test_dt_refinement_changes_count_by_at_most_one():
    s10, _ = run_neuron(NeuronParams(), 1.0, 1e-5)
    s5, _ = run_neuron(NeuronParams(), 1.0, 5e-6)
    assert abs(len(s10) - len(s5)) <= 1


def test_determinism():
    train = weighted_drive(100.0, 7, 0.3)
    a, _ = run_neuron(NeuronParams(), 0.3, 1e-5, exc_train=train)
    b, _ = run_neuron(NeuronParams(), 0.3, 1e-5, exc_train=train)
    assert np.array_equal(a, b)


def test_invalid_dt_rejected():
    with pytest.raises(ValueError):
        neuron_step(NeuronState(), NeuronParams(), False, False, 0.0)
    with pytest.raises(ValueError):
        neuron_step(NeuronState(), NeuronParams(), False, False, -1e-5)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        NeuronParams(v_th=0.0)
    with pytest.raises(ValueError):
        NeuronParams(r_base=0.0)
    with pytest.raises(ValueError):
        NeuronParams(r_exc=-1.0)


def test_run_neuron_rejects_bad_dt_and_duration():
    for dt in (0.0, -1e-5, float("nan")):
        with pytest.raises(ValueError, match="dt must be positive"):
            run_neuron(NeuronParams(), 0.1, dt)
    for duration in (0.0, -0.1):
        with pytest.raises(ValueError, match="duration must be positive"):
            run_neuron(NeuronParams(), duration, 1e-5)
