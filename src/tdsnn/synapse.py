"""Behavioral model of the ring-oscillator synapse.

Each presynaptic spike dumps charge onto the oscillator supply node V_SYN,
which otherwise leaks exponentially toward zero. Above an onset voltage the
ring oscillates; its frequency is a linear function of V_SYN between the
onset and saturation levels. Only rising-edge timing matters downstream, so
the three-inverter ring is reduced to a phase accumulator.

synapse_step(v_syn, phase, params, spike_in, dt) -> (v_syn, phase, edges)
is the per-step reference, a plain function of the supply voltage and the
phase. run_synapse takes the same steps, bit for bit, event by event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pulses import check_duration


@dataclass(frozen=True)
class SynapseParams:
    """Charge/leak dynamics of V_SYN and the frequency map of the ring.

    delta_up: per-spike charge injection as a fraction of the remaining
        headroom, v_syn += delta_up * (v_max - v_syn). Saturating by
        construction, so v_syn never exceeds v_max.
    tau_leak: exponential leak time constant toward zero (s).
    v_osc: oscillation onset voltage (normalized).
    v_max: saturation level of v_syn (normalized).
    f_min, f_max: ring frequency at onset and at saturation (Hz).
    """

    delta_up: float = 0.08
    tau_leak: float = 0.05
    v_osc: float = 0.2
    v_max: float = 1.0
    f_min: float = 15.0
    f_max: float = 200.0

    def __post_init__(self):
        if not 0 < self.delta_up <= 1:
            raise ValueError("delta_up must be in (0, 1]")
        if not self.tau_leak > 0:
            raise ValueError("tau_leak must be positive")
        if not 0 <= self.v_osc < self.v_max:
            raise ValueError("need 0 <= v_osc < v_max")
        if not 0 < self.f_min <= self.f_max:
            raise ValueError("need 0 < f_min <= f_max")


def osc_frequency(v_syn, params: SynapseParams, out=None):
    """Ring frequency for a supply voltage: 0 below onset, else linear.

    Accepts scalars or arrays. The active branch is clamped to
    [f_min, f_max]. An array result is written to out if given, which may
    be v_syn itself; no other float array of its size is allocated.
    """
    v = np.asarray(v_syn, dtype=float)
    below = v < params.v_osc
    f = np.subtract(v, params.v_osc, out=np.empty(v.shape) if out is None else out)
    f *= params.f_max - params.f_min
    f /= params.v_max - params.v_osc
    f += params.f_min
    np.clip(f, params.f_min, params.f_max, out=f)
    f[below] = 0.0
    if np.ndim(v_syn) == 0:
        return float(f)
    return f


def check_dt(params: SynapseParams, dt: float) -> None:
    """Reject a step that is not positive or undersamples the ring."""
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    if dt * params.f_max >= 0.5:
        raise ConfigurationError(
            f"dt={dt:g} undersamples the oscillator (need dt*f_max < 0.5, "
            f"got {dt * params.f_max:g})")


def synapse_step(v_syn: float, phase: float, params: SynapseParams,
                 spike_in: bool, dt: float) -> tuple[float, float, list[float]]:
    """Advance the synapse at (v_syn, phase) by one step of length dt.

    An input spike charges v_syn before the leak is applied. The phase
    accumulator advances at the current ring frequency; each wrap emits one
    rising edge, reported as an offset within the step. dt must resolve the
    fastest oscillation (dt * f_max < 0.5), which also guarantees at most
    one edge per step. Returns the new v_syn, the new phase and the edges.
    """
    check_dt(params, dt)
    v = v_syn
    if spike_in:
        v = v + params.delta_up * (params.v_max - v)
    v *= math.exp(-dt / params.tau_leak)
    f = osc_frequency(v, params)
    wrapped = phase + f * dt
    if wrapped >= 1.0:
        return v, wrapped - 1.0, [(1.0 - phase) / f]
    return v, wrapped, []


def phase_wraps(phase: float, inc, window: int):
    """Fold a phase accumulator through per-step increments, wrapping at 1.

    Each step adds inc[k] (>= 0) to the phase; a step that brings it to 1
    wraps it, keeping the excess. The sums run by np.add.accumulate over
    up to window steps at a time, in the order a step-by-step loop would
    add them. A chunk ends two steps past where the phase would wrap at
    0.8 times the increment at its start; when no wrap falls inside, the
    next chunk goes on. Chunks do not change the sums. Returns (wrap
    steps, the phase entering each wrap step, the phase after the last
    step).
    """
    n = len(inc)
    steps, entering = [], []
    k = 0
    while k < n:
        m = min(window, n - k)
        reach = 1.25 * (1.0 - phase)
        if reach < (m - 2) * inc[k]:  # the next wrap is near: fold up to it
            m = int(reach / inc[k]) + 2
        acc = np.empty(m + 1)
        acc[0] = phase
        acc[1:] = inc[k:k + m]
        np.add.accumulate(acc, out=acc)
        hit = np.flatnonzero(acc[1:] >= 1.0)
        if hit.size:
            j = int(hit[0])  # step k + j wraps
            steps.append(k + j)
            entering.append(acc[j])
            phase = float(acc[j + 1]) - 1.0
            k += j + 1
        else:
            phase = float(acc[m])
            k += m
    return np.array(steps, dtype=int), np.array(entering, dtype=float), phase


def run_synapse(params: SynapseParams, spike_times, duration: float, dt: float,
                record: bool = False):
    """Run synapse_step from rest, charged by the given presynaptic spike
    times, event by event.

    A spike landing in [k*dt, (k+1)*dt) charges the synapse during step k,
    and spikes outside [0, duration) are dropped. The result is
    bit-identical to looping v_syn, phase, edges = synapse_step(v_syn,
    phase, params, spike_in[k], dt), but the Python loop runs
    once per event (a spike, a ring wrap or a silent stretch). Between
    spikes v_syn is the running product v*decay*decay*..., folded in order
    by np.multiply.accumulate; the ring phase is folded by phase_wraps (a
    silent step adds 0). Returns (edge_times, trace) with trace = (times,
    v_syn, freq) when record=True, each holding the value before the first
    step and after each step, else None.
    """
    check_dt(params, dt)
    check_duration(duration)
    n = int(round(duration / dt))
    idx = np.floor(np.asarray(spike_times, dtype=float) / dt).astype(int)
    decay = math.exp(-dt / params.tau_leak)
    v = np.full(n + 1, decay)
    v[0] = 0.0
    start = 0  # v[start] holds the value entering step start
    for s in np.unique(idx[(idx >= 0) & (idx < n)]).tolist():
        np.multiply.accumulate(v[start:s + 1], out=v[start:s + 1])
        pre = float(v[s])
        v[s + 1] = (pre + params.delta_up * (params.v_max - pre)) * decay
        start = s + 1
    np.multiply.accumulate(v[start:], out=v[start:])

    f = osc_frequency(v[1:], params)
    # Every active step adds at least f_min*dt, so a window of this many
    # steps wraps unless it holds silent ones; then the next window goes on.
    window = math.ceil(1.0 / (params.f_min * dt)) + 1
    steps, entering, _ = phase_wraps(0.0, f * dt, window)
    edges = steps * dt + (1.0 - entering) / f[steps]
    trace = (np.arange(n + 1) * dt, v, np.concatenate(([0.0], f))) if record else None
    return edges, trace


def steady_state_v(spike_rate: float, params: SynapseParams) -> float:
    """Fixed point of the per-interval charge/leak map (pre-spike value).

    Under constant input rate the voltage cycles between a pre-spike minimum
    and a post-spike peak; this returns the minimum.
    """
    if not spike_rate >= 0:
        raise ValueError("spike_rate must be nonnegative")
    if not math.isfinite(spike_rate):
        raise ValueError("spike_rate must be finite")
    if spike_rate == 0:
        return 0.0
    e = math.exp(-1.0 / (spike_rate * params.tau_leak))
    return params.delta_up * params.v_max * e / (1.0 - (1.0 - params.delta_up) * e)


def steady_state_frequency(spike_rate: float, params: SynapseParams) -> float:
    """Mean ring frequency under a constant presynaptic spike rate.

    Averages the instantaneous frequency over one steady-state cycle of
    v_syn (post-spike peak decaying to the pre-spike minimum), including the
    frozen-phase fraction where v_syn sits below onset. Matches the long-run
    edge rate of a step simulation.
    """
    v_pre = steady_state_v(spike_rate, params)  # checks spike_rate
    if spike_rate == 0:
        return 0.0
    period = 1.0 / spike_rate
    v_post = v_pre + params.delta_up * (params.v_max - v_pre)
    if v_post <= params.v_osc:
        return 0.0
    tau = params.tau_leak
    if params.v_osc <= 0 or v_pre >= params.v_osc:
        t_active = period
    else:
        t_active = min(period, tau * math.log(v_post / params.v_osc))
    # integral of v over the active part of the cycle
    int_v = v_post * tau * (1.0 - math.exp(-t_active / tau))
    slope = (params.f_max - params.f_min) / (params.v_max - params.v_osc)
    mean_f = (t_active * params.f_min + slope * (int_v - params.v_osc * t_active)) / period
    return mean_f
