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
from .pulses import check_duration, step_search


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


def phase_wraps(phase: float, inc, window: int, top: float = 1.0, trace=None):
    """Fold a running sum through per-step increments, firing at top.

    Each step adds inc[k] to the sum; a sum below 0 is 0, and a step that
    brings it to top fires it, lowering it by top and keeping the excess.
    A ring's phase wraps at top = 1, a membrane fires at top = v_th. The
    sums run by np.add.accumulate over up to window steps at a time, in the
    order a step-by-step loop would add them. A chunk ends two steps past
    where the sum would reach top (or 0, for a falling increment) at 0.8
    times the increment at its start; when nothing happens inside, the
    next chunk goes on. Chunks do not change the sums. trace, if given,
    receives the sum after each step. Returns (firing steps, the sum
    entering each firing step, the sum after the last step).
    """
    n = len(inc)
    floor = n > 0 and inc.min() < 0  # only then can a sum fall below 0
    if floor:  # the steps with an increment above 0, and n past the last
        rises = np.append(np.flatnonzero(inc > 0), n)
    steps, entering = [], []
    k = 0
    while k < n:
        m = min(window, n - k)
        x = float(inc[k])
        reach = 1.25 * max(top - phase if x > 0 else phase, 0.0)
        if x and reach < (m - 2) * abs(x):  # the next event is near: fold up to it
            m = int(reach / abs(x)) + 2
        acc = np.empty(m + 1)
        acc[0] = phase
        acc[1:] = inc[k:k + m]
        np.add.accumulate(acc, out=acc)
        sums = acc[1:]
        # (1-D nonzero()[0] is np.flatnonzero without its microsecond of wrapping)
        hit = ((sums >= top) | (sums < 0) if floor else sums >= top).nonzero()[0]
        if hit.size:
            m = int(hit[0]) + 1  # step k + m - 1 fires or clamps
        phase = float(acc[m])
        if trace is not None:
            trace[k:k + m] = sums[:m]
        k += m
        if hit.size and phase >= top:
            steps.append(k - 1)
            entering.append(acc[m - 1])
            phase -= top
            if trace is not None:
                trace[k - 1] = phase
        elif hit.size:  # a clamp: the sum stays 0 up to the next rise
            phase = 0.0
            end = int(rises[np.searchsorted(rises, k)])
            if trace is not None:
                trace[k - 1:end] = 0.0
            k = end
    return np.array(steps, dtype=int), np.array(entering, dtype=float), phase


def run_synapse(params: SynapseParams, spike_times, duration: float, dt: float,
                record: bool = False):
    """Run synapse_step from rest, charged by the given presynaptic spike
    times, event by event.

    A spike charges the synapse during the step that holds it (see the
    pulses module), and spikes outside [0, duration) are dropped. The result
    is bit-identical to looping v_syn, phase, edges = synapse_step(v_syn,
    phase, params, spike_in[k], dt), but the Python loop runs once per event
    (a spike, a ring wrap or a silent stretch). Between spikes v_syn is the
    running product v*decay*decay*..., folded in order by
    np.multiply.accumulate; the ring phase is folded by phase_wraps (a
    silent step adds 0). Returns (edge_times, trace) with trace = (times,
    v_syn, freq) when record=True, each holding the value before the first
    step and after each step, else None.
    """
    check_dt(params, dt)
    check_duration(duration)
    n = int(round(duration / dt))
    idx = step_search(spike_times, dt, "right") - 1
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


def _steady_states(rates, rows, params: SynapseParams):
    """Steady state at each presynaptic rate for each parameter row.

    rows holds (delta_up, tau_leak, v_osc) triples; v_max, f_min and f_max
    come from params. Returns (v_pre, mean_f), each of shape (len(rows),
    len(rates)): the pre-spike minimum of v_syn and the mean ring frequency.
    Rate 0 gives 0 and 0 Hz. The rates are not checked.
    """
    rate = np.asarray(rates, dtype=float)
    d, tau, c = np.asarray(rows, dtype=float).T[:, :, None]
    v_max = params.v_max
    # Rate 0 divides by zero into e = 0 and an infinite period, and v_osc = 0
    # into an infinite onset time; the where()s drop what they leave.
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(-1.0 / (rate * tau))
        v_pre = d * v_max * e / (1.0 - (1.0 - d) * e)
        period = 1.0 / rate
        v_post = v_pre + d * (v_max - v_pre)
        # v_syn spends the part of the cycle above onset active
        t_active = np.where(v_pre >= c, period,
                            np.minimum(period, tau * np.log(v_post / c)))
        # integral of v over the active part of the cycle
        int_v = v_post * tau * (1.0 - np.exp(-t_active / tau))
        slope = (params.f_max - params.f_min) / (v_max - c)
        mean_f = (t_active * params.f_min + slope * (int_v - c * t_active)) / period
    return v_pre, np.where((rate > 0) & (v_post > c), mean_f, 0.0)


def _steady_state(spike_rate: float, params: SynapseParams) -> tuple[float, float]:
    if not spike_rate >= 0:
        raise ValueError("spike_rate must be nonnegative")
    if not math.isfinite(spike_rate):
        raise ValueError("spike_rate must be finite")
    v_pre, mean_f = _steady_states(  # abs() turns -0.0 into 0.0
        [abs(spike_rate)], [(params.delta_up, params.tau_leak, params.v_osc)], params)
    return float(v_pre[0, 0]), float(mean_f[0, 0])


def steady_state_v(spike_rate: float, params: SynapseParams) -> float:
    """Fixed point of the per-interval charge/leak map (pre-spike value).

    Under constant input rate the voltage cycles between a pre-spike minimum
    and a post-spike peak; this returns the minimum.
    """
    return _steady_state(spike_rate, params)[0]


def steady_state_frequency(spike_rate: float, params: SynapseParams) -> float:
    """Mean ring frequency under a constant presynaptic spike rate.

    Averages the instantaneous frequency over one steady-state cycle of
    v_syn (post-spike peak decaying to the pre-spike minimum), including the
    frozen-phase fraction where v_syn sits below onset. Matches the long-run
    edge rate of a step simulation.
    """
    return _steady_state(spike_rate, params)[1]
