"""Behavioral model of the time-domain leaky integrate-and-fire neuron.

The membrane integrates a net charging rate that is modulated by excitatory
and inhibitory input pulses. Crossing the threshold fires the neuron and
lowers the membrane by v_th at the crossing instant, so the charge that
arrives later in the same step is kept; the positive-feedback rush of the
real circuit is treated as instantaneous.

Dynamics are piecewise linear in time: the transistor leakage balance is
lumped into constant rates, and the membrane capacitor is absorbed into
them. Voltages are normalized to a 1.0 supply.

neuron_step(v, params, exc_high, inh_high, dt) -> (v, fired) is the
per-step reference, a plain function of the membrane voltage. run_neuron
takes the same steps, bit for bit, event by event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulses import PulseTrain, check_duration


@dataclass(frozen=True)
class NeuronParams:
    """Behavioral rates and threshold of one neuron.

    v_th: firing threshold of the inverter-based comparator (normalized V).
    r_base: net baseline charging rate with no input (V/s); sets the
        free-run rate v_th/r_base. Default gives 200 Hz free-run.
    r_exc: extra charging rate while an excitatory pulse is high (V/s).
    r_inh: discharging rate while an inhibitory pulse is high (V/s).
    """

    v_th: float = 0.5
    r_base: float = 100.0
    r_exc: float = 200.0
    r_inh: float = 750.0

    def __post_init__(self):
        if not self.v_th > 0:
            raise ValueError("v_th must be positive")
        if not self.r_base > 0:
            raise ValueError("r_base must be positive (the free neuron must fire)")
        if not (self.r_exc >= 0 and self.r_inh >= 0):
            raise ValueError("r_exc and r_inh must be nonnegative")


def neuron_step(v: float, params: NeuronParams, exc_high: bool, inh_high: bool,
                dt: float) -> tuple[float, bool]:
    """Advance a membrane at v by one step of length dt.

    The membrane ramps at the net rate for the whole step, clamped at zero
    from below. Reaching v_th fires the neuron; the reset happens at the
    crossing, so the membrane keeps the overshoot v + rate*dt - v_th that the
    rest of the step adds. Returns the new membrane and the fired flag; a
    caller dates the spike at the step end.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    v = max(v + _net_rate(params, exc_high, inh_high) * dt, 0.0)
    if v >= params.v_th:
        return v - params.v_th, True
    return v, False


def _net_rate(params: NeuronParams, exc_high: bool, inh_high: bool) -> float:
    rate = params.r_base
    if exc_high:
        rate += params.r_exc
    if inh_high:
        rate -= params.r_inh
    return rate


def run_neuron(params: NeuronParams, duration: float, dt: float,
               exc_train: PulseTrain = None, inh_train: PulseTrain = None,
               record: bool = False):
    """Run neuron_step from v = 0 under optional pulse drive, event by event.

    Each train is sampled at the step starts. The result is bit-identical
    to looping v, fired = neuron_step(v, params, exc[k], inh[k], dt), but
    the Python loop runs once per event (a level change or a spike): while
    the levels hold, the membrane is the running sum v + x + x + ... with
    x = rate*dt, which np.add.accumulate folds in the same order, clamped
    at zero when x < 0. Returns
    (spike_times, trace) where trace is (times, v_mem) when record=True,
    else None; v_mem holds the membrane before the first step and after
    each step. Each spike is dated at the end of the step in which the
    membrane crossed the threshold.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    check_duration(duration)
    n = int(round(duration / dt))
    exc, inh = [np.zeros(n, dtype=bool) if train is None else train.step_levels(dt, n)
                for train in (exc_train, inh_train)]
    code = exc + 2 * inh.astype(np.int8)  # indexes xs
    xs = [_net_rate(params, e, i) * dt
          for e, i in ((False, False), (True, False), (False, True), (True, True))]
    v_th = params.v_th
    v = 0.0
    fired = []
    v_mem = np.zeros(n + 1) if record else None
    starts = np.flatnonzero(np.diff(code, prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [n]):
        x = xs[code[a]]
        k = a
        while k < b:
            # Window: the rest of the stretch, cut where the next crossing
            # must have happened. A window without a crossing just repeats.
            m = b - k
            if x > 0:
                steps = (v_th - v) / x
                if steps < m:
                    m = max(1, math.ceil(steps) + 1)
            elif v >= v_th:
                m = 1
            run = np.full(m + 1, x)
            run[0] = v
            np.add.accumulate(run, out=run)
            if x < 0:
                np.maximum(run, 0.0, out=run)
            hit = np.flatnonzero(run[1:] >= v_th)
            if hit.size:
                m = int(hit[0]) + 1
                run[m] -= v_th
                fired.append(k + m)  # the end of the firing step
            if record:
                v_mem[k + 1:k + m + 1] = run[1:m + 1]
            v = float(run[m])
            k += m
    trace = (np.arange(n + 1) * dt, v_mem) if record else None
    return np.array(fired, dtype=np.int64) * dt, trace


def free_run_period(params: NeuronParams) -> float:
    """Closed-form firing period with no input: v_th / r_base.

    The linear ramp crosses v_th once per period and the reset takes no
    time. A fixed-step run dates each crossing at the end of its step, at
    most dt late, and keeps the overshoot, so its mean period converges to
    this value.
    """
    if params.r_base <= 0:
        raise ValueError("r_base must be positive")
    return params.v_th / params.r_base
