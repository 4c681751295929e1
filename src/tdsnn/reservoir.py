"""Reservoir-computing harness over the pulse network.

The reservoir state observed by the readout is the vector of normalized
instantaneous synapse frequencies. A linear readout z = w.r is trained
online with recursive least squares while the target signal is fed back
into the network as excitatory/inhibitory pulse trains (teacher forcing);
after training the loop closes on the network's own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .network import Network, NetworkSim, Recorder, TraceSet
from .synapse import phase_wraps


@dataclass
class RlsState:
    """Readout weights and inverse-correlation matrix."""

    w: np.ndarray
    P: np.ndarray

    @classmethod
    def initial(cls, n: int, alpha: float = 1.0) -> "RlsState":
        """Zero weights, P = I/alpha."""
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        return cls(w=np.zeros(n), P=np.eye(n) / alpha)


def readout(r, w) -> float:
    """Linear readout z = w.r over the normalized state vector."""
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if r.shape != w.shape or r.ndim != 1:
        raise ValueError(f"state/weight length mismatch: {r.shape} vs {w.shape}")
    return float(w @ r)


def rls_update(rls: RlsState, r, z: float, target: float) -> RlsState:
    """One recursive least-squares step against the target.

    e = z - target, k = P r, c = 1/(1 + r.k), P' = P - c k k^T,
    w' = w - c e k. Returns a new state; the inputs are not mutated.
    """
    r = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r)) and np.isfinite(z) and np.isfinite(target)):
        raise ValueError("rls_update received non-finite inputs")
    e = z - target
    k = rls.P @ r
    c = 1.0 / (1.0 + r @ k)
    P = np.outer(k, k)  # P - c k k^T in one temporary, the same bytes: negation is exact
    P *= -c
    P += rls.P
    w = rls.w - c * e * k
    return RlsState(w=w, P=P)


def normalized_state(freqs, f_min: float, f_max: float) -> np.ndarray:
    """Map instantaneous synapse frequencies into [0, 1] readout coordinates.

    Silent synapses (frequency 0, below onset) land at 0 via the clamp.
    """
    f = np.asarray(freqs, dtype=float)
    return np.clip((f - f_min) / (f_max - f_min), 0.0, 1.0)


@dataclass(frozen=True)
class FeedbackParams:
    """Output-to-pulse-train conversion.

    gain: pulse rate per unit output amplitude (Hz).
    f_fb_max: cap on either feedback pulse rate (Hz).
    pulse_width: width of each feedback pulse (s).
    """

    gain: float = 200.0
    f_fb_max: float = 200.0
    pulse_width: float = 200e-6

    def __post_init__(self):
        if not (self.gain > 0 and self.f_fb_max > 0 and self.pulse_width > 0):
            raise ValueError("feedback gain, cap, and pulse width must be positive")
        for name in ("gain", "f_fb_max", "pulse_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"feedback {name} must be finite")


def encode_feedback(z, params: FeedbackParams):
    """Split the output into excitatory/inhibitory pulse rates.

    Positive output drives the excitatory channel, negative the inhibitory
    one, each at gain*|z| capped at f_fb_max; at most one is nonzero.
    Returns two arrays of z's shape.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("feedback input must be finite")
    f_exc = np.minimum(params.gain * np.maximum(z, 0.0), params.f_fb_max)
    f_inh = np.minimum(params.gain * np.maximum(-z, 0.0), params.f_fb_max)
    return f_exc, f_inh


@dataclass(frozen=True)
class TargetSpec:
    """Supervisory signal: the sine amplitude * sin(2 pi frequency t)."""

    frequency: float = 10.0
    amplitude: float = 0.8

    def __post_init__(self):
        if not self.frequency > 0:
            raise ConfigurationError("target frequency must be positive")
        if not math.isfinite(self.frequency):
            raise ConfigurationError("target frequency must be finite")
        if not abs(self.amplitude) > 0:
            raise ConfigurationError("target amplitude must not be 0 (a constant target)")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError("target amplitude must be finite")

    def value(self, t):
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)


@dataclass
class TrainConfig:
    target: TargetSpec = field(default_factory=TargetSpec)
    train_periods: int = 5
    eval_periods: int = 2
    learn_interval: float = 1e-3
    rls_init_alpha: float = 1.0
    frequency_range: tuple = (15.0, 200.0)
    teacher_forcing: bool = True

    def __post_init__(self):
        if not self.train_periods >= 0:
            raise ConfigurationError("train_periods must be >= 0")
        if not self.eval_periods >= 0:
            raise ConfigurationError("eval_periods must be >= 0")
        if not self.train_periods + self.eval_periods >= 1:
            raise ConfigurationError("must run at least one period")
        if not self.learn_interval > 0:
            raise ConfigurationError("learn_interval must be positive")
        if not self.rls_init_alpha > 0:
            raise ConfigurationError("rls_init_alpha must be positive")
        for name in ("train_periods", "eval_periods", "learn_interval", "rls_init_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        f_lo, f_hi = self.frequency_range
        if not 0 < f_lo < f_hi:
            raise ConfigurationError("frequency_range must satisfy 0 < f_min < f_max")


class _PulseEmitter:
    """Online unit-crossing emitter of whole-step feedback pulses."""

    def __init__(self, width_steps: int):
        self.phase = 0.5
        self.countdown = 0
        self.width_steps = width_steps

    def levels(self, rates, dt: float) -> np.ndarray:
        """Advance one step of dt per rate; returns the level of each step.

        A step adds rate*dt (rates are >= 0) to the phase; a step that
        brings it to 1 wraps it and holds the level high for width_steps
        steps from there. The phase is folded by phase_wraps over the steps
        at a rate above 0, in the order a step-by-step loop would add it. A
        rate above 1/dt leaves the phase at or above 1, and each such step
        then wraps once; a step at rate 0 never wraps.
        """
        inc = np.asarray(rates, dtype=float) * dt
        n = len(inc)
        level = np.zeros(n, dtype=bool)
        level[:self.countdown] = True
        live = (inc > 0).nonzero()[0]
        wraps, _, self.phase = phase_wraps(self.phase, inc[live], len(live))
        wraps = live[wraps]
        for k in wraps.tolist():
            level[k:k + self.width_steps] = True
        if wraps.size:
            self.countdown = int(wraps[-1]) + self.width_steps
        self.countdown = max(self.countdown - n, 0)
        return level


def train_force(network: Network, train_cfg: TrainConfig, fb: FeedbackParams,
                init_w=None) -> tuple[RlsState, TraceSet]:
    """Run the reservoir with online RLS training of the readout weights.

    During the training periods the feedback encoder sees the target
    (teacher forcing, unless disabled); afterwards the weights are frozen
    and the loop closes on the network's own readout, held between learn
    intervals. Returns the final weights and the full traces of z, target,
    and the sampled state vectors. The readout starts from init_w, or
    from zero weights when it is None (P starts at I/rls_init_alpha).

    The feedback levels of each learn interval, which hold each pulse high
    for pulse_width rounded to whole steps, are computed before the
    interval, and its steps go through one NetworkSim.advance call, which
    commits them as one window when the interval is short enough; the
    result is bit-identical to stepping with the feedback encoded step by
    step.
    """
    dt = network.config.dt
    if train_cfg.learn_interval < dt:
        raise ConfigurationError("learn_interval must be >= network dt")
    if fb.f_fb_max * dt > 1:  # a step resolves at most one feedback pulse
        raise ConfigurationError(
            f"[feedback] f_fb_max must be at most 1/dt = {1 / dt:g} Hz, "
            f"got {fb.f_fb_max:g}")
    target = train_cfg.target
    period = 1.0 / target.frequency
    steps_per_period = int(round(period / dt))
    train_steps = train_cfg.train_periods * steps_per_period
    total_steps = (train_cfg.train_periods + train_cfg.eval_periods) * steps_per_period
    m = max(1, int(round(train_cfg.learn_interval / dt)))
    if m > total_steps:
        raise ConfigurationError(
            f"learn_interval = {train_cfg.learn_interval:g} s is longer than the "
            f"run ({total_steps * dt:g} s), so the readout would never update")

    # The kernel runs over the reservoir's frequency range; NetworkConfig
    # checks dt against it.
    f_lo, f_hi = train_cfg.frequency_range
    cfg = replace(network.config,
                  synapse=replace(network.config.synapse, f_min=f_lo, f_max=f_hi))
    sim = NetworkSim(Network(cfg, network.pre, network.post, network.is_exc,
                             network.codes))
    n = cfg.n_neurons

    rls = RlsState.initial(n, train_cfg.rls_init_alpha)
    if init_w is not None:
        rls.w = np.array(init_w, dtype=float)

    fb_steps = max(1, int(round(fb.pulse_width / dt)))
    exc_gen = _PulseEmitter(fb_steps)
    inh_gen = _PulseEmitter(fb_steps)

    n_updates = total_steps // m
    z_times = np.empty(n_updates)
    z_trace = np.empty(n_updates)
    tgt_trace = np.empty(n_updates)
    r_states = np.empty((n_updates, n))
    recorder = Recorder(sim, total_steps, cfg.sample_interval)

    z_held = readout(normalized_state(sim.synapse_frequencies(), f_lo, f_hi), rls.w)
    ui = 0
    for k0 in range(0, total_steps, m):
        # The feedback levels of one learn interval, then the steps.
        ks = np.arange(k0, min(k0 + m, total_steps))
        sig = np.full(len(ks), z_held)
        if train_cfg.teacher_forcing:
            forced = ks < train_steps
            sig[forced] = target.value(ks[forced] * dt)
        f_exc, f_inh = encode_feedback(sig, fb)
        sim.advance(len(ks), levels=(exc_gen.levels(f_exc, dt), inh_gen.levels(f_inh, dt)),
                    recorder=recorder)
        if sim.k % m:
            continue
        t = sim.k * dt
        r = normalized_state(sim.synapse_frequencies(), f_lo, f_hi)
        z = readout(r, rls.w)
        tgt = float(target.value(t))
        if sim.k <= train_steps:
            rls = rls_update(rls, r, z, tgt)
        z_times[ui] = t
        z_trace[ui] = z
        tgt_trace[ui] = tgt
        r_states[ui] = r
        ui += 1
        z_held = z

    traces = recorder.traces(total_steps * dt, z_times=z_times[:ui], z=z_trace[:ui],
                             target=tgt_trace[:ui], r_states=r_states[:ui],
                             train_end_time=train_steps * dt)
    return rls, traces


def evaluate(z_trace, target_trace) -> dict:
    """NRMSE and mean absolute error of an output trace against its target.

    nrmse = rms(z - target) / rms(target - mean(target)); a constant target
    makes the normalization undefined and is reported as an error.
    """
    z = np.asarray(z_trace, dtype=float)
    tgt = np.asarray(target_trace, dtype=float)
    if z.shape != tgt.shape or z.ndim != 1 or len(z) == 0:
        raise ValueError("z and target must be nonempty 1-D arrays of equal length")
    denom = math.sqrt(float(np.mean((tgt - tgt.mean()) ** 2)))
    if denom == 0.0:
        raise ValueError("constant target: NRMSE normalization would divide by zero")
    nrmse = math.sqrt(float(np.mean((z - tgt) ** 2))) / denom
    return {"nrmse": nrmse, "mean_abs_err": float(np.mean(np.abs(z - tgt)))}


def autonomous_metrics(traces: TraceSet) -> dict:
    """evaluate() over the readout samples after train_end_time, or {}
    when the run has none (a training-only run)."""
    auto = traces.z_times > traces.train_end_time
    if not auto.any():
        return {}
    return evaluate(traces.z[auto], traces.target[auto])
