import math
from dataclasses import replace

import numpy as np
import pytest

from tdsnn import (ConfigurationError, FeedbackParams, Network, NetworkConfig,
                   NetworkSim, RlsState, TargetSpec, TrainConfig, build_network,
                   encode_feedback, evaluate, normalized_state, readout,
                   rls_update, train_force)
from tdsnn.reservoir import _PulseEmitter, autonomous_metrics


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def test_readout_zero_weights():
    assert readout(np.ones(10), np.zeros(10)) == 0.0


def test_readout_normalization():
    # all synapses at f_max -> r = 1 everywhere; w = 1/N each -> z = 1
    n = 20
    r = normalized_state(np.full(n, 200.0), 15.0, 200.0)
    assert np.allclose(r, 1.0)
    assert readout(r, np.full(n, 1.0 / n)) == pytest.approx(1.0)


def test_readout_matches_direct_dot():
    rng = np.random.default_rng(2)
    r = rng.random(50)
    w = rng.normal(size=50)
    assert readout(r, w) == pytest.approx(float(np.dot(w, r)))


def test_readout_length_mismatch():
    with pytest.raises(ValueError):
        readout(np.ones(3), np.ones(4))


def test_normalized_state_clamps():
    r = normalized_state(np.array([0.0, 15.0, 107.5, 200.0, 500.0]), 15.0, 200.0)
    assert r[0] == 0.0          # silent synapse
    assert r[1] == 0.0          # at onset frequency
    assert r[2] == pytest.approx(0.5)
    assert r[3] == 1.0
    assert r[4] == 1.0          # clamped


# ---------------------------------------------------------------------------
# rls_update
# ---------------------------------------------------------------------------

def test_rls_zero_state_is_noop():
    rls = RlsState.initial(4)
    out = rls_update(rls, np.zeros(4), 1.0, 0.0)
    assert np.array_equal(out.w, rls.w)
    assert np.array_equal(out.P, rls.P)


def test_rls_zero_error_keeps_weights():
    rng = np.random.default_rng(0)
    rls = RlsState.initial(4)
    r = rng.random(4)
    z = readout(r, rls.w)
    out = rls_update(rls, r, z, z)
    assert np.array_equal(out.w, rls.w)
    assert not np.array_equal(out.P, rls.P)  # P still absorbs the sample


def test_rls_matches_ridge_solution():
    rng = np.random.default_rng(11)
    n, d, alpha = 200, 5, 1.0
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = X @ w_true + 0.05 * rng.normal(size=n)
    rls = RlsState.initial(d, alpha)
    for i in range(n):
        z = readout(X[i], rls.w)
        rls = rls_update(rls, X[i], z, y[i])
    ridge = np.linalg.solve(X.T @ X + alpha * np.eye(d), X.T @ y)
    assert np.abs(rls.w - ridge).max() < 1e-6


def test_rls_training_error_nondivergent():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(500, 8))
    y = X @ rng.normal(size=8)
    rls = RlsState.initial(8)
    errs = []
    for i in range(500):
        z = readout(X[i], rls.w)
        errs.append(abs(z - y[i]))
        rls = rls_update(rls, X[i], z, y[i])
    assert np.mean(errs[-100:]) < np.mean(errs[:100])


@pytest.mark.parametrize("n", [5, 100])
def test_rls_update_gives_the_bytes_of_p_minus_c_k_k_transposed(n):
    # P' is built in one temporary; negating c is exact, so it matches the
    # three-temporary expression byte for byte, and the input state is left
    # as it was.
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    rls = RlsState(w=rng.normal(size=n), P=a @ a.T / n + np.eye(n))
    given = rls.P.copy()
    r = rng.random(n)
    k = rls.P @ r
    c = 1.0 / (1.0 + r @ k)
    out = rls_update(rls, r, 0.3, -0.2)
    assert out.P.tobytes() == (rls.P - c * np.outer(k, k)).tobytes()
    assert out.w.tobytes() == (rls.w - c * (0.3 - -0.2) * k).tobytes()
    assert rls.P.tobytes() == given.tobytes()


def test_p_stays_symmetric_over_many_updates():
    rng = np.random.default_rng(8)
    rls = RlsState.initial(20)
    for _ in range(10_000):
        r = rng.random(20)
        z = readout(r, rls.w)
        rls = rls_update(rls, r, z, rng.normal())
    assert np.abs(rls.P - rls.P.T).max() <= 1e-9


def test_rls_rejects_nonfinite():
    rls = RlsState.initial(3)
    with pytest.raises(ValueError):
        rls_update(rls, np.array([1.0, np.nan, 0.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        rls_update(rls, np.ones(3), np.inf, 0.0)


# ---------------------------------------------------------------------------
# feedback encoding
# ---------------------------------------------------------------------------

def test_encode_feedback_zero():
    assert encode_feedback(0.0, FeedbackParams()) == (0.0, 0.0)


def test_encode_feedback_sign_split():
    fb = FeedbackParams(gain=200.0, f_fb_max=200.0)
    assert encode_feedback(0.5, fb) == (100.0, 0.0)
    assert encode_feedback(-0.5, fb) == (0.0, 100.0)


def test_encode_feedback_caps_and_exclusivity():
    fb = FeedbackParams(gain=200.0, f_fb_max=200.0)
    zs = np.linspace(-5, 5, 101)
    for z in zs:
        f_exc, f_inh = encode_feedback(float(z), fb)
        assert f_exc * f_inh == 0.0
        assert 0.0 <= f_exc <= fb.f_fb_max
        assert 0.0 <= f_inh <= fb.f_fb_max
    # an array is encoded element by element
    f_exc, f_inh = encode_feedback(zs, fb)
    assert list(zip(f_exc, f_inh)) == [encode_feedback(float(z), fb) for z in zs]


def test_encode_feedback_nonfinite():
    with pytest.raises(ValueError):
        encode_feedback(float("nan"), FeedbackParams())


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_and_null():
    t = np.linspace(0, 1, 500)
    target = 0.8 * np.sin(2 * np.pi * 10 * t)
    assert evaluate(target, target)["nrmse"] == 0.0
    assert evaluate(np.zeros_like(target), target)["nrmse"] == pytest.approx(
        1.0, rel=1e-6)


def test_evaluate_matches_two_pass_computation():
    rng = np.random.default_rng(5)
    z = rng.normal(size=400)
    tgt = rng.normal(size=400)
    got = evaluate(z, tgt)
    err = z - tgt
    rms_err = np.sqrt(np.sum(err ** 2) / len(err))
    rms_tgt = np.sqrt(np.sum((tgt - np.mean(tgt)) ** 2) / len(tgt))
    assert got["nrmse"] == pytest.approx(rms_err / rms_tgt)
    assert got["mean_abs_err"] == pytest.approx(np.abs(err).mean())


def test_evaluate_constant_target_is_explicit_error():
    with pytest.raises(ValueError, match="constant target"):
        evaluate(np.ones(10), np.ones(10))


# ---------------------------------------------------------------------------
# train_force plumbing
# ---------------------------------------------------------------------------

def _small_setup(seed=0, **train_kw):
    cfg = NetworkConfig(n_neurons=20, connection_probability=0.1, seed=seed)
    net = build_network(cfg)
    tcfg = TrainConfig(**train_kw)
    return net, tcfg, FeedbackParams()


def test_train_force_deterministic():
    net, tcfg, fb = _small_setup(train_periods=1, eval_periods=1)
    rls1, tr1 = train_force(net, tcfg, fb)
    rls2, tr2 = train_force(net, tcfg, fb)
    assert np.array_equal(rls1.w, rls2.w)
    assert np.array_equal(tr1.z, tr2.z)


def test_train_force_traces_shapes():
    net, tcfg, fb = _small_setup(train_periods=2, eval_periods=1)
    rls, tr = train_force(net, tcfg, fb)
    # 3 periods of a 10 Hz target at 1 ms learn interval
    assert len(tr.z) == 300
    assert tr.r_states.shape == (300, 20)
    assert tr.train_end_time == pytest.approx(0.2)
    assert np.array_equal(tr.z_times, tr.target * 0 + tr.z_times)  # finite
    assert np.all(np.isfinite(tr.z))


def test_teacher_forced_error_trend_down():
    cfg = NetworkConfig(n_neurons=100, connection_probability=0.1, seed=42)
    net = build_network(cfg)
    tcfg = TrainConfig(teacher_forcing=True)
    rls, tr = train_force(net, tcfg, FeedbackParams())
    train_sel = tr.z_times <= tr.train_end_time
    e = np.abs(tr.z[train_sel] - tr.target[train_sel])
    per_period = 100  # 10 Hz target, 1 ms learn interval
    assert e[-per_period:].mean() < e[:per_period].mean()


def test_untrained_random_readout_is_worse():
    net, _, fb = _small_setup()
    trained_cfg = TrainConfig(train_periods=5, eval_periods=2)
    rls, tr = train_force(net, trained_cfg, fb)
    sel = tr.z_times > tr.train_end_time
    trained = evaluate(tr.z[sel], tr.target[sel])["nrmse"]

    n = net.n_neurons
    rng = np.random.default_rng(net.config.seed + 1)
    random_w = rng.normal(0.0, 1.0 / math.sqrt(n), n)
    random_cfg = TrainConfig(train_periods=0, eval_periods=2)
    _, tr_rand = train_force(net, random_cfg, fb, init_w=random_w)
    rand = evaluate(tr_rand.z, tr_rand.target)["nrmse"]
    assert rand > trained


def test_autonomous_metrics_score_only_the_samples_after_training():
    net, tcfg, fb = _small_setup(train_periods=1, eval_periods=1)
    _, tr = train_force(net, tcfg, fb)
    auto = tr.z_times > tr.train_end_time
    assert autonomous_metrics(tr) == evaluate(tr.z[auto], tr.target[auto])
    _, tr_forced = train_force(net, replace(tcfg, eval_periods=0), fb)
    assert autonomous_metrics(tr_forced) == {}


def test_init_w_is_the_starting_readout_and_is_not_mutated():
    net, _, fb = _small_setup()
    w = np.linspace(-1.0, 1.0, net.n_neurons)
    given = w.copy()
    rls, tr = train_force(net, TrainConfig(train_periods=1, eval_periods=0), fb, init_w=w)
    assert np.array_equal(w, given)
    assert tr.z[0] == readout(tr.r_states[0], w)  # the first sample scores w itself
    assert not np.array_equal(rls.w, w)  # training moved it


def test_train_force_rejects_a_frequency_range_that_undersamples_the_ring():
    # dt * f_max = 1e-5 * 6e4 = 0.6: the network's own synapse is fine, so
    # only the reservoir's frequency range undersamples.
    net, tcfg, fb = _small_setup(frequency_range=(15.0, 6e4))
    with pytest.raises(ConfigurationError, match="undersamples the oscillator"):
        train_force(net, tcfg, fb)


def test_train_force_rejects_a_feedback_cap_above_one_pulse_per_step():
    # At dt = 1e-5 a step resolves at most one pulse, so the cap may reach
    # 1/dt = 1e5 Hz and no further.
    net, _, _ = _small_setup()
    tcfg = TrainConfig(target=TargetSpec(frequency=100.0), train_periods=1,
                       eval_periods=0)
    with pytest.raises(ConfigurationError, match=(
            r"^\[feedback\] f_fb_max must be at most 1/dt = 100000 Hz, got 1e\+06$")):
        train_force(net, tcfg, FeedbackParams(gain=1e6, f_fb_max=1e6))
    train_force(net, tcfg, FeedbackParams(gain=1e6, f_fb_max=1e5))


def test_target_spec_validation():
    with pytest.raises(ConfigurationError):
        TargetSpec(frequency=0.0)
    with pytest.raises(ConfigurationError, match="target amplitude must not be 0"):
        TargetSpec(amplitude=0.0)
    assert TargetSpec(amplitude=-0.5).value(0.025) == pytest.approx(-0.5)  # a flipped sine is fine


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(train_periods=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(train_periods=0, eval_periods=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(learn_interval=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(frequency_range=(200.0, 15.0))


def emit_step(em, rate, dt, width):
    """One step of the feedback emitter, the reference _PulseEmitter.levels
    reproduces: em holds its phase and pulse countdown."""
    if rate > 0:
        em["phase"] += rate * dt
        if em["phase"] >= 1.0:
            em["phase"] -= 1.0
            em["countdown"] = width
    level = em["countdown"] > 0
    em["countdown"] = max(em["countdown"] - 1, 0)
    return level


def test_pulse_emitter_matches_step_loop():
    # At 4-8 kHz with dt = 10 us the phase wraps every 12.5 to 25 steps,
    # often sooner than a 20-step pulse ends, so a wrap extends the pulse;
    # some steps have rate 0, and some intervals are all silent. Intervals
    # 60 and 61 run at 1.5e5 Hz, 1.5 wraps a step: every step wraps once,
    # and the phase climbs by 0.5 a step. The silent steps after them keep
    # that phase above 1 and must not wrap.
    dt, width = 1e-5, 20
    rng = np.random.default_rng(3)
    emitter = _PulseEmitter(width)
    em = {"phase": 0.5, "countdown": 0}
    extended = 0
    for interval in range(64):
        n = int(rng.integers(0, 120))
        rates = rng.uniform(4000.0, 8000.0, n) * (rng.random(n) < 0.9)
        if interval % 9 == 4:
            rates[:] = 0.0
        if interval >= 60:
            rates = np.full(100, 1.5e5 if interval < 62 else 0.0)
        expected = []
        for rate in rates.tolist():
            high = em["countdown"] > 0
            expected.append(emit_step(em, rate, dt, width))
            extended += high and em["countdown"] == width - 1  # a wrap
        got = emitter.levels(rates, dt)
        assert got.tolist() == expected, interval
        assert emitter.phase == em["phase"]
        assert emitter.countdown == em["countdown"]
        if interval >= 62:  # silent: the pulse of the last wrap runs out
            assert got.tolist() == [interval == 62] * 19 + [False] * 81
    assert extended > 10
    assert em["phase"] > 99


def stepped_train_force(network, train_cfg, fb):
    """train_force written as a plain loop over NetworkSim.step, with the
    feedback encoded and emitted step by step."""
    cfg = network.config
    dt, n = cfg.dt, cfg.n_neurons
    f_lo, f_hi = train_cfg.frequency_range
    cfg = replace(cfg, synapse=replace(cfg.synapse, f_min=f_lo, f_max=f_hi))
    sim = NetworkSim(Network(cfg, network.pre, network.post, network.is_exc,
                             network.codes))
    target = train_cfg.target
    steps_per_period = int(round(1.0 / target.frequency / dt))
    train_steps = train_cfg.train_periods * steps_per_period
    total_steps = (train_cfg.train_periods + train_cfg.eval_periods) * steps_per_period
    m = max(1, int(round(train_cfg.learn_interval / dt)))
    every = max(1, int(round(cfg.sample_interval / dt)))
    width = max(1, int(round(fb.pulse_width / dt)))
    emitters = [{"phase": 0.5, "countdown": 0} for _ in range(2)]

    rls = RlsState.initial(n, train_cfg.rls_init_alpha)
    out = {name: [] for name in ("z_times", "z", "target", "r_states")}
    out.update(sample_times=[0.0], v_mem=[sim.v], v_syn=[sim.sv],
               freq_hz=[sim.synapse_frequencies()])
    spikes = [[] for _ in range(n)]
    z_held = readout(normalized_state(sim.synapse_frequencies(), f_lo, f_hi), rls.w)
    for k in range(total_steps):
        training = k < train_steps
        if training and train_cfg.teacher_forcing:
            sig = float(target.value(k * dt))
        else:
            sig = z_held
        rates = encode_feedback(sig, fb)
        fired = sim.step(levels=[emit_step(em, rate, dt, width)
                                 for em, rate in zip(emitters, rates)])
        for i in np.flatnonzero(fired):
            spikes[i].append((k + 1) * dt)
        if (k + 1) % m == 0:
            r = normalized_state(sim.synapse_frequencies(), f_lo, f_hi)
            z = readout(r, rls.w)
            tgt = float(target.value((k + 1) * dt))
            if training:
                rls = rls_update(rls, r, z, tgt)
            for name, value in (("z_times", (k + 1) * dt), ("z", z),
                                ("target", tgt), ("r_states", r)):
                out[name].append(value)
            z_held = z
        if (k + 1) % every == 0:
            for name, value in (("sample_times", (k + 1) * dt), ("v_mem", sim.v),
                                ("v_syn", sim.sv),
                                ("freq_hz", sim.synapse_frequencies())):
                out[name].append(value)
    out = {name: np.array(value) for name, value in out.items()}
    out["spikes"] = [np.array(s, dtype=float) for s in spikes]
    return rls, out


@pytest.mark.parametrize("teacher_forcing", [True, False])
def test_train_force_matches_step_loop(teacher_forcing):
    # The learn interval (70 steps) divides neither the training part
    # (4000 steps) nor the run (6000), so one interval straddles the end of
    # training and a last, partial one has no update. The sample interval
    # is not a multiple of dt.
    cfg = NetworkConfig(n_neurons=20, connection_probability=0.2, seed=1,
                        sample_interval=3.3e-5)
    net = build_network(cfg)
    tcfg = TrainConfig(target=TargetSpec(frequency=50.0), train_periods=2,
                       eval_periods=1, learn_interval=7e-4,
                       teacher_forcing=teacher_forcing)
    fb = FeedbackParams()
    rls, traces = train_force(net, tcfg, fb)
    expected_rls, expected = stepped_train_force(net, tcfg, fb)
    assert rls.w.tobytes() == expected_rls.w.tobytes()
    assert rls.P.tobytes() == expected_rls.P.tobytes()
    for name in ("sample_times", "v_mem", "v_syn", "freq_hz", "z_times", "z",
                 "target", "r_states"):
        assert getattr(traces, name).tobytes() == expected[name].tobytes(), name
    assert [s.tobytes() for s in traces.spikes] == \
        [s.tobytes() for s in expected["spikes"]]
    assert len(expected["z"]) == 6000 // 70
    assert traces.train_end_time == 4000 * cfg.dt
