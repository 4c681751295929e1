import inspect
import math

import pytest

import tdsnn


def test_every_exported_name_resolves_and_the_deleted_ones_are_gone():
    assert [name for name in tdsnn.__all__ if not hasattr(tdsnn, name)] == []
    deleted = [(tdsnn, "firing_rate"), (tdsnn.measure, "firing_rate"),
               (tdsnn, "RunSummary"), (tdsnn.traceio, "RunSummary"),
               (tdsnn, "write_summary"), (tdsnn.traceio, "write_summary"),
               (tdsnn.NetworkSim, "t"), (tdsnn.PulseTrain, "levels"),
               (tdsnn.PulseTrain, "empty"), (tdsnn.TargetSpec, "kind"),
               (tdsnn.TrainConfig, "init_w_scale"), (tdsnn.NeuronParams, "spike_width"),
               (tdsnn, "NeuronState"), (tdsnn.neuron, "NeuronState"),
               (tdsnn, "SynapseState"), (tdsnn.synapse, "SynapseState"),
               (tdsnn, "periodic_train"), (tdsnn.pulses, "periodic_train")]
    assert [(owner.__name__, name) for owner, name in deleted
            if hasattr(owner, name)] == []
    assert list(inspect.signature(tdsnn.NetworkSim).parameters) == ["network"]
    assert list(inspect.signature(tdsnn.train_force).parameters) == [
        "network", "train_cfg", "fb", "init_w"]


@pytest.mark.parametrize("call, message", [
    (lambda: tdsnn.neuron_step(0.0, tdsnn.NeuronParams(), False, False, math.nan),
     "dt must be positive"),
    (lambda: tdsnn.RlsState.initial(2, math.nan), "alpha must be positive"),
    (lambda: tdsnn.steady_state_v(math.nan, tdsnn.SynapseParams()),
     "spike_rate must be nonnegative"),
    (lambda: tdsnn.steady_state_frequency(math.nan, tdsnn.SynapseParams()),
     "spike_rate must be nonnegative"),
    (lambda: tdsnn.steady_state_v(math.inf, tdsnn.SynapseParams()),
     "spike_rate must be finite"),
    (lambda: tdsnn.steady_state_frequency(math.inf, tdsnn.SynapseParams()),
     "spike_rate must be finite"),
    (lambda: tdsnn.neuron_step(0.0, tdsnn.NeuronParams(), False, False, math.inf),
     "dt must be finite"),
    (lambda: tdsnn.RlsState.initial(2, math.inf), "alpha must be finite"),
    (lambda: tdsnn.TrainConfig(rls_init_alpha=math.inf), "rls_init_alpha must be finite"),
    (lambda: tdsnn.TrainConfig(learn_interval=math.inf), "learn_interval must be finite"),
    (lambda: tdsnn.TrainConfig(train_periods=math.inf), "train_periods must be finite"),
    (lambda: tdsnn.TrainConfig(eval_periods=math.inf), "eval_periods must be finite"),
    (lambda: tdsnn.FeedbackParams(gain=math.inf), "feedback gain must be finite"),
    (lambda: tdsnn.FeedbackParams(pulse_width=math.inf),
     "feedback pulse_width must be finite"),
    (lambda: tdsnn.TargetSpec(frequency=math.inf), "target frequency must be finite"),
    (lambda: tdsnn.run_neuron(tdsnn.NeuronParams(), 1.0, math.inf), "dt must be finite"),
    (lambda: tdsnn.FeedbackParams(f_fb_max=math.inf), "feedback f_fb_max must be finite"),
    (lambda: tdsnn.TargetSpec(amplitude=math.inf), "target amplitude must be finite"),
], ids=["neuron_step-nan-dt", "rls-nan-alpha", "steady_state_v-nan",
        "steady_state_frequency-nan", "steady_state_v-inf",
        "steady_state_frequency-inf", "neuron_step-inf-dt", "rls-inf-alpha",
        "train-inf-rls_init_alpha", "train-inf-learn_interval",
        "train-inf-train_periods", "train-inf-eval_periods", "feedback-inf-gain",
        "feedback-inf-pulse_width", "target-inf-frequency", "run_neuron-inf-dt",
        "feedback-inf-f_fb_max", "target-inf-amplitude"])
def test_a_check_rejects_a_value_that_is_not_a_number_or_not_finite(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
