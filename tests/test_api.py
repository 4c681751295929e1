import inspect

import tdsnn


def test_every_exported_name_resolves_and_the_deleted_ones_are_gone():
    assert [name for name in tdsnn.__all__ if not hasattr(tdsnn, name)] == []
    deleted = [(tdsnn, "firing_rate"), (tdsnn.measure, "firing_rate"),
               (tdsnn, "RunSummary"), (tdsnn.traceio, "RunSummary"),
               (tdsnn, "write_summary"), (tdsnn.traceio, "write_summary"),
               (tdsnn.NetworkSim, "t"), (tdsnn.PulseTrain, "levels"),
               (tdsnn.PulseTrain, "empty"), (tdsnn.TargetSpec, "kind"),
               (tdsnn.TrainConfig, "init_w_scale"), (tdsnn.NeuronParams, "spike_width")]
    assert [(owner.__name__, name) for owner, name in deleted
            if hasattr(owner, name)] == []
    assert list(inspect.signature(tdsnn.NetworkSim).parameters) == ["network"]
    assert list(inspect.signature(tdsnn.train_force).parameters) == [
        "network", "train_cfg", "fb", "init_w"]
