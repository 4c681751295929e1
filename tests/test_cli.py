import json

import pytest

from tdsnn.cli import main
from tdsnn.config import SimulationConfig, serialize_config

TRACE_FILES = ("spikes.csv", "membrane.csv", "synapse.csv", "output.csv",
               "summary.json")


def test_simulate_neuron_writes_traces_and_summary(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(["simulate-neuron", "--duration", "0.01", "--trace", str(out)]) == 0
    for name in TRACE_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate-neuron"
    assert summary["write_s"] >= 0
    assert "spikes in 0.01 s" in capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["network", "run", "--config", str(tmp_path / "absent.toml")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_range_exits_1(tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(serialize_config(SimulationConfig()))
    argv = ["reservoir", "train", "--config", str(config), "--range", "15-200",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "range must look like '15:200'" in capsys.readouterr().err


def test_trace_dir_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ["simulate-neuron", "--duration", "0.01",
            "--trace", str(blocker / "trace")]
    assert main(argv) == 2
    assert "cannot create trace directory" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    ("--dt=0", "dt must be positive"),
    ("--dt=-1e-5", "dt must be positive"),
    ("--duration=0", "duration must be positive"),
])
def test_simulate_synapse_bad_step_or_duration_exits_1(option, message, capsys):
    assert main(["simulate-synapse", option]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["simulate-synapse", "--duration=inf"], "duration must be finite"),
    (["simulate-synapse", "--duration=nan"], "duration must be positive"),
    (["simulate-synapse", "--duration=-inf"], "duration must be positive"),
    (["simulate-neuron", "--input-freq=100", "--duration=inf"],
     "duration must be finite"),
])
def test_simulate_duration_not_finite_exits_1(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("duration, message", [
    ("inf", "duration must be finite"),
    ("nan", "duration must be positive"),
])
def test_network_run_duration_not_finite_exits_1(duration, message, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(serialize_config(SimulationConfig()))
    assert main(["network", "run", "--config", str(config),
                 f"--duration={duration}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, line, message", [
    (["reservoir", "train"], "learn_interval = inf",
     "[reservoir] learn_interval must be finite"),
    (["network", "run"], "dt = nan", "[network] dt must be finite"),
])
def test_non_finite_config_value_exits_1(command, line, message, tmp_path, capsys):
    key = line.split()[0]
    text = serialize_config(SimulationConfig())
    text = "\n".join(line if row.startswith(key + " ") else row
                     for row in text.splitlines())
    config = tmp_path / "run.toml"
    config.write_text(text)
    argv = command + ["--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
