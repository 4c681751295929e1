import importlib.metadata
import json
import platform
import re
import warnings

import numpy as np
import pytest

from tdsnn import cli
from tdsnn.cli import main
from tdsnn.config import SimulationConfig, parse_config, serialize_config

TRACE_FILES = ("spikes.csv", "membrane.csv", "synapse.csv", "output.csv",
               "summary.json")


def test_simulate_neuron_writes_traces_and_summary(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(["simulate-neuron", "--duration", "0.01", "--trace", str(out)]) == 0
    for name in TRACE_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["command", "config_echo", "environment", "metrics",
                               "seed", "wall_clock_s", "write_s"]
    assert summary["command"] == "simulate-neuron"
    assert summary["seed"] == 0  # one neuron has no connection to draw
    assert summary["metrics"]["spikes"] == 2.0
    assert summary["write_s"] >= 0
    environment = summary["environment"]
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["scipy"] == importlib.metadata.version("scipy")
    assert environment["platform"] == platform.platform()
    assert "spikes in 0.01 s" in capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["network", "run", "--config", str(tmp_path / "absent.toml")]) == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["frequency_range = [50.0, 50.0]"], ids=["config"])
def test_equal_frequency_range_exits_1(line, tmp_path, capsys):
    # f_min = f_max would leave normalized_state nothing to divide by
    argv = ["reservoir", "train", "--config", str(_config_with(tmp_path, line)),
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: [reservoir] frequency_range must satisfy 0 < f_min < f_max"]


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


@pytest.mark.parametrize("argv, message", [
    (["simulate-neuron", "--input-freq=inf"], "--input-freq must be finite, got inf"),
    # nan > 0 is False: without the check the neuron would run free
    (["simulate-neuron", "--input-freq=nan"], "--input-freq must be finite, got nan"),
    (["simulate-synapse", "--spike-rate=inf"], "--spike-rate must be finite, got inf"),
    # and the synapse would see no spikes
    (["simulate-synapse", "--spike-rate=nan"], "--spike-rate must be finite, got nan"),
    # a negative rate would read as no drive as well
    (["simulate-neuron", "--input-freq=-3"], "--input-freq must not be negative, got -3.0"),
    (["simulate-synapse", "--spike-rate=-5"], "--spike-rate must not be negative, got -5.0"),
    # a step resolves at most one event; NumPy would fail on the array size
    (["simulate-neuron", "--input-freq=1e300"],
     "--input-freq must be at most 1/--dt = 100000 Hz, got 1e+300"),
    (["simulate-synapse", "--spike-rate=1e300"],
     "--spike-rate must be at most 1/--dt = 100000 Hz, got 1e+300"),
    (["simulate-neuron", "--input-freq=150000"],
     "--input-freq must be at most 1/--dt = 100000 Hz, got 150000"),
    (["simulate-synapse", "--dt=2e-5", "--spike-rate=75000"],
     "--spike-rate must be at most 1/--dt = 50000 Hz, got 75000"),
])
def test_simulate_rate_not_finite_exits_1(argv, message, capsys):
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


def _config_with(tmp_path, line):
    """A config file of the defaults with the row of line's key replaced."""
    key = line.split()[0]
    text = serialize_config(SimulationConfig())
    config = tmp_path / "run.toml"
    config.write_text("\n".join(line if row.startswith(key + " ") else row
                                for row in text.splitlines()))
    return config


@pytest.mark.parametrize("command, line, message", [
    (["reservoir", "train"], "learn_interval = inf",
     "[reservoir] learn_interval must be finite"),
    (["network", "run"], "dt = nan", "[network] dt must be finite"),
])
def test_non_finite_config_value_exits_1(command, line, message, tmp_path, capsys):
    argv = command + ["--config", str(_config_with(tmp_path, line)),
                      "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_neuron_faster_than_the_step_exits_1(tmp_path, capsys):
    # (r_base + r_exc) * dt = 60100 * 1e-5 passes v_th = 0.5: a driven
    # neuron would have to fire more than once in a step
    config = _config_with(tmp_path, "r_exc = 60000.0")
    assert main(["network", "run", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: [network] dt=1e-05 is too coarse for a driven neuron "
        "(need (r_base + r_exc)*dt < v_th = 0.5, got 0.601)"]


def test_learn_interval_longer_than_the_run_exits_1(tmp_path, capsys):
    # the default run is 7 periods of a 10-Hz target: 0.7 s
    out = tmp_path / "out"
    argv = ["reservoir", "train", "--config",
            str(_config_with(tmp_path, "learn_interval = 1e300")), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: learn_interval = 1e+300 s is longer than the run (0.7 s), "
        "so the readout would never update"]
    assert not out.exists()


def test_sample_interval_past_the_run_writes_the_time_zero_sample(tmp_path):
    out = tmp_path / "out"
    argv = ["network", "run", "--config",
            str(_config_with(tmp_path, "sample_interval = 1e15")),
            "--duration", "0.01", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "membrane.csv").read_text() == "time_s,neuron_id,v_mem\n0,0,0\n"


@pytest.mark.parametrize("line, option, message", [
    ("seed = -1", [], "[network] seed must be >= 0, got -1"),
    ("seed = 0", ["--seed", "-3"], "seed must be >= 0, got -3"),
], ids=["config", "option"])
def test_negative_seed_exits_1_naming_the_seed(line, option, message, tmp_path, capsys):
    argv = ["network", "run", "--config", str(_config_with(tmp_path, line)),
            "--duration", "0.01"] + option
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [
    ["--weight-code", "99"],  # free run: no drive would check the code
    ["--weight-code", "-1", "--input-freq", "100"],
], ids=["free_run", "driven"])
def test_weight_code_out_of_range_exits_1(argv, tmp_path, capsys):
    out = tmp_path / "trace"
    with pytest.raises(SystemExit) as exit_:
        main(["simulate-neuron", "--duration", "0.01", "--trace", str(out)] + argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: argument --weight-code: invalid choice: {argv[1]}")
    assert not out.exists()


def test_simulate_neuron_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate-neuron", "--duration", "0.01", "--seed", "1"])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_reservoir_train_has_no_range_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["reservoir", "train", "--config", str(tmp_path / "run.toml"),
              "--range", "15:200", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --range 15:200" in capsys.readouterr().err


def test_simulate_synapse_samples_at_the_rounded_stride(tmp_path):
    # sample_interval / dt = 1e-4 / 3e-5 rounds to a stride of 3 steps
    out = tmp_path / "syn"
    assert main(["simulate-synapse", "--duration", "0.01", "--dt", "3e-5",
                 "--trace", str(out)]) == 0
    times = np.loadtxt(out / "synapse.csv", delimiter=",", skiprows=1, usecols=0)
    steps = np.arange(0, 334, 3)  # round(0.01 / 3e-5) = 333 steps, 334 states
    assert len(times) == len(steps)
    assert times == pytest.approx(steps * 3e-5, rel=1e-8)


# Each removed key, as serialize_config wrote it, and its section. A
# calibrate --out file is read as a config, so it is covered too.
REMOVED_KEYS = {'target_kind = "sine"': "reservoir", "init_w_scale = 0.0": "reservoir",
                "spike_width = 0.0001": "neuron"}


@pytest.mark.parametrize("line", REMOVED_KEYS)
def test_removed_reservoir_key_exits_1_naming_it(line, tmp_path, capsys):
    key, section = line.split()[0], REMOVED_KEYS[line]
    text = serialize_config(SimulationConfig()).replace(
        f"[{section}]\n", f"[{section}]\n{line}\n")
    config = tmp_path / "run.toml"
    config.write_text(text)
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"w": [0.0], "config": text}))
    for argv in (["reservoir", "train", "--config", str(config),
                  "--out", str(tmp_path / "out")],
                 ["reservoir", "eval", "--weights", str(weights)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [{section}] unknown key(s): {key}"]
    assert not (tmp_path / "out").exists()


def test_training_only_run_scores_nothing_and_its_weights_evaluate(tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text("[network]\nn_neurons = 20\nconnection_probability = 0.2\n\n"
                      "[reservoir]\ntrain_periods = 1\neval_periods = 0\n")
    out = tmp_path / "train"
    assert main(["reservoir", "train", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "no autonomous periods to score" in printed
    assert "nan" not in printed.lower()
    assert json.loads((out / "summary.json").read_text())["metrics"] == {}

    evaluated = tmp_path / "eval"
    assert main(["reservoir", "eval", "--weights", str(out / "weights.json"),
                 "--periods", "1", "--out", str(evaluated)]) == 0
    metrics = json.loads((evaluated / "summary.json").read_text())["metrics"]
    assert sorted(metrics) == ["mean_abs_err", "nrmse"]
    assert np.isfinite(metrics["nrmse"]) and np.isfinite(metrics["mean_abs_err"])
    assert f"NRMSE = {metrics['nrmse']:.4f} over 1 periods" in capsys.readouterr().out


def test_zero_target_amplitude_exits_1_before_simulating(tmp_path, capsys, monkeypatch):
    # A constant target has no NRMSE; both commands reject it before they
    # build a network.
    def fail(*args, **kwargs):
        raise AssertionError("simulated a constant target")

    monkeypatch.setattr(cli, "train_force", fail)
    config = _config_with(tmp_path, "target_amplitude = 0.0")
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"w": [0.0] * SimulationConfig().network.n_neurons,
                                   "config": config.read_text()}))
    message = "error: [reservoir] target amplitude must not be 0 (a constant target)"
    for argv in (["reservoir", "train", "--config", str(config),
                  "--out", str(tmp_path / "out")],
                 ["reservoir", "eval", "--weights", str(weights)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "top level must be a JSON object"),
    ('{"w": [0.5], "config": 5}', "config must be a string"),
    ('{"w": [NaN], "config": ""}', "w must be a 1-D list of finite numbers"),
    ('{"w": [[0.5]], "config": ""}', "w must be a 1-D list of finite numbers"),
    ('{"w": [1' + "0" * 400 + '], "config": ""}',
     "w must be a 1-D list of finite numbers"),
    ('{"w": [0.5]}', "missing key 'config'"),
])
def test_malformed_weights_exit_1(text, reason, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(text)
    assert main(["reservoir", "eval", "--weights", str(weights)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: cannot load weights {weights}: {reason}"]


def test_truncated_weights_exit_1(tmp_path, capsys):
    weights = tmp_path / "weights.json"
    text = json.dumps({"w": [0.5], "config": serialize_config(SimulationConfig())})
    weights.write_text(text[:len(text) // 2])
    assert main(["reservoir", "eval", "--weights", str(weights)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot load weights {weights}: ")


@pytest.mark.parametrize("text, lineno", [
    ("[network]\nseed = 1\nseed = 2\n", 3),  # duplicate key
    ("[network]\nseed = 1\n\n[network]\ndt = 1e-5\n", 4),  # duplicate section
    ("seed = 1\n[network]\n", 1),  # key before any section
    ('[reservoir]\ntarget_kind = "sine\n', 2),  # unterminated string
    ("[reservoir]\nfrequency_range = [15.0, 200.0 train_periods = 5\n", 2),
    ("[network]\nseed = 3 garbage\n", 2),
], ids=["duplicate-key", "duplicate-section", "key-before-section",
        "unterminated-string", "unterminated-array", "trailing-garbage"])
def test_config_syntax_error_exits_1_with_its_line(text, lineno, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(text)
    assert main(["network", "run", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert re.search(rf"\bline {lineno}\b", err[0]), err[0]


@pytest.mark.parametrize("line, message", [
    ("connections = 5",
     "[network] connections must be a list of [pre, post, polarity, code]"),
    ('connections = [[0, 1, "exc", true]]',
     "[network] connections[0] must be [int, int, string, int]"),
])
def test_malformed_connections_exit_1(line, message, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text(f"[network]\nn_neurons = 2\n{line}\n")
    assert main(["network", "run", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("line, message", [
    ("free_run_hz = nan", "[anchors] free_run_hz must be finite"),
    ('free_run_hz = "200"', "[anchors] free_run_hz must be a number"),
    ("free_run_hz = -200.0", "[anchors] free_run_hz must be positive"),
    ("syn_free_hz = inf", "[anchors] syn_free_hz must be finite"),
    ("nonsense_hz = 1.0", "unknown anchor(s): nonsense_hz"),
])
def test_bad_anchor_exits_1(line, message, tmp_path, capsys):
    targets = tmp_path / "anchors.toml"
    targets.write_text(f"[anchors]\n{line}\n")
    assert main(["calibrate", "--targets", str(targets)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_empty_anchors_section_exits_1_and_writes_nothing(tmp_path, capsys):
    targets = tmp_path / "anchors.toml"
    targets.write_text("[anchors]\n")
    out = tmp_path / "fitted.toml"
    assert main(["calibrate", "--targets", str(targets), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: [anchors] section is empty: give at least one anchor"]
    assert not out.exists()


def test_calibrate_out_file_parses_to_the_fitted_parameters(tmp_path, monkeypatch):
    fitted = {}

    def calibrate(anchors):
        fitted["result"] = result = real_calibrate(anchors)
        return result

    real_calibrate = cli.calibrate
    monkeypatch.setattr(cli, "calibrate", calibrate)
    out = tmp_path / "fitted.toml"
    assert main(["calibrate", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# fitted parameters\n[neuron]\n")
    assert "# residual free_run_hz: " in text
    cfg = parse_config(text)
    assert cfg.network.neuron == fitted["result"].neuron
    assert cfg.network.synapse == fitted["result"].synapse
