import csv
import math
from pathlib import Path

import numpy as np
import pytest

from tdsnn import TraceSet, _csvtext, write_run, write_traces

DATA = Path(__file__).parent / "data" / "traceio"
FILES = ("spikes.csv", "membrane.csv", "synapse.csv", "output.csv")
NAN, INF = math.nan, math.inf


def golden_traces(case: str) -> TraceSet:
    """Small TraceSets whose CSVs are pinned byte for byte under tests/data.

    The values hit 9-digit rounding, exponent forms, signed zeros,
    non-finite values and float32 widening; neuron 1 never spikes and
    neuron 2's spikes are a plain Python list.
    """
    if case == "empty":
        return TraceSet(dt=1e-5, duration=0.0, n_neurons=2,
                        spikes=[np.empty(0), []], sample_times=np.empty(0),
                        v_mem=np.empty((0, 2)), v_syn=np.empty((0, 2)),
                        freq_hz=np.empty((0, 2)))
    sample_times = np.arange(4) * 1e-4  # 3e-4 is 0.00030000000000000003
    v_mem = np.array([[0.0, -0.0, 0.1],
                      [1e-12, 2.5e20, 1 / 3],
                      [0.30000000000000004, 123456789.5, 0.49999999995],
                      [1e-5, 7e-45, 3.4e38]], dtype=np.float32)
    v_syn = np.array([[0.0, -0.0, 0.123456789012],
                      [1e-12, 2.5e20, 1 / 3],
                      [NAN, INF, -INF],
                      [5e-324, 1.7976931348623157e308, 999999999.5]])
    freq_hz = np.array([[0.0, 15.0, 200.0],
                        [123.4567894999, 1e16, 1e-7],
                        [-0.0, 12345678901.0, 0.1 + 0.2],
                        [2.5e+20, 1e-12, 4.9999999995e-5]])
    spikes = [np.array([1.23456789012e-3, 0.5, 2.5e-20]), [],
              [0.1, 0.2 + 1e-10, 1e-5]]
    traces = TraceSet(dt=1e-5, duration=4e-4, n_neurons=3, spikes=spikes,
                      sample_times=sample_times, v_mem=v_mem, v_syn=v_syn,
                      freq_hz=freq_hz)
    if case == "readout":
        traces.z_times = np.array([1e-4, 2e-4, 3.0000000000000003e-4])
        traces.z = np.array([-0.0, NAN, 0.987654321987])
        traces.target = np.array([0.0, -1e-12, 2.5e20], dtype=np.float32)
    return traces


@pytest.mark.parametrize("case", ["network", "readout", "empty"])
def test_write_traces_matches_golden_bytes(case, tmp_path):
    paths = write_traces(golden_traces(case), tmp_path / "out")
    assert paths == [str(tmp_path / "out" / name) for name in FILES]
    for name in FILES:
        expected = (DATA / case / name).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == expected, name


@pytest.mark.parametrize("value", [NAN, INF])
def test_write_run_rejects_a_metric_that_is_not_finite(value, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="metric 'nrmse' is not finite"):
        write_run(out, golden_traces("empty"), "reservoir train", 0,
                  {"mean_abs_err": 0.5, "nrmse": value}, 1.0)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("case", ["network", "readout", "empty"])
def test_read_csv_columns_round_trip(case, tmp_path):
    traces = golden_traces(case)
    write_traces(traces, tmp_path)
    n, n_samples = traces.n_neurons, len(traces.sample_times)
    sample_times = np.repeat(traces.sample_times, n)
    ids = np.tile(np.arange(n), n_samples)
    readout = (traces.z_times, traces.z, traces.target)
    if traces.z_times is None:
        readout = ([], [], [])
    expected = {
        "spikes.csv": {
            "neuron_id": [i for i, times in enumerate(traces.spikes) for _ in times],
            "time_s": np.concatenate([np.asarray(s, float) for s in traces.spikes])},
        "membrane.csv": {"time_s": sample_times, "neuron_id": ids,
                         "v_mem": traces.v_mem.ravel()},
        "synapse.csv": {"time_s": sample_times, "synapse_id": ids,
                        "v_syn": traces.v_syn.ravel(),
                        "freq_hz": traces.freq_hz.ravel()},
        "output.csv": dict(zip(("time_s", "z", "target"), readout)),
    }
    for name, columns in expected.items():
        with open(tmp_path / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(columns), name
        got = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
        for column, want in columns.items():
            if column.endswith("_id"):
                # ids are written as plain integers
                assert list(got[column]) == [str(i) for i in want]
            else:
                # 9 significant digits: relative error at most 5e-9
                np.testing.assert_allclose(np.array(got[column], dtype=float),
                                           np.asarray(want, float),
                                           rtol=5e-9, atol=0)


def formatted(values) -> bytes:
    """The CSV rows the writer makes of one column of values."""
    return b"".join(_csvtext.rows([np.asarray(values)[None]]))


def printed(values) -> bytes:
    """The same rows, printed by Python one value at a time."""
    return "".join("%.9g\n" % v for v in np.asarray(values, dtype=float).tolist()).encode()


def test_formatter_matches_percent_9g_on_a_million_doubles(monkeypatch):
    rng = np.random.default_rng(18)
    digits = rng.integers(10**8, 10**9, 200_000)
    exponents = rng.integers(-6, 10, 200_000)
    cases = {
        # every exponent, subnormals, nan payloads and infinities included
        "bit patterns": rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(float),
        # the doubles nearest to a ten-digit number ending in 5
        "nine-digit ties": (digits * 10 + 5) * 10.0 ** (exponents - 9.0),
        "fixed notation": (rng.choice([-1.0, 1.0], 300_000) * rng.uniform(1, 9.99, 300_000)
                           * 10.0 ** rng.integers(-4, 9, 300_000)),
        "float32": rng.uniform(0, 250, 200_000).astype(np.float32),
        # two nonzero digits, so most digit groups are zeros or end in zeros
        "sparse digits": (10**8 * np.arange(1, 10)[:, None, None, None]
                          + np.arange(1, 10)[:, None, None] * 10 ** np.arange(8)[:, None]
                          ) * 10.0 ** (np.arange(-4, 9) - 8.0),
        "edges": np.array([9.9999999995e-5, 99999999.95, 999999999.5, 1e-4, 1e9,
                           0.0, -0.0, NAN, -NAN, INF, -INF, 5e-324, -5e-324,
                           0.49999999995, 123456789.5, 0.1 + 0.2]),
    }
    assert sum(len(v) for v in cases.values()) >= 10**6
    by_python = {}
    printed_by_python = _csvtext._printed

    def spy(x):
        by_python[name] = by_python.get(name, 0) + len(x)
        return printed_by_python(x)

    monkeypatch.setattr(_csvtext, "_printed", spy)
    for name, values in cases.items():
        values = np.ravel(values)
        assert formatted(values) == printed(values), name
    # A tie is too close for the rounded product to decide, an exponent
    # form has no fixed layout; NumPy builds the other texts.
    assert by_python["nine-digit ties"] == len(cases["nine-digit ties"])
    assert 0 < by_python["bit patterns"] < 0.99 * len(cases["bit patterns"])
    assert by_python.get("fixed notation", 0) < 10
    assert by_python.get("sparse digits", 0) < 10
    # nan, -nan, inf, -inf, the subnormals, 1e9 and the three ties
    assert by_python["edges"] == 10


def test_write_traces_of_many_blocks_matches_row_by_row_text(tmp_path):
    rng = np.random.default_rng(7)
    for n, n_samples in ((7, 1500), (5000, 2)):  # many samples, or wide rows
        v = rng.uniform(0, 1.2, (n_samples, n))
        v[rng.random(v.shape) < 0.05] = 0.0
        v[rng.random(v.shape) < 0.01] *= 1e-12
        freq = np.where(rng.random(v.shape) < 0.3, 0.0, rng.uniform(15, 200, v.shape))
        spikes = [np.sort(rng.uniform(0, 0.3, rng.integers(0, 6000 // n + 2)))
                  for _ in range(n)]
        sample_times = np.arange(n_samples) * 1e-4
        assert n * n_samples > 2 * _csvtext._CHUNK
        traces = TraceSet(dt=1e-5, duration=0.3, n_neurons=n, spikes=spikes,
                          sample_times=sample_times, v_mem=v,
                          v_syn=v[::-1].copy(), freq_hz=freq)
        traces.z_times = sample_times
        traces.z = rng.normal(size=n_samples)
        traces.target = np.sin(sample_times)
        write_traces(traces, tmp_path / str(n))
        rows = {
            "spikes.csv": ["neuron_id,time_s"] + [
                "%d,%.9g" % (i, t) for i, times in enumerate(spikes) for t in times],
            "membrane.csv": ["time_s,neuron_id,v_mem"] + [
                "%.9g,%d,%.9g" % (t, i, v[s, i])
                for s, t in enumerate(sample_times) for i in range(n)],
            "synapse.csv": ["time_s,synapse_id,v_syn,freq_hz"] + [
                "%.9g,%d,%.9g,%.9g" % (t, i, v[-1 - s, i], freq[s, i])
                for s, t in enumerate(sample_times) for i in range(n)],
            "output.csv": ["time_s,z,target"] + [
                "%.9g,%.9g,%.9g" % row
                for row in zip(sample_times, traces.z, traces.target)],
        }
        for name, lines in rows.items():
            text = (tmp_path / str(n) / name).read_text()
            assert text == "\n".join(lines) + "\n", (n, name)
