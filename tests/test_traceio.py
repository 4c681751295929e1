import csv
import math
from pathlib import Path

import numpy as np
import pytest

from tdsnn import TraceSet, write_traces

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
