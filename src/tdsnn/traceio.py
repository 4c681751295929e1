"""Trace serialization: CSV files plus a JSON run summary.

Output is byte-stable for identical inputs: fixed column schemas, fixed row
ordering, and every float printed as ``"%.9g" % float(x)`` prints it.
Neuron ids are printed the same way, as integers. The text is built by
NumPy a block of rows at a time (``_csvtext``), with ``"%.9g"`` itself
only for exponent forms, non-finite values and near rounding ties. The
time and id fields that begin each row of membrane.csv and synapse.csv are
printed once, for both files.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from .network import TraceSet


def write_traces(traces: TraceSet, out_dir) -> list[str]:
    """Write spikes/membrane/synapse/output CSVs into out_dir.

    All four files are always created; absent series produce header-only
    files. Returns the written paths.
    """
    from . import _csvtext  # compiled here, not on import: most runs write none

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create trace directory {out}: {exc}") from exc
    paths = []

    def _write(name: str, header: str, columns, prefix=()) -> None:
        path = out / name
        try:
            with open(path, "wb") as fh:
                fh.write(header.encode() + b"\n")
                fh.writelines(_csvtext.rows(columns, prefix))
        except OSError as exc:
            raise OSError(f"cannot write trace file {path}: {exc}") from exc
        paths.append(str(path))

    spikes = [np.asarray(times, dtype=float) for times in traces.spikes]
    neurons = np.repeat(np.arange(len(spikes), dtype=float),
                        [len(times) for times in spikes])
    prefix = [(_csvtext.packed(traces.sample_times), 0),
              (_csvtext.packed(np.arange(traces.n_neurons, dtype=float)), 1)]
    readout = [traces.z_times, traces.z, traces.target]
    if traces.z_times is None:
        readout = [np.empty(0)] * 3

    _write("spikes.csv", "neuron_id,time_s",
           [neurons[None], np.concatenate([np.empty(0)] + spikes)[None]])
    _write("membrane.csv", "time_s,neuron_id,v_mem", [traces.v_mem], prefix)
    _write("synapse.csv", "time_s,synapse_id,v_syn,freq_hz",
           [traces.v_syn, traces.freq_hz], prefix)
    _write("output.csv", "time_s,z,target", [np.asarray(c)[None] for c in readout])
    return paths


def environment() -> dict:
    """Python, NumPy and SciPy versions and the platform of this process.

    The SciPy version comes from the installed package's metadata, so the
    stamp does not import SciPy. importlib.metadata loads here, not with
    the package, since most runs write no summary.
    """
    import importlib.metadata

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def write_run(out_dir, traces: TraceSet, command: str, seed: int, metrics: dict,
              wall_clock_s: float, config_echo: str = "") -> None:
    """Write a run's trace CSVs and its summary.json into out_dir.

    summary.json holds the command, seed, metrics, config echo and the
    environment, wall_clock_s (the time the run took before writing) and
    write_s (the time the CSVs took). A metric that is not finite raises
    ValueError before anything is written.
    """
    for key, value in metrics.items():
        if not np.isfinite(value):
            raise ValueError(f"metric {key!r} is not finite: {value}")
    with Stopwatch() as sw:
        write_traces(traces, out_dir)
    payload = {
        "command": command,
        "seed": seed,
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
        "config_echo": config_echo,
        "wall_clock_s": round(wall_clock_s, 3),
        "write_s": round(sw.elapsed, 3),
        "environment": environment(),
    }
    path = Path(out_dir) / "summary.json"
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write summary {path}: {exc}") from exc


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False
