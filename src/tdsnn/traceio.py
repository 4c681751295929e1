"""Trace serialization: CSV files plus a JSON run summary.

Output is byte-stable for identical inputs: fixed column schemas, fixed row
ordering, and every float printed as ``"%.9g" % float(x)``. That is the same
conversion as ``format(float(x), ".9g")``: 9 significant digits, exponent
form for magnitudes below 1e-4 and from 1e9 on, and ``nan``, ``inf``,
``-inf`` and ``-0`` spelled as Python spells them. Rows are formatted a
block at a time, with one ``%`` operation per sample of membrane.csv and
synapse.csv, per neuron of spikes.csv, and for the whole of output.csv.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import TraceSet


def _floats(values) -> list:
    """The values as Python floats, the doubles that float(x) would give."""
    return np.asarray(values, dtype=float).tolist()


def _interleave(columns: list) -> tuple:
    """(a0, b0, ..., a1, b1, ...) from the equal-length columns a, b, ..."""
    width = len(columns)
    args = [None] * (width * len(columns[0]))
    for j, column in enumerate(columns):
        args[j::width] = column
    return tuple(args)


def write_traces(traces: TraceSet, out_dir) -> list[str]:
    """Write spikes/membrane/synapse/output CSVs into out_dir.

    All four files are always created; absent series produce header-only
    files. Returns the written paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create trace directory {out}: {exc}") from exc
    paths = []

    def _write(name: str, header: str, blocks) -> None:
        path = out / name
        try:
            with open(path, "w", newline="") as fh:
                fh.write(header + "\n")
                fh.writelines(blocks)
        except OSError as exc:
            raise OSError(f"cannot write trace file {path}: {exc}") from exc
        paths.append(str(path))

    n = traces.n_neurons

    def spike_blocks():
        for i, times in enumerate(traces.spikes):
            times = _floats(times)
            yield f"{i},%.9g\n" * len(times) % tuple(times)

    def sample_blocks(*series):
        value_fields = ",%.9g" * len(series)
        block = "".join(f"%s,{i}{value_fields}\n" for i in range(n))
        for si, t in enumerate(_floats(traces.sample_times)):
            columns = [["%.9g" % t] * n] + [_floats(s[si]) for s in series]
            yield block % _interleave(columns)

    def output_blocks():
        if traces.z_times is None:
            return
        columns = [_floats(traces.z_times), _floats(traces.z),
                   _floats(traces.target)]
        yield "%.9g,%.9g,%.9g\n" * len(columns[0]) % _interleave(columns)

    _write("spikes.csv", "neuron_id,time_s", spike_blocks())
    _write("membrane.csv", "time_s,neuron_id,v_mem", sample_blocks(traces.v_mem))
    _write("synapse.csv", "time_s,synapse_id,v_syn,freq_hz",
           sample_blocks(traces.v_syn, traces.freq_hz))
    _write("output.csv", "time_s,z,target", output_blocks())
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


@dataclass
class RunSummary:
    """Scalar record of one run: config echo, metrics, seed, wall clock and
    the environment it ran in.

    wall_clock_s covers building and simulating; write_s is the time spent
    writing the trace CSVs, which wall_clock_s leaves out.
    """

    command: str
    seed: int
    metrics: dict = field(default_factory=dict)
    config_echo: str = ""
    wall_clock_s: float = 0.0
    write_s: float = 0.0

    def validate(self) -> None:
        for key, value in self.metrics.items():
            if not np.isfinite(value):
                raise ValueError(f"metric {key!r} is not finite: {value}")

    def to_json(self) -> str:
        self.validate()
        payload = {
            "command": self.command,
            "seed": self.seed,
            "metrics": {k: float(v) for k, v in sorted(self.metrics.items())},
            "config_echo": self.config_echo,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "write_s": round(self.write_s, 3),
            "environment": environment(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_summary(summary: RunSummary, out_dir) -> str:
    path = Path(out_dir) / "summary.json"
    try:
        with open(path, "w") as fh:
            fh.write(summary.to_json())
    except OSError as exc:
        raise OSError(f"cannot write summary {path}: {exc}") from exc
    return str(path)


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False
