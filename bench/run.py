"""Benchmark of the tdsnn simulator: one workload, one closed-loop run.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload net_n1000_driven --seed 0 --seconds 35 --trace 0

One process runs one job after another for up to --seconds, with
the BLAS thread count capped at the number of usable CPUs. A fixed
reference loop runs between jobs and set-ups, and on force_n100 and
calibrate_paper every end-to-end timing is scaled to its speed (see
ReferenceClock). With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced jobs on the first case and reports the per-layer metrics. The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full record
(environment stamp, timing sample counts, simulated counts, problems).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_SAMPLES = 5  # this process plus four fresh ones
REF_WINDOW_S = 0.25  # host seconds of one reference measurement
REF_LOOP_S = 2.0e-3  # seconds per reference loop at the reference speed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Workloads and metrics, read before numpy loads with the BLAS cap.
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# Quality metrics of one task; other workloads report NOT_MEASURED.
TASK_QUALITY = {"nrmse_autonomous": "force_n100", "anchor_err_max": "calibrate_paper"}
NOT_MEASURED = 1.0
SETUP_SPANS = ("measure.weighted_drive.s", "network.build_network.s",
               "weight.shape_pulses.s", "weight.pulse_width.calls")


def units(section: str) -> dict:
    """Metric name -> unit of one section of BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def timing(values) -> dict:
    """Median and sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        revision = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        revision = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
    }


def setup(name: str, seed: int):
    """Time import tdsnn + input generation + build_network in this process."""
    t0 = time.perf_counter()
    import tdsnn  # noqa: F401  (the first import in this process is timed)
    import workloads

    workload = workloads.WORKLOADS[name]()
    cases = workload.setup(seed)
    return time.perf_counter() - t0, workload, cases


def setup_in_fresh_process(name: str, seed: int, root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", name,
         "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class ReferenceClock:
    """Host speed, measured by a fixed loop between jobs.

    A shared host's speed can drift by tens of percent over minutes, and
    scalar NumPy calls slow down with it about as much as this loop of
    them does. So on a workload whose hot path is such calls, each timing
    t is reported as t * REF_LOOP_S / loop_s: host seconds on a machine
    where the loop takes REF_LOOP_S, with loop_s the mean of the
    measurements just before and just after t. On other workloads
    (enabled=False) the loop does not run and timings stay host seconds.
    The loop does not call tdsnn.
    """

    def __init__(self, enabled: bool):
        import numpy as np

        self.enabled = enabled
        self._np = np
        self._scalars = np.random.default_rng(0).random(100)
        self.loop_s = [self.measure_once()]

    def _loop(self) -> float:
        np, scalars = self._np, self._scalars
        total = 0.0
        for i in range(300):
            total += float(np.clip(scalars[i % 100] + 1.0, 0.0, 2.0))
        return total

    def measure_once(self) -> float:
        """Mean seconds per loop over REF_WINDOW_S of host time."""
        if not self.enabled:
            return REF_LOOP_S
        loops = 0
        t0 = time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < REF_WINDOW_S or not loops:
            self._loop()
            loops += 1
        return elapsed / loops

    def scale(self) -> float:
        """Measure again; the factor for a timing made since the last one."""
        self.loop_s.append(self.measure_once())
        return REF_LOOP_S / statistics.fmean(self.loop_s[-2:])


class JobLog:
    """Per-job timings, and per-case counts, quality and problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.job_s = {False: [], True: []}  # host seconds, keyed by traced
        self.scaled_s = {False: [], True: []}  # at the reference speed
        self.sim_speed = []  # at the reference speed
        self.observed = {}  # case index -> counts and quality of its jobs
        self.problems = []

    def add(self, case, traced, job_s, scale, result, problems, observed):
        self.attempted += 1
        if not problems:
            reference = self.observed.setdefault(case, dict(observed))
            problems = [f"determinism: {k} was {reference[k]}, now {observed[k]}"
                        for k in sorted(observed.keys() & reference.keys())
                        if observed[k] != reference[k]]
            reference.update(observed)
        if problems:
            self.failed += 1
            self.problems.extend(f"job {self.attempted}: {p}" for p in problems)
            return
        self.job_s[traced].append(job_s)
        self.scaled_s[traced].append(job_s * scale)
        if not traced:
            self.sim_speed.append(result.simulated_s / (result.sim_host_s * scale))

    def quality(self, metric):
        """Median of a quality metric over the cases, each counted once."""
        values = [obs[metric] for obs in self.observed.values() if metric in obs]
        return statistics.median(values) if values else float("nan")


def run_jobs(workload, cases, seconds: float, trace: bool, root: Path,
             clock: ReferenceClock):
    """Run jobs for up to --seconds, and until every case has run once."""
    import tdsnn
    import tracing

    log = JobLog()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        traced = trace and log.attempted % 2 == 1
        index = log.attempted % len(cases)
        case = cases[index]
        counted = dict(tracer.counts)
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=root) as out_dir:
            job_s = result = None
            try:
                with (tracing.installed(tracer, tdsnn) if traced
                      else contextlib.nullcontext()):
                    t0 = time.perf_counter()
                    result = workload.run(case, out_dir)
                    job_s = time.perf_counter() - t0
                problems, counts, quality = workload.check(case, result, out_dir)
                if traced:
                    counts.update((k, v - counted.get(k, 0))
                                  for k, v in tracer.counts.items())
            except Exception as exc:  # a failed job is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                problems, counts, quality = [f"{type(exc).__name__}: {exc}"], {}, {}
        log.add(index, traced, job_s, clock.scale(), result, problems,
                {**counts, **quality})
        # start no job that would end past --seconds, taking the mean job time
        elapsed = time.perf_counter() - start
        if (elapsed * (1 + 1 / log.attempted) > seconds
                and log.attempted >= max(len(cases), 2 if trace else 1)):
            return log, tracer


def traced_setup(name: str, seed: int) -> dict:
    """Per-layer times of one set-up in this process, under tracing."""
    import tdsnn
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracing.installed(tracer, tdsnn):
        workloads.WORKLOADS[name]().setup(seed)
    spans = tracer.per_job(1)
    return {f"setup.{key}": spans.get(key, 0.0) for key in SETUP_SPANS}


def end_to_end(name, setup_times, log: JobLog) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "job_s": (statistics.median(log.scaled_s[False]) if log.scaled_s[False]
                  else float("nan")),
        "sim_speed": statistics.median(log.sim_speed) if log.sim_speed else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - log.failed / log.attempted,
    }
    for metric, workload in TASK_QUALITY.items():
        values[metric] = log.quality(metric) if workload == name else NOT_MEASURED
    return values


def per_layer(name, seed, log: JobLog, tracer) -> dict:
    traced, untraced = log.scaled_s[True], log.scaled_s[False]
    values = dict.fromkeys(units("per_layer"), 0.0)
    if traced:
        spans = tracer.per_job(len(traced))
        values.update({k: v for k, v in spans.items() if k in values})
        values["trace.self_sum_frac"] = tracer.self_total() / sum(log.job_s[True])
        values["trace.job_s"] = statistics.median(traced)
    if untraced:
        values["trace.untraced_job_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
    if 0 in log.observed:
        values["traceio.rows"] = log.observed[0].get("rows", 0)
        values["traceio.bytes"] = log.observed[0].get("bytes", 0)
    values.update(traced_setup(name, seed))
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time one set-up in this process, print it and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tdsnn" / "__init__.py").is_file():
        print(f"error: no src/tdsnn under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # read by the BLAS when numpy loads
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(root / "src"))

    if args.probe_setup:
        print(setup(args.workload, args.seed)[0])
        return 0

    setup_s, workload, cases = setup(args.workload, args.seed)
    clock = ReferenceClock(workload.scaled)  # measured right after that set-up
    setup_times = [setup_s]
    scaled_setup = [setup_s * REF_LOOP_S / clock.loop_s[0]]
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        setup_times.append(setup_in_fresh_process(args.workload, args.seed, root))
        scaled_setup.append(setup_times[-1] * clock.scale())
    if args.trace:  # one case, so the traced counts repeat exactly
        cases = cases[:1]
    log, tracer = run_jobs(workload, cases, args.seconds, bool(args.trace), root,
                           clock)

    if args.trace:
        values = per_layer(args.workload, args.seed, log, tracer)
    else:
        values = end_to_end(args.workload, scaled_setup, log)
    metric_units = units("per_layer" if args.trace else "end_to_end")
    correct = log.failed == 0 and all(v == v for v in values.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        # host seconds; the metrics are these at the reference speed
        "setup_s": timing(setup_times),
        "job_s": {"untraced": timing(log.job_s[False]) if log.job_s[False] else None,
                  "traced": timing(log.job_s[True]) if log.job_s[True] else None},
        "reference": {"scaled": clock.enabled, "loop_s": timing(clock.loop_s),
                      "nominal_loop_s": REF_LOOP_S},
        "failed_frac": log.failed / log.attempted,
        "observed": log.observed, "problems": log.problems,
        # equal for every run of the same code, workload, seed and --trace
        "observed_sha256": hashlib.sha256(
            json.dumps(log.observed, sort_keys=True).encode()).hexdigest(),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": log.attempted, "failed": log.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in metric_units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
