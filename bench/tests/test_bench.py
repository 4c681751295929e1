"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tdsnn  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "net_n1000_driven": workloads.NetDriven(n=30, duration=0.02),
    "force_n100": workloads.ForceN100(n=20, networks=2, train_cfg=tdsnn.TrainConfig(
        train_periods=1, eval_periods=1, target=tdsnn.TargetSpec(frequency=50.0))),
    "calibrate_paper": workloads.CalibratePaper(sim_duration=0.5),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_untraced_and_traced(name, tmp_path):
    workload = TINY[name]
    log, tracer = run.run_jobs(workload, workload.setup(3), seconds=0.0, trace=True,
                               root=tmp_path, clock=run.ReferenceClock(workload.scaled))
    assert (log.attempted, log.failed, log.problems) == (2, 0, [])
    assert len(log.job_s[False]) == len(log.job_s[True]) == 1
    assert log.observed[0]["spikes"] > 0
    # every traced second is covered by exactly one span's self time
    assert tracer.self_total() == pytest.approx(log.job_s[True][0], rel=0.02)
    assert list(tmp_path.iterdir()) == []


def test_per_layer_and_end_to_end_report_every_metric(tmp_path):
    workload = TINY["force_n100"]
    log, tracer = run.run_jobs(workload, workload.setup(0), 0.0, True, tmp_path,
                               run.ReferenceClock(workload.scaled))
    layers = run.per_layer("force_n100", 0, log, tracer)
    assert set(layers) == set(run.units("per_layer"))
    # the traced job is the second one, on the second network
    assert layers["reservoir.rls_update.calls"] == log.observed[1]["rls_updates"]
    assert layers["network.spikes"] == log.observed[1]["spikes"]
    e2e = run.end_to_end("force_n100", [0.1, 0.2, 0.3], log)
    assert set(e2e) == set(run.units("end_to_end"))
    assert e2e["setup_s"] == 0.2 and e2e["ok_frac"] == 1.0
    assert e2e["anchor_err_max"] == run.NOT_MEASURED


def test_changed_counts_for_a_case_fail_as_nondeterministic():
    log = run.JobLog()
    result = workloads.JobResult(None, 1.0, 1.0)
    log.add(0, False, 1.0, 1.0, result, [], {"spikes": 5, "nrmse_autonomous": 1.5})
    log.add(1, False, 1.0, 1.0, result, [], {"spikes": 7, "nrmse_autonomous": 0.5})
    log.add(0, False, 1.0, 1.0, result, [], {"spikes": 5, "nrmse_autonomous": 1.5})
    assert log.failed == 0 and log.quality("nrmse_autonomous") == 1.0
    log.add(1, False, 1.0, 1.0, result, [], {"spikes": 8, "nrmse_autonomous": 0.5})
    assert log.failed == 1
    assert log.problems == ["job 4: determinism: spikes was 7, now 8"]


def test_wrappers_restore_originals():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _, _ in tracing.sites(tdsnn)]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), tdsnn):
            assert all(vars(o)[a] is not f for o, a, f in before)
            raise RuntimeError("job failed")
    assert all(vars(o)[a] is f for o, a, f in before)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = tracer.stats["outer"]
    assert (calls, tracer.stats["inner"][0]) == (1, 3)
    assert self_s == pytest.approx(total - tracer.stats["inner"][1], abs=1e-12)
    assert tracer.self_total() == pytest.approx(total, abs=1e-12)


def test_output_check_rejects_injected_nan(tmp_path):
    workload = TINY["net_n1000_driven"]
    [case] = workload.setup(0)
    result = workload.run(case, tmp_path)
    assert workload.check(case, result, tmp_path)[0] == []
    traces, _ = result.outputs
    traces.v_mem[1, 0] = float("nan")
    problems = workload.check(case, result, tmp_path)[0]
    assert "v_mem has non-finite values" in problems


def test_timing_reports_tail_only_with_ten_samples_beyond():
    assert set(run.timing([1.0] * 99)) == {"median", "n"}
    assert "p90" in run.timing([1.0] * 100)
    assert "p99" in run.timing([1.0] * 1000)


def test_cli_fails_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "force_n100",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_setup_times_the_drive_shaping():
    values = run.traced_setup("net_n1000_driven", 0)
    assert set(values) == {f"setup.{key}" for key in run.SETUP_SPANS}
    assert values["setup.weight.pulse_width.calls"] == 1000  # one per driven neuron
    assert 0 < values["setup.weight.shape_pulses.s"] < values["setup.measure.weighted_drive.s"]


def test_reference_clock_scales_by_the_loops_around_a_timing(monkeypatch):
    monkeypatch.setattr(run, "REF_WINDOW_S", 0.01)
    clock = run.ReferenceClock(True)
    scale = clock.scale()
    assert len(clock.loop_s) == 2 and all(t > 0 for t in clock.loop_s)
    assert scale == pytest.approx(run.REF_LOOP_S / (sum(clock.loop_s) / 2))
    assert run.ReferenceClock(False).scale() == 1.0
