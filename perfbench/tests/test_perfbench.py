"""Tests of the benchmark itself (run: python -m pytest perfbench/tests -q).

Smoke-sized workloads keep each run to a few seconds: an 8×8 grid, a
few dozen vehicles and a few simulated minutes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.corruptions import corrupt_deadline
from repro.core.dispatch import Dispatcher, RiderStatus

from perfbench import gate, harness, tracing
from perfbench.workloads import WORKLOADS, make_inputs, setup

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {
    "city_durable": dict(grid=8, vehicles=40, trips_per_minute=4.0, pace=6.0),
    "city_sharded": dict(grid=8, vehicles=40, trips_per_minute=6.0, pace=6.0),
    "rush_hour": dict(grid=8, vehicles=12, trips_per_minute=4.0, pace=6.0,
                      social_users=40),
}


def smoke(name):
    return dataclasses.replace(WORKLOADS[name], **SMOKE[name])


def run_smoke(name, trace, capsys):
    args = argparse.Namespace(workload=name, seed=3, seconds=1.0, trace=trace)
    code = harness.execute(smoke(name), args)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def replay_smoke(name, tmp_path, traced=False):
    workload = smoke(name)
    inputs = make_inputs(workload, seed=3, seconds=1.0)
    s = setup(workload, 3, inputs, tmp_path / "ckpt")
    tracer = tracing.Tracer()
    day = (s, inputs.days[0], inputs.drain_until, harness.HostSpeed())
    if traced:
        with tracing.instrument(tracer):
            run = harness.replay(*day)
    else:
        run = harness.replay(*day)
    s.dispatcher.close()
    return run, tracer


def gate_of(run):
    report = gate.GateReport()
    harness.check(run, report)
    return report


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_matches_harness():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        harness.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        harness.PER_LAYER_UNITS
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, capsys):
    code, result = run_smoke(name, trace, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name_, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name_
        if not trace:
            assert metric["value"] > 0, name_


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rush_hour",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
def test_gate_passes_a_clean_run(tmp_path):
    run, _ = replay_smoke("city_durable", tmp_path)
    report = gate_of(run)
    assert report.ok, report.problems
    assert report.frames_validated == len(run.dispatcher.reports)


def test_gate_trips_on_a_dropped_ledger_entry(tmp_path):
    run, _ = replay_smoke("city_durable", tmp_path)
    victim = min(run.admitted)
    del run.dispatcher.ledger[victim]
    report = gate_of(run)
    assert not report.ok
    assert (0, victim) in report.failed_ids


def test_gate_trips_on_a_tampered_schedule(tmp_path):
    run, _ = replay_smoke("rush_hour", tmp_path)
    frame = next(
        r for r in run.dispatcher.reports
        if r.assignment is not None and r.assignment.served_rider_ids()
    )
    active = gate._active(frame.assignment)
    case = corrupt_deadline(active.instance, active)
    frame.assignment = case.assignment
    report = gate_of(run)
    assert not report.ok
    assert report.failed_ids  # the riders on the delayed vehicle


def test_gate_trips_on_a_diverging_restore(tmp_path):
    run, _ = replay_smoke("city_durable", tmp_path)
    restored = Dispatcher.restore(str(tmp_path / "ckpt"))
    report = gate.GateReport()
    gate.check_restored(run.dispatcher, restored, report)
    assert report.ok, report.problems
    some = next(iter(restored.fleet.values()))
    some.total_cost += 1.0
    rid = next(iter(restored.ledger))
    restored.ledger[rid] = RiderStatus.CANCELLED
    gate.check_restored(run.dispatcher, restored, report)
    assert len(report.problems) == 2
    assert (0, rid) in report.failed_ids
    restored.close()


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, leaf_seconds=1.0),
        S("a", 1.0, 4.0, 0, leaf_seconds=0.5),
        S("b", 3.0, 6.0, 0),           # overlaps a: union [1, 6]
        S("a.child", 2.0, 3.0, 1),
        S("c", 9.0, 12.0, 0),          # overhangs root: clipped to [9, 10]
    ]
    own = tracing.self_seconds(spans)
    assert own == pytest.approx([10 - 5 - 1 - 1, 3 - 1 - 0.5, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_and_folds_leaves_into_their_parent():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 4.0, 7.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")          # t=0
    child = tracer.open("child")        # t=1
    tracer.close(child)                 # t=2
    tracer.leaf("leaf", 1.5)
    tracer.leaf("leaf", 0.5)
    inner = tracer.open("inner")        # t=2.5
    tracer.close(inner)                 # t=4
    tracer.close(root)                  # t=7
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.calls == {"root": 1, "child": 1, "leaf": 2, "inner": 1}
    own = tracing.self_seconds(tracer.spans)
    assert own[0] == pytest.approx(7 - 1 - 1.5 - 2.0)
    # self times and leaves partition the root's wall time
    assert sum(tracing.self_breakdown(tracer).values()) == pytest.approx(7.0)


def test_tracing_leaves_results_bit_identical(tmp_path):
    plain, _ = replay_smoke("rush_hour", tmp_path / "a")
    traced, tracer = replay_smoke("rush_hour", tmp_path / "b", traced=True)
    assert tracer.named("dispatch.frame")
    summary = [
        (r.frame_index, r.num_served, r.num_expired, r.utility, r.travel_cost)
        for r in plain.dispatcher.reports
    ]
    assert summary == [
        (r.frame_index, r.num_served, r.num_expired, r.utility, r.travel_cost)
        for r in traced.dispatcher.reports
    ]
    assert gate.result_digest(plain.dispatcher) == gate.result_digest(
        traced.dispatcher
    )


def test_instrument_restores_originals_and_reports_missing_probes():
    original = Dispatcher.dispatch_frame
    gone = tracing.Probe("gone", "repro.core.dispatch", "Dispatcher.no_such")
    probes = tracing.PROBES + (gone,)
    with tracing.instrument(tracing.Tracer(), probes) as missing:
        assert Dispatcher.dispatch_frame is not original
    assert missing == [gone]
    assert Dispatcher.dispatch_frame is original


def test_absent_counters_do_not_crash(monkeypatch):
    import repro.perf

    monkeypatch.delattr(repro.perf, "SHARD_STATS")
    values = harness.program_counters([object()])
    assert values["shards.boundary"] is None
    assert values["oracle.query_count"] is None
    assert values["insertion.plans"] is not None


# ----------------------------------------------------------------------
# host-speed normalization
# ----------------------------------------------------------------------
def test_normalized_scales_times_and_rates_only():
    units = {"t": "s", "lat": "ms", "rate": "req/s", "n": "count",
             "gone": "ms", "recovery_s": "s", "setup.plan_s": "s"}
    metrics = {"t": 2.0, "lat": 10.0, "rate": 100.0, "n": 7.0, "gone": None,
               "recovery_s": 3.0, "setup.plan_s": 4.0}
    speed = harness.HostSpeed()
    speed.samples = [harness.KERNEL_REF_SECONDS * 2]  # all processes
    speed.own_samples = [harness.KERNEL_REF_SECONDS * 4]  # this one
    out = harness.normalized(metrics, units, speed)
    assert out == pytest.approx({"t": 1.0, "lat": 5.0, "rate": 200.0,
                                 "n": 7.0, "gone": None, "recovery_s": 0.75,
                                 "setup.plan_s": 1.0})


def test_kernel_and_frozen_heap_leave_the_collector_as_found():
    import gc

    assert gc.isenabled()
    harness.kernel_seconds()
    assert gc.isenabled()
    with harness.frozen_heap():
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0
    gc.disable()
    try:
        harness.kernel_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_kernel_helpers_time_alongside_and_stop():
    helpers = harness.KernelHelpers(1)
    processes = [process for process, _ in helpers.helpers]
    try:
        speed = harness.HostSpeed(helpers)
        speed.sample()
        assert len(speed.samples) == len(speed.own_samples) == 1
        assert speed.samples[0] > 0 and speed.own_samples[0] > 0
        assert (harness.workers_peak_kb(exclude=helpers.pids)
                < harness.workers_peak_kb())
    finally:
        helpers.close()
    assert not any(process.is_alive() for process in processes)


def test_host_speed_factor_is_reference_over_median(monkeypatch):
    times = iter([0.012, 0.003, 0.012])
    monkeypatch.setattr(harness, "kernel_seconds", lambda: next(times))
    speed = harness.HostSpeed()
    for _ in range(3):
        speed.sample()
    assert speed.factor == pytest.approx(harness.KERNEL_REF_SECONDS / 0.012)
