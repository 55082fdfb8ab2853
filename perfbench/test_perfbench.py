"""Tests of the benchmark's own parts: generators, checkers, span arithmetic
and the host-speed scaling.

    python3 -m pytest perfbench/test_perfbench.py
"""

import csv
import gc
import sys
from pathlib import Path
from time import perf_counter

import pytest

import checks
import hostspeed
import run
import spans
import workloads
from workloads import NodeFacts, ServiceFacts, Workload

CHECKOUT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic(name):
    first = workloads.build(name, 7, CHECKOUT)
    again = workloads.build(name, 7, CHECKOUT)
    other = workloads.build(name, 8, CHECKOUT)
    assert first.text.encode() == again.text.encode()
    assert first == again
    assert other.text != first.text


def test_monitor_workload_overrides_seed_and_reps():
    text = workloads.build("monitor-converge", 12345, CHECKOUT).text
    assert "\nseed = 12345\n" in text
    assert f"\nrepetitions = {workloads.REPS}\n" in text


def _write(outdir: Path, stem: str, rows) -> None:
    fields = {"placements": ("arm", "rep", "pod", "service", "node", "status", "time"),
              "timeseries": ("arm", "rep", "t", "node", "rt_pods", "regular_pods", "total"),
              "requests": ("arm", "rep", "t", "client", "service", "replica", "node",
                           "rtt_ms"),
              "evictions": ("arm", "rep", "t", "pod", "from_node", "target_node",
                            "reason")}[stem]
    with open(outdir / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _burst(tmp_path, placements):
    """A two-node placement-burst result in which `high-0` preempted `low-0`."""
    workload = Workload(
        "placement-burst", "", ("rt",), 1,
        services={"low": ServiceFacts(("low-0", "low-1"), 400, 0, 0.5),
                  "high": ServiceFacts(("high-0",), 400, 10, 0.9),
                  "web": ServiceFacts(("web-0",), 300)},
        nodes={"n1": NodeFacts(1000, 1.0), "n2": NodeFacts(1000, 1.0)})
    for stem in checks.CSV_STEMS:
        _write(tmp_path, stem, [])
    _write(tmp_path, "placements", placements)
    _write(tmp_path, "evictions", [("rt", 0, "15.0", "low-0", "n1", "-", "preemption")])
    return checks.check(workload, tmp_path)


VALID_BURST = [("rt", 0, "high-0", "high", "n1", "Running", "15.0"),
               ("rt", 0, "low-0", "low", "-", "Unschedulable", "0.0"),
               ("rt", 0, "low-1", "low", "n2", "Running", "0.0"),
               ("rt", 0, "web-0", "web", "n2", "Running", "0.0")]


def test_placement_checker_accepts_valid_result(tmp_path):
    assert _burst(tmp_path, VALID_BURST) == []


def test_placement_checker_rejects_node_over_cpu_capacity(tmp_path):
    corrupt = VALID_BURST[:2] + [("rt", 0, "low-1", "low", "n1", "Running", "0.0"),
                                 ("rt", 0, "web-0", "web", "n1", "Running", "0.0")]
    problems = _burst(tmp_path, corrupt)
    assert any("n1 runs 1100m CPU over its 1000m capacity" in p for p in problems)
    assert any("n1 RT utilization 1.400 over 1.0" in p for p in problems)


def test_placement_checker_rejects_victim_without_higher_priority_displacer(tmp_path):
    late = [(*VALID_BURST[0][:6], "16.0"), *VALID_BURST[1:]]
    problems = _burst(tmp_path, late)
    assert any("no higher-priority pod took low-0's place" in p for p in problems)


def test_request_checker_counts_rows_and_replicas(tmp_path):
    workload = Workload("request-stream", "", ("weighted",), 1,
                        services={"svc": ServiceFacts(("svc-0", "svc-1"), 100)},
                        requests_per_run=2)
    for stem in checks.CSV_STEMS:
        _write(tmp_path, stem, [])
    _write(tmp_path, "placements", [("weighted", 0, "svc-0", "svc", "n1", "Running", "0.0"),
                                    ("weighted", 0, "svc-1", "svc", "n2", "Running", "0.0")])
    row = ("weighted", 0, "1.0", "n3", "svc", "svc-0", "n1", "0.5")
    _write(tmp_path, "requests", [row, row])
    assert checks.check(workload, tmp_path) == []
    _write(tmp_path, "requests", [row, (*row[:5], "svc-1", "n1", "0.5"), row])
    problems = checks.check(workload, tmp_path)
    assert any("svc-1 answered from n1" in p for p in problems)
    assert any("3 request rows for 2 requests issued" in p for p in problems)


# run(0-10) > [queue(1-4) > snap(2-3)], [snap(5-9)]
TREE = [("simulator.run", 0.0, 10.0, -1),
        ("scheduling.run_queue", 1.0, 4.0, 0),
        ("cluster.snapshot", 2.0, 3.0, 1),
        ("cluster.snapshot", 5.0, 9.0, 0)]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(TREE) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_time_per_layer():
    m = spans.layer_metrics(TREE, {"cluster.snapshot.pods_copied": 7})
    assert m["simulator.run.s"] == 10.0
    assert m["simulator.self_s"] == 3.0
    assert m["scheduling.run_queue.s"] == 2.0
    assert (m["cluster.snapshot.calls"], m["cluster.snapshot.s"]) == (2, 5.0)
    assert m["cluster.snapshot.pods_copied"] == 7
    assert m["monitor.pass.calls"] == 0 and m["monitor.eviction_ratio"] == 0.0


def test_tracer_records_nesting_and_restores_originals():
    sys.path.insert(0, str(CHECKOUT / "src"))
    from fogsim import simulator

    original = simulator.run_queue
    tracer = spans.Tracer()
    with tracer.patched():
        assert simulator.run_queue is not original
        outer = tracer.wrap(lambda: inner(), "outer")
        inner = tracer.wrap(lambda: 42, "inner")
        assert outer() == 42
    assert simulator.run_queue is original
    (name0, s0, e0, p0), (name1, s1, e1, p1) = tracer.spans
    assert (name0, p0, name1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


@pytest.mark.parametrize("enabled", (True, False))
def test_calibration_leaves_gc_state_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert hostspeed.calibrate(2) > 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_sampler_clock_leaves_out_the_slices():
    sampler = hostspeed.Sampler()
    sampler.start()
    start, wall = sampler.clock(), perf_counter()
    hostspeed._job(200)   # long enough for a few slices
    elapsed, wall = sampler.clock() - start, perf_counter() - wall
    sampler.stop()
    assert sampler.rounds - hostspeed.FINAL_ROUNDS >= hostspeed.SLICE_ROUNDS
    assert elapsed < wall
    assert sampler.round_s() > 0


def test_times_are_scaled_to_reference_speed_per_iteration():
    ref = hostspeed.REFERENCE_ROUND_S
    rows = [{"simulate_s": 2.0, "round_s": ref * 2},   # host at half speed
            {"simulate_s": 1.0, "round_s": ref},
            {"simulate_s": 0.5, "round_s": ref / 2}]   # twice as fast
    assert run.scaled(rows, "simulate_s") == pytest.approx(1.0)
    assert run.median(rows, "simulate_s") == 1.0
