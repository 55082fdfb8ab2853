from collections import Counter

import pytest

from fogsim import monitor as monitor_module
from fogsim import report, simulator
from fogsim.cluster import ClusterState, Node, PodInstance, PodStatus, Topology
from fogsim.monitor import ClusterMonitor, MonitorConfig, simulate_scheduling
from fogsim.scenario_io import parse_scenario
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.scheduling import Assigned, SchedulerConfig, run_queue, schedule_one

from conftest import make_state, record

BASELINE = SchedulerConfig(plugins=(("baseline", 1.0),))
# location affinity keeps the anchor pod in place so only the drifting pod
# has a better node elsewhere
ANCHORED = SchedulerConfig(plugins=(("baseline", 1.0), ("location-affinity", 1.0)))


def two_node_state():
    topology = Topology({"z": ["n1", "n2"]}, {"z": 0.1})
    nodes = [Node(id=n, zone="z", cpu_capacity=1000) for n in ("n1", "n2")]
    return ClusterState(nodes, topology)


def pod(pod_id, request=100, scope=None):
    return PodInstance(id=pod_id, service="svc", cpu_request=request,
                       cpu_limit=request, location_scope=scope)


class TestSimulateScheduling:
    def test_single_node_returns_current(self):
        topology = Topology({"z": ["n1"]}, {"z": 0.1})
        state = ClusterState([Node(id="n1", zone="z")], topology)
        state.add_pod(pod("p"))
        state.apply_placement("p", "n1", 0.0)
        assert simulate_scheduling(state, "p", BASELINE) == "n1"

    def test_better_node_detected(self):
        state = two_node_state()
        # p sits on n1 next to a heavy neighbour; empty n2 is clearly better
        state.add_pods([pod("heavy", request=800), pod("p", request=100)])
        state.apply_placement("heavy", "n1", 0.0)
        state.apply_placement("p", "n1", 0.0)
        expected = schedule_one(state.snapshot(exclude="p"), state.pods["p"],
                                BASELINE)
        assert expected == Assigned("n2")
        assert simulate_scheduling(state, "p", BASELINE) == "n2"

    def test_dry_run_leaves_state_untouched(self):
        state = two_node_state()
        state.add_pods([pod("heavy", request=800), pod("p")])
        state.apply_placement("heavy", "n1", 0.0)
        state.apply_placement("p", "n1", 0.0)
        before = record(state)
        assert simulate_scheduling(state, "p", BASELINE, now=500.0) == "n2"
        assert record(state) == before

    def test_requires_running_pod(self):
        state = two_node_state()
        state.add_pod(pod("p"))
        with pytest.raises(ValueError, match="not running"):
            simulate_scheduling(state, "p", BASELINE)


def drifted_state():
    """Pod `p` runs on n1 beside an anchored heavy pod; the dry run under
    the ANCHORED config prefers the empty n2 for `p` and keeps `heavy`."""
    state = two_node_state()
    state.add_pods([pod("heavy", request=800, scope="n1"), pod("p")])
    state.apply_placement("heavy", "n1", 0.0)
    state.apply_placement("p", "n1", 0.0)
    return state


class TestMonitorPass:
    def config(self, grace=120.0, backoff=120.0):
        return ClusterMonitor(MonitorConfig(10.0, grace, backoff), ANCHORED)

    def test_evicts_after_grace(self):
        state = drifted_state()
        monitor = self.config()
        evictions = monitor.pass_once(state, now=130.0)
        assert [e.pod for e in evictions] == ["p"]
        assert evictions[0].target_node == "n2"
        assert state.pods["p"].status is PodStatus.PENDING

    def test_grace_gate_blocks_young_pods(self):
        state = drifted_state()
        monitor = self.config()
        assert monitor.pass_once(state, now=60.0) == []
        assert state.pods["p"].status is PodStatus.RUNNING

    def test_same_node_result_never_evicts(self):
        state = two_node_state()
        state.add_pods([pod("heavy", request=800, scope="n2"), pod("p")])
        state.apply_placement("heavy", "n2", 0.0)
        state.apply_placement("p", "n1", 0.0)  # already on the best node
        monitor = self.config()
        assert monitor.pass_once(state, now=10_000.0) == []

    def test_backoff_blocks_repeat_eviction(self):
        state = drifted_state()
        monitor = self.config(backoff=120.0)
        assert len(monitor.pass_once(state, 130.0)) == 1
        # force the pod back onto the worse node with an old start time
        state.apply_placement("p", "n1", 130.0)
        state.pods["p"].start_time = 0.0
        assert monitor.pass_once(state, 200.0) == []  # within backoff
        assert len(monitor.pass_once(state, 260.0)) == 1  # backoff expired

    def test_eviction_target_differs_from_source(self):
        state = drifted_state()
        monitor = self.config()
        for event in monitor.pass_once(state, 500.0):
            assert event.target_node != event.from_node


def monitor_loop(state, monitor, until):
    """Monitor passes every loop period up to `until`; after a pass that
    evicted, wake the unschedulable pods and drain the queue, as the
    simulator does.  Returns every eviction."""
    config = monitor.scheduler_config
    events = []
    t = monitor.config.loop_period_s
    while t <= until:
        evicted = monitor.pass_once(state, t)
        if evicted:
            state.reactivate_unschedulable()
            run_queue(state, config, t)
        events += evicted
        t += monitor.config.loop_period_s
    return events


def test_fixed_point_has_no_evictions():
    state = make_state()
    state.add_pods([pod(f"p{i}") for i in range(16)])
    run_queue(state, BASELINE, 0.0)  # balanced 2 per node
    monitor = ClusterMonitor(MonitorConfig(10.0, 120.0, 120.0), BASELINE)
    assert monitor_loop(state, monitor, until=1000.0) == []


def test_periodic_passes_evict_after_grace_and_reschedule():
    state = drifted_state()
    monitor = ClusterMonitor(MonitorConfig(10.0, 120.0, 120.0), ANCHORED)
    events = monitor_loop(state, monitor, until=300.0)
    assert [e.pod for e in events] == ["p"]
    assert events[0].time == 130.0  # first pass after the grace period
    assert state.pods["p"].assignment == "n2"


def count_dry_runs(monkeypatch) -> Counter:
    calls = Counter()
    dry_run = monitor_module.simulate_scheduling

    def counted(*args, **kwargs):
        calls["dry runs"] += 1
        return dry_run(*args, **kwargs)

    monkeypatch.setattr(monitor_module, "simulate_scheduling", counted)
    return calls


def test_gated_pods_are_not_dry_run(monkeypatch):
    calls = count_dry_runs(monkeypatch)
    assert ClusterMonitor(MonitorConfig(), ANCHORED).pass_once(drifted_state(), 60.0) == []
    assert calls["dry runs"] == 0


@pytest.mark.parametrize("config, reused", [
    (BASELINE, True),
    (SchedulerConfig(plugins=(("baseline", 1.0), ("dependencies", 1.0))), False)])
def test_verdicts_are_reused_while_the_epoch_stands(monkeypatch, config, reused):
    state = make_state()
    state.add_pods([pod(f"p{i}") for i in range(16)])
    run_queue(state, BASELINE, 0.0)
    calls = count_dry_runs(monkeypatch)
    monitor = ClusterMonitor(MonitorConfig(), config)
    assert monitor.pass_once(state, 200.0) == []
    assert calls["dry runs"] == 16
    assert monitor.pass_once(state, 210.0) == []
    # a plugin that reads the clock may judge the same cluster differently later
    assert calls["dry runs"] == (16 if reused else 32)
    # a link change moves no placement: only a plugin that reads links runs again
    state.topology.set_uplink("P1", 0.7)
    assert monitor.pass_once(state, 220.0) == []
    assert calls["dry runs"] == (16 if reused else 48)


# Pods of `app` depend on `db`, whose replicas are pinned on two full nodes;
# `app` fits only on P3-A or P4-A.  While the db samples are fresh (90 s
# under the default balancer settings), db-1's better metric puts `app` on
# P4-A; once stale (t=100) latency alone prefers P3-A, so the verdict moves
# with the clock and no cluster write.  The t=200 samples and the t=250
# uplink change move it again.  The `plain` arm moves the db replicas off
# their full nodes.
STALE_DRIFT = """
[scenario]
name = stale-drift
seed = 3
duration_s = 400
repetitions = 2
sample_period_s = 5

[topology]
zone.P1 = P1-A
zone.P2 = P2-A
zone.P3 = P3-A
zone.P4 = P4-A
uplink.P1 = 0.5
uplink.P2 = 0.8
uplink.P3 = 1.0
uplink.P4 = 1.2

[nodes]
override.P1-A.cpu_capacity = 100
override.P2-A.cpu_capacity = 100

[service db]
replicas = 2
cpu_request = 100
metric = load lower-is-better

[service app]
replicas = 1
cpu_request = 100
depends_on =
    db weight=1.0 lw=0.5 mw=0.5

[arm custom]
plugins = dependencies:1.0

[arm plain]
plugins = baseline:1.0

[monitor]
enabled = true
loop_period_s = 10
grace_s = 20
backoff_s = 60

[workload]
events =
    at 0 deploy db
    at 0 pin db-0 P1-A
    at 0 pin db-1 P2-A
    at 0 metric db db-0 5.0
    at 0 metric db db-1 1.0
    at 1 deploy app
    at 200 metric db db-0 5.0
    at 200 metric db db-1 1.0
    at 250 link P4 0.2
"""


# The stock config's seeded-random placement leaves the nodes unbalanced and
# the RT pods bunched; the monitor of the placement-only `custom` arm moves
# them.  Grace and backoff are shorter than the loop period, so a pod that
# was running at one pass is dry-run at the next.  Between passes the
# balancer refreshes every 4 s and re-ingests the web metrics, and a new
# sample arrives at t=50.
REFRESH_DRIFT = """
[scenario]
name = refresh-drift
seed = 7
duration_s = 120
repetitions = 2

[topology]
zone.A = a1 a2
zone.B = b1 b2
uplink.A = 0.5
uplink.B = 1.0

[nodes]
cores = 1
cpu_capacity = 1000

[service web]
replicas = 12
cpu_request = 50
metric = load lower-is-better

[service rt]
replicas = 4
cpu_request = 50
rt_processes =
    deadline name=worker runtime_us=200000 period_us=1000000

[arm custom]
plugins = realtime:10.0 baseline:1.0

[config stock]
plugins = baseline:1.0
tie_break = seeded-random

[monitor]
enabled = true
loop_period_s = 10
grace_s = 5
backoff_s = 5

[loadbalancer]
refresh_period_s = 4

[workload]
events =
    at 0 deploy web rt using=stock
    at 0 metric web web-0 2.0
    at 0 metric web web-1 1.0
    at 1 requests client=a1 service=web rate_hz=2 count=200
    at 50 metric web web-2 3.0
"""

SCENARIOS = {"stale-drift": STALE_DRIFT, "refresh-drift": REFRESH_DRIFT}


def load(name):
    return parse_scenario(SCENARIOS[name]) if name in SCENARIOS else load_bundled(name)


def reference_pass_once(self, state, now):
    """The monitor pass with the dry run before the gates and no verdict
    reuse: what a gated, reusing pass must reproduce."""
    evictions = []
    for node_id in sorted(state.nodes):
        for pod in self._pods_on(state, node_id):
            if pod.status is not PodStatus.RUNNING:
                continue
            result = monitor_module.simulate_scheduling(state, pod.id,
                                                        self.scheduler_config, now)
            if result is None or result == pod.assignment:
                continue
            if now - pod.start_time <= self.config.grace_s:
                continue
            last = self.backoff.get(pod.id)
            if last is not None and now - last <= self.config.backoff_s:
                continue
            state.evict(pod.id, now, reason="monitor", target_node=result)
            self.backoff[pod.id] = now
            evictions.append(state.eviction_log[-1])
    return evictions


def test_stale_drift_moves_with_the_clock():
    rows = simulator.run_scenario(load("stale-drift"), repetitions=1).evictions
    assert [(r[2], r[5]) for r in rows if r[0] == "custom"] == [
        ("100.0", "P3-A"), ("200.0", "P4-A"), ("270.0", "P3-A"), ("340.0", "P4-A")]


@pytest.mark.parametrize("name", ["fig5-dependencies", "fig6-realtime", "fig7-monitor",
                                  *SCENARIOS])
def test_pass_matches_the_reference_pass(monkeypatch, tmp_path, name):
    config = load(name)
    calls = count_dry_runs(monkeypatch)
    results = simulator.run_scenario(config, profile="ci")
    dry_runs = calls["dry runs"]
    monkeypatch.setattr(ClusterMonitor, "pass_once", reference_pass_once)
    reference = simulator.run_scenario(config, profile="ci")
    assert results.evictions == reference.evictions
    assert dry_runs < calls["dry runs"] - dry_runs or config.monitor is None
    for path, ref_path in zip(report.write_results(results, tmp_path / "pass"),
                              report.write_results(reference, tmp_path / "reference")):
        assert path.read_bytes() == ref_path.read_bytes(), path.name


def placements(state) -> tuple:
    """What the epoch counts: the running lists, the allocation map and the
    RT sums of every node."""
    return ({n: [p.id for p in state.running_on(n)] for n in state.nodes},
            dict(state.allocated_m), {n: state.rt_utilization(n) for n in state.nodes})


@pytest.mark.parametrize("name", [*BUNDLED, *SCENARIOS])
def test_epoch_moves_with_every_placement_write_only(monkeypatch, name):
    dispatch = simulator._Run.dispatch
    moved, stood = Counter(), Counter()

    def checked(self, now, kind, payload, timeseries):
        before, epoch = placements(self.state), self.state.epoch
        dispatch(self, now, kind, payload, timeseries)
        if placements(self.state) != before:
            assert self.state.epoch != epoch, (kind.name, now)
            moved[kind.name] += 1
        if kind.name in ("METRIC", "LINK", "LB_REFRESH"):
            assert self.state.epoch == epoch, (kind.name, now)
            stood[kind.name] += 1

    monkeypatch.setattr(simulator._Run, "dispatch", checked)
    simulator.run_scenario(load(name), profile="ci")
    assert moved["SCHED"] or moved["PIN"]
    if name == "stale-drift":
        assert "MONITOR" in moved and {"LINK", "METRIC"} <= stood.keys()
    if name in ("fig9-loadbalancer", "refresh-drift"):
        assert {"LB_REFRESH", "METRIC"} <= stood.keys()


def test_refreshes_and_metrics_leave_placement_verdicts_standing(monkeypatch):
    calls = count_dry_runs(monkeypatch)
    dispatch = simulator._Run.dispatch
    since, passes = set(), []  # kinds since the last pass; (kinds, dry runs) per pass

    def traced(self, now, kind, payload, timeseries):
        before = calls["dry runs"]
        dispatch(self, now, kind, payload, timeseries)
        if kind is simulator.EventKind.MONITOR:
            passes.append((frozenset(since), calls["dry runs"] - before))
            since.clear()
        else:
            since.add(kind.name)

    monkeypatch.setattr(simulator._Run, "dispatch", traced)
    results = simulator.run_scenario(load("refresh-drift"), profile="ci")
    assert results.evictions and results.requests
    # every run starts with a deploy, so its first pass is never quiet
    quiet = [dry_runs for kinds, dry_runs in passes if kinds <= {"LB_REFRESH", "METRIC"}]
    assert len(quiet) > len(passes) // 2
    assert any(kinds == {"LB_REFRESH", "METRIC"} for kinds, _ in passes)
    assert quiet == [0] * len(quiet)
