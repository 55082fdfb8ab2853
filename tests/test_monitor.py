from collections import Counter

import pytest

from fogsim import monitor as monitor_module
from fogsim import simulator
from fogsim.cluster import (ClusterState, DeadlinePolicy, DependencyRef, Node, PodInstance,
                            PodStatus, RtProcessSpec, Topology)
from fogsim.monitor import ClusterMonitor, MonitorConfig, simulate_scheduling
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.scheduling import Assigned, Preempted, SchedulerConfig, run_queue, schedule_one
from fogsim.telemetry import MetricSpec

from conftest import load_test_scenario, make_state, record

BASELINE = SchedulerConfig(plugins=(("baseline", 1.0),))
# location affinity keeps the anchor pod in place so only the drifting pod
# has a better node elsewhere
ANCHORED = SchedulerConfig(plugins=(("baseline", 1.0), ("location-affinity", 1.0)))


def two_node_state():
    topology = Topology({"z": ["n1", "n2"]}, {"z": 0.1})
    nodes = [Node(id=n, cpu_capacity=1000) for n in ("n1", "n2")]
    return ClusterState(nodes, topology)


def pod(pod_id, request=100, scope=None):
    return PodInstance(id=pod_id, service="svc", cpu_request=request,
                       cpu_limit=request, location_scope=scope)


class TestSimulateScheduling:
    def test_single_node_returns_current(self):
        topology = Topology({"z": ["n1"]}, {"z": 0.1})
        state = ClusterState([Node(id="n1")], topology)
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


def test_a_pass_walks_rt_pods_first_then_by_id(monkeypatch):
    rt = (RtProcessSpec(DeadlinePolicy(100_000, 1_000_000), name_substring="rt"),)
    state = two_node_state()
    for pod_id in ["e", "a", "d", "f", "b", "c"]:  # each of its own shape: none shares a verdict
        state.add_pod(PodInstance(id=pod_id, service="rt" if pod_id in "bde" else "svc",
                                  cpu_request=10 + "abcdef".index(pod_id),
                                  rt_processes=rt if pod_id in "bde" else ()))
        state.apply_placement(pod_id, "n1", 0.0)
    walked = []

    def dry_run(state, pod_id, config, now):
        # `b` is sent away, so the pass evicts while it walks n1's pods
        walked.append(pod_id)
        return "n2" if pod_id == "b" else state.pods[pod_id].assignment

    monkeypatch.setattr(monitor_module, "simulate_scheduling", dry_run)
    evictions = ClusterMonitor(MonitorConfig(), BASELINE).pass_once(state, 500.0)
    assert [e.pod for e in evictions] == ["b"]
    assert walked == ["b", "d", "e", "a", "c", "f"]


def counted(monkeypatch, monitor) -> Counter:
    """Count `monitor`'s dry runs, gate checks and stamps of its config."""
    calls = count_dry_runs(monkeypatch)
    for owner, name, label in ((monitor, "_gated", "gates"),
                               (monitor.scheduler_config, "stamp", "stamps")):
        def hook(*args, fn=getattr(owner, name), label=label):
            calls[label] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, hook)
    return calls


DEPS = SchedulerConfig(plugins=(("baseline", 1.0), ("dependencies", 1.0)))


def quiet_state(young_at=100.0, sample_at=150.0):
    """12 `svc` pods and 4 `web` pods reading a `svc` sample, placed at t=0,
    and a `young` `svc` pod placed at `young_at`: a fixed point under DEPS
    while the sample, taken anew at `sample_at`, stays fresh."""
    state = make_state()
    state.metric_store.specs = {"svc": MetricSpec("load")}
    state.add_pods([pod(f"p{i}") for i in range(12)])
    run_queue(state, DEPS, 0.0)
    state.metric_store.ingest("svc", "p0", 1.0, 0.0)
    state.add_pods([PodInstance(id=f"w{i}", service="web", dependencies=(DependencyRef("svc"),))
                    for i in range(4)])
    run_queue(state, DEPS, 0.0)
    state.add_pod(pod("young"))
    run_queue(state, DEPS, young_at)  # gated up to young_at + 120
    state.metric_store.ingest("svc", "p0", 1.0, sample_at)  # fresh up to sample_at + 90
    return state


def test_a_pass_after_a_quiet_one_checks_only_the_stamp_of_each_shape(monkeypatch):
    state = quiet_state()
    monitor = ClusterMonitor(MonitorConfig(), DEPS)
    assert monitor.pass_once(state, 200.0) == []
    calls = counted(monkeypatch, monitor)
    for now in (210.0, 219.0, 219.99):
        assert monitor.pass_once(state, now) == []
    assert calls == Counter(stamps=3 * 2)  # `svc` and `web`; no gate checked, no dry run


@pytest.mark.parametrize("event", ["placement", "gate", "sample"])
def test_a_placement_an_opening_gate_or_a_stale_sample_makes_a_pass_walk(monkeypatch, event):
    # the young pod's gate opens at 220, and the sample goes stale after 240,
    # unless the event moves either to 215
    state = quiet_state(young_at=95.0 if event == "gate" else 100.0,
                        sample_at=120.0 if event == "sample" else 150.0)
    monitor = ClusterMonitor(MonitorConfig(), DEPS)
    assert monitor.pass_once(state, 200.0) == []
    calls = counted(monkeypatch, monitor)
    assert monitor.pass_once(state, 210.0) == [] and calls["gates"] == 0
    if event == "placement":
        state.add_pod(pod("late"))
        run_queue(state, DEPS, 212.0)
    monitor.pass_once(state, 215.0)
    assert calls["gates"] == sum(len(state.running_on(n)) for n in state.nodes)


def test_replicas_of_a_self_dependent_service_keep_their_own_verdicts():
    # a `mesh` replica's dry run reads the other replicas' samples: without `a`,
    # low-valued `b` (n1) beats `c` (n3), and without `b`, `c` beats high-valued `a`
    state = ClusterState([Node(id="n1"), Node(id="n3")],
                         Topology({"z1": ["n1"], "z3": ["n3"]}, {"z1": 0.5, "z3": 0.5}))
    state.metric_store.specs = {"mesh": MetricSpec("load")}
    for pod_id, node, value in (("a", "n1", 9.0), ("b", "n1", 1.0), ("c", "n3", 4.0)):
        state.add_pod(PodInstance(id=pod_id, service="mesh",
                                  dependencies=(DependencyRef("mesh"),)))
        state.apply_placement(pod_id, node, 0.0)
        state.metric_store.ingest("mesh", pod_id, value, 100.0)
    config = SchedulerConfig(plugins=(("dependencies", 1.0),))
    assert [simulate_scheduling(state, p, config, 130.0) for p in "abc"] == ["n1", "n3", "n1"]
    evictions = ClusterMonitor(MonitorConfig(), config).pass_once(state, 130.0)
    # `b` is judged by its own dry run, not by `a`'s, though both are of one shape on n1
    assert [(e.pod, e.target_node) for e in evictions] == [("b", "n3"), ("c", "n1")]


def test_a_preempting_dry_run_never_evicts_a_pod_of_its_own_shape(monkeypatch):
    # n1 is over its RT quota: neither `p` nor `q` fits back without evicting
    # the lower-priority `r`, and a victim has a strictly lower priority
    state = ClusterState([Node(id="n1", cores=1)], Topology({"z": ["n1"]}, {"z": 0.5}))
    for pod_id, priority, runtime_us in (("p", 5, 300_000), ("q", 5, 300_000),
                                         ("r", 0, 500_000)):
        policy = DeadlinePolicy(runtime_us, 1_000_000)
        state.add_pod(PodInstance(id=pod_id, service="rt", priority_class=priority, rt_processes=(
            RtProcessSpec(policy, name_substring="rt"),)))
        state.apply_placement(pod_id, "n1", 0.0)
    config = SchedulerConfig(plugins=(("realtime", 1.0),))
    for pod_id in "pq":
        outcome = schedule_one(state.view(exclude=pod_id), state.pods[pod_id], config)
        assert outcome == Preempted("n1", ("r",))
    calls = count_dry_runs(monkeypatch)
    assert ClusterMonitor(MonitorConfig(), config).pass_once(state, 500.0) == []
    assert calls["dry runs"] == 2  # `p` and `q` share one; `r` is unschedulable


def test_gated_pods_are_not_dry_run(monkeypatch):
    calls = count_dry_runs(monkeypatch)
    assert ClusterMonitor(MonitorConfig(), ANCHORED).pass_once(drifted_state(), 60.0) == []
    assert calls["dry runs"] == 0


@pytest.mark.parametrize("config", [
    BASELINE, SchedulerConfig(plugins=(("baseline", 1.0), ("dependencies", 1.0)))],
    ids=["baseline", "baseline-dependencies"])
def test_verdicts_are_reused_while_the_epoch_and_the_stamps_stand(monkeypatch, config):
    state = make_state()
    state.add_pods([pod(f"p{i}") for i in range(12)])
    state.add_pods([PodInstance(id=f"w{i}", service="web", dependencies=(DependencyRef("svc"),))
                    for i in range(4)])
    run_queue(state, BASELINE, 0.0)
    state.metric_store.specs = {"svc": MetricSpec("load")}
    state.metric_store.ingest("svc", "p0", 1.0, 150.0)  # fresh up to t=240
    calls = count_dry_runs(monkeypatch)
    monitor = ClusterMonitor(MonitorConfig(), config)

    def keys(*services):  # one verdict per shape and node: here a shape is a service
        return len({(p.service, p.assignment) for p in state.pods.values()
                    if p.status is PodStatus.RUNNING and p.service in services})

    first = keys("svc", "web")
    assert first < 16  # two pods of one service share a node
    stamped = keys("web") if "dependencies" in dict(config.plugins) else 0

    def judge(now):  # a pass's verdicts, with no eviction
        view = state.view(now=now)
        for p in state.pods.values():
            if p.status is PodStatus.RUNNING:
                monitor._verdict(state, view, p, now)
        return calls["dry runs"]

    assert judge(200.0) == first
    assert judge(230.0) == first  # a later clock, but every sample is as fresh
    assert judge(250.0) == first + stamped  # the sample went stale
    state.set_uplink("P1", 0.7)  # a link change moves no placement
    assert judge(260.0) == first + 2 * stamped
    state.metric_store.ingest("web", "w0", 1.0, 270.0)  # a sample no score reads
    assert judge(280.0) == first + 2 * stamped
    state.evict("p1", 280.0)
    assert judge(290.0) == first + 2 * stamped + keys("svc", "web")


# Scenarios whose dry-run verdicts move with the clock, a link change and
# balancer refreshes; their files say how.
DRIFT = ("stale-drift", "refresh-drift")


def load(name):
    return load_test_scenario(name) if name in DRIFT else load_bundled(name)


def test_stale_drift_moves_with_the_clock():
    rows = simulator.run_scenario(load("stale-drift"), repetitions=1).evictions
    assert [(r[2], r[5]) for r in rows if r[0] == "custom"] == [
        ("100.0", "P3-A"), ("200.0", "P4-A"), ("270.0", "P3-A"), ("340.0", "P4-A")]


def placements(state) -> tuple:
    """What the epoch counts: the running list and the load of every node."""
    return {n: [p.id for p in state.running_on(n)] for n in state.nodes}, dict(state.load)


@pytest.mark.parametrize("name", [*BUNDLED, *DRIFT])
def test_epoch_moves_with_every_placement_write_only(monkeypatch, name):
    dispatch = simulator._Run.dispatch
    moved, stood = Counter(), Counter()

    def checked(self, now, kind, payload):
        before, epoch = placements(self.state), self.state.epoch
        dispatch(self, now, kind, payload)
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

    def traced(self, now, kind, payload):
        before = calls["dry runs"]
        dispatch(self, now, kind, payload)
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
