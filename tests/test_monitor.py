import pytest

from fogsim.cluster import ClusterState, Node, PodInstance, PodStatus, Topology
from fogsim.monitor import ClusterMonitor, MonitorConfig, simulate_scheduling
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
