import logging

import pytest

from fogsim.cluster import (DeadlinePolicy, FifoPolicy, Node, PodInstance,
                            RtProcessSpec)
from fogsim.fogservice import FogServiceSpec
from fogsim.runtime import (PendingAssignment, RtPriorityManager,
                            RuntimeDispatcher, SimulatedProcessHost,
                            apply_rt_limits, rt_group_limits,
                            rt_group_limits_for_node)


def pod_with_specs(*specs, pod_id="pod-0", runtime_class="container"):
    return PodInstance(id=pod_id, service="svc", rt_processes=tuple(specs),
                       runtime_class=runtime_class)


DEADLINE = DeadlinePolicy(100_000, 1_000_000)


class FailsOnceHost(SimulatedProcessHost):
    """A host on which each pid passed to `fail_pid` refuses its first
    `set_policy` call and accepts every later one."""

    def set_policy(self, pod_id, pid, policy):
        ok = super().set_policy(pod_id, pid, policy)
        self._fail_pids.discard(pid)
        return ok


class TestDispatch:
    def test_legacy_routed_to_legacy_runtime(self):
        dispatcher = RuntimeDispatcher()
        dispatcher.create(pod_with_specs(runtime_class="legacy"))
        assert dispatcher.legacy.events == [("create", "pod-0")]
        assert dispatcher.container.events == []

    def test_container_routed_to_container_runtime(self):
        dispatcher = RuntimeDispatcher()
        dispatcher.create(pod_with_specs(runtime_class="container"))
        assert dispatcher.container.events == [("create", "pod-0")]

    def test_missing_class_defaults_to_container(self):
        dispatcher = RuntimeDispatcher()
        dispatcher.create(pod_with_specs(runtime_class=""))
        assert dispatcher.container.events == [("create", "pod-0")]

    def test_unknown_class_rejected(self):
        dispatcher = RuntimeDispatcher()
        with pytest.raises(ValueError, match="unknown runtime class"):
            dispatcher.create(pod_with_specs(runtime_class="vm"))

    def test_every_pod_reaches_exactly_one_runtime(self):
        dispatcher = RuntimeDispatcher()
        for i, cls in enumerate(["legacy", "container", "", "legacy"]):
            dispatcher.create(pod_with_specs(pod_id=f"p{i}", runtime_class=cls))
        total = len(dispatcher.legacy.events) + len(dispatcher.container.events)
        assert total == 4


class TestPriorityAssignment:
    def test_all_processes_present_at_start(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=11, name="worker", at=0.0)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="work"))
        applied, pending = manager.assign_priorities(pod, now=0.0)
        assert applied == [(0, 11)]
        assert pending is None
        assert len(host.policy_calls("pod-0")) == 1

    def test_delayed_process_matched_on_second_tick(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=7, name="detector", at=45.0)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="detector"))
        applied, pending = manager.assign_priorities(pod, now=0.0)
        assert applied == [] and pending is not None
        lookup = {"pod-0": pod}.get
        host.now = 30.0
        assert manager.tick(lookup, 30.0) == []
        host.now = 60.0
        assert manager.tick(lookup, 60.0) == [("pod-0", 0, 7)]
        calls = host.policy_calls("pod-0")
        assert len(calls) == 1 and calls[0].time == 60.0
        assert manager.pending == {}

    def test_substring_matches_all_processes(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=1, name="detector")
        host.spawn("pod-0", pid=2, name="detach")
        host.spawn("pod-0", pid=3, name="other")
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="det"))
        applied, pending = manager.assign_priorities(pod, now=0.0)
        assert {pid for _, pid in applied} == {1, 2}
        assert pending is None

    def test_retry_cadence_is_thirty_seconds(self):
        host = SimulatedProcessHost()
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="ghost"))
        _, pending = manager.assign_priorities(pod, now=0.0)
        retries = [pending.next_retry]
        lookup = {"pod-0": pod}.get
        for now in (30.0, 60.0, 90.0):
            host.now = now
            manager.tick(lookup, now)
            retries.append(manager.pending["pod-0"].next_retry)
        assert retries == [30.0, 60.0, 90.0, 120.0]

    def test_no_duplicate_set_policy_across_ticks(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=5, name="worker", at=0.0)
        host.spawn("pod-0", pid=6, name="late-worker", at=50.0)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(
            RtProcessSpec(policy=DEADLINE, name_substring="worker"),
            RtProcessSpec(policy=FifoPolicy(50, 0.25), name_substring="late"))
        manager.assign_priorities(pod, now=0.0)
        lookup = {"pod-0": pod}.get
        for now in (30.0, 60.0, 90.0, 120.0):
            host.now = now
            manager.tick(lookup, now)
        per_pair = {}
        for call in host.policy_calls("pod-0"):
            key = (call.pid, call.detail)
            per_pair[key] = per_pair.get(key, 0) + 1
        assert all(count == 1 for count in per_pair.values())

    def test_failed_set_policy_stays_pending(self, caplog):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=9, name="worker")
        host.fail_pid(9)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="worker"))
        with caplog.at_level(logging.ERROR):
            applied, pending = manager.assign_priorities(pod, now=0.0)
        assert applied == [] and pending is not None
        assert "set_policy failed" in caplog.text

    def test_tick_before_next_retry_does_nothing(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=7, name="detector", at=10.0)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="detector"))
        _, pending = manager.assign_priorities(pod, now=0.0)
        host.now = 20.0  # the process is there, but the entry is due at 30
        assert manager.tick({"pod-0": pod}.get, 20.0) == []
        assert host.calls == []
        assert manager.pending == {"pod-0": pending}
        assert pending == PendingAssignment("pod-0", [0], 30.0)

    def test_retry_calls_only_the_pid_that_failed(self):
        host = FailsOnceHost()
        host.spawn("pod-0", pid=1, name="worker-a")
        host.spawn("pod-0", pid=2, name="worker-b")
        host.fail_pid(2)
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, name_substring="worker"))
        applied, pending = manager.assign_priorities(pod, now=0.0)
        assert applied == [(0, 1)] and pending.unmatched == [0]
        host.now = 30.0
        assert manager.tick({"pod-0": pod}.get, 30.0) == [("pod-0", 0, 2)]
        assert [(c.time, c.pid, c.ok) for c in host.policy_calls("pod-0")] == [
            (0.0, 1, True), (0.0, 2, False), (30.0, 2, True)]
        assert manager.pending == {}

    def test_pid_selector(self):
        host = SimulatedProcessHost()
        host.spawn("pod-0", pid=42, name="whatever")
        manager = RtPriorityManager(host)
        pod = pod_with_specs(RtProcessSpec(policy=DEADLINE, pid=42))
        applied, pending = manager.assign_priorities(pod, now=0.0)
        assert applied == [(0, 42)] and pending is None


class TestGroupLimits:
    def test_half_core_budget(self):
        spec = FogServiceSpec(name="svc", rt_limit=0.5)
        assert rt_group_limits(spec) == (1_000_000, 500_000)

    def test_zero_budget(self):
        spec = FogServiceSpec(name="svc", rt_limit=0.0)
        assert rt_group_limits(spec) == (1_000_000, 0)

    def test_clamped_to_node_quota(self, caplog):
        spec = FogServiceSpec(name="svc", rt_limit=0.99)
        node = Node(id="n", cores=1, rt_runtime_us=950_000)
        with caplog.at_level(logging.WARNING):
            period, runtime = rt_group_limits_for_node(spec, node)
        assert (period, runtime) == (1_000_000, 950_000)
        assert "clamping" in caplog.text

    def test_applied_through_host(self):
        host = SimulatedProcessHost()
        spec = FogServiceSpec(name="svc", rt_limit=0.4)
        node = Node(id="n")
        pod = pod_with_specs()
        apply_rt_limits(pod, spec, node, host)
        call = host.calls[-1]
        assert call.call == "set_rt_group_limits"
        assert call.detail == "1000000:400000"
