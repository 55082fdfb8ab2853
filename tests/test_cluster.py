import functools
import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fogsim
from fogsim.cluster import (ClusterState, DeadlinePolicy, DependencyRef, EvictionEvent,
                            FifoPolicy, Node, PodInstance, PodStatus, RtProcessSpec, Topology)
from fogsim.fogservice import FogServiceSpec, LocationScope
from fogsim.loadbalancer import RuleChain
from fogsim.monitor import MonitorConfig
from fogsim.realtime import PreemptionPlan, RealtimePlugin, node_rt_utilization
from fogsim.records import Record, fields_of
from fogsim.runtime import HostCall, PendingAssignment
from fogsim.scheduling import (Assigned, Preempted, SchedulerConfig, Unschedulable,
                               schedule_one)
from fogsim.simulator import ArmSpec, LbSettings, ResultSet, ScenarioConfig, WorkloadEvent
from fogsim.telemetry import MetricSample, MetricSpec

from conftest import make_nodes, make_state, record


def pod(pod_id, request=100, **kwargs):
    return PodInstance(id=pod_id, service=kwargs.pop("service", "svc"),
                       cpu_request=request, cpu_limit=request, **kwargs)


class TestSnapshot:
    def test_exclude_is_set_difference(self, state):
        state.add_pods([pod("a"), pod("b"), pod("c")])
        snap = state.snapshot(exclude="b")
        assert set(snap.pods) == {"a", "c"}

    def test_no_exclude_is_identity(self, state):
        state.add_pods([pod("a"), pod("b")])
        assert set(state.snapshot().pods) == {"a", "b"}

    def test_unknown_exclude_raises(self, state):
        with pytest.raises(KeyError, match="pod not found"):
            state.snapshot(exclude="ghost")

    def test_isolation_from_later_mutations(self, state):
        state.add_pods([pod("a"), pod("b")])
        state.apply_placement("a", "P1-A", 1.0)
        state.metric_store.ingest("svc", "a", 1.0, 1.0)
        snap = state.snapshot()
        before = record(snap)
        state.apply_placement("b", "P2-A", 2.0)
        state.evict("a", 3.0)
        state.metric_store.ingest("svc", "a", 2.0, 4.0)
        state.metric_store.ingest("svc", "b", 3.0, 4.0)
        state.set_uplink("P1", 9.0)
        assert record(snap) == before
        assert snap.pods["a"].status is PodStatus.RUNNING
        assert snap.load["P1-A"] == (100, 1, 0.0)
        assert snap.metric_store._samples == {"svc": {"a": MetricSample(1.0, 1.0)}}

    def test_exclude_releases_allocation_in_view(self, state):
        state.add_pod(pod("a", request=300))
        state.apply_placement("a", "P1-A", 0.0)
        snap = state.snapshot(exclude="a")
        assert snap.load["P1-A"] == (0, 0, 0.0)


class TestViewSharing:
    def test_view_shares_allocation_and_metric_store(self, state):
        state.add_pods([pod("a"), pod("b")])
        state.apply_placement("a", "P1-A", 0.0)
        for view in (state.view(), state.view(exclude="b")):  # b is pending
            assert view.load is state.load
            assert view.metric_store is state.metric_store
            assert all(view.running_on(n) is state.running_on(n) for n in state.nodes)

    def test_exclude_copies_only_the_excluded_node(self, state):
        state.add_pods([pod("a", request=300), pod("b", service="db"), pod("c")])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P1-A", 0.0)
        state.apply_placement("c", "P2-A", 0.0)
        view = state.view(exclude="a")
        assert view.metric_store is state.metric_store
        assert view.load is not state.load
        assert {n: load for n, load in view.load.items()
                if load != state.load[n]} == {"P1-A": (100, 1, 0.0)}
        assert state.load["P1-A"] == (400, 2, 0.0)
        assert [p.id for p in view.running_on("P1-A")] == ["b"]
        assert [p.id for p in state.running_on("P1-A")] == ["a", "b"]
        assert all(view.running_on(n) is state.running_on(n)
                   for n in state.nodes if n != "P1-A")
        assert [p.id for p in view.running_of_service("svc")] == ["c"]
        assert view.running_of_service("db") is state.running_of_service("db")


class TestPlacementLifecycle:
    def test_apply_runs_pod(self, state):
        state.add_pod(pod("p"))
        state.apply_placement("p", "P1-A", 7.5)
        p = state.pods["p"]
        assert (p.status, p.assignment, p.start_time) == (PodStatus.RUNNING, "P1-A", 7.5)

    def test_apply_twice_rejected(self, state):
        state.add_pod(pod("p"))
        state.apply_placement("p", "P1-A", 0.0)
        with pytest.raises(ValueError, match="not pending"):
            state.apply_placement("p", "P1-A", 1.0)

    def test_allocation_bookkeeping(self, state):
        state.add_pod(pod("p", request=250))
        state.apply_placement("p", "P3-B", 0.0)
        assert state.load["P3-B"] == (250, 1, 0.0)

    def test_unknown_node_rejected(self, state):
        state.add_pod(pod("p"))
        with pytest.raises(KeyError):
            state.apply_placement("p", "nowhere", 0.0)

    def test_evict_requeues_at_tail(self, state):
        state.add_pods([pod("p"), pod("q")])
        state.apply_placement("p", "P1-A", 0.0)
        state.evict("p", 5.0)
        assert state.pods["p"].status is PodStatus.PENDING
        assert state.pods["p"].assignment is None
        assert state.queue == ["q", "p"]
        assert state.eviction_log[-1].time == 5.0

    def test_evict_restores_allocation(self, state):
        state.add_pod(pod("p", request=400))
        state.apply_placement("p", "P1-A", 0.0)
        state.evict("p", 1.0)
        assert state.load["P1-A"] == (0, 0, 0.0)

    def test_evict_pending_rejected(self, state):
        state.add_pod(pod("p"))
        with pytest.raises(ValueError, match="not running"):
            state.evict("p", 0.0)


def test_conservation_over_random_sequences():
    rng = random.Random(7)
    for _ in range(30):
        state = make_state()
        pods = [pod(f"p{i}", request=rng.choice([50, 100, 250])) for i in range(12)]
        state.add_pods(pods)
        for _ in range(60):
            running = [p.id for p in state.pods.values() if p.status is PodStatus.RUNNING]
            pending = [p.id for p in state.pods.values() if p.status is PodStatus.PENDING]
            if pending and (not running or rng.random() < 0.6):
                state.apply_placement(rng.choice(pending),
                                      rng.choice(sorted(state.nodes)), 0.0)
            elif running:
                state.evict(rng.choice(running), 0.0)
            total_running = sum(p.cpu_request for p in state.pods.values()
                                if p.status is PodStatus.RUNNING)
            assert sum(alloc for alloc, _, _ in state.load.values()) == total_running
        for node_id, (alloc, pod_count, _) in state.load.items():
            assert alloc == sum(p.cpu_request for p in state.running_on(node_id))
            assert pod_count == len(state.running_on(node_id))


RT_FIRST = SchedulerConfig(plugins=(("realtime", 10.0), ("baseline", 1.0)))


def random_pod(rng, pod_id, service="svc"):
    """A regular pod, or an RT pod with deadline and FIFO budgets whose sums
    are inexact in binary floating point."""
    procs = []
    if rng.random() < 0.6:
        procs.append(RtProcessSpec(DeadlinePolicy(rng.choice([233_333, 300_001, 450_001]),
                                                  1_000_000), pid=1))
        if rng.random() < 0.5:
            procs.append(RtProcessSpec(FifoPolicy(1, rng.choice([0.1, 0.15, 0.07])), pid=2))
    return pod(pod_id, request=rng.choice([50, 100, 250]), rt_processes=tuple(procs),
               priority_class=rng.choice([0, 1, 5]), service=service)


def step(state, rng, next_id):
    """Apply one random lifecycle mutation; return the next free pod number."""
    by_status = {s: [p.id for p in state.pods.values() if p.status is s] for s in PodStatus}
    pending, running = by_status[PodStatus.PENDING], by_status[PodStatus.RUNNING]
    roll = rng.random()
    if roll < 0.35 or not state.pods:
        # the service comes from the id, so the rng draws are the same as with one service
        state.add_pod(random_pod(rng, f"p{next_id}", service=f"s{next_id % 3}"))
        return next_id + 1
    if roll < 0.75 and pending:
        state.apply_placement(rng.choice(pending), rng.choice(sorted(state.nodes)), 1.0)
    elif roll < 0.85 and running:
        state.evict(rng.choice(running), 2.0)
    elif roll < 0.93 and pending:
        state.mark_unschedulable(rng.choice(pending))
    else:
        state.reactivate_unschedulable()
    return next_id


def test_view_agrees_with_isolated_snapshot_over_random_sequences():
    rng = random.Random(2024)
    plans = 0
    for _ in range(6):
        # three one-core nodes fill up fast: filters reject and RT pods preempt
        state = ClusterState([Node(id=n, cores=1, cpu_capacity=600)
                              for n in ("n1", "n2", "n3")],
                             Topology({"z1": ["n1", "n2"], "z2": ["n3"]},
                                      {"z1": 0.5, "z2": 0.8}))
        next_id = 0
        for _ in range(60):
            next_id = step(state, rng, next_id)
            state.check_invariants()
            before = record(state)
            running = [p.id for p in state.pods.values() if p.status is PodStatus.RUNNING]
            for exclude in [None, *running]:
                view = state.view(exclude=exclude, now=3.0)
                snap = state.snapshot(exclude=exclude, now=3.0)
                for n in state.nodes:
                    assert ([p.id for p in view.running_on(n)]
                            == [p.id for p in snap.running_on(n)])
                    assert node_rt_utilization(n, view) == node_rt_utilization(n, snap)
                for s in ("s0", "s1", "s2"):
                    assert ([p.id for p in view.running_of_service(s)]
                            == [p.id for p in snap.running_of_service(s)])
                # a view shares the pods map; snapshot() copies it without
                # the excluded pod and recounts its index from that copy
                assert view.pods is state.pods
                assert set(snap.pods) == set(state.pods) - {exclude}
                assert view.load == snap.load
                assert {n: snap.load[n][0] for n in state.nodes} == {
                    n: sum(p.cpu_request for p in snap.running_on(n)) for n in state.nodes}
                assert view.max_pod_count == snap.max_pod_count
                candidate = (state.pods[exclude] if exclude is not None
                             else random_pod(rng, "candidate"))
                assert (schedule_one(view, candidate, RT_FIRST)
                        == schedule_one(snap, candidate, RT_FIRST))
                plan = RealtimePlugin().post_filter(candidate, view)
                assert plan == RealtimePlugin().post_filter(candidate, snap)
                plans += plan is not None
            assert record(state) == before
            state.check_invariants()
    assert plans > 0  # some candidates could preempt


class TestInvariants:
    def test_hold_through_lifecycle(self, state):
        state.add_pods([pod("a"), pod("b")])
        state.apply_placement("a", "P1-A", 0.0)
        state.view(exclude="a")
        state.mark_unschedulable("b")
        state.check_invariants()
        state.reactivate_unschedulable()
        state.evict("a", 1.0)
        state.check_invariants()

    def test_detects_allocation_drift(self, state):
        state.add_pod(pod("a"))
        state.apply_placement("a", "P1-A", 0.0)
        state.load["P1-A"] = (101, 1, 0.0)
        with pytest.raises(AssertionError, match="^P1-A: load is not a recount"):
            state.check_invariants()

    def test_detects_stale_cache(self, state):
        state.add_pod(pod("a"))
        state.apply_placement("a", "P1-A", 0.0)
        state.view()
        state.pods["a"].status = PodStatus.PENDING  # bypasses evict()
        state.queue.append("a")
        state.load["P1-A"] = (0, 0, 0.0)
        with pytest.raises(AssertionError, match="stale running index"):
            state.check_invariants()

    def test_detects_stale_service_index(self, state):
        state.add_pods([pod("a"), pod("b", service="db")])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P2-A", 0.0)
        state.running_of_service("svc").append(state.pods["b"])
        with pytest.raises(AssertionError, match="^svc: stale per-service index$"):
            state.check_invariants()

    def test_detects_a_running_list_out_of_walk_order(self, state):
        rt = (RtProcessSpec(DeadlinePolicy(100_000, 1_000_000), name_substring="rt"),)
        state.add_pods([pod("a"), pod("b", service="rt", rt_processes=rt)])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P1-A", 0.0)
        state.running_on("P1-A").reverse()
        with pytest.raises(AssertionError, match="^P1-A: stale running index"):
            state.check_invariants()

    def test_detects_a_service_list_out_of_walk_order(self, state):
        state.add_pods([pod("a"), pod("b")])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P2-A", 0.0)
        state.running_of_service("svc").reverse()
        with pytest.raises(AssertionError, match="^svc: stale per-service index$"):
            state.check_invariants()

    def test_detects_queue_inconsistency(self, state):
        state.add_pod(pod("a"))
        state.queue.append("a")
        with pytest.raises(AssertionError, match=r"a: Pending but \(queued"):
            state.check_invariants()


def test_running_pods_have_valid_nodes_in_one_zone(state):
    state.add_pods([pod("a"), pod("b")])
    state.apply_placement("a", "P1-A", 0.0)
    state.apply_placement("b", "P4-B", 0.0)
    for p in state.pods.values():
        if p.status is PodStatus.RUNNING:
            assert p.assignment in state.nodes
            zones = [z for z, nodes in state.topology.zones.items()
                     if p.assignment in nodes]
            assert len(zones) == 1


class TestValidation:
    def test_node_rejects_zero_cores(self):
        with pytest.raises(ValueError, match="cores"):
            Node(id="n", cores=0)

    def test_node_rejects_bad_rt_quota(self):
        with pytest.raises(ValueError, match="rt_runtime_us"):
            Node(id="n", rt_runtime_us=2_000_000, rt_period_us=1_000_000)

    def test_topology_rejects_duplicate_node(self):
        with pytest.raises(ValueError, match="more than one zone"):
            Topology({"a": ["n1"], "b": ["n1"]}, {"a": 0.1, "b": 0.1})

    def test_topology_rejects_missing_uplink(self):
        with pytest.raises(ValueError, match="uplink"):
            Topology({"a": ["n1"]}, {})

    def test_topology_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="non-negative"):
            Topology({"a": ["n1"]}, {"a": -1.0})

    def test_a_new_uplink_is_a_new_topology(self, topology):
        """`RECORDS` pins that a topology refuses assignment."""
        moved = topology.with_uplink("P2", 3.0)
        assert topology.uplinks_ms["P2"] == 0.8 and moved.uplinks_ms["P2"] == 3.0
        assert moved.zones == topology.zones and moved.zone_of == topology.zone_of
        with pytest.raises(ValueError, match="non-negative"):
            topology.with_uplink("P2", -1.0)

    def test_a_link_change_replaces_the_state_topology_and_keeps_the_epoch(self, state):
        before, view, epoch = state.topology, state.view(), state.epoch
        state.set_uplink("P1", 2.0)
        assert state.topology is not before and state.topology.uplinks_ms["P1"] == 2.0
        assert view.topology is before and before.uplinks_ms["P1"] == 0.5
        assert state.epoch == epoch and state.view().topology is state.topology

    def test_state_rejects_node_missing_from_topology(self, topology):
        with pytest.raises(ValueError, match="missing from topology"):
            ClusterState([Node(id="ghost")], topology)


def test_rt_utilization_is_set_when_the_pod_is_built():
    with pytest.raises(TypeError):
        PodInstance(id="m", service="svc", rt_utilization=0.5)
    mixed = pod("m", rt_processes=(RtProcessSpec(DeadlinePolicy(200_000, 1_000_000), pid=1),
                                   RtProcessSpec(FifoPolicy(50, 0.25), name_substring="ctl")))
    assert vars(mixed)["rt_utilization"] == 0.2 + 0.25
    assert pod("plain").rt_utilization == 0.0


def _fogsim_classes():
    """(module name, class name, class) of every class a fogsim module defines."""
    for info in pkgutil.iter_modules(fogsim.__path__):
        module = importlib.import_module(f"fogsim.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield module.__name__, name, cls


def test_no_class_binds_lazily():
    """No class finishes itself on first read with a `cached_property`: it
    materialises the instance dict and slows every later attribute read."""
    lazy = [f"{module}.{name}.{attr}" for module, name, cls in _fogsim_classes()
            for attr, value in vars(cls).items()
            if isinstance(value, functools.cached_property)]
    assert lazy == []


def test_no_module_loads_dataclasses_inspect_or_configparser():
    """Importing every fogsim module loads none of `dataclasses`, `inspect`
    and `configparser`, which together would add about 7 ms to the start of
    every run."""
    modules = ", ".join(info.name for info in pkgutil.iter_modules(fogsim.__path__))
    code = (f"import sys, fogsim\nfrom fogsim import {modules}\n"
            "print(sorted({'dataclasses', 'inspect', 'configparser'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(Path(fogsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


SCENARIO_TOPOLOGY = {"zones": {"Z": ("n",)}, "uplinks_ms": {"Z": 1.0}}

# (frozen, compared by value, shown by value) of each record class, and a
# function that makes a new record from the same fields on each call.  A
# frozen record refuses assignment; one compared by value equals a record of
# its class built from equal fields, and hashes as it if frozen (a changing
# record has no hash); every other record is equal only to itself.  Records
# of two classes are never equal, even with equal fields.  Every
# `records.Record` shows its fields in its repr.
RECORDS = {
    "cluster.DeadlinePolicy": ((True, False, True), lambda: DeadlinePolicy(100, 1000)),
    "cluster.DependencyRef": ((True, True, True), lambda: DependencyRef("n")),
    "cluster.EvictionEvent": ((True, False, True),
                              lambda: EvictionEvent(1.0, "p", "n", None, "monitor")),
    "cluster.FifoPolicy": ((True, False, True), lambda: FifoPolicy(50, 0.2)),
    "cluster.Node": ((True, False, True), lambda: Node("n")),
    "cluster.PodInstance": ((False, True, True), lambda: PodInstance("n", "svc")),
    "cluster.RtProcessSpec": ((True, False, True),
                              lambda: RtProcessSpec(FifoPolicy(50, 0.2), pid=1)),
    "cluster.Topology": ((True, False, True), lambda: Topology(**SCENARIO_TOPOLOGY)),
    "fogservice.FogServiceSpec": ((True, False, True), lambda: FogServiceSpec("n")),
    "fogservice.LocationScope": ((True, False, True), lambda: LocationScope("n")),
    "loadbalancer.RuleChain": ((True, True, True), lambda: RuleChain(("n",), (1.0,), (1.0,))),
    "monitor.MonitorConfig": ((True, True, True), lambda: MonitorConfig()),
    "realtime.PreemptionPlan": ((True, True, True), lambda: PreemptionPlan("n", ("v",), 0.5)),
    "runtime.HostCall": ((True, True, True),
                         lambda: HostCall(0.0, "n", "set_policy", 1, "fifo:50:0.2", True)),
    "runtime.PendingAssignment": ((False, True, True), lambda: PendingAssignment("n", [0], 30.0)),
    "scheduling.Assigned": ((True, True, True), lambda: Assigned("n")),
    "scheduling.Preempted": ((True, True, True), lambda: Preempted("n", ("v",))),
    "scheduling.SchedulerConfig": ((False, False, False), lambda: SchedulerConfig()),
    "scheduling.Unschedulable": ((True, True, True), lambda: Unschedulable("n")),
    "simulator.ArmSpec": ((True, False, True), lambda: ArmSpec("n")),
    "simulator.LbSettings": ((True, False, True), lambda: LbSettings()),
    "simulator.ResultSet": ((False, False, False), lambda: ResultSet("n", 1, "ci")),
    "simulator.ScenarioConfig": ((True, False, True), lambda: ScenarioConfig(
        "n", Topology(**SCENARIO_TOPOLOGY), make_nodes(SCENARIO_TOPOLOGY["zones"]), (),
        (ArmSpec("n"),), ())),
    "simulator.WorkloadEvent": ((True, False, True), lambda: WorkloadEvent(0.0, "deploy")),
    "telemetry.MetricSample": ((True, True, True), lambda: MetricSample(1.0, 0.0)),
    "telemetry.MetricSpec": ((True, False, True), lambda: MetricSpec("n")),
}


def test_every_record_class_is_pinned():
    """The table names every class with a field-built constructor: each
    `records.Record`, and the plain classes shown by identity."""
    records = {f"{module.removeprefix('fogsim.')}.{name}"
               for module, name, cls in _fogsim_classes()
               if issubclass(cls, Record) and module != "fogsim.records"}
    assert records == {name for name, ((_, _, shown), _) in RECORDS.items() if shown}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaviour_is_pinned(name):
    (frozen, by_value, shown), build = RECORDS[name]
    a, b = build(), build()
    assert f"{type(a).__module__}.{type(a).__qualname__}" == f"fogsim.{name}"
    field = fields_of(type(a))[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    else:
        setattr(a, field, getattr(a, field))
    assert a == a and (a == b) is by_value and (a != b) is not by_value
    if by_value:
        assert (type(a).__hash__ is None) is not frozen
        assert not frozen or hash(a) == hash(b)
    assert all(a != other() for key, (_, other) in RECORDS.items() if key != name)
    assert (repr(a) == repr(b) and repr(a).startswith(f"{type(a).__qualname__}(")) is shown
