"""Cluster world model: nodes, star topology, pods, placements, snapshots.

A state keeps its nodes in id order, and every walk over them relies on it;
its queue holds exactly the pending pods.  All mutation goes through
:class:`ClusterState`, which keeps CPU allocation bookkeeping consistent
with pod status transitions and indexes the running pods per node and per
service, both in walk order: RT pods first, then by id, the order the
monitor re-places them in.  A node's RT utilization is the sum over its
list in that order.  A node's `load` is one tuple of its allocated CPU in
millicores, its pod count and that sum: all that a cached filter or score
reads of the node's placements.  :meth:`~ClusterState.apply_placement` and
:meth:`~ClusterState.evict` are the only writers of these placement facts:
each updates the index in place, touching only its own node's and service's
lists, and writes its node's load as a new tuple.  A link change is a state
write too: :meth:`~ClusterState.set_uplink` replaces the state's frozen
:class:`Topology` by a new one.  The scheduler, the monitor's dry run and the
load-balancer refresh read a :meth:`ClusterState.view`, which shares the live
objects, index lists, load map and metric store (each service's samples and
metric), so a view and any list it or the state hands out are invalid after
the next mutation; a view keeps the topology it was built with.  Anything
held across mutations takes a :meth:`~ClusterState.snapshot`: a view of a
deep copy.

`ClusterState.epoch` counts the placement writes: while it stands, so do
all placements.  Links, samples, `now` and the queue are not counted.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .records import Frozen, Record, Value, check_integers, set_fields
from .telemetry import MetricStore

DEFAULT_CORES = 4
DEFAULT_CPU_CAPACITY_M = 4000
DEFAULT_RT_PERIOD_US = 1_000_000
DEFAULT_RT_RUNTIME_US = 950_000
RUNTIME_CLASSES = ("container", "legacy")  # a pod's runtime class; the first is the default

DEFAULT_INTRA_NODE_MS = 0.02
DEFAULT_INTRA_ZONE_MS = 0.01


class PodStatus(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    UNSCHEDULABLE = "Unschedulable"


class DeadlinePolicy(Frozen):
    """EDF-style reservation: `runtime_us` of CPU every `period_us`."""

    def __init__(self, runtime_us: int, period_us: int, deadline_us: int = 0):
        if deadline_us == 0:
            deadline_us = period_us
        check_integers(runtime_us=runtime_us, period_us=period_us, deadline_us=deadline_us)
        if not 0 < runtime_us <= deadline_us <= period_us:
            raise ValueError("runtime_us: need 0 < runtime_us <= deadline_us <= period_us, "
                             f"got {runtime_us}, {deadline_us}, {period_us}")
        set_fields(self, runtime_us=runtime_us, period_us=period_us, deadline_us=deadline_us)

    @property
    def utilization(self) -> float:
        return self.runtime_us / self.period_us


class FifoPolicy(Frozen):
    """Fixed-priority policy with a declared CPU budget in core-fractions."""

    def __init__(self, priority: int, cpu_request: float):
        check_integers(priority=priority)
        if not 1 <= priority <= 99:
            raise ValueError(f"priority: must be in [1, 99], got {priority}")
        if not 0 < cpu_request < math.inf:
            raise ValueError(f"cpu_request: must be positive and finite, got {cpu_request}")
        set_fields(self, priority=priority, cpu_request=cpu_request)

    @property
    def utilization(self) -> float:
        return self.cpu_request


class RtProcessSpec(Frozen):
    """Selects a process (by container PID or name substring) and its policy."""

    def __init__(self, policy: DeadlinePolicy | FifoPolicy, pid: Optional[int] = None,
                 name_substring: Optional[str] = None):
        if pid is None and name_substring is None:
            raise ValueError("needs a pid or name-substring selector")
        if pid is not None:
            check_integers(pid=pid)
        if not isinstance(policy, (DeadlinePolicy, FifoPolicy)):
            raise ValueError(f"unknown policy type: {type(policy).__name__}")
        set_fields(self, policy=policy, pid=pid, name_substring=name_substring)


class DependencyRef(Value):
    """A pod's dependency on a service, with its weight and its replicas' scoring weights."""

    def __init__(self, target_service: str, dep_weight: float = 1.0,
                 latency_weight: float = 0.5, metric_weight: float = 0.5):
        if not target_service:
            raise ValueError("target_service: must be named")
        if not all(0 <= w < math.inf for w in (dep_weight, latency_weight, metric_weight)):
            raise ValueError("weights must be non-negative and finite")
        if abs(latency_weight + metric_weight - 1.0) > 1e-9:
            raise ValueError("latency_weight + metric_weight must equal 1")
        set_fields(self, target_service=target_service, dep_weight=dep_weight,
                   latency_weight=latency_weight, metric_weight=metric_weight)


class Node(Frozen):
    """A worker node: cores, CPU capacity in millicores and RT bandwidth."""

    def __init__(self, id: str, cores: int = DEFAULT_CORES,
                 cpu_capacity: int = DEFAULT_CPU_CAPACITY_M,
                 rt_period_us: int = DEFAULT_RT_PERIOD_US,
                 rt_runtime_us: int = DEFAULT_RT_RUNTIME_US):
        check_integers(f"node {id}: ", cores=cores, cpu_capacity=cpu_capacity,
                       rt_period_us=rt_period_us, rt_runtime_us=rt_runtime_us)
        if cores < 1:
            raise ValueError(f"node {id}: cores must be >= 1")
        if cpu_capacity < 1:
            raise ValueError(f"node {id}: cpu_capacity must be >= 1")
        if not 0 < rt_runtime_us <= rt_period_us:
            raise ValueError(f"node {id}: need 0 < rt_runtime_us <= rt_period_us")
        set_fields(self, id=id, cores=cores, cpu_capacity=cpu_capacity,
                   rt_period_us=rt_period_us, rt_runtime_us=rt_runtime_us)


# far past any network, and small enough that a round trip over two links plus
# a processing delay, each at most this, is a finite float
MAX_LATENCY_MS = 1e300


def _latency(ms: float) -> float:
    if not 0 <= ms <= MAX_LATENCY_MS:
        raise ValueError(f"latency must be non-negative and at most {MAX_LATENCY_MS:g} ms, "
                         f"got {ms!r}")
    return ms


class Topology(Frozen):
    """Star layout: every node hangs off its zone switch, every zone switch
    off one core switch.  Links carry one-way latencies in milliseconds.  A
    topology checks itself when built and never changes: a link change is a
    new topology, from :meth:`with_uplink`."""

    def __init__(self, zones: Mapping[str, Iterable[str]], uplinks_ms: Mapping[str, float],
                 intra_node_ms: float = DEFAULT_INTRA_NODE_MS,
                 intra_zone_ms: float = DEFAULT_INTRA_ZONE_MS):
        set_fields(self, zones={z: tuple(nodes) for z, nodes in zones.items()},
                   uplinks_ms={zone: _latency(ms) for zone, ms in uplinks_ms.items()},
                   intra_node_ms=_latency(intra_node_ms), intra_zone_ms=_latency(intra_zone_ms))
        zone_of: dict[str, str] = {}
        for zone, nodes in self.zones.items():
            if zone not in self.uplinks_ms:
                raise ValueError(f"zone {zone} has no uplink latency")
            for n in nodes:
                if n in zone_of:
                    raise ValueError(f"node {n} appears in more than one zone")
                zone_of[n] = zone
        for zone in self.uplinks_ms:
            if zone not in self.zones:
                raise ValueError(f"uplink {zone} has no zone")
        set_fields(self, zone_of=zone_of)

    def with_uplink(self, zone: str, latency_ms: float) -> Topology:
        """This topology with `zone`'s uplink at `latency_ms`."""
        if zone not in self.uplinks_ms:
            raise KeyError(f"unknown link: {zone}")
        return Topology(self.zones, {**self.uplinks_ms, zone: latency_ms},
                        self.intra_node_ms, self.intra_zone_ms)


class PodInstance(Record):
    """One replica of a service and its scheduling state.  A falsy runtime
    class is the default one; `rt_utilization` is set when the pod is built."""

    __eq__ = Value.__eq__  # by value; a pod changes, so it has no hash

    def __init__(self, id: str, service: str, cpu_request: int = 100, cpu_limit: int = 100,
                 priority_class: int = 0, location_scope: Optional[str] = None,
                 rt_processes: tuple[RtProcessSpec, ...] = (),
                 dependencies: tuple[DependencyRef, ...] = (),
                 runtime_class: str = RUNTIME_CLASSES[0],
                 config: Optional[Mapping[str, str]] = None, assignment: Optional[str] = None,
                 start_time: float = 0.0, status: PodStatus = PodStatus.PENDING):
        runtime_class = runtime_class or RUNTIME_CLASSES[0]
        if runtime_class not in RUNTIME_CLASSES:
            raise ValueError(f"unknown runtime class: {runtime_class}")
        self.id, self.service, self.cpu_request = id, service, cpu_request
        self.cpu_limit, self.priority_class = cpu_limit, priority_class
        self.location_scope, self.rt_processes = location_scope, rt_processes
        self.dependencies, self.runtime_class = dependencies, runtime_class
        self.config = {} if config is None else config
        self.assignment, self.start_time, self.status = assignment, start_time, status
        # deadline `runtime/period` and FIFO core fractions; rt_processes is immutable
        self.rt_utilization = sum(proc.policy.utilization for proc in rt_processes)


class EvictionEvent(Frozen):
    """An eviction: when, which pod, from which node, and why.  A monitor's
    `target_node` is the node its dry run chose then; the next scheduling
    cycle may place the pod elsewhere, and one pass may name it twice."""

    def __init__(self, time: float, pod: str, from_node: str, target_node: Optional[str],
                 reason: str):
        set_fields(self, time=time, pod=pod, from_node=from_node, target_node=target_node,
                   reason=reason)


def _walk_order(pod: PodInstance) -> tuple[bool, str]:
    # RT pods first so that re-placement settles the RT layout before
    # regular pods are reconsidered; deterministic within each group.  All
    # pods of one service share their RT utilization, so a service's list
    # stays in id order.
    return pod.rt_utilization == 0.0, pod.id


def _load(allocated: int, running: list[PodInstance]) -> tuple[int, int, float]:
    """A node's load: allocated CPU, pod count, and RT utilization summed
    over its running list in walk order."""
    return allocated, len(running), sum(pod.rt_utilization for pod in running)


class _RunningIndex:
    """Running pods per node and per service in walk order (RT pods first,
    then by id).  Subclasses set `nodes`, `pods`, `load`, `_by_node` and
    `_by_service`.  Callers must not mutate the lists."""

    def running_on(self, node_id: str) -> list[PodInstance]:
        return self._by_node[node_id]

    def running_of_service(self, service: str) -> list[PodInstance]:
        return self._by_service.get(service, [])


class ClusterSnapshot(_RunningIndex):
    """Read-only cluster picture for scheduler plugins: a live view from
    :meth:`ClusterState.view` or an isolated one from :meth:`ClusterState.snapshot`."""

    def __init__(self, nodes, topology, pods, load, now, metric_store, by_node, by_service):
        self.nodes: dict[str, Node] = nodes
        self.topology: Topology = topology
        self.pods: dict[str, PodInstance] = pods
        self.load: dict[str, tuple[int, int, float]] = load
        self.now = now
        self.metric_store: MetricStore = metric_store
        self._by_node: dict[str, list[PodInstance]] = by_node
        self._by_service: dict[str, list[PodInstance]] = by_service
        self.memo: dict = {}  # readers' results that hold for this view alone
        self.max_pod_count = max(map(len, by_node.values()), default=0)


class ClusterState(_RunningIndex):
    """Single-writer world model.  All mutations happen on the event loop."""

    def __init__(self, nodes: Iterable[Node], topology: Topology):
        self.topology = topology
        self.nodes: dict[str, Node] = {}  # in id order
        for node in sorted(nodes, key=attrgetter("id")):
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id}")
            if node.id not in topology.zone_of:
                raise ValueError(f"node {node.id} missing from topology")
            self.nodes[node.id] = node
        self.pods: dict[str, PodInstance] = {}
        self.load: dict[str, tuple[int, int, float]] = {n: (0, 0, 0.0) for n in self.nodes}
        self.queue: list[str] = []
        self.unschedulable: list[str] = []
        self.eviction_log: list[EvictionEvent] = []
        self.metric_store = MetricStore()
        self._by_node: dict[str, list[PodInstance]] = {n: [] for n in self.nodes}
        self._by_service: dict[str, list[PodInstance]] = {}
        self.epoch = 0  # placement writes so far

    # -- pod lifecycle -----------------------------------------------------

    def add_pod(self, pod: PodInstance) -> None:
        if pod.id in self.pods:
            raise ValueError(f"duplicate pod id {pod.id}")
        self.pods[pod.id] = pod
        if pod.status is PodStatus.PENDING:
            self.queue.append(pod.id)

    def add_pods(self, pods: Iterable[PodInstance]) -> None:
        for pod in pods:
            self.add_pod(pod)

    def apply_placement(self, pod_id: str, node_id: str, time: float) -> None:
        pod = self._pod(pod_id)
        if pod.status is not PodStatus.PENDING:
            raise ValueError(f"pod {pod_id} is not pending")
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        pod.status = PodStatus.RUNNING
        pod.assignment = node_id
        pod.start_time = time
        self.queue.remove(pod_id)
        running = self._by_node[node_id]
        insort(running, pod, key=_walk_order)
        insort(self._by_service.setdefault(pod.service, []), pod, key=_walk_order)
        self.load[node_id] = _load(self.load[node_id][0] + pod.cpu_request, running)
        self.epoch += 1

    def evict(self, pod_id: str, time: float, reason: str = "evicted",
              target_node: Optional[str] = None) -> None:
        pod = self._pod(pod_id)
        if pod.status is not PodStatus.RUNNING:
            raise ValueError(f"pod {pod_id} is not running")
        node_id = pod.assignment
        pod.status = PodStatus.PENDING
        pod.assignment = None
        self.queue.append(pod_id)
        self.eviction_log.append(EvictionEvent(time, pod_id, node_id, target_node, reason))
        running = self._by_node[node_id]
        for pods in (running, self._by_service[pod.service]):
            del pods[bisect_left(pods, _walk_order(pod), key=_walk_order)]
        self.load[node_id] = _load(self.load[node_id][0] - pod.cpu_request, running)
        self.epoch += 1

    def set_uplink(self, zone: str, latency_ms: float) -> None:
        """Replace the topology by one with `zone`'s uplink at `latency_ms`.
        Placements stand, so `epoch` does not move."""
        self.topology = self.topology.with_uplink(zone, latency_ms)

    def mark_unschedulable(self, pod_id: str) -> None:
        pod = self._pod(pod_id)
        if pod.status is not PodStatus.PENDING:
            raise ValueError(f"pod {pod_id} is not pending")
        pod.status = PodStatus.UNSCHEDULABLE
        self.queue.remove(pod_id)
        self.unschedulable.append(pod_id)

    def reactivate_unschedulable(self) -> None:
        """Give previously unschedulable pods another chance after the
        cluster changed (new placements, evictions, topology updates)."""
        for pod_id in self.unschedulable:
            self.pods[pod_id].status = PodStatus.PENDING
        self.queue.extend(self.unschedulable)
        self.unschedulable.clear()

    # -- views ---------------------------------------------------------------

    def view(self, exclude: Optional[str] = None, now: float = 0.0) -> ClusterSnapshot:
        """Snapshot sharing this state's pods, index lists, load map and
        metric store.  Mutations update them in place, so the view is
        invalid after the next one; it keeps the topology it was built with,
        which a link change replaces rather than updates.  An excluded
        running pod's node and service get their own lists, and its node its
        own load tuple, which releases its CPU by integer subtraction; the
        shared `pods` map still holds the excluded pod."""
        by_node, by_service, load = self._by_node, self._by_service, self.load
        if exclude is not None:
            pod = self._pod(exclude)
            if pod.status is PodStatus.RUNNING:
                node_id, service = pod.assignment, pod.service
                running = [p for p in by_node[node_id] if p is not pod]
                by_node = {**by_node, node_id: running}
                by_service = {**by_service,
                              service: [p for p in by_service[service] if p is not pod]}
                load = {**load, node_id: _load(load[node_id][0] - pod.cpu_request, running)}
        return ClusterSnapshot(self.nodes, self.topology, self.pods, load, now,
                               self.metric_store, by_node, by_service)

    def snapshot(self, exclude: Optional[str] = None, now: float = 0.0) -> ClusterSnapshot:
        """A view of a deep copy of this state, so later mutations never
        reach it.  An excluded running pod is evicted from the copy, and an
        excluded pod of any status is dropped from the copy's `pods`."""
        import copy  # only a snapshot needs it
        state = copy.deepcopy(self)
        if exclude is not None:
            if state._pod(exclude).status is PodStatus.RUNNING:
                state.evict(exclude, now)
            del state.pods[exclude]
        return state.view(now=now)

    def check_invariants(self) -> None:
        """Raise AssertionError unless the running index, the loads, the
        queue and pod statuses agree with a recount from `pods`."""
        by_node, by_service = {n: [] for n in self.nodes}, {}
        for pod in sorted(self.pods.values(), key=_walk_order):
            if pod.status is PodStatus.RUNNING:
                by_node[pod.assignment].append(pod)
                by_service.setdefault(pod.service, []).append(pod)
        problems = [f"{p}: queued but unknown"
                    for p in set(self.queue + self.unschedulable) - self.pods.keys()]
        for n, running in by_node.items():
            if self._by_node[n] != running:
                problems.append(f"{n}: stale running index")
            if self.load[n] != _load(sum(p.cpu_request for p in running), running):
                problems.append(f"{n}: load is not a recount of the running pods")
        problems += [f"{s}: stale per-service index"
                     for s in sorted(self._by_service.keys() | by_service.keys())
                     if self.running_of_service(s) != by_service.get(s, [])]
        where = {PodStatus.PENDING: (1, 0, False), PodStatus.UNSCHEDULABLE: (0, 1, False),
                 PodStatus.RUNNING: (0, 0, True)}
        for pod_id, pod in self.pods.items():
            seen = (self.queue.count(pod_id), self.unschedulable.count(pod_id),
                    pod.assignment in self.nodes)
            if seen != where[pod.status]:
                problems.append(f"{pod_id}: {pod.status.value} but (queued, "
                                f"unschedulable, placed) = {seen}")
        if problems:
            raise AssertionError("; ".join(problems))

    def _pod(self, pod_id: str) -> PodInstance:
        try:
            return self.pods[pod_id]
        except KeyError:
            raise KeyError(f"pod not found: {pod_id}") from None
