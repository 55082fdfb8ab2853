"""Cluster state monitor: dry-run rescheduling of every running pod, with
eviction of pods whose best node has drifted away from their current one.

Each pass walks the nodes in id order and each node's pods in the running
index's walk order: RT pods first, then by id.  A pod still
inside its minimum age (grace) or its eviction backoff is skipped before any
work; every other pod is dry-run against a view that excludes it, and
evicted when the simulated result names a different node.  Checking the
gates first changes no eviction, because a dry run mutates nothing.

A dry run reads what :attr:`ClusterState.epoch` counts (the running lists
and the node loads) and what the config's plugins stamp (for the dependency
score: link latencies, its dependencies' replicas and the metric store's
readings of their samples, value and freshness, which a dependency with no
metric has none of).  So a verdict is kept with the epoch and the stamps,
taken on a view of the whole cluster, and reused while both stand; balancer
refreshes and what no stamp covers leave it standing.  Pods of one shape on
one node share one: the node has one load without either (its RT sum is
order-free), and a victim has a strictly lower priority than the pod.  A pod
whose service depends on itself keeps its own.  After a pass that evicts
nothing, passes are skipped while its epoch and each shape's stamps stand
and the clock is strictly before its first gate opens: gates open only
with the clock and close only on a placement.

Evaluation is sequential with immediate eviction, and evicted pods stay
pending until the scheduling cycle after the pass, so its later dry runs
still see their targets free: an eviction's `target_node` is only the node
its dry run chose, one pass may name one target for several pods, and the
cycle may place them elsewhere.  A pass can transiently overshoot; the
backoff keeps that bounded and the loop converges to a fixed point where no
pod would be placed elsewhere.
"""

from __future__ import annotations

import math
from typing import Optional

from .cluster import ClusterSnapshot, ClusterState, EvictionEvent, PodInstance, PodStatus
from .records import Value, fields_of, set_fields
from .scheduling import Assigned, Preempted, SchedulerConfig, schedule_one, shape


class MonitorConfig(Value):
    """The monitor's pass period and its grace and backoff gates, in seconds."""

    def __init__(self, loop_period_s: float = 10.0, grace_s: float = 120.0,
                 backoff_s: float = 120.0):
        set_fields(self, loop_period_s=loop_period_s, grace_s=grace_s, backoff_s=backoff_s)
        for name in fields_of(MonitorConfig):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def simulate_scheduling(state: ClusterState, pod_id: str,
                        config: SchedulerConfig, now: float = 0.0) -> Optional[str]:
    """Where would the scheduler put this pod if it were not already placed?

    Runs the live scheduler configuration against a self-excluding view,
    which shares the state's pods and caches, so it is dropped here before
    the caller mutates anything.  Nothing is mutated and preemption plans,
    whose victims have strictly lower priorities, are only inspected.
    Returns the chosen node id, or None when it deems the pod unschedulable.
    """
    pod = state.pods[pod_id]
    if pod.status is not PodStatus.RUNNING:
        raise ValueError(f"pod {pod_id} is not running")
    outcome = schedule_one(state.view(exclude=pod_id, now=now), pod, config, rng=None)
    if isinstance(outcome, (Assigned, Preempted)):
        return outcome.node
    return None


class ClusterMonitor:
    """Periodic rescheduling monitor with grace and backoff gates.  It
    serves one :class:`ClusterState`: its backoff is keyed by pod id, its
    verdicts by pod shape and node (by pod id if the service depends on itself)."""

    def __init__(self, config: MonitorConfig, scheduler_config: SchedulerConfig):
        self.config = config
        self.scheduler_config = scheduler_config
        self.backoff: dict[str, float] = {}
        self._verdicts: dict = {}  # (shape, node), or a pod id -> (epoch, stamps, node)
        self._stamped: dict = {}  # shape -> (pod, stamps), of the current pass
        self._quiet = None  # a pass that evicted nothing: (epoch, opens, its `_stamped`)

    def _gated(self, pod: PodInstance, now: float) -> bool:
        if now - pod.start_time <= self.config.grace_s:
            return True
        last = self.backoff.get(pod.id)
        return last is not None and now - last <= self.config.backoff_s

    def _verdict(self, state: ClusterState, view: ClusterSnapshot, pod: PodInstance,
                 now: float) -> Optional[str]:
        pod_shape, stamps = shape(pod), self.scheduler_config.stamp(pod, view)
        self._stamped[pod_shape] = pod, stamps
        key = (pod.id if pod.service in {d.target_service for d in pod.dependencies}
               else (pod_shape, pod.assignment))
        cached = self._verdicts.get(key)
        if cached is not None and cached[0] == state.epoch and cached[1] == stamps:
            return cached[2]
        result = simulate_scheduling(state, pod.id, self.scheduler_config, now)
        self._verdicts[key] = (state.epoch, stamps, result)
        return result

    def pass_once(self, state: ClusterState, now: float) -> list[EvictionEvent]:
        """One monitor pass; returns the evictions it performed."""
        evictions, view = [], state.view(now=now)  # of the whole cluster; an eviction drops it
        epoch, opens, stamped = self._quiet or (None, 0.0, {})
        if epoch == state.epoch and now < opens and all(
                self.scheduler_config.stamp(pod, view) == was for pod, was in stamped.values()):
            return evictions
        opens, self._stamped = math.inf, {}
        for node_id in state.nodes:
            for pod in list(state.running_on(node_id)):  # a copy: the pass evicts
                if self._gated(pod, now):
                    ends = self.backoff.get(pod.id, -math.inf) + self.config.backoff_s
                    opens = min(opens, max(pod.start_time + self.config.grace_s, ends))
                    continue
                view = view or state.view(now=now)
                result = self._verdict(state, view, pod, now)
                if result is None or result == pod.assignment:
                    continue
                state.evict(pod.id, now, reason="monitor", target_node=result)
                view = None
                self.backoff[pod.id] = now
                evictions.append(state.eviction_log[-1])
        self._quiet = None if evictions else (state.epoch, opens, self._stamped)
        return evictions
