"""Cluster state monitor: dry-run rescheduling of every running pod, with
eviction of pods whose best node has drifted away from their current one.

Each pass walks the nodes and their pods in a fixed order.  A pod still
inside its minimum age (grace) or its eviction backoff is skipped before any
work; every other pod is dry-run against a view that excludes it, and
evicted when the simulated result names a different node.  Checking the
gates first changes no eviction, because a dry run mutates nothing.

Under a scheduler config whose plugins read only placements (the running
lists, allocation map and RT sums; `SchedulerConfig.reads_only_placements`),
a dry run reads only what :attr:`ClusterState.epoch` counts, so each pod's
last verdict is kept with the epoch it was computed at and reused while the
epoch is unchanged.  Metric samples, link changes and balancer refreshes
leave it standing.  A config with a plugin that reads anything else (class
attribute `reads_beyond_placements`, as the dependency score does for link
latencies, metric samples and their age) never reuses a verdict.

Evaluation is sequential with immediate eviction, and evicted pods stay
pending until the scheduling cycle after the pass, so its later dry runs
still see their targets free: an eviction's `target_node` is only the node
its dry run chose, one pass may name one target for several pods, and the
cycle may place them elsewhere.  A pass can transiently overshoot; the
backoff keeps that bounded and the loop converges to a fixed point where no
pod would be placed elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cluster import ClusterState, EvictionEvent, PodInstance, PodStatus
from .scheduling import Assigned, Preempted, SchedulerConfig, schedule_one


@dataclass(frozen=True)
class MonitorConfig:
    """The monitor's pass period and its grace and backoff gates, in seconds."""

    loop_period_s: float = 10.0
    grace_s: float = 120.0
    backoff_s: float = 120.0

    def __post_init__(self):
        for name in ("loop_period_s", "grace_s", "backoff_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def simulate_scheduling(state: ClusterState, pod_id: str,
                        config: SchedulerConfig, now: float = 0.0) -> Optional[str]:
    """Where would the scheduler put this pod if it were not already placed?

    Runs the live scheduler configuration against a self-excluding view,
    which shares the state's pods and caches, so it is dropped here before
    the caller mutates anything.  Nothing is mutated and preemption plans
    are only inspected, never applied.  Returns the chosen node id, or None
    when the dry run deems the pod unschedulable.
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
    serves one :class:`ClusterState`: its backoff and verdict memory are
    keyed by pod id."""

    def __init__(self, config: MonitorConfig, scheduler_config: SchedulerConfig):
        self.config = config
        self.scheduler_config = scheduler_config
        self.backoff: dict[str, float] = {}
        self._reuse = scheduler_config.reads_only_placements
        self._verdicts: dict[str, tuple[int, Optional[str]]] = {}  # pod -> (epoch, node)

    def _pods_on(self, state: ClusterState, node_id: str) -> list[PodInstance]:
        # RT pods first so that re-placement settles the RT layout before
        # regular pods are reconsidered; deterministic within each group.
        pods = state.running_on(node_id)
        return sorted(pods, key=lambda p: (p.rt_utilization == 0.0, p.id))

    def _gated(self, pod: PodInstance, now: float) -> bool:
        if now - pod.start_time <= self.config.grace_s:
            return True
        last = self.backoff.get(pod.id)
        return last is not None and now - last <= self.config.backoff_s

    def _verdict(self, state: ClusterState, pod_id: str, now: float) -> Optional[str]:
        cached = self._verdicts.get(pod_id)
        if cached is not None and cached[0] == state.epoch:
            return cached[1]
        result = simulate_scheduling(state, pod_id, self.scheduler_config, now)
        if self._reuse:
            self._verdicts[pod_id] = (state.epoch, result)
        return result

    def pass_once(self, state: ClusterState, now: float) -> list[EvictionEvent]:
        """One monitor pass; returns the evictions it performed."""
        evictions = []
        for node_id in sorted(state.nodes):
            for pod in self._pods_on(state, node_id):
                if pod.status is not PodStatus.RUNNING or self._gated(pod, now):
                    continue
                result = self._verdict(state, pod.id, now)
                if result is None or result == pod.assignment:
                    continue
                state.evict(pod.id, now, reason="monitor", target_node=result)
                self.backoff[pod.id] = now
                evictions.append(state.eviction_log[-1])
        return evictions
