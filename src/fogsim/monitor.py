"""Cluster state monitor: dry-run rescheduling of every running pod, with
eviction of pods whose best node has drifted away from their current one.

Each pass walks the nodes and their pods in a fixed order, re-runs the full
scheduler against a view that excludes the pod under evaluation, and
evicts the pod when the simulated result names a different node -- gated by
a minimum pod age (grace) and a per-pod eviction backoff.  Evaluation is
sequential with immediate eviction, so a pass can transiently overshoot;
the backoff keeps that bounded and the loop converges to a fixed point
where no pod would be placed elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cluster import ClusterState, EvictionEvent, PodInstance, PodStatus
from .scheduling import Assigned, Preempted, SchedulerConfig, schedule_one


@dataclass(frozen=True)
class MonitorConfig:
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
    if isinstance(outcome, Assigned):
        return outcome.node
    if isinstance(outcome, Preempted):
        return outcome.node
    return None


class ClusterMonitor:
    """Periodic rescheduling monitor with grace and backoff gates."""

    def __init__(self, config: MonitorConfig, scheduler_config: SchedulerConfig):
        self.config = config
        self.scheduler_config = scheduler_config
        self.backoff: dict[str, float] = {}

    def _pods_on(self, state: ClusterState, node_id: str) -> list[PodInstance]:
        # RT pods first so that re-placement settles the RT layout before
        # regular pods are reconsidered; deterministic within each group.
        pods = state.running_on(node_id)
        return sorted(pods, key=lambda p: (p.rt_utilization == 0.0, p.id))

    def pass_once(self, state: ClusterState, now: float) -> list[EvictionEvent]:
        """One monitor pass; returns the evictions it performed."""
        evictions = []
        for node_id in sorted(state.nodes):
            for pod in self._pods_on(state, node_id):
                if pod.status is not PodStatus.RUNNING:
                    continue
                result = simulate_scheduling(state, pod.id, self.scheduler_config, now)
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
