"""Real-time aware scheduling: utilization accounting, quota feasibility,
interference-minimizing scores, and lowest-priority preemption.

A pod's RT utilization is the sum of its reservation-based process budgets
(`runtime/period` per deadline-policy process) plus the declared core
fractions of its fixed-priority processes.  A node can host an RT task set
only while the aggregate utilization stays within `cores * rt_runtime_us /
rt_period_us`, the kernel-enforced share of CPU time available to RT
scheduling classes.
"""

from __future__ import annotations

from .cluster import ClusterSnapshot, Node, PodInstance
from .records import Value, set_fields

FEASIBILITY_EPS = 1e-9


def node_rt_utilization(node_id: str, snapshot: ClusterSnapshot) -> float:
    """Sum over the node's running pods, kept in its load by each placement write."""
    return snapshot.load[node_id][2]


def rt_capacity(node: Node) -> float:
    """Node-level RT quota in core-fractions, from the node's RT period and
    runtime."""
    return node.cores * node.rt_runtime_us / node.rt_period_us


class PreemptionPlan(Value):
    """The lower-priority RT pods to evict from a node, and the RT utilization they free."""

    def __init__(self, node: str, victims: tuple[str, ...], freed_utilization: float):
        set_fields(self, node=node, victims=victims, freed_utilization=freed_utilization)


class RealtimePlugin:
    """Filter / Score / PostFilter extension points for RT workloads."""

    name = "realtime"
    pod_fields = None

    def filter(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot):
        """Admit the pod only if the node's RT quota can absorb it."""
        demand = pod.rt_utilization
        if demand == 0:
            return None
        node = snapshot.nodes[node_id]
        current = node_rt_utilization(node_id, snapshot)
        capacity = rt_capacity(node)
        if current + demand <= capacity + FEASIBILITY_EPS:
            return None
        deficit = current + demand - capacity
        return f"rt quota exceeded by {deficit:.3f}"

    def score(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot) -> float:
        """Prefer nodes with the smallest share of CPU claimed by RT tasks.

        Applies to RT and regular candidates alike, steering regular pods
        away from RT-heavy nodes.
        """
        node = snapshot.nodes[node_id]
        utilization = node_rt_utilization(node_id, snapshot)
        score = 1.0 - utilization / rt_capacity(node)
        return min(max(score, 0.0), 1.0)

    def post_filter(self, pod: PodInstance, snapshot: ClusterSnapshot):
        """Plan the cheapest eviction of strictly lower-priority RT pods that
        frees enough quota (and CPU) to admit the candidate.

        Per node, victims are taken greedily in ascending (priority,
        utilization) order.  Across nodes the plan with the fewest victims
        wins, then the one freeing the least utilization, then node id.
        """
        demand = pod.rt_utilization
        if demand == 0:
            return None
        best = None
        for node_id in snapshot.nodes:
            plan = self._plan_for_node(pod, node_id, snapshot, demand)
            if plan is None:
                continue
            key = (len(plan.victims), plan.freed_utilization, plan.node)
            if best is None or key < best[0]:
                best = (key, plan)
        return best[1] if best else None

    def _plan_for_node(self, pod, node_id, snapshot, demand):
        node = snapshot.nodes[node_id]
        capacity = rt_capacity(node)
        running = snapshot.running_on(node_id)
        current = node_rt_utilization(node_id, snapshot)
        allocated = snapshot.load[node_id][0]
        candidates = [p for p in running
                      if p.priority_class < pod.priority_class and p.rt_utilization > 0]
        candidates.sort(key=lambda p: (p.priority_class, p.rt_utilization, p.id))
        victims = []
        freed_util = 0.0
        freed_cpu = 0
        for victim in candidates:
            if self._admits(current - freed_util, demand, capacity,
                            allocated - freed_cpu, pod, node):
                break
            victims.append(victim.id)
            freed_util += victim.rt_utilization
            freed_cpu += victim.cpu_request
        if not victims:
            return None
        if not self._admits(current - freed_util, demand, capacity,
                            allocated - freed_cpu, pod, node):
            return None
        return PreemptionPlan(node_id, tuple(victims), freed_util)

    @staticmethod
    def _admits(current_util, demand, capacity, allocated, pod, node):
        return (current_util + demand <= capacity + FEASIBILITY_EPS
                and allocated + pod.cpu_request <= node.cpu_capacity)
