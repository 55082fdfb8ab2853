"""Real-time quota feasibility and preemption, step by step.

Single-core nodes reserve 95% of CPU time for RT scheduling classes
(rt_runtime_us/rt_period_us = 0.95).  A reservation of 600ms per second is
a 0.6 utilization pod; two of them total 1.2 and can never share a node.
When every node is full, a higher-priority pod can still be admitted by
evicting the cheapest set of lower-priority RT pods.
"""

from fogsim import (ClusterState, DeadlinePolicy, Node, PodInstance,
                    RealtimePlugin, RtProcessSpec, Topology)


def rt_pod(pod_id, utilization, priority=0):
    policy = DeadlinePolicy(runtime_us=int(utilization * 1e6),
                            period_us=1_000_000)
    return PodInstance(id=pod_id, service="rt", cpu_request=50, cpu_limit=50,
                       priority_class=priority,
                       rt_processes=(RtProcessSpec(policy=policy,
                                                   name_substring="worker"),))


def main():
    topology = Topology({"edge": ["n1", "n2"]}, {"edge": 0.4})
    nodes = [Node(id=n, cores=1, cpu_capacity=1000, rt_runtime_us=950_000)
             for n in ("n1", "n2")]
    state = ClusterState(nodes, topology)
    plugin = RealtimePlugin()

    high = rt_pod("high-0", 0.6)
    print(f"high-utilization pod: {high.rt_utilization:.1f} of one core")

    state.add_pod(high)
    state.apply_placement("high-0", "n1", 0.0)
    second = rt_pod("high-1", 0.6)
    print("placing a second 0.6 pod on n1:",
          plugin.filter(second, "n1", state.snapshot()) or "feasible")
    print("placing it on the empty n2:",
          plugin.filter(second, "n2", state.snapshot()) or "feasible")

    low = rt_pod("low-0", 0.2)
    print("adding a 0.2 pod next to the 0.6 on n1:",
          plugin.filter(low, "n1", state.snapshot()) or "feasible (0.8 <= 0.95)")

    # saturate both nodes with low-priority pods, then bring a critical pod
    state.add_pod(second)
    state.apply_placement("high-1", "n2", 0.0)
    for i, node in enumerate(("n1", "n2")):
        filler = rt_pod(f"low-{i + 1}", 0.2, priority=0)
        state.add_pod(filler)
        state.apply_placement(filler.id, node, 0.0)

    critical = rt_pod("critical-0", 0.3, priority=10)
    snapshot = state.snapshot()
    blocked = [plugin.filter(critical, n, snapshot) for n in ("n1", "n2")]
    print("\ncritical 0.3 pod blocked everywhere:", all(blocked))
    plan = plugin.post_filter(critical, snapshot)
    print(f"preemption plan: evict {list(plan.victims)} on {plan.node} "
          f"(frees {plan.freed_utilization:.1f})")


if __name__ == "__main__":
    main()
