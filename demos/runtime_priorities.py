"""Runtime-class dispatch and automatic RT priority assignment.

A pod declares two RT processes: one exists at start, the other (a detector
that takes a while to warm up) only appears 45 seconds in.  The priority
manager applies what it can immediately and parks the rest on a pending
queue revisited every 30 seconds.  Separately, the pod's RT CPU budget is
translated into group limits, clamped to the node's quota.
"""

from fogsim import (DeadlinePolicy, Node, PodInstance, RtPriorityManager,
                    RtProcessSpec, RuntimeDispatcher, SimulatedProcessHost)
from fogsim.cluster import FifoPolicy
from fogsim.fogservice import FogServiceSpec
from fogsim.runtime import rt_group_limits, rt_group_limits_for_node


def main():
    pod = PodInstance(
        id="analytics-0", service="analytics", runtime_class="legacy",
        rt_processes=(
            RtProcessSpec(policy=FifoPolicy(priority=50, cpu_request=0.2),
                          name_substring="ingest"),
            RtProcessSpec(policy=DeadlinePolicy(100_000, 1_000_000),
                          name_substring="detector"),
        ))

    dispatcher = RuntimeDispatcher()
    runtime = dispatcher.create(pod)
    print(f"runtime class {pod.runtime_class!r} -> {runtime.kind} runtime, "
          f"events {runtime.events}")

    host = SimulatedProcessHost()
    host.spawn("analytics-0", pid=101, name="ingest-loop", at=0.0)
    host.spawn("analytics-0", pid=102, name="detector", at=45.0)

    manager = RtPriorityManager(host)
    applied, pending = manager.assign_priorities(pod, now=0.0)
    print(f"\nt=0: applied specs {applied}; pending: "
          f"{pending.unmatched if pending else 'none'}")

    for now in (30.0, 60.0):
        host.now = now
        done = manager.tick({"analytics-0": pod}.get, now)
        print(f"t={now:.0f}: pending-queue tick applied {done or 'nothing'}")

    print("\nhost call log:")
    for call in host.calls:
        print(f"  t={call.time:5.1f} {call.call} pid={call.pid} {call.detail}")

    spec = FogServiceSpec(name="analytics", rt_limit=0.5)
    print(f"\nrt_limit 0.5 -> group limits {rt_group_limits(spec)}")
    tight_node = Node(id="edge-1", cores=1, rt_runtime_us=400_000)
    print(f"clamped on a node with a 0.4 quota -> "
          f"{rt_group_limits_for_node(spec, tight_node)}")


if __name__ == "__main__":
    main()
