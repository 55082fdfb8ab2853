"""Walk through dependency-aware placement on an 8-node edge cluster.

A two-replica dependency is already running: one replica sits on P1-A with a
poor application metric, the other on P2-A with a good one.  The candidate
pod should land where the traffic it will generate experiences the best mix
of low latency and healthy replicas, which is next to the good replica.
"""

from fogsim import (ClusterState, DependencyRef, MetricSpec, Node,
                    PodInstance, SchedulerConfig, Topology,
                    markov_matrix, replica_scores, schedule_one,
                    stationary_distribution)
from fogsim.telemetry import LOWER_IS_BETTER

ZONES = {"P1": ["P1-A", "P1-B"], "P2": ["P2-A", "P2-B"],
         "P3": ["P3-A", "P3-B"], "P4": ["P4-A", "P4-B"]}
UPLINKS = {"P1": 0.5, "P2": 0.8, "P3": 1.0, "P4": 1.2}


def main():
    topology = Topology(ZONES, UPLINKS)
    state = ClusterState([Node(id=n) for ns in ZONES.values() for n in ns], topology)
    state.metric_store.specs = {"dependency": MetricSpec("load", LOWER_IS_BETTER)}

    state.add_pods([PodInstance(id="dependency-0", service="dependency"),
                    PodInstance(id="dependency-1", service="dependency")])
    state.apply_placement("dependency-0", "P1-A", 0.0)
    state.apply_placement("dependency-1", "P2-A", 0.0)
    state.metric_store.ingest("dependency", "dependency-0", 5.0, 0.0)
    state.metric_store.ingest("dependency", "dependency-1", 1.0, 0.0)

    dep = DependencyRef("dependency", dep_weight=1.0,
                        latency_weight=0.5, metric_weight=0.5)
    candidate = PodInstance(id="candidate-0", service="candidate",
                            dependencies=(dep,))
    state.add_pod(candidate)
    snapshot = state.snapshot(now=1.0)

    print("replica quality as seen from each candidate node:")
    for node in sorted(snapshot.nodes):
        scores = replica_scores(candidate, node, dep, snapshot)
        ordered = sorted(scores)
        pi = stationary_distribution(markov_matrix([scores[r] for r in ordered]))
        expected = sum(p * scores[r] for p, r in zip(pi, ordered))
        shares = ", ".join(f"{r}={p:.2f}" for r, p in zip(ordered, pi))
        print(f"  {node}: scores={ {r: round(s, 3) for r, s in scores.items()} }"
              f" traffic shares [{shares}] expected quality {expected:.3f}")

    config = SchedulerConfig(plugins=(("dependencies", 1.0),))
    outcome = schedule_one(snapshot, candidate, config)
    print(f"\nscheduler picks: {outcome.node} (co-located with the healthy replica)")


if __name__ == "__main__":
    main()
