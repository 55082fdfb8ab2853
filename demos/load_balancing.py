"""Latency/metric-weighted load balancing versus maximum fairness.

Five replicas of a service sit at increasing network distance from the
client.  Their scores (70% application metric, 30% latency) become a chain
of probabilistic forwarding rules evaluated in ascending-score order; the
rule probabilities are conditioned so each replica receives exactly its
normalized score's share of requests.
"""

import random

from fogsim import Topology, chain_probabilities, request_rtt, select_replica

ZONES = {"P1": ["P1-A", "P1-B"], "P2": ["P2-A", "P2-B"],
         "P3": ["P3-A", "P3-B"], "P4": ["P4-A", "P4-B"]}
UPLINKS = {"P1": 0.5, "P2": 0.8, "P3": 1.0, "P4": 1.2}

REPLICA_NODES = {"server-0": "P1-A", "server-1": "P1-B", "server-2": "P2-A",
                 "server-3": "P3-B", "server-4": "P4-B"}
SCORES = {"server-0": 1.0, "server-1": 0.3215, "server-2": 0.0831,
          "server-3": 0.0396, "server-4": 0.0}


def mean(values):
    return sum(values) / len(values)


def uniform_chain(replicas):
    """Maximum-fairness baseline: every replica equally likely."""
    return chain_probabilities(dict.fromkeys(replicas, 1.0))


def issue(topology, chain, count, rng):
    """(replica, rtt_ms) of `count` requests from P1-A through one chain."""
    log = []
    for _ in range(count):
        replica = select_replica(chain, rng)
        log.append((replica, request_rtt(topology, "P1-A", REPLICA_NODES[replica],
                                         processing_delay_ms=0.005)))
    return log


def main():
    topology = Topology(ZONES, UPLINKS)
    chain = chain_probabilities(SCORES)
    print("rule chain (ascending score; last rule always accepts):")
    for replica, accept, share in zip(chain.replicas, chain.accept_probabilities,
                                      chain.selection_probabilities):
        print(f"  {replica}: accept={accept:.3f} -> overall share {share:.3f}")

    # 10 requests per second for 1000 s
    weighted = issue(topology, chain, 10_000, random.Random(42))
    fair = issue(topology, uniform_chain(sorted(SCORES)), 10_000, random.Random(42))

    for label, log in (("weighted", weighted), ("uniform", fair)):
        counts = {}
        for replica, _ in log:
            counts[replica] = counts.get(replica, 0) + 1
        print(f"\n{label}: {len(log)} requests, "
              f"mean rtt {mean([rtt for _, rtt in log]):.3f} ms")
        for replica in sorted(REPLICA_NODES):
            print(f"  {replica} ({REPLICA_NODES[replica]}): {counts.get(replica, 0)}")


if __name__ == "__main__":
    main()
