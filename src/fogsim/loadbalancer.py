"""Latency/metric-weighted replica selection through a sequential rule chain.

Replica scores are turned into a chain of probabilistic rules evaluated in
ascending score order.  Rule `i` accepts with probability `P_i`, chosen so
that the overall chance of selecting replica `i` equals its normalized
score; the last rule always accepts.  This reproduces how a packet-filter
rule list realizes a weighted distribution: each rule's probability must be
conditioned on every earlier rule having declined.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping

from .records import Value, set_fields
from .telemetry import path_latency, refresh_scoreboard

POLICY_WEIGHTED = "weighted"
POLICY_UNIFORM = "uniform"
POLICIES = (POLICY_WEIGHTED, POLICY_UNIFORM)


class RuleChain(Value):
    """Replicas in ascending score order with per-rule accept probabilities;
    `rules` pairs the two in walk order, once per chain."""

    def __init__(self, replicas: tuple[str, ...], accept_probabilities: tuple[float, ...],
                 selection_probabilities: tuple[float, ...]):
        set_fields(self, replicas=replicas, accept_probabilities=accept_probabilities,
                   selection_probabilities=selection_probabilities,
                   rules=tuple(zip(replicas, accept_probabilities)))


def chain_probabilities(scores: Mapping[str, float]) -> RuleChain:
    """Build the rule chain for a replica score map.

    Scores are normalized to sum 1 first (an all-zero vector falls back to
    the uniform distribution).  With replicas sorted ascending, the rules
    are `P_1 = s_1`, `P_i = s_i / prod_{j<i}(1 - P_j)` and `P_N = 1`, which
    makes replica `i`'s selection probability exactly `s_i`.
    """
    if not scores:
        raise ValueError("cannot build a chain without replicas")
    if not all(0 <= s < math.inf for s in scores.values()):
        raise ValueError("scores must be finite and non-negative")
    ordered = sorted(scores, key=lambda r: (scores[r], r))
    total = sum(scores.values())
    if total == math.inf:  # one power of two below 1 / (2n) scales each score exactly
        scores = {r: s * 2.0 ** -(len(scores).bit_length() + 1) for r, s in scores.items()}
        total = sum(scores.values())
    if total <= 0:
        share = {r: 1.0 / len(scores) for r in scores}
    else:
        share = {r: scores[r] / total for r in scores}
    probs = []
    remaining = 1.0
    for i, rep in enumerate(ordered):
        if i == len(ordered) - 1:
            probs.append(1.0)
            break
        p = share[rep] / remaining if remaining > 0 else 1.0
        if p > 1.0 + 1e-12:
            raise ArithmeticError("rule probability exceeded 1 for normalized scores")
        p = min(p, 1.0)
        probs.append(p)
        remaining *= 1.0 - p
    return RuleChain(tuple(ordered), tuple(probs), tuple(share[r] for r in ordered))


def select_replica(chain: RuleChain, rng: random.Random) -> str:
    """Walk the chain's rules in order; each takes one draw and accepts if it
    falls below its probability, so an empty chain takes none."""
    draw = rng.random
    for rep, p in chain.rules:
        if draw() < p:
            return rep
    if not chain.replicas:
        raise ValueError("empty rule chain")
    return chain.replicas[-1]


class LoadBalancer:
    """One run's balancer: a rule chain per request stream `(client, service)`.

    Each refresh recomputes the replica scores of every stream's service
    from its client's vantage point and rebuilds the chains, which are the
    one record of the refresh.  Chains are immutable; request handling
    always sees either the old or the new chain, never a partial one.
    """

    def __init__(self, streams: Iterable[tuple[str, str]], policy: str = POLICY_WEIGHTED):
        if policy not in POLICIES:
            raise ValueError(f"unknown balancing policy: {policy}")
        self.streams = tuple(streams)
        self.policy = policy
        self.chains: dict[tuple[str, str], RuleChain] = {}

    def refresh(self, view, now: float) -> None:
        """Rebuild every stream's chain from the current cluster view; a
        stream whose service has no running replica gets no chain.  Under
        the uniform policy every replica scores 1."""
        chains = {}
        for client, service in self.streams:
            replica_nodes = {p.id: p.assignment
                             for p in view.running_of_service(service)}
            if not replica_nodes:
                continue
            if self.policy == POLICY_UNIFORM:
                scores = dict.fromkeys(replica_nodes, 1.0)
            else:
                scores = refresh_scoreboard(
                    service, replica_nodes,
                    lambda node: path_latency(view.topology, client, node),
                    view.metric_store, now)
            chains[client, service] = chain_probabilities(scores)
        self.chains = chains
