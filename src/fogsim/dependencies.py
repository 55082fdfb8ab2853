"""Dependency-aware node scoring.

For each dependency of a candidate pod, every running replica gets a quality
score combining normalized latency (from the candidate node) and normalized
application metrics.  The balancer sends each replica a share of requests
equal to its normalized score.  The paper models this as a Markov chain over
the replicas whose stationary distribution gives the long-run request
shares; that chain is rank-1, so its stationary vector is the normalized
score vector itself and a dependency's expected per-request quality is
exactly sum(s^2) / sum(s).  :func:`score_dependencies` uses that closed form;
:func:`markov_matrix` and :func:`stationary_distribution` stay as the stated
mechanism and the oracle the closed form is tested against.  The node score
is the dependency-weighted average of each dependency's expected quality.
"""

from __future__ import annotations

from typing import Iterable

from .cluster import ClusterSnapshot, DependencyRef, PodInstance
from .telemetry import LOWER_IS_BETTER, normalize, path_latency

SMOOTHING_EPS = 1e-9
POWER_ITER_TOL = 1e-10
POWER_ITER_MAX = 10_000


def markov_matrix(scores: list[float]) -> list[list[float]]:
    """Transition matrix of the balancer's selection chain.

    The balancer picks each request's destination independently of the
    previous one, so every row is the same selection vector: the scores
    normalized to sum 1 (uniform when all scores are zero).  The stationary
    distribution of this rank-1 chain is exactly the per-request selection
    frequency.
    """
    if not scores:
        raise ValueError("need at least one replica")
    if any(s < 0 for s in scores):
        raise ValueError("scores must be non-negative")
    total = sum(scores)
    if total <= 0:
        q = [1.0 / len(scores)] * len(scores)
    else:
        q = [s / total for s in scores]
    return [list(q) for _ in scores]


def stationary_distribution(matrix) -> list[float]:
    """Stationary vector of a row-stochastic matrix (a sequence of rows) by
    power iteration.

    Zero entries are smoothed with a tiny epsilon first so the chain is
    irreducible; iteration stops once the residual drops below 1e-10.
    """
    try:
        p = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square") from None
    n = len(p)
    if any(len(row) != n for row in p):
        raise ValueError("matrix must be square")
    if any(x < 0 for row in p for x in row):
        raise ValueError("matrix entries must be non-negative")
    if any(abs(sum(row) - 1.0) > 1e-6 for row in p):
        raise ValueError("matrix rows must sum to 1")
    if n == 1:
        return [1.0]
    if any(x == 0 for row in p for x in row):
        p = [[SMOOTHING_EPS if x == 0 else x for x in row] for row in p]
        p = [[x / total for x in row] for row, total in zip(p, map(sum, p))]
    pi = [1.0 / n] * n
    for _ in range(POWER_ITER_MAX):
        nxt = [sum(w * row[j] for w, row in zip(pi, p)) for j in range(n)]
        total = sum(nxt)
        nxt = [x / total for x in nxt]
        residual = max(abs(a - b) for a, b in zip(nxt, pi))
        pi = nxt
        if residual < POWER_ITER_TOL:
            return pi
    raise RuntimeError(f"power iteration did not converge (residual {residual:.3e})")


def expected_quality(scores: Iterable[float]) -> float:
    """Mean score of the replica a request lands on when each replica gets
    its normalized share: sum(s^2) / sum(s), and 0 when every score is 0."""
    scores = list(scores)
    total = sum(scores)
    return sum(s * s for s in scores) / total if total > 0 else 0.0


def replica_scores(pod: PodInstance, node_id: str, dep: DependencyRef,
                   snapshot: ClusterSnapshot) -> dict[str, float]:
    """Quality score in [0, 1] for each running replica of one dependency.

    Latencies from the candidate node are min-max normalized over the nodes
    hosting replicas of any of the pod's dependencies plus the candidate
    node itself; metric values are normalized over the dependency's replicas
    per the target service's metric direction.
    """
    replicas = snapshot.running_of_service(dep.target_service)
    if not replicas:
        return {}
    memo = snapshot.memo  # both parts hold for the whole view: computed once per view
    lat_key = (node_id, *(d.target_service for d in pod.dependencies))
    if lat_key not in memo:
        lat_nodes = {node_id}
        for d in pod.dependencies:
            for rep in snapshot.running_of_service(d.target_service):
                lat_nodes.add(rep.assignment)
        memo[lat_key] = normalize(
            {n: path_latency(snapshot.topology, node_id, n) for n in lat_nodes},
            LOWER_IS_BETTER)
    if dep.target_service not in memo:
        memo[dep.target_service] = snapshot.metric_store.scores(
            dep.target_service, [r.id for r in replicas], snapshot.now)
    lat_norm, mv = memo[lat_key], memo[dep.target_service]
    return {r.id: lat_norm[r.assignment] * dep.latency_weight
            + mv[r.id] * dep.metric_weight
            for r in replicas}


def score_dependencies(pod: PodInstance, node_id: str,
                       snapshot: ClusterSnapshot) -> float:
    """Dependency-weighted node score; 1.0 for pods without dependencies."""
    if not pod.dependencies:
        return 1.0
    total_weight = sum(d.dep_weight for d in pod.dependencies)
    node_score = 0.0
    for dep in pod.dependencies:
        weight = (dep.dep_weight / total_weight if total_weight > 0
                  else 1.0 / len(pod.dependencies))
        per_replica = replica_scores(pod, node_id, dep, snapshot)
        if not per_replica:
            import logging  # only this warning needs it, and it is slow to import
            logging.getLogger(__name__).warning("dependency %s of %s has no running replicas",
                                                dep.target_service, pod.id)
            continue
        node_score += expected_quality(per_replica.values()) * weight
    return min(max(node_score, 0.0), 1.0)


class DependenciesPlugin:
    """Score extension point ranking nodes by dependency communication quality."""

    name = "dependencies"
    pod_fields = ("dependencies",)

    def stamp(self, pod: PodInstance, snapshot: ClusterSnapshot) -> tuple:
        """What a score reads beyond the pod and its node: link latencies, and
        each dependency's replicas as (pod, node) and the store's readings of
        their samples, which a dependency with no metric has none of."""
        if not pod.dependencies:
            return ()
        services = [d.target_service for d in pod.dependencies]
        replicas = [snapshot.running_of_service(s) for s in services]
        store, now = snapshot.metric_store, snapshot.now
        return (tuple(snapshot.topology.uplinks_ms.values()),
                tuple((r.id, r.assignment) for reps in replicas for r in reps),
                tuple(reading for s, reps in zip(services, replicas)
                      for reading in store.readings(s, [r.id for r in reps], now)))

    def score(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot) -> float:
        return score_dependencies(pod, node_id, snapshot)
