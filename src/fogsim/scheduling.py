"""Plugin-driven scheduling core: queue, Filter -> PostFilter -> Score
pipeline, weighted score combination, deterministic node selection.

Plugins are stateless objects exposing any of `filter(pod, node, snapshot)`
(a reason string excludes the node), `score(pod, node, snapshot)` (a value
in [0, 1]) and `post_filter(pod, snapshot)` (a preemption plan).  A CPU-fit
filter (allocated + request <= capacity) is always active.  Filters and
scores read the pod's shape (service, CPU request, RT utilization, location
scope, priority class and dependencies), their node's id, fixed capacities
and load (allocated CPU, pod count and RT utilization, see
:class:`ClusterState`), and what the plugin's `stamp(pod, snapshot)`
returns: the values of all else they read, as one hashable value.  A
plugin's `pod_fields` says whether its score reads the node's load: None
if it does, else the pod fields the score reads.  A config binds its
plugins' hooks and stamps when it is built, and caches each node's filter
verdict and combined score per pod shape and stamps while the node's load
stands; the states a config serves must give a node id one set of
capacities.  It caches each load-free score on its own too, per node under
its plugin's pod fields and stamp, so a write that moves only loads
computes none of them anew; the combined score still adds each weighted
score in plugin order.  Both caches keep every stamp they meet, so they
grow with a run whose stamps keep changing.  Post-filters are never cached.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter
from typing import Optional, Union

from .cluster import ClusterSnapshot, ClusterState, PodInstance
from .records import Value, set_fields

TIE_LEXICOGRAPHIC = "lexicographic"
TIE_SEEDED_RANDOM = "seeded-random"


class Assigned(Value):
    """The pod fits on `node`."""

    def __init__(self, node: str):
        object.__setattr__(self, "node", node)


class Unschedulable(Value):
    """No node takes the pod, for `reason`."""

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


class Preempted(Value):
    """The pod fits on `node` once `victims` are evicted."""

    def __init__(self, node: str, victims: tuple[str, ...]):
        set_fields(self, node=node, victims=victims)


ScheduleOutcome = Union[Assigned, Unschedulable, Preempted]


class BaselinePlugin:
    """Resource-balancing score mirroring a stock scheduler: disfavour nodes
    with more allocated CPU and more pods than their peers."""

    name = "baseline"
    pod_fields = None

    def score(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot) -> float:
        node = snapshot.nodes[node_id]
        allocated, pod_count, _ = snapshot.load[node_id]
        cpu_after = (allocated + pod.cpu_request) / node.cpu_capacity
        max_count = snapshot.max_pod_count
        count_frac = pod_count / max_count if max_count > 0 else 0.0
        score = 0.5 * (1.0 - cpu_after) + 0.5 * (1.0 - count_frac)
        return min(max(score, 0.0), 1.0)

    def stamp(self, pod: PodInstance, snapshot: ClusterSnapshot) -> int:
        return snapshot.max_pod_count


class LocationAffinityPlugin:
    """Favour a location-scoped pod's own node; neutral for unscoped pods."""

    name = "location-affinity"
    pod_fields = ("location_scope",)

    def score(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot) -> float:
        if pod.location_scope is None:
            return 1.0
        return 1.0 if node_id == pod.location_scope else 0.0


def build_plugin(name: str):
    if name == "baseline":
        return BaselinePlugin()
    if name == "location-affinity":
        return LocationAffinityPlugin()
    if name == "realtime":
        from .realtime import RealtimePlugin
        return RealtimePlugin()
    if name == "dependencies":
        from .dependencies import DependenciesPlugin
        return DependenciesPlugin()
    raise ValueError(f"unknown plugin: {name}")


class Entries(dict):
    """A cache key's {node: (load, reason, combined score)} and its `scorers`."""


def cached(score, scores: dict):
    """`score`, computed once per node into `scores`."""
    return lambda pod, node, view: (scores[node] if node in scores else
                                    scores.setdefault(node, score(pod, node, view)))


# a pod's shape: all that a filter or score reads of the pod itself
shape = attrgetter("service", "cpu_request", "rt_utilization", "location_scope",
                   "priority_class", "dependencies")


class SchedulerConfig:
    """Ordered plugin list with weights, plus the tie-break rule.

    Tie-breaking is lexicographic by node id by default; `seeded-random`
    picks uniformly among the top-scoring nodes using the run's RNG, which
    mirrors how stock schedulers choose among equal candidates.

    Building a config builds its plugins and binds their hooks: `filters`,
    `scorers`, each (plugin, score, weight), and `total_weight`,
    `post_filters`, and `stamp`, the one stamping plugin's stamp
    (`one_stamp`) or a tuple of all.  `cache` maps (pod shape, stamps) to its
    :class:`Entries`, {node: (load, reason, combined score)}.  `load_free`
    holds each load-free scorer's index in `scorers`, plugin, map from (its
    pod fields, its stamp) to {node: score} and its stamp's index among the
    stamping plugins (None if it has none), so that a new key's stamps give
    each its own; an `Entries`' own `scorers` read each score through that
    map.  A plain dict in place of an `Entries` evaluates with `scorers` and
    caches no score.
    """

    def __init__(self, plugins: tuple[tuple[str, float], ...] = (("baseline", 1.0),),
                 tie_break: str = TIE_LEXICOGRAPHIC):
        if not plugins:
            raise ValueError("plugins: need at least one")
        names = [name for name, _ in plugins]
        if len(set(names)) != len(names):
            raise ValueError("plugin names must be unique")
        if not all(0 < w < math.inf for _, w in plugins):
            raise ValueError("plugin weights must be positive and finite")
        if tie_break not in (TIE_LEXICOGRAPHIC, TIE_SEEDED_RANDOM):
            raise ValueError(f"unknown tie-break rule: {tie_break}")
        self.plugins, self.tie_break = plugins, tie_break
        built = [(build_plugin(name), weight) for name, weight in plugins]
        self.filters = [(p.name, p.filter) for p, _ in built if hasattr(p, "filter")]
        self.scorers = [(p, p.score, w) for p, w in built if hasattr(p, "score")]
        self.post_filters = [p.post_filter for p, _ in built if hasattr(p, "post_filter")]
        self.total_weight = sum(w for _, _, w in self.scorers)
        stampers = [p for p, _ in built if hasattr(p, "stamp")]
        stamps = [p.stamp for p in stampers]
        self.stamp = (stamps[0] if len(stamps) == 1 else
                      lambda pod, snapshot: tuple(fn(pod, snapshot) for fn in stamps))
        self.one_stamp = len(stamps) == 1
        self.load_free = [(i, p, {}, stampers.index(p) if p in stampers else None)
                          for i, (p, _, _) in enumerate(self.scorers) if p.pod_fields]
        self.cache: dict[tuple, dict] = {}

    def entries(self, pod: PodInstance, snapshot: ClusterSnapshot) -> dict:
        """The cache entries of the pod's shape and stamps in this view."""
        key = (shape(pod), self.stamp(pod, snapshot))
        entries = self.cache.get(key)
        if entries is None:
            entries = self.cache[key] = Entries()
            entries.scorers = list(self.scorers)
            stamps = (key[-1],) if self.one_stamp else key[-1]
            for i, p, maps, at in self.load_free:
                stamp = None if at is None else stamps[at]
                scores = maps.setdefault((*map(pod.__getattribute__, p.pod_fields), stamp), {})
                entries.scorers[i] = (p, cached(p.score, scores), self.scorers[i][2])
        return entries

    def evaluate(self, pod: PodInstance, node_id: str, snapshot: ClusterSnapshot,
                 entries=None) -> tuple[Optional[str], Optional[float]]:
        """The node's filter reason, or None and its combined score."""
        if snapshot.load[node_id][0] + pod.cpu_request > snapshot.nodes[node_id].cpu_capacity:
            return "insufficient cpu", None
        for name, fn in self.filters:
            reason = fn(pod, node_id, snapshot)
            if reason is not None:
                return f"{name}: {reason}", None
        acc = 0.0
        for plugin, fn, weight in getattr(entries, "scorers", self.scorers):
            s = fn(pod, node_id, snapshot)
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"plugin {plugin.name} returned {s} out of [0, 1]")
            acc += weight * s
        return None, acc / self.total_weight


def schedule_one(snapshot: ClusterSnapshot, pod: PodInstance,
                 config: SchedulerConfig,
                 rng: Optional[random.Random] = None) -> ScheduleOutcome:
    """Schedule a single pending pod against a snapshot.

    Nodes surviving every filter are scored by each scoring plugin; the
    combined score is the weight-normalized weighted sum and the best node
    wins.  If no node survives, PostFilter plugins run in configured order
    and the first non-empty preemption plan is returned.
    """
    node_ids = snapshot.nodes  # in id order
    if not node_ids:
        return Unschedulable("no nodes")
    entries, load = config.entries(pod, snapshot), snapshot.load
    entry_of = entries.get  # looked up once: a method of a dict subclass is slower to find

    reasons, combined = [], {}  # combined: surviving node -> score, in node order
    for node_id in node_ids:
        entry, node_load = entry_of(node_id), load[node_id]
        if entry is None or entry[0] != node_load:
            entry = entries[node_id] = (node_load,
                                        *config.evaluate(pod, node_id, snapshot, entries))
        if entry[1] is None:
            combined[node_id] = entry[2]
        else:
            reasons.append(entry[1])

    if not combined:
        for post_filter in config.post_filters:
            plan = post_filter(pod, snapshot)
            if plan is not None:
                return Preempted(plan.node, tuple(plan.victims))
        # every node is filtered, so `reasons` follows `node_ids`
        return Unschedulable("; ".join(map("{}: {}".format, node_ids, reasons)))
    best = max(combined.values())
    tied = [n for n, s in combined.items() if s == best]
    if len(tied) > 1 and config.tie_break == TIE_SEEDED_RANDOM and rng is not None:
        return Assigned(rng.choice(tied))
    return Assigned(tied[0])


def sort_queue(state: ClusterState) -> list[str]:
    """Scheduling order of the queue, which holds exactly the pending pods:
    descending priority class, FIFO within a class."""
    return sorted(state.queue, key=lambda p: -state.pods[p].priority_class)


def run_queue(state: ClusterState, config: SchedulerConfig, now: float,
              rng: Optional[random.Random] = None) -> list[tuple[str, ScheduleOutcome]]:
    """Drain the queue, which holds exactly the pending pods, one pod at a time.

    Each pod is scheduled against a fresh view of the state, reflecting the
    outcomes of the pods before it.  Preemption victims re-enter the queue
    tail and get their turn in the same drain; unschedulable pods are
    retried only after some other pod made progress.
    """
    outcomes = []
    while True:
        order = sort_queue(state)
        if not order:
            break
        progress = False
        for pod_id in order:  # each stays pending until its turn
            outcome = schedule_one(state.view(now=now), state.pods[pod_id], config, rng)
            outcomes.append((pod_id, outcome))
            if isinstance(outcome, Assigned):
                state.apply_placement(pod_id, outcome.node, now)
                progress = True
            elif isinstance(outcome, Preempted):
                for victim in outcome.victims:
                    state.evict(victim, now, reason="preemption")
                state.apply_placement(pod_id, outcome.node, now)
                progress = True
            else:
                state.mark_unschedulable(pod_id)
        if progress and state.unschedulable:
            state.reactivate_unschedulable()
        elif not progress:
            break
    return outcomes
