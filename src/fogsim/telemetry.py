"""Latency paths, application metric store, and replica scoring."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping

from .records import Frozen, Value, set_fields

if TYPE_CHECKING:
    from .cluster import Topology

LOWER_IS_BETTER = "lower-is-better"
HIGHER_IS_BETTER = "higher-is-better"
DEFAULT_REFRESH_PERIOD_S = 30.0
DEFAULT_STALENESS_PERIODS = 3  # refresh periods a metric sample stays fresh


class MetricSpec(Frozen):
    """Application metric exposed by a service, plus the weights used to
    trade it off against network latency when scoring replicas."""

    def __init__(self, name: str, direction: str = LOWER_IS_BETTER,
                 metric_weight: float = 0.5, latency_weight: float = 0.5):
        if direction not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
            raise ValueError(f"direction: unknown direction {direction!r}")
        if not (min(metric_weight, latency_weight) >= 0
                and abs(metric_weight + latency_weight - 1.0) <= 1e-9):
            raise ValueError("metric_weight, latency_weight: need two weights >= 0 summing to 1")
        set_fields(self, name=name, direction=direction, metric_weight=metric_weight,
                   latency_weight=latency_weight)


def path_latency(topology: Topology, a: str, b: str) -> float:
    """One-way latency between two nodes on the star topology.

    Same node: the intra-node base.  Same zone: base plus one zone-switch
    hop.  Different zones: the sum of both zones' core-switch uplinks.
    """
    for n in (a, b):
        if n not in topology.zone_of:
            raise KeyError(f"unknown node: {n}")
    if a == b:
        return topology.intra_node_ms
    zone_a, zone_b = topology.zone_of[a], topology.zone_of[b]
    if zone_a == zone_b:
        return topology.intra_node_ms + topology.intra_zone_ms
    return topology.uplinks_ms[zone_a] + topology.uplinks_ms[zone_b]


def normalize(values: Mapping, direction: str) -> dict:
    """Min-max normalize to [0, 1] with the best key mapped to 1.0.

    For lower-is-better metrics the scale is inverted.  Degenerate input
    (all values equal) maps everything to 1.0.  Finite values further apart
    than the float range are halved first, so their span is finite.
    """
    if not values:
        raise ValueError("cannot normalize an empty map")
    lo, hi = min(values.values()), max(values.values())
    if hi - lo == math.inf:
        values = {k: v / 2 for k, v in values.items()}
        lo, hi = lo / 2, hi / 2
    span = hi - lo
    if span == 0:
        return {k: 1.0 for k in values}
    if direction == LOWER_IS_BETTER:
        return {k: (hi - v) / span for k, v in values.items()}
    if direction == HIGHER_IS_BETTER:
        return {k: (v - lo) / span for k, v in values.items()}
    raise ValueError(f"unknown direction: {direction}")


class MetricSample(Value):
    """One application metric value and when it was taken."""

    def __init__(self, value: float, timestamp: float):
        set_fields(self, value=value, timestamp=timestamp)


class MetricStore:
    """Latest application-level sample per pod, grouped by service, each
    service's pods in first-ingest order, and each service's `MetricSpec`
    in `specs`; a sample keeps the time it was ingested, and one older than
    `staleness_s` is stale.  A run with request streams re-polls every sample
    each balancer refresh, so it sets `staleness_s` infinite: none goes stale."""

    def __init__(self):
        self._samples: dict[str, dict[str, MetricSample]] = {}  # service -> pod -> sample
        self.specs: dict[str, MetricSpec] = {}  # service -> its metric, set by the simulator
        self.staleness_s = DEFAULT_REFRESH_PERIOD_S * DEFAULT_STALENESS_PERIODS

    def ingest(self, service: str, pod: str, value: float, timestamp: float) -> None:
        samples = self._samples.setdefault(service, {})
        prev = samples.get(pod)
        if prev is not None and timestamp < prev.timestamp:
            raise ValueError(f"timestamp went backwards for {(service, pod)}")
        samples[pod] = MetricSample(value, timestamp)

    def scores(self, service: str, replicas: list[str], now: float) -> dict[str, float]:
        """Normalized metric score per replica: 1 for each when the service has
        no metric or no replica has a sample (even if other pods of the service
        do), else 0 for a replica whose sample is stale or missing, so that
        degraded or invisible replicas lose traffic instead of vanishing."""
        known = self.readings(service, replicas, now)
        if not known:
            return {pod: 1.0 for pod in replicas}
        fresh = {pod: value for pod, value, is_fresh in known if is_fresh}
        if not fresh:
            return {pod: 0.0 for pod in replicas}
        norm = normalize(fresh, self.specs[service].direction)
        return {pod: norm.get(pod, 0.0) for pod in replicas}

    def readings(self, service: str, replicas: list[str], now: float) -> tuple:
        """`(pod, value, fresh)` per replica with a sample, in `replicas`
        order: what `scores` reads, so none for a service with no metric."""
        if service not in self.specs:
            return ()
        samples = self._samples.get(service, {})
        known = [(pod, samples[pod]) for pod in replicas if pod in samples]
        return tuple((pod, s.value, now - s.timestamp <= self.staleness_s) for pod, s in known)


def refresh_scoreboard(service: str, replica_nodes: Mapping[str, str],
                       latency_of: Callable[[str], float],
                       store: MetricStore, now: float) -> dict[str, float]:
    """Recompute one service's replica scores from a reference point.

    `replica_nodes` maps the service's running replicas to their nodes and
    `latency_of` gives the one-way latency from the reference point to a
    node.  Scores combine the store's metric scores and the normalized
    latency values with the service's configured weights; with no metric
    configured the score is the latency component alone.  `replica_nodes`
    must not be empty.
    """
    replicas = sorted(replica_nodes)
    lat = normalize({pod: latency_of(replica_nodes[pod]) for pod in replicas},
                    LOWER_IS_BETTER)
    mv = store.scores(service, replicas, now)
    spec = store.specs.get(service)
    mw, lw = (0.0, 1.0) if spec is None else (spec.metric_weight, spec.latency_weight)
    return {pod: mv[pod] * mw + lat[pod] * lw for pod in replicas}
