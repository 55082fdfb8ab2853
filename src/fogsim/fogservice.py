"""Service descriptors: validation and expansion into schedulable pods.

A descriptor covers everything the orchestration layer needs in one place:
replica counts (cluster-wide or per location), CPU requests and limits, a
separate real-time CPU budget, real-time process policies, dependencies with
weights, an optional application metric, and the runtime class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .cluster import (DeadlinePolicy, DependencyRef, FifoPolicy, PodInstance,
                      RtProcessSpec)
from .telemetry import HIGHER_IS_BETTER, LOWER_IS_BETTER, MetricSpec


@dataclass(frozen=True)
class LocationScope:
    """One location-scoped deployment: where, how many, and local config."""

    location: str
    replicas: int = 1
    config: Mapping[str, str] = field(default_factory=dict)


@dataclass
class FogServiceSpec:
    name: str
    replicas: int = 1
    locations: Optional[list[LocationScope]] = None
    cpu_request: int = 100
    cpu_limit: int = 100
    rt_limit: float = 0.0
    rt_processes: tuple[RtProcessSpec, ...] = ()
    priority_class: int = 0
    dependencies: tuple[DependencyRef, ...] = ()
    metric: Optional[MetricSpec] = None
    runtime_class: str = "container"


def validate(spec: FogServiceSpec, known_locations: Optional[set[str]] = None) -> list[str]:
    """Check every descriptor invariant; returns one message per violation."""
    problems = []
    if not spec.name:
        problems.append("name: must be non-empty")
    if spec.locations is None:
        if spec.replicas < 1:
            problems.append("replicas: must be >= 1")
    else:
        if not spec.locations:
            problems.append("locations: must list at least one location")
        for scope in spec.locations or ():
            if scope.replicas < 1:
                problems.append(f"locations[{scope.location}].replicas: must be >= 1")
            if known_locations is not None and scope.location not in known_locations:
                problems.append(f"locations[{scope.location}]: unknown location")
    if spec.cpu_request > spec.cpu_limit:
        problems.append("cpu_request: must be <= cpu_limit")
    if spec.cpu_request <= 0:
        problems.append("cpu_request: must be positive")
    if not 0.0 <= spec.rt_limit <= 1.0:
        problems.append("rt_limit: must be within [0, 1]")
    for i, proc in enumerate(spec.rt_processes):
        where = f"rt_processes[{i}]"
        if proc.pid is None and proc.name_substring is None:
            problems.append(f"{where}: needs a pid or name-substring selector")
        pol = proc.policy
        if isinstance(pol, FifoPolicy):
            if not 1 <= pol.priority <= 99:
                problems.append(f"{where}: fifo priority must be in [1, 99]")
            if pol.cpu_request <= 0:
                problems.append(f"{where}: fifo cpu_request must be positive")
        elif not isinstance(pol, DeadlinePolicy):  # which checks its own range
            problems.append(f"{where}: unknown policy type")
    for i, dep in enumerate(spec.dependencies):
        where = f"dependencies[{i}]"
        if not dep.target_service:
            problems.append(f"{where}: target service must be named")
        if dep.dep_weight < 0:
            problems.append(f"{where}: negative weight")
        if abs(dep.latency_weight + dep.metric_weight - 1.0) > 1e-9:
            problems.append(f"{where}: latency_weight + metric_weight must equal 1")
        if dep.latency_weight < 0 or dep.metric_weight < 0:
            problems.append(f"{where}: weights must be non-negative")
    if spec.metric is not None:
        if spec.metric.direction not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
            problems.append("metric.direction: unknown direction")
        if abs(spec.metric.metric_weight + spec.metric.latency_weight - 1.0) > 1e-9:
            problems.append("metric: metric_weight + latency_weight must equal 1")
    if spec.runtime_class not in ("container", "legacy"):
        problems.append("runtime_class: must be 'container' or 'legacy'")
    return problems


def _normalized_deps(deps: tuple[DependencyRef, ...]) -> tuple[DependencyRef, ...]:
    total = sum(d.dep_weight for d in deps)
    if total <= 0:
        if not deps:
            return ()
        share = 1.0 / len(deps)
        return tuple(replace(d, dep_weight=share) for d in deps)
    return tuple(replace(d, dep_weight=d.dep_weight / total) for d in deps)


def expand(spec: FogServiceSpec) -> list[PodInstance]:
    """Expand a validated descriptor into its pod instances.

    Cluster-scoped services yield `name-0 .. name-(n-1)`.  Location-scoped
    services yield `name-<location>-<i>` per location, each pod carrying the
    location scope and that location's config overrides; the scope persists
    even if scheduling later puts the pod elsewhere.
    """
    problems = validate(spec)
    if problems:
        raise ValueError(f"invalid service {spec.name}: " + "; ".join(problems))
    deps = _normalized_deps(spec.dependencies)
    pods = []

    def make(pod_id, scope, config):
        return PodInstance(
            id=pod_id, service=spec.name,
            cpu_request=spec.cpu_request, cpu_limit=spec.cpu_limit,
            priority_class=spec.priority_class, location_scope=scope,
            rt_processes=spec.rt_processes, dependencies=deps,
            runtime_class=spec.runtime_class, config=config)

    if spec.locations is None:
        for i in range(spec.replicas):
            pods.append(make(f"{spec.name}-{i}", None, {}))
    else:
        for scope in spec.locations:
            for i in range(scope.replicas):
                pods.append(make(f"{spec.name}-{scope.location}-{i}",
                                 scope.location, dict(scope.config)))
    return pods
