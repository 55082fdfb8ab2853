"""Service descriptors, which check their own fields, and their expansion
into schedulable pods.

A descriptor covers everything the orchestration layer needs in one place:
replica counts (cluster-wide or per location), CPU requests and limits, a
separate real-time CPU budget, real-time process policies, dependencies with
weights, an optional application metric, and the runtime class.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .cluster import RUNTIME_CLASSES, DependencyRef, PodInstance, RtProcessSpec
from .records import Frozen, check_integers, set_fields
from .telemetry import MetricSpec


class LocationScope(Frozen):
    """One location-scoped deployment: where, how many, and local config."""

    def __init__(self, location: str, replicas: int = 1,
                 config: Optional[Mapping[str, str]] = None):
        check_integers(f"{location}: ", replicas=replicas)
        if replicas < 1:
            raise ValueError(f"{location}: replicas must be >= 1, got {replicas}")
        set_fields(self, location=location, replicas=replicas,
                   config={} if config is None else config)


class FogServiceSpec(Frozen):
    """A descriptor that checks its own fields; `cpu_limit` 0 means `cpu_request`."""

    def __init__(self, name: str, replicas: int = 1,
                 locations: Optional[list[LocationScope]] = None, cpu_request: int = 100,
                 cpu_limit: int = 0, rt_limit: float = 0.0,
                 rt_processes: tuple[RtProcessSpec, ...] = (), priority_class: int = 0,
                 dependencies: tuple[DependencyRef, ...] = (), metric: Optional[MetricSpec] = None,
                 runtime_class: str = RUNTIME_CLASSES[0]):
        if cpu_limit == 0:
            cpu_limit = cpu_request
        check_integers(replicas=replicas, cpu_request=cpu_request, cpu_limit=cpu_limit,
                       priority_class=priority_class)
        if not name:
            raise ValueError("name: must be non-empty")
        if locations is None and replicas < 1:
            raise ValueError(f"replicas: must be >= 1, got {replicas}")
        if locations is not None and not locations:
            raise ValueError("locations: must list at least one location")
        names = [scope.location for scope in locations or ()]
        if len(set(names)) < len(names):
            raise ValueError(f"locations: {max(names, key=names.count)} is listed more than once")
        if not 0 < cpu_request <= cpu_limit:
            raise ValueError(f"cpu_request: must be in (0, cpu_limit={cpu_limit}]")
        if not 0.0 <= rt_limit <= 1.0:
            raise ValueError(f"rt_limit: must be within [0, 1], got {rt_limit}")
        if runtime_class not in RUNTIME_CLASSES:
            raise ValueError(f"runtime_class: {runtime_class!r} is not "
                             + " or ".join(RUNTIME_CLASSES))
        set_fields(self, name=name, replicas=replicas, locations=locations, cpu_request=cpu_request,
                   cpu_limit=cpu_limit, rt_limit=rt_limit, rt_processes=rt_processes,
                   priority_class=priority_class, dependencies=dependencies, metric=metric,
                   runtime_class=runtime_class)


def pod_ids(spec: FogServiceSpec) -> list[tuple[str, Optional[LocationScope]]]:
    """Each pod's id with its location scope (None for a cluster-scoped
    service), in `expand`'s order: `name-0 .. name-(n-1)`, or
    `name-<location>-<i>` per location."""
    if spec.locations is None:
        return [(f"{spec.name}-{i}", None) for i in range(spec.replicas)]
    return [(f"{spec.name}-{scope.location}-{i}", scope)
            for scope in spec.locations for i in range(scope.replicas)]


def expand(spec: FogServiceSpec) -> list[PodInstance]:
    """Expand a descriptor into its pod instances, one per `pod_ids` entry.

    A location-scoped pod carries its location and that location's config
    overrides; the scope persists even if scheduling later puts the pod
    elsewhere.  Dependency weights go as declared; `score_dependencies`
    normalises them where it reads them.
    """
    return [PodInstance(
        id=pod_id, service=spec.name,
        cpu_request=spec.cpu_request, cpu_limit=spec.cpu_limit,
        priority_class=spec.priority_class,
        location_scope=None if scope is None else scope.location,
        rt_processes=spec.rt_processes, dependencies=spec.dependencies,
        runtime_class=spec.runtime_class, config={} if scope is None else dict(scope.config))
        for pod_id, scope in pod_ids(spec)]
