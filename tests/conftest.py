from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from fogsim.cluster import ClusterState, Node, Topology
from fogsim.records import fields_of
from fogsim.scenario_io import load_scenario

# Every Hypothesis test draws the same examples on every run, so the suite's
# verdict never changes between runs; `--hypothesis-profile=deep` draws fresh
# random examples, ten times as many, for a local search.  Neither has a deadline:
# a slow shared host would fail a correct example.
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("deep", derandomize=False, deadline=None, max_examples=1000)

# Table-style topology used across the suite: four zones of two workers
# hanging off one core switch.
ZONES = {"P1": ("P1-A", "P1-B"), "P2": ("P2-A", "P2-B"),
         "P3": ("P3-A", "P3-B"), "P4": ("P4-A", "P4-B")}
UPLINKS = {"P1": 0.5, "P2": 0.8, "P3": 1.0, "P4": 1.2}


def load_test_scenario(name: str):
    """A hand-written scenario file of the suite, `tests/scenarios/<name>.ini`."""
    return load_scenario(Path(__file__).parent / "scenarios" / f"{name}.ini")


def make_topology(**kwargs) -> Topology:
    return Topology(ZONES, UPLINKS, **kwargs)


def make_nodes(zones=ZONES, overrides=None, **capacities) -> tuple[Node, ...]:
    """A `Node` for each node of `zones`, with `capacities`, and with the
    capacities `overrides` maps its id to, if any."""
    overrides = overrides or {}
    return tuple(Node(n, **{**capacities, **overrides.get(n, {})})
                 for ns in zones.values() for n in ns)


def make_state(cores: int = 4, cpu_capacity: int = 4000,
               rt_runtime_us: int = 950_000) -> ClusterState:
    return ClusterState(make_nodes(cores=cores, cpu_capacity=cpu_capacity,
                                   rt_runtime_us=rt_runtime_us), make_topology())


def replace(record, **changes):
    """A record of `record`'s class built anew from its fields, with `changes`."""
    fields = {name: getattr(record, name) for name in fields_of(type(record))}
    return type(record)(**{**fields, **changes})


def plain(value):
    """A deep copy of `value` as plain data: an object as its class name and
    the values of its attributes, a container element by element."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(plain, value))
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, Enum) or not hasattr(value, "__dict__"):
        return value
    return type(value).__name__, plain(vars(value))


def record(cluster) -> dict:
    """A deep, comparable record of a ClusterState or ClusterSnapshot: every
    pod and node field, the topology's zones, uplinks and base latencies,
    the node loads, the queue, the unschedulable list and the metric
    samples.  It shares nothing with the cluster, so a record taken before
    an operation equals one taken after it iff the operation changed none
    of these."""
    topology = cluster.topology
    return {
        "pods": plain(cluster.pods),
        "nodes": plain(cluster.nodes),
        "zones": {zone: list(nodes) for zone, nodes in topology.zones.items()},
        "uplinks_ms": dict(topology.uplinks_ms),
        "base_ms": (topology.intra_node_ms, topology.intra_zone_ms),
        "load": dict(cluster.load),
        "queue": list(getattr(cluster, "queue", ())),
        "unschedulable": list(getattr(cluster, "unschedulable", ())),
        "samples": plain(cluster.metric_store._samples),
    }


@pytest.fixture
def topology() -> Topology:
    return make_topology()


@pytest.fixture
def state() -> ClusterState:
    return make_state()


def walk_frequencies(chain, draws: int, seed: int) -> np.ndarray:
    """Monte-Carlo oracle for rule chains: simulate the sequential walk
    (rule i accepts with its own probability, last rule always accepts)
    independently of the chain algebra, and return selection frequencies."""
    rng = np.random.default_rng(seed)
    n = len(chain.replicas)
    accept = rng.random((draws, n)) < np.asarray(chain.accept_probabilities)
    accept[:, -1] = True
    first = np.argmax(accept, axis=1)
    return np.bincount(first, minlength=n) / draws
