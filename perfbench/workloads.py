"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a :class:`Workload`: the INI text that is handed to
``fogsim.scenario_io.parse_scenario``, plus the facts the output checks need
(pods and their CPU requests, priorities and RT utilizations, node
capacities, requests issued).  The program sees only the text and the seed.
The same seed always gives the same text, byte for byte.

This module is stdlib only, so that importing it before the timed
``import fogsim`` does not warm anything the program imports.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

RT_PERIOD_US = 1_000_000
RT_RUNTIME_US = 950_000
# Repetitions per workload.  One fig7 rep already takes several seconds; a
# run repeats the whole workload instead, for steadier medians.
REPS = 1


@dataclass(frozen=True)
class ServiceFacts:
    pods: tuple[str, ...]
    cpu_request: int
    priority: int = 0
    rt_utilization: float = 0.0


@dataclass(frozen=True)
class NodeFacts:
    cpu_capacity: int
    rt_capacity: float


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    arms: tuple[str, ...]
    reps: int
    services: dict[str, ServiceFacts] = field(default_factory=dict)
    nodes: dict[str, NodeFacts] = field(default_factory=dict)
    # request rows each (arm, rep) must produce
    requests_per_run: int = 0


def _nodes(zones: dict[str, list[str]], cores: int,
           cpu_capacity: int) -> dict[str, NodeFacts]:
    rt_capacity = cores * RT_RUNTIME_US / RT_PERIOD_US
    return {n: NodeFacts(cpu_capacity, rt_capacity)
            for members in zones.values() for n in members}


def _topology_lines(zones: dict[str, list[str]], uplinks: dict[str, float]) -> list[str]:
    lines = ["[topology]", "intra_node_ms = 0.02", "intra_zone_ms = 0.01"]
    lines += [f"zone.{z} = {' '.join(members)}" for z, members in zones.items()]
    lines += [f"uplink.{z} = {uplinks[z]}" for z in zones]
    return lines


def _node_lines(cores: int, cpu_capacity: int) -> list[str]:
    return ["[nodes]", f"cores = {cores}", f"cpu_capacity = {cpu_capacity}",
            f"rt_period_us = {RT_PERIOD_US}", f"rt_runtime_us = {RT_RUNTIME_US}"]


def _service_lines(name: str, replicas: int, cpu: int, extra=()) -> list[str]:
    return [f"[service {name}]", f"replicas = {replicas}",
            f"cpu_request = {cpu}", f"cpu_limit = {cpu}", *extra]


def _pods(name: str, replicas: int) -> tuple[str, ...]:
    return tuple(f"{name}-{i}" for i in range(replicas))


# -- monitor-converge ---------------------------------------------------------

MONITOR_SOURCE = Path("src") / "fogsim" / "scenarios" / "fig7-monitor.ini"


def monitor_converge(seed: int, checkout: Path) -> Workload:
    """The bundled fig7-monitor scenario with its seed overridden.

    Read from the checkout's source tree rather than through fogsim, so the
    timed import stays the first import of the package.
    """
    text = (checkout / MONITOR_SOURCE).read_text()
    for key, value in (("seed", seed), ("repetitions", REPS),
                       ("ci_repetitions", REPS)):
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.MULTILINE)
        if n != 1:
            raise ValueError(f"{MONITOR_SOURCE}: expected one '{key} =' line")
    return Workload("monitor-converge", text, ("custom",), REPS)


# -- placement-burst ----------------------------------------------------------


def placement_burst(seed: int) -> Workload:
    """Bulk deploys in waves on 16 nodes in 4 zones, under two arms.

    RT capacity per node is 2 * 0.95 = 1.9.  64 low-priority RT pods of
    utilization 0.2-0.3 fill about half of it; the 24 high-priority pods of
    0.6 that arrive last cannot all fit, so on the realtime arm some of them
    must preempt low-priority pods.  CPU never runs out: all pods together
    request 24 200m of the 32 000m available.
    """
    rng = random.Random(f"placement-burst:{seed}")
    zones = {f"Z{z}": [f"Z{z}-N{i}" for i in range(1, 5)] for z in range(1, 5)}
    uplinks = {z: round(rng.uniform(0.3, 1.5), 3) for z in zones}
    cores, cpu_capacity = 2, 2000
    low_runtime = rng.choice((200_000, 250_000, 300_000))
    high_runtime = 600_000
    counts = {"web": 160, "batch": 80, "rt-low": 64, "rt-high": 24,
              "db": 4, "cache": 3, "app": 24}
    cpus = {"web": 50, "batch": 100, "rt-low": 50, "rt-high": 50,
            "db": 200, "cache": 200, "app": 100}

    def rt(runtime_us):
        return ["rt_processes =",
                f"    deadline name=worker runtime_us={runtime_us} "
                f"period_us={RT_PERIOD_US}"]

    extras = {
        "rt-low": ["priority_class = 0", *rt(low_runtime)],
        "rt-high": ["priority_class = 10", *rt(high_runtime)],
        "db": ["metric = load lower-is-better mw=0.5 lw=0.5"],
        "cache": ["metric = hits higher-is-better mw=0.4 lw=0.6"],
        "app": ["depends_on =",
                f"    db weight={rng.choice((1.0, 2.0, 3.0))} lw=0.5 mw=0.5",
                "    cache weight=1.0 lw=0.7 mw=0.3"],
    }
    lines = ["[scenario]", "name = placement-burst",
             "description = Waves of regular, two-priority RT and "
             "dependency-scored pods on 16 nodes.",
             f"seed = {seed}", "duration_s = 30", f"repetitions = {REPS}",
             "", *_topology_lines(zones, uplinks), "", *_node_lines(cores, cpu_capacity)]
    for name, n in counts.items():
        lines += ["", *_service_lines(name, n, cpus[name], extras.get(name, ()))]
    lines += ["", "[arm rt]", "plugins = realtime:10.0 baseline:1.0",
              "", "[arm deps]", "plugins = dependencies:1.0 baseline:1.0",
              "", "[workload]", "events =",
              "    at 0 deploy web rt-low",
              "    at 5 deploy db cache"]
    for name in ("db", "cache"):
        lines += [f"    at 5 metric {name} {pod} {round(rng.uniform(1.0, 10.0), 3)}"
                  for pod in _pods(name, counts[name])]
    lines += ["    at 10 deploy app batch", "    at 15 deploy rt-high"]
    utilization = {"rt-low": low_runtime / RT_PERIOD_US,
                   "rt-high": high_runtime / RT_PERIOD_US}
    priority = {"rt-high": 10}
    services = {name: ServiceFacts(_pods(name, n), cpus[name],
                                   priority.get(name, 0), utilization.get(name, 0.0))
                for name, n in counts.items()}
    return Workload("placement-burst", "\n".join(lines) + "\n",
                    ("rt", "deps"), REPS, services,
                    _nodes(zones, cores, cpu_capacity))


# -- request-stream -----------------------------------------------------------

STREAM_RATE_HZ = 10
STREAM_COUNT = 2000


def request_stream(seed: int) -> Workload:
    """Four clients, one per zone, each send every service a 10 Hz stream.

    Three services of 3-5 replicas feed a metric every simulated minute, and
    three uplinks change latency mid-run, so the weighted rule chains change
    at refreshes.  Every stream ends by t = 205 s, well inside the 300 s
    run, and no pod is ever evicted, so each issued request yields a row.
    """
    rng = random.Random(f"request-stream:{seed}")
    zones = {f"Z{z}": [f"Z{z}-N{i}" for i in range(1, 4)] for z in range(1, 5)}
    uplinks = {z: round(rng.uniform(0.3, 1.5), 3) for z in zones}
    cores, cpu_capacity = 4, 4000
    replicas = {"video": 5, "map": 4, "auth": 3}
    metrics = {"video": "load lower-is-better mw=0.6 lw=0.4",
               "map": "load lower-is-better mw=0.5 lw=0.5",
               "auth": "rate higher-is-better mw=0.3 lw=0.7"}
    lines = ["[scenario]", "name = request-stream",
             "description = Request streams from four clients to three "
             "replicated services under changing metrics and links.",
             f"seed = {seed}", "duration_s = 300", f"repetitions = {REPS}",
             "", *_topology_lines(zones, uplinks), "", *_node_lines(cores, cpu_capacity)]
    for name, n in replicas.items():
        lines += ["", *_service_lines(name, n, 200, [f"metric = {metrics[name]}"])]
    lines += ["", "[arm weighted]", "plugins = baseline:1.0", "lb_policy = weighted",
              "", "[arm uniform]", "plugins = baseline:1.0", "lb_policy = uniform",
              "", "[loadbalancer]", "refresh_period_s = 30",
              "", "[workload]", "events =",
              f"    at 0 deploy {' '.join(replicas)}"]
    for t in range(0, 300, 60):
        for name, n in replicas.items():
            lines += [f"    at {t} metric {name} {pod} {round(rng.uniform(1.0, 10.0), 3)}"
                      for pod in _pods(name, n)]
    for zone in rng.sample(sorted(zones), 3):
        lines.append(f"    at {rng.randrange(60, 200)} link {zone} "
                     f"{round(rng.uniform(0.2, 2.0), 3)}")
    clients = [rng.choice(members) for members in zones.values()]
    for client in clients:
        for name in replicas:
            start = round(rng.uniform(1.0, 5.0), 2)
            lines.append(f"    at {start} requests client={client} service={name} "
                         f"rate_hz={STREAM_RATE_HZ} count={STREAM_COUNT}")
    services = {name: ServiceFacts(_pods(name, n), 200) for name, n in replicas.items()}
    return Workload("request-stream", "\n".join(lines) + "\n",
                    ("weighted", "uniform"), REPS, services,
                    _nodes(zones, cores, cpu_capacity),
                    requests_per_run=len(clients) * len(replicas) * STREAM_COUNT)


NAMES = ("monitor-converge", "placement-burst", "request-stream")


def build(name: str, seed: int, checkout: Path) -> Workload:
    if name == "monitor-converge":
        return monitor_converge(seed, checkout)
    if name == "placement-burst":
        return placement_burst(seed)
    if name == "request-stream":
        return request_stream(seed)
    raise ValueError(f"unknown workload: {name}")
