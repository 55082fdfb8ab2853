"""Deterministic discrete-event engine hosting the experiment scenarios.

A run processes timed events (deployments, pinned placements, metric
samples, link changes, scheduler cycles, monitor passes, balancer
refreshes, requests, allocation samples) in timestamp order with a
documented tie-break: equal timestamps resolve by event kind, then by
script order.  One lazy walk merges the sorted workload script with a
ticker for monitor passes and one for balancer refreshes; the SCHEDs that
deploys and evicting monitor passes queue run, first in first out, before
the next event that sorts after them.  Requests and allocation samples
write no cluster state, so neither is walked.  Request times depend on the
scenario alone, so `request_timeline` lists them once per scenario; every
arm and repetition reads that one timeline as a cursor, merged into the
walk in that same `(time, kind)` order.  The requests due before an event
form a window: only events, SCHEDs and refreshes change what a request
reads, so each stream's chain and each chosen replica's row are resolved
once per window.  Samples rank after every kind at their time, so the
ticks due strictly before an event are written once its due SCHEDs have
run, from one pod count per window.  Every source of randomness derives
from the scenario seed, so a (config, seed) pair reproduces byte-identical
results.  A run makes no reference cycles, so it pauses the cyclic collector.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from bisect import bisect_left, bisect_right
from enum import IntEnum
from functools import wraps
from itertools import count, islice
from operator import itemgetter
from typing import Optional

from .cluster import MAX_LATENCY_MS, ClusterState, Node, PodStatus, Topology
from .fogservice import FogServiceSpec, expand, pod_ids
from .loadbalancer import POLICIES, POLICY_WEIGHTED, LoadBalancer, select_replica
from .monitor import ClusterMonitor, MonitorConfig
from .records import Frozen, set_fields
from .scheduling import TIE_LEXICOGRAPHIC, SchedulerConfig, run_queue
from .telemetry import DEFAULT_REFRESH_PERIOD_S, DEFAULT_STALENESS_PERIODS, path_latency


class EventKind(IntEnum):
    LINK = 0
    SUBMIT = 1
    PIN = 2
    METRIC = 3
    SCHED = 4
    MONITOR = 5
    LB_REFRESH = 6
    REQUEST = 7  # ranks requests, which come from the timeline, among the kinds
    SAMPLE = 8  # ranks samples, written between events, after every kind


class WorkloadEvent(Frozen):
    """One timed directive of the workload script: deploy, pin, metric,
    requests or link, with the arguments `ACTION_ARGS` names."""

    def __init__(self, at: float, action: str, args: tuple = ()):
        if action not in ACTION_KINDS:
            raise ValueError(f"unknown workload action: {action}")
        for key, value in (("at", at), *zip(ACTION_ARGS[action], args)):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{action}: {key}: expected a finite number, got {value!r}")
        set_fields(self, at=at, action=action, args=args)


class ArmSpec(Frozen):
    """A scheduler/balancer configuration; it builds its config to check its plugins."""

    def __init__(self, name: str, plugins: tuple[tuple[str, float], ...] = (("baseline", 1.0),),
                 tie_break: str = TIE_LEXICOGRAPHIC, lb_policy: str = POLICY_WEIGHTED):
        set_fields(self, name=name, plugins=plugins, tie_break=tie_break, lb_policy=lb_policy)
        self.scheduler_config()
        if lb_policy not in POLICIES:
            raise ValueError(f"unknown balancing policy: {lb_policy}")

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(plugins=self.plugins, tie_break=self.tie_break)


class LbSettings(Frozen):
    """Balancer refresh period and per-request processing delay."""

    def __init__(self, refresh_period_s: float = DEFAULT_REFRESH_PERIOD_S,
                 processing_delay_ms: float = 0.005):
        if not 0 < refresh_period_s < math.inf:
            raise ValueError("refresh_period_s must be positive and finite")
        if not 0 <= processing_delay_ms <= MAX_LATENCY_MS:
            raise ValueError("processing_delay_ms must be non-negative and at most "
                             f"{MAX_LATENCY_MS:g} ms")
        set_fields(self, refresh_period_s=refresh_period_s, processing_delay_ms=processing_delay_ms)


# a run walks the workload script in (time, kind) order
ACTION_KINDS = {"link": EventKind.LINK, "deploy": EventKind.SUBMIT, "pin": EventKind.PIN,
                "metric": EventKind.METRIC, "requests": EventKind.REQUEST}
ACTION_ARGS = {"link": ("zone", "latency_ms"), "deploy": ("services", "using"),
               "pin": ("pod", "node"), "metric": ("service", "pod", "value"),
               "requests": ("client", "service", "rate_hz", "count")}
CSV_SPECIAL = frozenset(',"\r\n')  # characters a CSV cell could only hold quoted


class ScenarioConfig(Frozen):
    """A whole scenario: topology, its nodes (each listed once), services, arms,
    settings and workload, which is kept in walk order: by time, then kind, then
    as listed.  Every run starts from the one `topology`, which is frozen; a
    link directive gives a run's state a new one.  A `monitor` of None runs no
    passes; `named_configs` serve only `deploy ... using=`."""

    def __init__(self, name: str, topology: Topology, nodes: tuple[Node, ...],
                 services: tuple[FogServiceSpec, ...], arms: tuple[ArmSpec, ...],
                 workload: tuple[WorkloadEvent, ...], description: str = "", seed: int = 42,
                 duration_s: float = 10.0, repetitions: int = 1, ci_repetitions: int = 1,
                 monitor: Optional[MonitorConfig] = None, lb: LbSettings = LbSettings(),
                 sample_period_s: float = 0.0, named_configs: tuple[ArmSpec, ...] = ()):
        workload = tuple(sorted(workload, key=lambda e: (e.at, ACTION_KINDS[e.action])))
        set_fields(self, name=name, topology=topology, nodes=nodes, services=services,
                   arms=arms, workload=workload, description=description, seed=seed,
                   duration_s=duration_s, repetitions=repetitions,
                   ci_repetitions=ci_repetitions, monitor=monitor, lb=lb,
                   sample_period_s=sample_period_s, named_configs=named_configs)
        if problems := self.validate():
            raise ValueError("; ".join(problems))

    def validate(self) -> list[str]:
        """Scenario-wide rules and cross-references; each part checks its own fields."""
        problems = []
        if not 0 < self.duration_s < math.inf:
            problems.append("duration_s must be positive and finite")
        if not 0 <= self.sample_period_s < math.inf:
            problems.append("sample_period_s must be >= 0 and finite")
        if self.repetitions < 1 or self.ci_repetitions < 1:
            problems.append("repetitions must be >= 1")
        if not self.arms:
            problems.append("at least one arm is required")
        # a deploy's `using=` looks both up in one namespace
        names = [a.name for a in (*self.arms, *self.named_configs)]
        if len(set(names)) != len(names):
            problems.append("arm and config names must be unique together")
        # the only free text of a result row, which report.write_results never quotes
        topology = self.topology
        named = {"zone": topology.zones, "node": topology.zone_of,
                 "service": [s.name for s in self.services],
                 "arm": [a.name for a in self.arms],
                 "config": [a.name for a in self.named_configs]}
        problems += [f"{kind} {name!r}: a name must not hold a comma, a quote or a line break"
                     for kind, group in named.items() for name in group
                     if not CSV_SPECIAL.isdisjoint(name)]
        # every file is written as UTF-8, summary.txt's header with the scenario's
        # name; a lone surrogate, the one character UTF-8 cannot hold, turns to "?"
        problems += [f"{kind} {name!r}: a name must encode as UTF-8"
                     for kind, group in {"scenario": [self.name], **named}.items()
                     for name in group if name.encode("utf-8", "replace").decode() != name]
        services = {s.name for s in self.services}
        if len(services) != len(self.services):
            problems.append("service names must be unique")
        if sorted(n.id for n in self.nodes) != sorted(topology.zone_of):
            problems.append("nodes must list each node of the topology once")
        for spec in self.services:
            problems += [f"service {spec.name}: unknown location node {s.location!r}"
                         for s in spec.locations or () if s.location not in topology.zone_of]
            problems += [f"service {spec.name}: depends on unknown service {d.target_service!r}"
                         for d in spec.dependencies if d.target_service not in services]
        return problems + self._workload_problems(services, topology)

    def _workload_problems(self, services: set[str], topology: Topology) -> list[str]:
        """Names in the workload script that nothing defines, deploys that
        re-create a pod id, pins of a pod not created at the pin's own time
        (earlier, the scheduler has placed it) or pinned twice, metrics of a pod
        no deploy of their service has created by then, request streams that
        would issue nothing or divide by a zero rate, a negative time and a link
        `topology` rejects.  Events after `duration_s` are dropped unrun.  A
        deploy's pod ids come from `pod_ids`, so checking builds no pod."""
        configs = {a.name for a in (*self.arms, *self.named_configs)}
        specs = {s.name: s for s in self.services}
        problems, created, pinned = [], {}, set()  # created: pod id -> (time, service)
        for e in self.workload:  # in the order of a run
            where = f"at {e.at:g} {e.action}"
            if e.at < 0:
                problems.append(f"{where}: time must be >= 0")
            if e.action == "deploy":
                names, using = e.args
                problems += [f"{where}: unknown service {n!r}"
                             for n in names if n not in services]
                if using is not None and using not in configs:
                    problems.append(f"{where}: unknown config {using!r}")
                if e.at > self.duration_s:
                    continue
                for spec in (specs[n] for n in names if n in specs):
                    for pod_id, _ in pod_ids(spec):
                        if pod_id in created:
                            problems.append(f"{where}: pod {pod_id!r} already deployed "
                                            f"at {created[pod_id][0]:g}")
                        created.setdefault(pod_id, (e.at, spec.name))
            elif e.action == "pin":
                pod_id, node_id = e.args
                if node_id not in topology.zone_of:
                    problems.append(f"{where}: unknown node {node_id!r}")
                if e.at > self.duration_s:
                    continue
                if pod_id not in created:
                    problems.append(f"{where}: no deploy by then creates pod {pod_id!r}")
                elif created[pod_id][0] != e.at:
                    problems.append(f"{where}: pod {pod_id!r} was deployed at "
                                    f"{created[pod_id][0]:g} and is scheduled by then")
                elif pod_id in pinned:
                    problems.append(f"{where}: pod {pod_id!r} is pinned twice")
                pinned.add(pod_id)
            elif e.action == "metric":
                service, pod_id, _ = e.args
                if service not in services:
                    problems.append(f"{where}: unknown service {service!r}")
                elif e.at <= self.duration_s and created.get(pod_id, (0, None))[1] != service:
                    problems.append(f"{where}: no deploy of {service!r} by then "
                                    f"creates pod {pod_id!r}")
            elif e.action == "link":
                try:
                    topology.with_uplink(*e.args)
                except (KeyError, ValueError) as exc:
                    problems.append(f"{where}: {exc.args[0]}")
            elif e.action == "requests":
                client, service, rate_hz, count = e.args
                if client not in topology.zone_of:
                    problems.append(f"{where}: unknown client node {client!r}")
                if service not in services:
                    problems.append(f"{where}: unknown service {service!r}")
                if not (rate_hz > 0 and count > 0):
                    problems.append(f"{where}: rate_hz and count must be positive")
        return problems


class ResultSet:
    """A run's four result tables: rows in ``*_FIELDS`` order, each cell its CSV text."""

    def __init__(self, scenario: str, seed: int, profile: str, placements: list = (),
                 timeseries: list = (), requests: list = (), evictions: list = ()):
        self.scenario, self.seed, self.profile = scenario, seed, profile
        self.placements, self.timeseries = list(placements), list(timeseries)
        self.requests, self.evictions = list(requests), list(evictions)

    PLACEMENT_FIELDS = ("arm", "rep", "pod", "service", "node", "status", "time")
    TIMESERIES_FIELDS = ("arm", "rep", "t", "node", "rt_pods", "regular_pods", "total")
    REQUEST_FIELDS = ("arm", "rep", "t", "client", "service", "replica", "node", "rtt_ms")
    EVICTION_FIELDS = ("arm", "rep", "t", "pod", "from_node", "target_node", "reason")


def request_rtt(topology: Topology, client: str, node: str,
                processing_delay_ms: float) -> float:
    return 2.0 * path_latency(topology, client, node) + processing_delay_ms


def request_timeline(config: ScenarioConfig) -> tuple[list[str], list[tuple[str, str]]]:
    """Every request up to `duration_s`, in issue order: its time `t` as `repr(t)`,
    which `float` reads back exactly, one text shared by tied times, and in a parallel
    list its stream's `(client, service)`, one tuple per stream.  A stream's next time
    accumulates as `t + 1.0 / rate_hz`.  Of tied times, first requests go first, in
    workload order, then the rest in the order of their streams' previous requests."""
    heap = [(e.at, i, e.args[:2], 1.0 / e.args[2], e.args[3])
            for i, e in enumerate(config.workload) if e.action == "requests"]
    heapq.heapify(heap)
    seq, times, streams, last = len(config.workload), [], [], None
    while heap and heap[0][0] <= config.duration_s:
        now, _, stream, step, remaining = heap[0]
        if now != last or not now:  # 0.0 == -0.0, but their reprs differ
            last, text = now, repr(now)
        times.append(text)
        streams.append(stream)
        if remaining > 1:
            heapq.heapreplace(heap, (now + step, seq, stream, step, remaining - 1))
            seq += 1
        else:
            heapq.heappop(heap)
    return times, streams


def _ticks(start: float, period: float, kind: EventKind):
    """`kind` at `start + k * period` for k = 0, 1, ...; multiplying, not
    accumulating, keeps late times free of float drift."""
    return ((start + k * period, kind, None) for k in count())


class _Run:
    """One (arm, repetition) execution of a scenario over its `request_timeline`."""

    def __init__(self, config: ScenarioConfig, arm: ArmSpec, rep: int, seed: int,
                 timeline: tuple[list[str], list[tuple[str, str]]]):
        self.config = config
        self.arm = arm
        self.rep = str(rep)  # the rep cell of each result row
        self.rng_workload = random.Random(f"{seed}:{rep}:workload")
        self.rng_sched = random.Random(f"{seed}:{rep}:sched:{arm.name}")
        self.rng_requests = random.Random(f"{seed}:{rep}:requests")
        self.state = ClusterState(config.nodes, config.topology)
        self.state.metric_store.specs = {s.name: s.metric for s in config.services
                                        if s.metric is not None}
        self.services = {s.name: s for s in config.services}
        self.configs = {a.name: a.scheduler_config()
                        for a in (*config.arms, *config.named_configs)}
        self.sched_config = self.configs[arm.name]  # one config and cache per name
        self.monitor = (ClusterMonitor(config.monitor, self.sched_config)
                        if config.monitor is not None else None)
        streams = dict.fromkeys(e.args[:2] for e in config.workload if e.action == "requests")
        self.balancer = LoadBalancer(streams, arm.lb_policy) if streams else None
        # refreshes at 0, P, 2P, ... re-poll every sample: none goes stale
        self.state.metric_store.staleness_s = (math.inf if streams else
                                               config.lb.refresh_period_s
                                               * DEFAULT_STALENESS_PERIODS)
        self.scheds: list[tuple[float, Optional[str]]] = []  # queued (now, using)
        self.timeline = timeline
        self.issued = 0  # requests of the timeline issued so far
        self.requests: list[tuple] = []  # requests.csv rows
        self.timeseries: list[tuple] = []  # timeseries.csv rows
        self.rtts: dict[tuple[str, str], str] = {}  # (client, node) -> repr(RTT)
        # per-node (node, rt, regular, total) pod count cells of the last
        # sampled window, recounted only after `state.epoch` moved
        self.counts: list[tuple[str, str, str, str]] = []
        self.counts_epoch: Optional[int] = None
        self.sampled = 0  # sample ticks written so far

    def execute(self):
        cfg = self.config
        script = [(e.at, ACTION_KINDS[e.action], e.args) for e in cfg.workload
                  if e.action != "requests"]
        tickers = []
        if self.monitor is not None:
            tickers.append(_ticks(cfg.monitor.loop_period_s, cfg.monitor.loop_period_s,
                                  EventKind.MONITOR))
        if self.balancer is not None:
            tickers.append(_ticks(0.0, cfg.lb.refresh_period_s, EventKind.LB_REFRESH))
        for time, kind, payload in heapq.merge(script, *tickers, key=itemgetter(0, 1)):
            if self.scheds and (self.scheds[0][0], EventKind.SCHED) < (time, kind):
                self.run_scheds()
            if time > cfg.duration_s:
                break
            self.issue_samples(time)
            self.issue_requests(time, kind)
            self.dispatch(time, kind, payload)
        self.run_scheds()
        self.issue_samples(math.nextafter(cfg.duration_s, math.inf))  # up to duration_s
        self.issue_requests(cfg.duration_s, EventKind.SAMPLE)
        return self.collect()

    def run_scheds(self) -> None:
        """Dispatch the queued SCHEDs in queue order.  They share the time of
        the events that queued them, which issued every request due before."""
        for now, using in self.scheds:
            self.dispatch(now, EventKind.SCHED, using)
        self.scheds.clear()

    def dispatch(self, now: float, kind: EventKind, payload) -> None:
        if kind == EventKind.LINK:
            zone, latency_ms = payload
            self.state.set_uplink(zone, latency_ms)
            self.rtts.clear()  # RTTs depend on the topology alone
        elif kind == EventKind.SUBMIT:
            self.handle_deploy(now, payload)
        elif kind == EventKind.PIN:
            pod_id, node_id = payload
            self.state.apply_placement(pod_id, node_id, now)
        elif kind == EventKind.METRIC:
            service, pod_id, value = payload
            self.state.metric_store.ingest(service, pod_id, value, now)
        elif kind == EventKind.SCHED:
            run_queue(self.state, self.configs[payload or self.arm.name], now, self.rng_sched)
        elif kind == EventKind.MONITOR:
            evicted = self.monitor.pass_once(self.state, now)
            if evicted:
                self.state.reactivate_unschedulable()
                self.scheds.append((now, None))
        elif kind == EventKind.LB_REFRESH:
            # metric directives declare continuously exported values, which the aggregator
            # re-polls now: a sample keeps its ingest time, and never goes stale here
            self.balancer.refresh(self.state.view(now=now), now)

    def handle_deploy(self, now: float, args: tuple) -> None:
        names, using = args
        pods = []
        for name in names:
            pods.extend(expand(self.services[name]))
        self.rng_workload.shuffle(pods)
        self.state.add_pods(pods)
        self.state.reactivate_unschedulable()
        self.scheds.append((now, using))

    def issue_samples(self, until: float) -> None:
        """Write the rows of each sample tick `0.0 + k * sample_period_s` before
        `until`, in tick order; samples write no state, so one count serves a window."""
        period, k = self.config.sample_period_s, self.sampled
        if not period or 0.0 + k * period >= until:  # most events come with no tick due
            return
        if self.counts_epoch != self.state.epoch:
            self.counts_epoch = self.state.epoch
            self.counts = []
            for node_id in self.state.nodes:
                pods = self.state.running_on(node_id)
                rt = sum(1 for p in pods if p.rt_utilization > 0)
                self.counts.append((node_id, str(rt), str(len(pods) - rt), str(len(pods))))
        arm, rep, counts, extend = self.arm.name, self.rep, self.counts, self.timeseries.extend
        while (now := 0.0 + k * period) < until:
            head = (arm, rep, repr(now))  # one time text per tick, shared by its rows
            extend([head + row for row in counts])
            k += 1
        self.sampled = k

    def issue_requests(self, until: float, kind: EventKind) -> None:
        """Issue the window of requests whose `(t, REQUEST)` sorts before an
        event `(until, kind)`, in timeline order; each stream's chain and each
        chosen replica's row tail are read once, RTTs once per link change."""
        times, streams = self.timeline
        start = self.issued
        bisect = bisect_right if kind > EventKind.REQUEST else bisect_left
        end = bisect(times, until, start, key=float)
        if end == start:  # most events of a run come with no request due
            return
        self.issued = end
        chains, pods, rtts = self.balancer.chains, self.state.pods, self.rtts
        rng, arm, rep = self.rng_requests, self.arm.name, self.rep
        append, running = self.requests.append, PodStatus.RUNNING
        window = {}  # (client, service) -> (chain, {replica: row tail or False})
        for now, stream in zip(islice(times, start, end), islice(streams, start, end)):
            if stream not in window:
                window[stream] = (chains.get(stream), {})
            chain, tails = window[stream]
            if chain is not None:
                replica = select_replica(chain, rng)
                tail = tails.get(replica)
                if tail is None:
                    pod, tail = pods[replica], False
                    if pod.status is running:
                        key = (stream[0], pod.assignment)
                        if key not in rtts:
                            rtts[key] = repr(request_rtt(self.state.topology, *key,
                                                         self.config.lb.processing_delay_ms))
                        tail = (*stream, replica, pod.assignment, rtts[key])
                    tails[replica] = tail
                if tail:
                    append((arm, rep, now) + tail)

    def collect(self):
        arm, rep = self.arm.name, self.rep
        pods = self.state.pods
        placements = [(arm, rep, p.id, p.service, p.assignment or "-", p.status.value,
                       repr(p.start_time if p.assignment else 0.0))
                      for p in map(pods.__getitem__, sorted(pods))]
        evictions = [(arm, rep, repr(e.time), e.pod, e.from_node,
                      e.target_node or "-", e.reason)
                     for e in self.state.eviction_log]
        return placements, self.timeseries, self.requests, evictions


def collector_paused(fn):
    """`fn` run with the cyclic collector paused, restoring the caller's setting."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            (gc.enable if enabled else gc.disable)()
    return paused


@collector_paused
def _run_rep(config: ScenarioConfig, seed: int, rep: int, timeline):
    rows = ([], [], [], [])
    for arm in config.arms:
        run = _Run(config, arm, rep, seed, timeline)
        for sink, new in zip(rows, run.execute()):
            sink.extend(new)
    return rows


@collector_paused
def run_scenario(config: ScenarioConfig, seed: Optional[int] = None,
                 repetitions: Optional[int] = None, profile: str = "paper",
                 jobs: int = 1) -> ResultSet:
    """Run every arm of a scenario for the configured repetitions.

    All arms of a repetition share the workload RNG stream, so baseline and
    custom configurations face identical submission orders.  Repetitions
    reset cluster state and may execute in parallel (`jobs`) without
    affecting the results.
    """
    if profile not in ("paper", "ci"):
        raise ValueError(f"unknown profile: {profile}")
    seed = config.seed if seed is None else seed
    reps = repetitions if repetitions is not None else (
        config.ci_repetitions if profile == "ci" else config.repetitions)
    results = ResultSet(config.name, seed, profile)
    timeline = request_timeline(config)
    sinks = (results.placements, results.timeseries, results.requests,
             results.evictions)
    args = ([config] * reps, [seed] * reps, range(reps), [timeline] * reps)
    if jobs > 1 and reps > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing: slow to import
        with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:  # all start at once
            per_rep = list(pool.map(_run_rep, *args))
    else:
        per_rep = map(_run_rep, *args)
    for rows in per_rep:
        for sink, new in zip(sinks, rows):
            sink.extend(new)
    return results
