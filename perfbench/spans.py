"""Span tracing of fogsim's public functions, from outside the package.

:meth:`Tracer.patched` replaces each traced function at the place its caller
looks it up (a module global or a class attribute) with a wrapper that
records a span: name, start, end and the index of the enclosing span.  Spans
stay in memory; :meth:`Tracer.write` writes them once, after the run.  The
originals are restored when the ``with`` block ends, whatever happens in it.

A span's self time is its duration minus the durations of its direct child
spans.  The program is single threaded, so children never overlap.

Not traced: ``fogsim.runtime`` (no scenario drives its priority manager,
dispatcher or RT limits), and ``fogsim.cli`` and ``fogsim.scenarios``, thin
wrappers over the calls that are traced here.  ``pod_rt_utilization`` is
left unwrapped too: with about a million calls per monitor-converge rep, a
wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _targets():
    """(owner, attribute, span name, counter hook) for every traced call."""
    from fogsim import (cluster, dependencies, loadbalancer, monitor, realtime,
                        report, scenario_io, scheduling, simulator)

    def copied(counts, snapshot):
        counts["cluster.snapshot.pods_copied"] += len(snapshot.pods)

    def unschedulable(counts, outcome):
        counts["scheduling.unschedulable"] += isinstance(outcome, scheduling.Unschedulable)

    def preempted(counts, outcomes):
        for _, outcome in outcomes:
            if isinstance(outcome, scheduling.Preempted):
                counts["realtime.preemptions"] += 1
                counts["realtime.victims"] += len(outcome.victims)

    def evicted(counts, evictions):
        counts["monitor.evictions"] += len(evictions)

    def written(counts, paths):
        counts["report.bytes"] += sum(Path(p).stat().st_size for p in paths)

    state, rt = cluster.ClusterState, realtime.RealtimePlugin
    return [
        (scenario_io, "parse_scenario", "scenario_io.parse", None),
        (simulator, "run_scenario", "simulator.run", None),
        (report, "write_results", "report.write", written),
        (state, "snapshot", "cluster.snapshot", copied),
        (state, "apply_placement", "cluster.mutate", None),
        (state, "evict", "cluster.mutate", None),
        (state, "mark_unschedulable", "cluster.mutate", None),
        (state, "reactivate_unschedulable", "cluster.mutate", None),
        (simulator, "run_queue", "scheduling.run_queue", preempted),
        (scheduling, "schedule_one", "scheduling.schedule_one", unschedulable),
        (monitor, "schedule_one", "scheduling.schedule_one", unschedulable),
        (scheduling.BaselinePlugin, "score", "scheduling.baseline.score", None),
        (rt, "filter", "realtime.filter", None),
        (rt, "score", "realtime.score", None),
        (rt, "post_filter", "realtime.post_filter", None),
        (realtime, "node_rt_utilization", "realtime.node_rt_utilization", None),
        (dependencies, "score_dependencies", "dependencies.score", None),
        (dependencies, "stationary_distribution", "dependencies.stationary", None),
        (monitor.ClusterMonitor, "pass_once", "monitor.pass", evicted),
        (monitor, "simulate_scheduling", "monitor.dryrun", None),
        (loadbalancer.LoadBalancer, "refresh", "loadbalancer.refresh", None),
        (loadbalancer, "chain_probabilities", "loadbalancer.chain", None),
        (simulator, "select_replica", "loadbalancer.select", None),
        (simulator, "path_latency", "telemetry.path_latency", None),
        (loadbalancer, "path_latency", "telemetry.path_latency", None),
        (dependencies, "path_latency", "telemetry.path_latency", None),
        (loadbalancer, "refresh_scoreboard", "telemetry.refresh_scoreboard", None),
        (simulator, "expand", "fogservice.expand", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, fn, name, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent"))
            writer.writerows((i, *span) for i, span in enumerate(self.spans))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _ = span
        calls[name] += 1
        own[name] += self_s
        total[name] += end - start
    m = {}
    for name in ("cluster.snapshot", "cluster.mutate", "scheduling.run_queue",
                 "scheduling.schedule_one", "realtime.filter", "realtime.post_filter",
                 "realtime.node_rt_utilization", "dependencies.score",
                 "dependencies.stationary", "monitor.pass", "monitor.dryrun",
                 "loadbalancer.refresh", "loadbalancer.select", "fogservice.expand"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = own[name]
    for name in ("scheduling.baseline.score", "realtime.score",
                 "telemetry.refresh_scoreboard", "scenario_io.parse", "report.write"):
        m[f"{name}.s"] = own[name]
    for name in ("loadbalancer.chain", "telemetry.path_latency"):
        m[f"{name}.calls"] = calls[name]
    for name in ("cluster.snapshot.pods_copied", "realtime.preemptions",
                 "realtime.victims", "monitor.evictions", "report.bytes"):
        m[name] = counts.get(name, 0)
    m["scheduling.unschedulable_ratio"] = _ratio(counts.get("scheduling.unschedulable", 0),
                                                 calls["scheduling.schedule_one"])
    m["monitor.eviction_ratio"] = _ratio(m["monitor.evictions"],
                                         calls["monitor.dryrun"])
    m["simulator.run.s"] = total["simulator.run"]
    m["simulator.self_s"] = own["simulator.run"]
    return m
