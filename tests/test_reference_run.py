"""`NaiveRun`, the suite's one reference engine, written for clarity rather
than speed: `run_scenario`, with every fast path, must write what it writes."""

import heapq
from itertools import count
from pathlib import Path

import pytest

from fogsim import monitor, report, simulator
from fogsim.cluster import PodStatus
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.scheduling import SchedulerConfig
from fogsim.simulator import ACTION_KINDS, EventKind, request_rtt
from fogsim.telemetry import DEFAULT_STALENESS_PERIODS

from conftest import load_test_scenario


class NaiveMonitor(monitor.ClusterMonitor):
    """Dry-runs every running pod, RT pods of a node first and then by id,
    sorted here rather than read from the index's order; then applies the
    grace and backoff gates."""

    def pass_once(self, state, now):
        evictions = []
        for node_id in sorted(state.nodes):
            for pod in sorted(state.running_on(node_id),
                              key=lambda p: (p.rt_utilization == 0.0, p.id)):
                result = monitor.simulate_scheduling(state, pod.id, self.scheduler_config, now)
                last = self.backoff.get(pod.id)
                if (result not in (None, pod.assignment)
                        and now - pod.start_time > self.config.grace_s
                        and (last is None or now - last > self.config.backoff_s)):
                    state.evict(pod.id, now, reason="monitor", target_node=result)
                    self.backoff[pod.id] = now
                    evictions.append(state.eviction_log[-1])
        return evictions


class NaiveRun(simulator._Run):
    """One heap of `(time, kind, seq, payload)` for every directive, request
    and periodic tick; the SCHEDs a dispatch queues are pushed right after it.
    A stream's next request is due `1.0 / rate_hz` after its last.  Every
    request computes its RTT and every SAMPLE counts the pods afresh.  Metric
    samples go stale after the finite `staleness_s`, and every LB_REFRESH
    re-ingests each of them at the refresh's time, as the aggregator re-polls them.
    Its request and timeseries rows convert each cell here, the repetition too."""

    def __init__(self, config, arm, rep, seed, timeline):
        super().__init__(config, arm, rep, seed, timeline)
        self.repetition = rep

    def execute(self):
        cfg, heap, seq = self.config, [], count()
        self.state.metric_store.staleness_s = cfg.lb.refresh_period_s * DEFAULT_STALENESS_PERIODS

        def push(time, kind, payload=None):
            heapq.heappush(heap, (time, kind, next(seq), payload))

        for e in cfg.workload:
            push(e.at, ACTION_KINDS[e.action], e.args)
        loop_s = cfg.monitor.loop_period_s if cfg.monitor else 0.0  # 0: no ticks
        refresh_s = cfg.lb.refresh_period_s if self.balancer else 0.0
        for start, period, kind in ((0.0, refresh_s, EventKind.LB_REFRESH),
                                    (loop_s, loop_s, EventKind.MONITOR),
                                    (0.0, cfg.sample_period_s, EventKind.SAMPLE)):
            k = 0
            while period > 0 and start + k * period <= cfg.duration_s:
                push(start + k * period, kind)
                k += 1
        while heap and heap[0][0] <= cfg.duration_s:
            now, kind, _, payload = heapq.heappop(heap)
            if kind is EventKind.REQUEST:
                self.request(now, *payload, push)
            else:
                self.dispatch(now, kind, payload)
            for time, using in self.scheds:
                push(time, EventKind.SCHED, using)
            self.scheds.clear()
        return self.collect()

    def request(self, now, client, service, rate_hz, remaining, push):
        chain = self.balancer.chains.get((client, service))
        if chain is not None:
            replica = simulator.select_replica(chain, self.rng_requests)
            pod = self.state.pods[replica]
            if pod.status is PodStatus.RUNNING:
                rtt = request_rtt(self.state.topology, client, pod.assignment,
                                  self.config.lb.processing_delay_ms)
                self.requests.append((self.arm.name, str(self.repetition), repr(now), client,
                                      service, replica, pod.assignment, repr(rtt)))
        if remaining > 1:
            push(now + 1.0 / rate_hz, EventKind.REQUEST, (client, service, rate_hz, remaining - 1))

    def dispatch(self, now, kind, payload):
        if kind is EventKind.LB_REFRESH:
            store = self.state.metric_store
            for service, samples in store._samples.items():
                for pod, sample in list(samples.items()):
                    store.ingest(service, pod, sample.value, now)
        if kind is not EventKind.SAMPLE:
            return super().dispatch(now, kind, payload)
        for node_id in sorted(self.state.nodes):
            pods = [p for p in self.state.pods.values()
                    if p.status is PodStatus.RUNNING and p.assignment == node_id]
            rt = sum(p.rt_utilization > 0 for p in pods)
            self.timeseries.append((self.arm.name, str(self.repetition), repr(now), node_id,
                                    str(rt), str(len(pods) - rt), str(len(pods))))


def run(monkeypatch, config, engine):
    """`config`'s results under `engine` (ci; fig7 with 2 reps), its dispatches
    but requests as `(arm, rep, now, kind, payload)` and its dry-run count."""
    order, dry_runs = [], []
    dispatch, dry_run = engine.dispatch, monitor.simulate_scheduling

    def recorded(self, now, kind, payload):
        order.append((self.arm.name, self.rep, now, kind, payload))
        dispatch(self, now, kind, payload)

    with monkeypatch.context() as m:
        m.setattr(engine, "dispatch", recorded)
        m.setattr(monitor, "simulate_scheduling", lambda *a: dry_runs.append(a) or dry_run(*a))
        m.setattr(simulator, "_Run", engine)
        if engine is NaiveRun:  # no config caches a score, no monitor reuses a verdict
            m.setattr(SchedulerConfig, "entries", lambda self, pod, snapshot: {})
            m.setattr(simulator, "ClusterMonitor", NaiveMonitor)
        results = simulator.run_scenario(
            config, profile="ci", repetitions=2 if config.name == "fig7-monitor" else None)
    return results, order, len(dry_runs)


FILES = sorted(p.stem for p in (Path(__file__).parent / "scenarios").glob("*.ini"))


@pytest.mark.parametrize("name", [*BUNDLED, *FILES])
def test_run_matches_the_naive_run(monkeypatch, tmp_path, name):
    """The same bytes and non-request dispatches; fewer dry runs in the run."""
    config = load_bundled(name) if name in BUNDLED else load_test_scenario(name)
    results, order, dry_runs = run(monkeypatch, config, simulator._Run)
    naive, naive_order, naive_dry_runs = run(monkeypatch, config, NaiveRun)
    assert results.placements and order == naive_order
    assert results.requests or all(e.action != "requests" for e in config.workload)
    if config.monitor is not None:
        assert results.evictions and dry_runs < naive_dry_runs
    for path, naive_path in zip(report.write_results(results, tmp_path / "run"),
                                report.write_results(naive, tmp_path / "naive")):
        assert path.read_bytes() == naive_path.read_bytes(), path.name
