"""Requests issued from one timeline per scenario, which every arm and
repetition reads as a cursor, and the lazy walk of each run, against a
reference engine with one heap for every event: each request, each
periodic tick, pushed up front, and each SCHED a dispatch queues."""

import dataclasses
import heapq

import pytest

from fogsim import report, simulator
from fogsim.cluster import PodStatus
from fogsim.loadbalancer import select_replica
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.simulator import EventKind, WorkloadEvent, request_rtt

from conftest import load_test_scenario


class PerRequestRun(simulator._Run):
    """The reference: every event is an entry `(time, kind, seq, payload)`
    of one heap.  Each request is a REQUEST event handled through
    `dispatch`, which schedules the stream's next request at
    `now + 1.0 / rate_hz` and computes every RTT afresh; every periodic tick
    is pushed before the first event; the SCHEDs a dispatch queues are
    pushed right after it."""

    def push(self, time, kind, payload=None):
        heapq.heappush(self.heap, (time, kind, self.seq, payload))
        self.seq += 1

    def push_periodic(self, start, period, kind):
        k = 0
        while start + k * period <= self.config.duration_s:
            self.push(start + k * period, kind)
            k += 1

    def execute(self):
        cfg = self.config
        self.heap, self.seq = [], 0
        for event in cfg.workload:
            kind = {"link": EventKind.LINK, "deploy": EventKind.SUBMIT,
                    "pin": EventKind.PIN, "metric": EventKind.METRIC,
                    "requests": EventKind.REQUEST}[event.action]
            self.push(event.at, kind, event.args)
        if self.monitor is not None:
            self.push_periodic(cfg.monitor.loop_period_s, cfg.monitor.loop_period_s,
                               EventKind.MONITOR)
        if self.balancers:
            self.push_periodic(0.0, cfg.lb.refresh_period_s, EventKind.LB_REFRESH)
        if cfg.sample_period_s > 0:
            self.push_periodic(0.0, cfg.sample_period_s, EventKind.SAMPLE)
        timeseries = []
        while self.heap:
            time, kind, _, payload = heapq.heappop(self.heap)
            if time > cfg.duration_s:
                break
            self.dispatch(time, kind, payload, timeseries)
            for now, using in self.scheds:
                self.push(now, EventKind.SCHED, using)
            self.scheds.clear()
        return self.collect(timeseries)

    def dispatch(self, now, kind, payload, timeseries):
        if kind != EventKind.REQUEST:
            return super().dispatch(now, kind, payload, timeseries)
        client, service, rate_hz, remaining = payload
        chain = self.balancers[client].chains.get(service)
        if chain is not None:
            replica = select_replica(chain, self.rng_requests)
            pod = self.state.pods[replica]
            if pod.status is PodStatus.RUNNING:
                rtt = request_rtt(self.topology, client, pod.assignment,
                                  self.config.lb.processing_delay_ms)
                self.requests.append((self.arm.name, self.rep, repr(now), client, service,
                                      replica, pod.assignment, repr(rtt)))
        if remaining > 1:
            self.push(now + 1.0 / rate_hz, EventKind.REQUEST,
                      (client, service, rate_hz, remaining - 1))


@pytest.mark.parametrize("name, profile", [("request-edges", "paper"),
                                           ("request-ties", "paper"),
                                           ("fig9-loadbalancer", "ci"),
                                           ("fig5-dependencies", "ci"),
                                           ("fig7-monitor", "ci"),
                                           ("fig6-deadline-preemption", "paper"),
                                           ("sched-ties", "paper")])
def test_streams_match_the_per_request_reference(monkeypatch, tmp_path, name, profile):
    """The same bytes, and every event other than a request dispatched in
    the same order with the same payload."""
    config = load_bundled(name) if name in BUNDLED else load_test_scenario(name)
    repetitions = 2 if name == "fig7-monitor" else None
    dispatch, order = simulator._Run.dispatch, []

    def recorded(self, now, kind, payload, timeseries):
        order.append((self.arm.name, self.rep, now, kind, payload))
        dispatch(self, now, kind, payload, timeseries)

    monkeypatch.setattr(simulator._Run, "dispatch", recorded)
    results = simulator.run_scenario(config, profile=profile, repetitions=repetitions)
    walked, order[:] = order[:], []
    monkeypatch.setattr(simulator, "_Run", PerRequestRun)
    reference = simulator.run_scenario(config, profile=profile, repetitions=repetitions)
    assert walked == order
    if name.startswith("request-") or name == "fig9-loadbalancer":
        assert results.requests
    else:
        assert results.placements
    if name == "fig7-monitor":
        assert results.evictions
    for path, ref_path in zip(report.write_results(results, tmp_path / "streams"),
                              report.write_results(reference, tmp_path / "reference")):
        assert path.read_bytes() == ref_path.read_bytes(), path.name


def test_request_edges_reach_every_edge():
    """The scenario still exercises what its comments say it does."""
    results = simulator.run_scenario(load_test_scenario("request-edges"))
    rows = [r for r in results.requests if r[:2] == ("weighted", 0)]
    assert {(r[2], r[3]) for r in rows if r[2] == "0.5"} == {("0.5", "a1"), ("0.5", "b1")}
    assert {(e[3], e[6]) for e in results.evictions if e[:2] == ("weighted", 0)} == {
        ("boss-0", "monitor"), ("web-1", "preemption")}
    # the web streams issue 80 requests; those that chose web-1 after t=3 leave no row
    assert len([r for r in rows if r[4] == "web"]) < 80
    assert {r[7] for r in rows if (r[3], r[6]) == ("a1", "b1")} == {"3.005", "6.005"}
    assert [r[2] for r in rows if (r[3], r[4]) == ("b1", "boss")] == ["7.25"]
    assert max(float(r[2]) for r in rows) == 12.0  # the last request due at duration_s


def test_rtts_are_computed_once_per_pair_and_link_epoch(monkeypatch):
    """Balancer refreshes re-ingest metrics and the monitor evicts, but only
    the t=5 link change moves an RTT: each (client, node) pair of a run is
    computed once before it and once after."""
    calls = []

    def counting_rtt(*args):
        calls.append(args[1:3])
        return request_rtt(*args)

    monkeypatch.setattr(simulator, "request_rtt", counting_rtt)
    results = simulator.run_scenario(load_test_scenario("request-edges"))
    pairs = {(arm, rep, float(t) >= 5, client, node)
             for arm, rep, t, client, service, replica, node, rtt in results.requests}
    assert len(calls) == len(pairs)


def test_tied_requests_go_in_the_order_of_their_previous_request():
    """The 4 Hz stream is listed first, but the 2 Hz stream's previous request
    came earlier at each of the three ties."""
    times, streams = simulator.request_timeline(load_test_scenario("request-ties"))
    assert [client for t, (client, _) in zip(times, streams)
            if t in ("0.5", "1.0", "1.5")] == ["b1", "a1"] * 3
    assert sorted(times, key=float) == times


def test_the_timeline_stops_at_duration_s(tmp_path):
    """A stream counted far past the end of a short run writes what a stream
    that outlasts the run by little writes, and its timeline holds only the
    times the run can issue, so its memory is bounded by the run."""
    config = load_test_scenario("request-ties")
    script = tuple(e for e in config.workload if e.action != "requests")
    written = []
    for count in (200, 1_000_000_000):
        stream = WorkloadEvent(0.0, "requests", ("a1", "web", 10.0, count))
        scenario = dataclasses.replace(config, workload=(*script, stream))
        times, streams = simulator.request_timeline(scenario)
        assert len(streams) == len(times) < 200
        assert max(map(float, times)) <= scenario.duration_s
        paths = report.write_results(simulator.run_scenario(scenario), tmp_path / str(count))
        written.append(next(p for p in paths if p.name == "requests.csv").read_bytes())
    assert written[0] == written[1]


def test_each_request_walks_its_chain_through_the_module_global(monkeypatch):
    """One `simulator.select_replica` call per request row, returning the
    row's replica: perfbench's `loadbalancer.select` span counts requests
    there, and a loop that inlined the walk would leave it counting none."""
    chosen = []

    def counting_select(chain, rng):
        chosen.append(select_replica(chain, rng))
        return chosen[-1]

    monkeypatch.setattr(simulator, "select_replica", counting_select)
    results = simulator.run_scenario(load_bundled("fig9-loadbalancer"), profile="ci")
    assert len(chosen) == 20_000
    assert chosen == [row[5] for row in results.requests]
