"""The request timeline: requests listed once per scenario, in issue order,
which every arm and repetition of a run reads as a cursor.  Its ties, its
end at `duration_s`, the RTT memo and the one `select_replica` call per
request are checked here; that the timeline issues what a heap event per
request would is checked against `NaiveRun` in `test_reference_run.py`."""

import sys
from pathlib import Path

from fogsim import report, scenario_io, simulator
from fogsim.loadbalancer import select_replica
from fogsim.scenarios import load_bundled
from fogsim.simulator import WorkloadEvent, request_rtt

from conftest import load_test_scenario, replace

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "perfbench"))

import workloads  # noqa: E402


def test_request_edges_reach_every_edge():
    """The scenario still exercises what its comments say it does."""
    results = simulator.run_scenario(load_test_scenario("request-edges"))
    rows = [r for r in results.requests if r[:2] == ("weighted", "0")]
    assert {(r[2], r[3]) for r in rows if r[2] == "0.5"} == {("0.5", "a1"), ("0.5", "b1")}
    assert {(e[3], e[6]) for e in results.evictions if e[:2] == ("weighted", "0")} == {
        ("boss-0", "monitor"), ("web-1", "preemption")}
    # the web streams issue 80 requests; those that chose web-1 after t=3 leave no row
    assert len([r for r in rows if r[4] == "web"]) < 80
    assert {r[7] for r in rows if (r[3], r[6]) == ("a1", "b1")} == {"3.005", "6.005"}
    assert [r[2] for r in rows if (r[3], r[4]) == ("b1", "boss")] == ["7.25"]
    assert max(float(r[2]) for r in rows) == 12.0  # the last request due at duration_s


def test_rtts_are_computed_once_per_pair_and_link_epoch(monkeypatch):
    """Balancers refresh and the monitor evicts, but only the t=5 link change
    moves an RTT: each (client, node) pair of a run is computed once before
    it and once after."""
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


def test_a_first_request_goes_before_a_tied_continuing_one():
    """`b1`'s stream is listed after `a1`'s and starts at 1.0, when `a1`'s
    third request is due: a first request has no previous one, so it goes
    before every continuing stream's; at 1.5, `b1`'s previous request came first."""
    config = load_test_scenario("request-ties")
    script = tuple(e for e in config.workload if e.action != "requests")
    scenario = replace(config, workload=(
        *script, WorkloadEvent(0.0, "requests", ("a1", "web", 2.0, 4)),
        WorkloadEvent(1.0, "requests", ("b1", "web", 2.0, 2))))
    times, streams = simulator.request_timeline(scenario)
    assert times == ["0.0", "0.5", "1.0", "1.0", "1.5", "1.5"]
    assert [client for client, _ in streams] == ["a1", "a1", "b1", "a1", "b1", "a1"]
    rows = simulator.run_scenario(scenario).requests
    assert [r[3] for r in rows if r[:2] == ("weighted", "0")] == [c for c, _ in streams]


def test_a_zero_time_keeps_its_sign_when_tied():
    """`-0.0 == 0.0`, but the two have different texts: streams that start at
    -0.0 and at 0.0 tie, and each first request keeps its own text."""
    config = load_test_scenario("request-ties")
    script = tuple(e for e in config.workload if e.action != "requests")
    scenario = replace(config, workload=(
        *script, WorkloadEvent(-0.0, "requests", ("a1", "web", 2.0, 2)),
        WorkloadEvent(0.0, "requests", ("b1", "web", 2.0, 2))))
    times, _ = simulator.request_timeline(scenario)
    assert times == ["-0.0", "0.0", "0.5", "0.5"]


def test_tied_times_share_one_text():
    """Each run of equal, non-zero times is one `str` object: the timeline
    formats each distinct time once.  Checked on request-ties and on the
    request-stream benchmark workload at seed 433, whose 24,000 requests have
    14,644 distinct times."""
    stream = workloads.build("request-stream", 433, CHECKOUT)
    for config in (load_test_scenario("request-ties"),
                   scenario_io.parse_scenario(stream.text, name_hint=stream.name)):
        times, _ = simulator.request_timeline(config)
        tied = [(a, b) for a, b in zip(times, times[1:]) if a == b and float(a)]
        assert tied
        assert all(a is b for a, b in tied)


def test_the_timeline_stops_at_duration_s(tmp_path):
    """A stream counted far past the end of a short run writes what a stream
    that outlasts the run by little writes, and its timeline holds only the
    times the run can issue, so its memory is bounded by the run."""
    config = load_test_scenario("request-ties")
    script = tuple(e for e in config.workload if e.action != "requests")
    written = []
    for count in (200, 1_000_000_000):
        stream = WorkloadEvent(0.0, "requests", ("a1", "web", 10.0, count))
        scenario = replace(config, workload=(*script, stream))
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
