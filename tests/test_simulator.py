import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fogsim import report, simulator
from fogsim.monitor import MonitorConfig
from fogsim.realtime import FEASIBILITY_EPS, node_rt_utilization, rt_capacity
from fogsim.scenario_io import parse_scenario
from fogsim.scenarios import BUNDLED, load_bundled
from fogsim.simulator import (ArmSpec, EventKind, LbSettings, ScenarioConfig, WorkloadEvent,
                              request_rtt, run_scenario)
from fogsim.fogservice import FogServiceSpec, LocationScope
from fogsim.cluster import (ClusterState, DeadlinePolicy, DependencyRef, FifoPolicy, Node,
                            RtProcessSpec, Topology)

from conftest import load_test_scenario, make_nodes, make_topology, replace


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        name="small",
        topology=make_topology(), nodes=make_nodes(),
        services=(FogServiceSpec(name="web", replicas=6, cpu_request=100,
                                 cpu_limit=100),),
        arms=(ArmSpec(name="custom", plugins=(("baseline", 1.0),)),),
        workload=(WorkloadEvent(0.0, "deploy", (("web",), None)),),
        duration_s=5.0, repetitions=2, ci_repetitions=2, seed=11)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestDeterminism:
    def test_same_seed_same_rows(self):
        cfg = small_scenario()
        a = run_scenario(cfg, seed=5)
        b = run_scenario(cfg, seed=5)
        assert a.placements == b.placements
        assert a.requests == b.requests
        assert a.evictions == b.evictions
        assert a.timeseries == b.timeseries

    def test_different_seed_can_differ(self):
        cfg = load_bundled("fig6-realtime")
        cfg = replace(cfg, repetitions=2, ci_repetitions=2)
        a = run_scenario(cfg, seed=1)
        b = run_scenario(cfg, seed=2)
        assert a.placements != b.placements

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = load_bundled("fig6-realtime")
        for jobs in (1, 2):
            results = run_scenario(cfg, repetitions=20, profile="ci", jobs=jobs)
            report.write_results(results, tmp_path / f"jobs{jobs}")
        for name in ("placements.csv", "timeseries.csv", "requests.csv",
                     "evictions.csv", "summary.txt"):
            assert ((tmp_path / "jobs1" / name).read_bytes()
                    == (tmp_path / "jobs2" / name).read_bytes())

    def test_the_pool_asks_for_no_more_workers_than_repetitions(self, monkeypatch):
        """A process pool starts all its workers at once, so `jobs` above the
        repetition count would start idle ones.  The recorder maps in this
        process, so the test starts none."""
        import concurrent.futures
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_scenario()
        serial = run_scenario(cfg, repetitions=3, jobs=1)
        for jobs in (2, 3, 4, 500):
            pooled = run_scenario(cfg, repetitions=3, jobs=jobs)
            assert (pooled.placements, pooled.timeseries) == (serial.placements,
                                                              serial.timeseries)
        assert asked == [2, 3, 3, 3]

    def test_arms_share_workload_order(self):
        # identical plugin configs in both arms must give identical results
        cfg = small_scenario(arms=(
            ArmSpec(name="custom", plugins=(("baseline", 1.0),)),
            ArmSpec(name="baseline", plugins=(("baseline", 1.0),))))
        res = run_scenario(cfg, seed=9)
        custom = [r[2:] for r in res.placements if r[0] == "custom"]
        baseline = [r[2:] for r in res.placements if r[0] == "baseline"]
        assert custom == baseline


class TestEventOrdering:
    def test_event_kind_tie_break_on_equal_timestamps(self):
        order = sorted([(0.0, int(EventKind.SCHED), 2), (0.0, int(EventKind.PIN), 1),
                        (0.0, int(EventKind.SUBMIT), 0)])
        kinds = [EventKind(k) for _, k, _ in order]
        assert kinds == [EventKind.SUBMIT, EventKind.PIN, EventKind.SCHED]

    def test_pin_applies_before_scheduling(self):
        # deploy and pins share t=0; the pinned pods must not be rescheduled
        cfg = load_bundled("fig5-dependencies")
        cfg = replace(cfg, repetitions=1, ci_repetitions=1)
        res = run_scenario(cfg)
        nodes = {r[2]: r[4] for r in res.placements if r[0] == "custom"}
        assert nodes["dependency-0"] == "P1-A"
        assert nodes["dependency-1"] == "P2-A"

    def test_events_after_duration_dropped(self):
        cfg = small_scenario(workload=(
            WorkloadEvent(0.0, "deploy", (("web",), None)),
            WorkloadEvent(99.0, "deploy", (("web",), None))))  # past duration
        res = run_scenario(cfg, seed=1)
        # only the first deployment ran; ids would collide otherwise
        assert len([r for r in res.placements if int(r[1]) == 0]) == 6

    def test_setup_does_not_grow_with_the_run_length(self, monkeypatch):
        """fig7 over 100 000 s has 110 001 monitor passes and samples due,
        and none of them is held before the first event runs."""
        class FirstEvent(Exception):
            pass

        def stop(self, now, kind, payload):
            raise FirstEvent

        monkeypatch.setattr(simulator._Run, "dispatch", stop)
        cfg = replace(load_bundled("fig7-monitor"), duration_s=100_000.0)
        tracemalloc.start()
        try:
            with pytest.raises(FirstEvent):
                run_scenario(cfg, repetitions=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def sampled(results) -> dict:
    """Timeseries rows as `{(arm, rep, t): {node: total}}`."""
    ticks = {}
    for arm, rep, t, node, _, _, total in results.timeseries:
        ticks.setdefault((arm, rep, t), {})[node] = int(total)
    return ticks


class TestSamples:
    """Samples are written between the walked events: a tick comes after
    every event at its time and after the scheduler cycles they queued."""

    def test_a_sample_at_a_deploy_counts_the_pods_it_placed(self):
        services = (FogServiceSpec(name="web", replicas=6, cpu_request=100, cpu_limit=100),
                    FogServiceSpec(name="api", replicas=2, cpu_request=100, cpu_limit=100))
        cfg = small_scenario(services=services, sample_period_s=1.0, workload=(
            WorkloadEvent(0.0, "deploy", (("web",), None)),
            WorkloadEvent(2.0, "deploy", (("api",), None)),
            WorkloadEvent(2.5, "link", ("P1", 1.0))))
        totals = {key: sum(nodes.values()) for key, nodes in sampled(run_scenario(cfg)).items()}
        assert totals == {("custom", rep, repr(float(t))): 6 if t < 2 else 8
                          for rep in ("0", "1") for t in range(6)}

    def test_a_sample_at_a_monitor_eviction_counts_the_moved_pod(self):
        # as in the migration test: raising P3's uplink at 50 s makes the
        # monitor move app-0 from P3-A to P4-A at a pass, here also a tick
        services = (
            FogServiceSpec(name="db", replicas=2, cpu_request=100, cpu_limit=100),
            FogServiceSpec(name="app", replicas=1, cpu_request=100, cpu_limit=100,
                           dependencies=(DependencyRef("db", 1.0, latency_weight=1.0,
                                                       metric_weight=0.0),)))
        zones = {"P1": ("P1-A",), "P2": ("P2-A",), "P3": ("P3-A",), "P4": ("P4-A",)}
        cfg = ScenarioConfig(
            name="drift", services=services,
            topology=Topology(zones, {"P1": 0.1, "P2": 0.5, "P3": 0.2, "P4": 1.0}),
            nodes=make_nodes(zones, {"P1-A": {"cpu_capacity": 100},
                                     "P2-A": {"cpu_capacity": 100}}),
            arms=(ArmSpec(name="custom", plugins=(("dependencies", 1.0),)),),
            workload=(WorkloadEvent(0.0, "deploy", (("db",), None)),
                      WorkloadEvent(0.0, "pin", ("db-0", "P1-A")),
                      WorkloadEvent(0.0, "pin", ("db-1", "P2-A")),
                      WorkloadEvent(1.0, "deploy", (("app",), None)),
                      WorkloadEvent(50.0, "link", ("P3", 5.0))),
            duration_s=300.0, monitor=MonitorConfig(), sample_period_s=10.0, seed=4)
        res = run_scenario(cfg)
        [(_, _, t, pod, from_node, target, _)] = res.evictions
        assert (pod, from_node, target) == ("app-0", "P3-A", "P4-A")
        ticks = sampled(res)
        before = ticks["custom", "0", repr(float(t) - 10.0)]
        assert before == {"P1-A": 1, "P2-A": 1, "P3-A": 1, "P4-A": 0}
        assert ticks["custom", "0", t] == {"P1-A": 1, "P2-A": 1, "P3-A": 0, "P4-A": 1}

    def test_every_tick_up_to_the_duration_is_written_after_the_script_ends(self):
        # no monitor, balancer or request stream: the walk ends at the deploy
        ticks = sampled(run_scenario(small_scenario(sample_period_s=1.0, duration_s=5.0)))
        assert list(ticks) == [("custom", rep, repr(float(t)))
                               for rep in ("0", "1") for t in range(6)]
        assert all(len(nodes) == 8 and sum(nodes.values()) == 6 for nodes in ticks.values())

    def test_tick_times_are_multiples_of_the_period(self):
        """`0.0 + k * period`: a running sum of 0.1 drifts from it in 91 of 101 ticks."""
        res = run_scenario(small_scenario(sample_period_s=0.1, duration_s=10.0,
                                          repetitions=1))
        assert [row[2] for row in res.timeseries] == [repr(0.0 + k * 0.1)
                                                      for k in range(101) for _ in range(8)]


def request_scenario(rate_hz: float, count: int) -> ScenarioConfig:
    return small_scenario(
        workload=(WorkloadEvent(0.0, "deploy", (("web",), None)),
                  WorkloadEvent(1.0, "requests", ("P1-A", "web", rate_hz, count))),
        duration_s=1000.0, repetitions=1, ci_repetitions=1)


class TestRequests:
    def test_rate_times_duration(self):
        res = run_scenario(request_scenario(rate_hz=10.0, count=9000))
        times = [float(r[2]) for r in res.requests]
        assert len(times) == 9000
        assert times[0] == 1.0 and times[-1] == pytest.approx(900.9)

    def test_same_node_rtt_close_to_calibration(self, topology):
        rtt = request_rtt(topology, "P1-A", "P1-A", processing_delay_ms=0.005)
        assert rtt == pytest.approx(2 * 0.02 + 0.005)
        assert abs(rtt - 0.043) < 0.01

    def test_cross_cluster_rtt(self, topology):
        rtt = request_rtt(topology, "P1-A", "P4-B", processing_delay_ms=0.005)
        assert rtt == pytest.approx(2 * (0.5 + 1.2) + 0.005)
        assert abs(rtt - 3.578) < 0.2

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError) as exc:
            request_scenario(rate_hz=0.0, count=10)
        assert str(exc.value) == "at 1 requests: rate_hz and count must be positive"

    def test_problems_list_in_the_order_a_run_meets_them(self):
        """By time, then kind: a link before a deploy of its time, a pin after it."""
        with pytest.raises(ValueError) as exc:
            small_scenario(workload=(WorkloadEvent(1.0, "pin", ("web-0", "P1-A")),
                                     WorkloadEvent(1.0, "deploy", (("web", "nope"), None)),
                                     WorkloadEvent(1.0, "link", ("P9", 1.0))))
        assert str(exc.value) == ("at 1 link: unknown link: P9; "
                                  "at 1 deploy: unknown service 'nope'")


@pytest.mark.parametrize("char", ["\r", "\n"])
def test_a_line_break_in_a_name_is_rejected(char):
    """Only a scenario built in Python can hold one: the reader splits lines first."""
    with pytest.raises(ValueError) as exc:
        small_scenario(arms=(ArmSpec(name=f"x{char}y"),))
    assert str(exc.value) == (f"arm {f'x{char}y'!r}: a name must not hold a comma, "
                              "a quote or a line break")


@given(st.text(st.characters(exclude_characters=',"\r\n'), min_size=1, max_size=4))
@example("\ud800")  # a lone surrogate, which once failed write_results halfway
def test_a_name_is_rejected_exactly_when_utf8_cannot_encode_it(name):
    """Every result file is UTF-8, summary.txt's header with the scenario's name."""
    for kind, overrides in (("arm", {"arms": (ArmSpec(name=name),)}), ("scenario", {"name": name})):
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(ValueError) as exc:
                small_scenario(**overrides)
            assert str(exc.value) == f"{kind} {name!r}: a name must encode as UTF-8"
        else:
            assert small_scenario(**overrides).validate() == []


DEPLOY = WorkloadEvent(0.0, "deploy", (("web",), None))
NON_FINITE = {  # a field and a scenario that gives it a value the file reader rejects
    "at": lambda: small_scenario(workload=(replace(DEPLOY, at=math.nan),)),
    "duration_s-nan": lambda: small_scenario(duration_s=math.nan),
    "duration_s-inf": lambda: small_scenario(duration_s=math.inf),
    "sample_period_s": lambda: small_scenario(sample_period_s=math.inf),
    "value": lambda: small_scenario(workload=(
        DEPLOY, WorkloadEvent(0.0, "metric", ("web", "web-0", math.nan)))),
    "rate_hz": lambda: small_scenario(workload=(
        DEPLOY, WorkloadEvent(1.0, "requests", ("P1-A", "web", math.inf, 3)))),
    "loop_period_s": lambda: small_scenario(monitor=MonitorConfig(loop_period_s=math.inf)),
    "refresh_period_s": lambda: small_scenario(lb=LbSettings(refresh_period_s=math.inf)),
    "plugin weights": lambda: small_scenario(arms=(ArmSpec("custom", (("baseline", math.inf),)),)),
    "weights": lambda: small_scenario(services=(FogServiceSpec(
        "web", dependencies=(DependencyRef("web", dep_weight=math.inf),)),)),
    "cpu_request": lambda: small_scenario(services=(FogServiceSpec(
        "web", rt_processes=(RtProcessSpec(FifoPolicy(50, math.inf), pid=1),)),)),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_a_python_built_scenario_rejects_a_number_that_is_not_finite(field):
    """Each record rejects, when it is built, a nan or infinite number, as the
    file reader does, and names the field.  None of these scenarios is run:
    one that lasts nan seconds and has a periodic event would never end."""
    with pytest.raises(ValueError, match=rf"\b{field.partition('-')[0]}:? .*finite"):
        NON_FINITE[field]()


NOT_AN_INTEGER = {  # a record with a field the file reader reads as an integer, not one
    "replicas": lambda: FogServiceSpec("web", replicas=2.0),
    "cpu_request-inf": lambda: FogServiceSpec("web", cpu_request=math.inf),
    "cpu_request-100.5": lambda: FogServiceSpec("web", cpu_request=100.5),
    "cpu_limit": lambda: FogServiceSpec("web", cpu_limit=math.inf),
    "priority_class": lambda: FogServiceSpec("web", priority_class=math.nan),
    "cores": lambda: Node("n", cores=1.5),
    "cpu_capacity": lambda: Node("n", cpu_capacity=2500.5),
    "rt_period_us": lambda: Node("n", rt_period_us=math.inf),
    "rt_runtime_us": lambda: Node("n", rt_runtime_us=950_000.0),
    "replicas-location": lambda: LocationScope("P1-A", replicas=1.5),
    "runtime_us": lambda: DeadlinePolicy(100_000.5, 1_000_000),
    "period_us": lambda: DeadlinePolicy(100_000, math.inf),
    "deadline_us": lambda: DeadlinePolicy(100_000, 1_000_000, 500_000.0),
    "priority": lambda: FifoPolicy(50.5, 0.5),
    "pid": lambda: RtProcessSpec(FifoPolicy(50, 0.5), pid=1.0),
}


@pytest.mark.parametrize("field", NOT_AN_INTEGER)
def test_a_python_built_record_rejects_a_number_that_is_not_an_integer(field):
    """A field the file reader reads as an integer takes only an int, also
    from Python, and a value that is not one is named with its field."""
    field_name = field.partition("-")[0]
    with pytest.raises(ValueError, match=rf"\b{field_name}: expected an integer, got"):
        NOT_AN_INTEGER[field]()


@pytest.mark.parametrize("nodes", [make_nodes()[1:], make_nodes() + make_nodes()[:1],
                                   make_nodes() + make_nodes({"P9": ("P9-A",)})],
                         ids=["missing", "repeated", "unknown"])
def test_the_nodes_are_the_topology_nodes_each_once(nodes):
    with pytest.raises(ValueError, match="nodes must list each node of the topology once"):
        small_scenario(nodes=nodes)


def test_the_workload_is_kept_in_walk_order():
    """By time, then kind (link, deploy, pin, metric, requests), then as listed."""
    late_link = WorkloadEvent(1.0, "link", ("P1", 2.0))
    metric_1 = WorkloadEvent(0.0, "metric", ("web", "web-1", 1.0))
    metric_0 = WorkloadEvent(0.0, "metric", ("web", "web-0", 2.0))
    link = WorkloadEvent(0.0, "link", ("P2", 1.0))
    cfg = small_scenario(workload=(late_link, metric_1, DEPLOY, metric_0, link))
    assert cfg.workload == (link, DEPLOY, metric_1, metric_0, late_link)


@pytest.mark.parametrize("refresh_period_s, node", [(30.0, "P2-A"), (10.0, "P1-A")])
def test_dependency_score_reads_the_balancer_staleness(refresh_period_s, node):
    # fig5's metric samples are 40 s old when the candidate deploys: fresh for
    # 3 refresh periods of 30 s, stale for 3 of 10 s, which leaves latency
    # alone to rank P1-A and P2-A equal (the lexicographic tie goes to P1-A)
    cfg = load_bundled("fig5-dependencies")
    workload = tuple(replace(e, at=40.0) if e.at == 1.0 else e
                     for e in cfg.workload)
    cfg = replace(cfg, workload=workload, duration_s=50.0, arms=cfg.arms[:1],
                  lb=LbSettings(refresh_period_s=refresh_period_s))
    rows = run_scenario(cfg, repetitions=1).placements
    assert [row[4] for row in rows if row[2] == "candidate-0"] == [node]


class TestLinkInjection:
    def test_uplink_change_reflected_in_paths(self):
        from fogsim.telemetry import path_latency
        topology = make_topology().with_uplink("P2", 0.8)
        assert path_latency(topology, "P1-A", "P2-A") == pytest.approx(1.3)
        topology = topology.with_uplink("P2", 2.0)
        assert path_latency(topology, "P1-A", "P2-A") == pytest.approx(2.5)

    def test_zero_latency_collapses_to_hop_bases(self):
        from fogsim.telemetry import path_latency
        topology = make_topology().with_uplink("P1", 0.0).with_uplink("P2", 0.0)
        assert path_latency(topology, "P1-A", "P2-A") == 0.0

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            make_topology().with_uplink("P9", 1.0)

    def test_mid_run_change_triggers_monitor_migration(self):
        # An app depends on a service with replicas pinned on two capacity-
        # starved nodes; the app itself can only run on the other nodes of
        # zones P3/P4.  Raising P3's uplink makes the P4 node the better
        # host, so the monitor migrates the app after its grace period.
        services = (
            FogServiceSpec(name="db", replicas=2, cpu_request=100, cpu_limit=100),
            FogServiceSpec(name="app", replicas=1, cpu_request=100, cpu_limit=100,
                           dependencies=(DependencyRef("db", 1.0,
                                                       latency_weight=1.0,
                                                       metric_weight=0.0),)),
        )
        zones = {"P1": ("P1-A",), "P2": ("P2-A",), "P3": ("P3-A",), "P4": ("P4-A",)}
        topology = Topology(zones=zones, uplinks_ms={"P1": 0.1, "P2": 0.5,
                                                     "P3": 0.2, "P4": 1.0})
        nodes = make_nodes(zones, {"P1-A": {"cpu_capacity": 100}, "P2-A": {"cpu_capacity": 100}})
        workload = (
            WorkloadEvent(0.0, "deploy", (("db",), None)),
            WorkloadEvent(0.0, "pin", ("db-0", "P1-A")),
            WorkloadEvent(0.0, "pin", ("db-1", "P2-A")),
            WorkloadEvent(1.0, "deploy", (("app",), None)),
            WorkloadEvent(50.0, "link", ("P3", 5.0)),
        )
        cfg = ScenarioConfig(
            name="drift", topology=topology, nodes=nodes, services=services,
            arms=(ArmSpec(name="custom", plugins=(("dependencies", 1.0),)),),
            workload=workload, duration_s=300.0, repetitions=1,
            ci_repetitions=1, monitor=MonitorConfig(),
            lb=LbSettings(), seed=4)
        res = run_scenario(cfg)
        moves = [r for r in res.evictions if r[3] == "app-0"]
        assert len(moves) == 1
        _, _, t, _, from_node, target, reason = moves[0]
        assert reason == "monitor"
        assert (from_node, target) == ("P3-A", "P4-A")
        assert float(t) > 120.0
        final = {r[2]: r[4] for r in res.placements}
        assert final["app-0"] == "P4-A"


# scenarios whose `custom` arm schedules every pod through the realtime
# filter: every config there includes it and no pod is pinned past it
RT_FILTERED = ("fig6-realtime", "fig6-deadline")

# sha256 of each result file of a bundled or test scenario's `ci` run: a change that
# moves one changes what the scenario reports and says why in CHANGES.md
NO_ROWS = {"timeseries.csv": "78458686763678189d1eb416daa89614319baa4a34fec7026d842ff6fd0939a7",
           "requests.csv": "4e623e32d909cf492004f4fe7f687d414b229a9cff13a8a7d1f32d15f67d47a1",
           "evictions.csv": "e269002effbd1628ee51ba86b516111e9778737712e329b3ebde009288bf5faf"}
RESULT_SHA256 = {
    "fig5-dependencies": {
        **NO_ROWS,
        "placements.csv": "6a22229ccb048ec217bd295aa1a207f5bcdf50debd068b067e2c82c74796c379",
        "summary.txt": "364e6df2851bb38708271d05691669033e257200a2366869402a9454a56ed706"},
    "fig6-realtime": {
        **NO_ROWS,
        "placements.csv": "fbe67f6459ec784d90175b91abcd6c8cbdaee412020fc0dbe223be674ca7c833",
        "summary.txt": "cc2ed143b08326ba3ff9c2ad03ee1b1e701b6e4c99a8bc1f99c47dee08dc2b2a"},
    "fig6-deadline": {
        **NO_ROWS,
        "placements.csv": "e54e4a9bcf5c0782a27b20d368cc24b869824b108a668922487153252b43acd0",
        "summary.txt": "a9fcd46bf8e8419811d07ed250035ba2b06527d433936cd4b829bdd5cdfe239a"},
    "fig7-monitor": {
        **NO_ROWS,
        "placements.csv": "5d1a0789985da09ff5a34845ca80fb4bc3f0801b91c47349805800fd9b15764f",
        "timeseries.csv": "b8516f173ae886e8e0bdd2a133e6a57cbd29475098934dcb1c9f4915d8ff673e",
        "evictions.csv": "45f09e3fc3af12779267477e68928adebe094970c2346b7f972ff7c56a6938d9",
        "summary.txt": "da216bffa12253378d11cc1a5b19bb71763e339134de7a1186fd974712440e31"},
    "fig9-loadbalancer": {
        **NO_ROWS,
        "placements.csv": "2d15f5bafb1895c7a9937507a17ca6356d5ad2790f33964ec8b30fbcccbf3583",
        "requests.csv": "a443f66369c3377f6b34624b72e7d2313f72b04da4f8a527dfb4a731f0daa34f",
        "summary.txt": "5bc774a1554af97366e5e244a7ca50a224360680b4b7b4900ec7c7fc9ae5a93c"},
    # the suite's own scenarios, tests/scenarios/<name>.ini
    "fig6-deadline-preemption": {
        **NO_ROWS,
        "placements.csv": "2a88f184397aefa117ef0a268c32ebffa2dc1b0a911880c16001935357a7b81f",
        "evictions.csv": "49aa53429099dc195866ab902682a58d12e3a617cf97e684b113b716d5202327",
        "summary.txt": "5fa31b8ff44b0ead3fb63ce35454f0dfa387a1c02096fcbd397befdb8f9b7ab0"},
    "location-scope": {  # the one scenario with location-scoped services (locations =)
        "placements.csv": "142214d834e9f2945c7cd694ccb2780c65580c401807109cc664f67a6b4904c7",
        "timeseries.csv": "43b0e7e6789a758a1574119b5e2899eb84f38c919159203cde5ee3fcd2b71742",
        "requests.csv": "95433d552e2b5cd45427d6abdeac7b53be544552b841f780ee735d2e03da4105",
        "evictions.csv": "1bd9c1ef5d82b703096d9f80eea3680da39de952afcdb07bc1f82ababf98854b",
        "summary.txt": "5755d29c8cc4b94a9a23f44750afd30148cf0853246746415c13771e9c46ce56"},
    "refresh-drift": {
        **NO_ROWS,
        "placements.csv": "6fa86f626b6a3c2c3ce98075fdeb583186e8dfdc3126e33219d2e5a9baef86f9",
        "requests.csv": "0ad6df68450c123e122fcd8a1535d0b0783e18697bd2c02c2aafc5abeec2fb94",
        "evictions.csv": "58a9ceb5b79d0f938e092a0ca75a7d851575cd58ca8491e2757ba405f52716c9",
        "summary.txt": "d04c22c96da7f9a60222ca19674a350b7bfd654571f13fa2456ff86711a70c08"},
    "request-edges": {
        "placements.csv": "cbc908e09b56b002c7340eab5ef8aa13b2cba5f7467e61bcf6fc8c29f8aaf60c",
        "timeseries.csv": "743a773eba74ca5f58106864c7f4991706a8004231d975cee74a24df4eb07eea",
        "requests.csv": "da17e691a80c49d472496955636893c84a5d926e9b41dbe7bc4018bfabd72f6f",
        "evictions.csv": "2448c30c180639042d774d30093ba3fb94bf8940d3e7d2e174935ef389197365",
        "summary.txt": "9240a0ab768b40d816b45b494901c185c3ed804e5083b1495fcfb6ab40d14adb"},
    "request-ties": {
        **NO_ROWS,
        "placements.csv": "3f7b22b611fa1735beb3233547fe90444d00b46113b11081a5209ddcfb83fec6",
        "requests.csv": "e5eaf177bd92c8c8c8c205c1d3cac54f8d0d161031ec4af75ebfda02f926a7b4",
        "summary.txt": "3d4fca34445b433588ab851485faed19d7703f717937a5ec5f66b11b9aff3b57"},
    "sched-ties": {
        **NO_ROWS,
        "placements.csv": "7d0b27ca5feacb4a912d9ae95ff339ece1ff2b76227e139a1bc8416b8e65f18d",
        "timeseries.csv": "bd3cb2b1e3c9baf923ec44d10dd93906570bbdaaeb8b020bed3251a71b164efa",
        "evictions.csv": "9349a28616926f1d341add18b1deff7beb42a96ef43023f5dca868a9a9050cf9",
        "summary.txt": "513080025f81945b8845c821528061ecb40a3df8750f13672e8c7b02bdc87b52"},
    "stale-drift": {  # the one scenario with per-node capacities (override.<node>.<field>)
        **NO_ROWS,
        "placements.csv": "e3eca94b3a20ab6a03f1c42e08c4a8837f913b5b165617dd7ba369b8c5cd76d3",
        "timeseries.csv": "93562d96871a261d30a8ba1f66617151671f1efe7d9670342a0ec5541e6c38da",
        "evictions.csv": "fef43414dec05e1303aa50186064d8bc7ccc3d483ae34a2499a4abc1c4596bd3",
        "summary.txt": "8f88915628f8aaf5d9d1ddff5c54ea4a4b1ad2e153c971566da42cf064594bea"},
}


@pytest.mark.parametrize("name", list(RESULT_SHA256))
def test_cluster_invariants_hold_after_every_event(monkeypatch, tmp_path, name):
    dispatch = simulator._Run.dispatch
    seen = set()

    def checked(self, now, kind, payload):
        dispatch(self, now, kind, payload)
        self.state.check_invariants()
        if name in RT_FILTERED and self.arm.name == "custom":
            view = self.state.view()
            for node_id, node in self.state.nodes.items():
                assert (node_rt_utilization(node_id, view)
                        <= rt_capacity(node) + FEASIBILITY_EPS), (node_id, now)
        seen.add(kind)

    monkeypatch.setattr(simulator._Run, "dispatch", checked)
    config = load_bundled(name) if name in BUNDLED else load_test_scenario(name)
    results = run_scenario(config, profile="ci")
    assert EventKind.SCHED in seen and results.placements
    if name == "fig7-monitor":
        assert EventKind.MONITOR in seen and results.evictions
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in report.write_results(results, tmp_path)}
    assert written == RESULT_SHA256[name]


def test_scheduler_and_monitor_read_views_not_copies(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("copied on the scheduling or monitor path")

    monkeypatch.setattr(ClusterState, "snapshot", refuse)
    results = run_scenario(load_bundled("fig7-monitor"), repetitions=1)
    assert results.placements and results.evictions


SCENARIO_FILES = [*(Path(simulator.__file__).parent / "scenarios" / f"{name}.ini"
                    for name in BUNDLED),
                  *sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_node_listing_order_does_not_matter(tmp_path, path):
    """Each zone's nodes listed backwards write the same bytes (ci): the
    cluster keeps its nodes in id order, whatever order they are listed in."""
    text = path.read_text(encoding="utf-8")
    backwards = re.sub(r"^(zone\.\S+ *=)(.*)$",
                       lambda m: " ".join([m[1], *reversed(m[2].split())]), text, flags=re.M)
    configs = [parse_scenario(t, name_hint=path.stem) for t in (text, backwards)]
    zones = [config.topology.zones for config in configs]
    assert zones[1] == {z: nodes[::-1] for z, nodes in zones[0].items()}
    written = [report.write_results(run_scenario(config, profile="ci"), tmp_path / side)
               for config, side in zip(configs, ("listed", "backwards"))]
    for listed, reversed_ in zip(*written):
        assert listed.read_bytes() == reversed_.read_bytes(), listed.name
