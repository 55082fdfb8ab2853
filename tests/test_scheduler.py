import random
from collections import Counter
from copy import deepcopy

import pytest

from fogsim.cluster import (DeadlinePolicy, DependencyRef, Node, PodInstance, PodStatus,
                            RtProcessSpec, Topology, ClusterState)
from fogsim import dependencies
from fogsim.dependencies import DependenciesPlugin
from fogsim.realtime import RealtimePlugin
from fogsim.monitor import ClusterMonitor, MonitorConfig, simulate_scheduling
from fogsim.scenarios import load_bundled
from fogsim.scheduling import (Assigned, BaselinePlugin, LocationAffinityPlugin,
                               Preempted, SchedulerConfig, Unschedulable, run_queue,
                               schedule_one, shape)
from fogsim.simulator import run_scenario
from fogsim.telemetry import MetricSpec

from conftest import UPLINKS, load_test_scenario, make_state


def pod(pod_id, request=100, priority=0, **kwargs):
    return PodInstance(id=pod_id, service=kwargs.pop("service", "svc"),
                       cpu_request=request, cpu_limit=request,
                       priority_class=priority, **kwargs)


def rt_pod(pod_id, utilization, priority=0, request=10):
    return PodInstance(
        id=pod_id, service="rt", cpu_request=request, cpu_limit=request,
        priority_class=priority,
        rt_processes=(RtProcessSpec(
            policy=DeadlinePolicy(int(utilization * 1e6), 1_000_000),
            name_substring="w"),))


BASELINE = SchedulerConfig(plugins=(("baseline", 1.0),))


class TestScheduleOne:
    def test_single_surviving_node(self):
        topology = Topology({"z": ["n1"]}, {"z": 0.1})
        state = ClusterState([Node(id="n1")], topology)
        state.add_pod(pod("p"))
        outcome = schedule_one(state.snapshot(), state.pods["p"], BASELINE)
        assert outcome == Assigned("n1")

    def test_empty_cluster(self):
        topology = Topology({"z": []}, {"z": 0.1})
        state = ClusterState([], topology)
        state.add_pod(pod("p"))
        outcome = schedule_one(state.snapshot(), state.pods["p"], BASELINE)
        assert isinstance(outcome, Unschedulable) and "no nodes" in outcome.reason

    def test_all_filtered_without_postfilter_plan(self, state):
        oversized = pod("big", request=100_000)
        state.add_pod(oversized)
        outcome = schedule_one(state.snapshot(), state.pods["big"], BASELINE)
        assert isinstance(outcome, Unschedulable)
        assert "insufficient cpu" in outcome.reason

    def test_equal_scores_break_lexicographically(self, state):
        state.add_pod(pod("p"))
        outcome = schedule_one(state.snapshot(), state.pods["p"], BASELINE)
        assert outcome == Assigned("P1-A")

    def test_seeded_random_tie_break_samples_tied_set(self, state):
        config = SchedulerConfig(plugins=(("baseline", 1.0),),
                                 tie_break="seeded-random")
        state.add_pod(pod("p"))
        snap = state.snapshot()
        picks = {schedule_one(snap, state.pods["p"], config,
                              random.Random(seed)).node for seed in range(40)}
        assert len(picks) > 1
        assert picks <= set(state.nodes)

    def test_seeded_random_is_reproducible(self, state):
        config = SchedulerConfig(plugins=(("baseline", 1.0),),
                                 tie_break="seeded-random")
        state.add_pod(pod("p"))
        snap = state.snapshot()
        a = schedule_one(snap, state.pods["p"], config, random.Random(7))
        b = schedule_one(snap, state.pods["p"], config, random.Random(7))
        assert a == b

    def test_cpu_fit_filter_always_active(self):
        topology = Topology({"z": ["n1", "n2"]}, {"z": 0.1})
        nodes = [Node(id="n1", cpu_capacity=100),
                 Node(id="n2", cpu_capacity=1000)]
        state = ClusterState(nodes, topology)
        state.add_pod(pod("p", request=500))
        outcome = schedule_one(state.snapshot(), state.pods["p"],
                               SchedulerConfig(plugins=(("realtime", 1.0),)))
        assert outcome == Assigned("n2")

    def test_assigned_node_satisfies_every_filter(self):
        config = SchedulerConfig(plugins=(("realtime", 1.0), ("baseline", 1.0)))
        rng = random.Random(5)
        for _ in range(30):
            state = make_state(cores=1, cpu_capacity=1000)
            for i in range(rng.randint(0, 10)):
                p = rt_pod(f"p{i}", rng.choice([0.1, 0.3, 0.6]))
                state.add_pod(p)
                out = schedule_one(state.snapshot(), p, config)
                if isinstance(out, Assigned):
                    from fogsim.realtime import RealtimePlugin
                    assert RealtimePlugin().filter(p, out.node,
                                                   state.snapshot()) is None
                    state.apply_placement(p.id, out.node, 0.0)

    def test_score_combination_invariant_under_weight_scaling(self, state):
        state.add_pods([rt_pod("a", 0.3), pod("b", request=200)])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P2-A", 0.0)
        target = rt_pod("t", 0.2)
        state.add_pod(target)
        snap = state.snapshot()
        for scale in (0.25, 1.0, 7.0):
            config = SchedulerConfig(plugins=(("realtime", 1.0 * scale),
                                              ("baseline", 2.0 * scale)))
            outcome = schedule_one(snap, target, config)
            assert outcome == Assigned("P1-B")

    def test_plugin_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            SchedulerConfig(plugins=(("baseline", 0.0),))
        with pytest.raises(ValueError, match="unique"):
            SchedulerConfig(plugins=(("baseline", 1.0), ("baseline", 2.0)))

    def test_unknown_plugin_rejected(self):
        with pytest.raises(ValueError, match="unknown plugin"):
            SchedulerConfig(plugins=(("mystery", 1.0),))


class TestLocationAffinity:
    def test_scoped_pod_prefers_its_location(self, state):
        config = SchedulerConfig(plugins=(("location-affinity", 1.0),))
        scoped = pod("cam", location_scope="P3-B")
        state.add_pod(scoped)
        assert schedule_one(state.snapshot(), scoped, config) == Assigned("P3-B")

    def test_unscoped_pod_neutral(self, state):
        config = SchedulerConfig(plugins=(("location-affinity", 1.0),))
        free = pod("free")
        state.add_pod(free)
        # all nodes score 1.0, lexicographic tie-break
        assert schedule_one(state.snapshot(), free, config) == Assigned("P1-A")


class TestBaselineScore:
    def test_empty_node_scores_high(self, state):
        plugin = BaselinePlugin()
        score = plugin.score(pod("p", request=0), "P1-A", state.snapshot())
        assert score == 1.0

    def test_full_node_scores_zero(self):
        topology = Topology({"z": ["n1"]}, {"z": 0.1})
        state = ClusterState([Node(id="n1", cpu_capacity=1000)], topology)
        state.add_pod(pod("p0", request=900))
        state.apply_placement("p0", "n1", 0.0)
        score = BaselinePlugin().score(pod("p", request=100), "n1", state.snapshot())
        assert score == 0.0

    def test_120_pods_spread_evenly_over_8_nodes(self, state):
        state.add_pods([pod(f"p{i:03d}", request=10) for i in range(120)])
        run_queue(state, BASELINE, 0.0)
        counts = Counter(p.assignment for p in state.pods.values())
        assert all(abs(c - 15) <= 1 for c in counts.values())
        assert sum(counts.values()) == 120


class TestRunQueue:
    def test_sequential_scheduling_sees_prior_outcomes(self):
        topology = Topology({"z": ["n1", "n2"]}, {"z": 0.1})
        nodes = [Node(id=n, cpu_capacity=1000) for n in ("n1", "n2")]
        state = ClusterState(nodes, topology)
        state.add_pods([pod("a", request=600), pod("b", request=600)])
        outcomes = dict(run_queue(state, BASELINE, 0.0))
        # a takes n1; b no longer fits there and must see a's placement
        assert outcomes["a"] == Assigned("n1")
        assert outcomes["b"] == Assigned("n2")

    def test_empty_queue(self, state):
        assert run_queue(state, BASELINE, 0.0) == []

    def test_priority_order_fifo_within_class(self, state):
        state.add_pods([pod("low-0"), pod("hi-0", priority=5),
                        pod("low-1"), pod("hi-1", priority=5)])
        order = [pid for pid, _ in run_queue(state, BASELINE, 0.0)]
        assert order == ["hi-0", "hi-1", "low-0", "low-1"]

    def test_preemption_victim_requeued_and_rescheduled(self):
        config = SchedulerConfig(plugins=(("realtime", 1.0),))
        state = make_state(cores=1, cpu_capacity=1000)
        # one 0.4-utilization pod per node: the 0.9 newcomer fits nowhere
        # without evicting exactly one of them
        for i, node in enumerate(sorted(state.nodes)):
            state.add_pod(rt_pod(f"v{i}", 0.4, priority=0))
            state.apply_placement(f"v{i}", node, 0.0)
        state.add_pod(rt_pod("boss", 0.9, priority=10))
        outcomes = dict(run_queue(state, config, 1.0))
        assert isinstance(outcomes["boss"], Preempted)
        victims = outcomes["boss"].victims
        assert len(victims) == 1
        # the victim went back through the queue and found another node
        victim = victims[0]
        assert victim in outcomes
        assert state.pods[victim].status is PodStatus.RUNNING
        assert state.pods[victim].assignment != outcomes["boss"].node
        assert state.eviction_log[-1].reason == "preemption"

    def test_unschedulable_pod_marked(self, state):
        state.add_pod(pod("big", request=10**6))
        outcomes = dict(run_queue(state, BASELINE, 0.0))
        assert isinstance(outcomes["big"], Unschedulable)
        assert state.pods["big"].status is PodStatus.UNSCHEDULABLE
        assert "big" in state.unschedulable

    def test_determinism(self):
        def run():
            state = make_state()
            state.add_pods([pod(f"p{i}", request=50 * (1 + i % 3)) for i in range(30)])
            run_queue(state, BASELINE, 0.0, random.Random(3))
            return [(p.id, p.assignment) for p in state.pods.values()]
        assert run() == run()

    def test_preemption_victims_strictly_lower_priority(self):
        config = SchedulerConfig(plugins=(("realtime", 1.0),))
        state = make_state(cores=1, cpu_capacity=1000)
        for i, node in enumerate(sorted(state.nodes)):
            state.add_pod(rt_pod(f"low{i}", 0.6, priority=0))
            state.apply_placement(f"low{i}", node, 0.0)
        state.add_pods([rt_pod(f"hi{i}", 0.6, priority=5) for i in range(4)])
        outcomes = run_queue(state, config, 0.0)
        preemptions = [(pid, o) for pid, o in outcomes if isinstance(o, Preempted)]
        assert len(preemptions) >= 4
        for pid, outcome in preemptions:
            cand_prio = state.pods[pid].priority_class
            for victim in outcome.victims:
                assert state.pods[victim].priority_class < cand_prio


# -- the per-node verdict-and-score cache ----------------------------------------

PLACEMENT_ONLY = (("realtime", 10.0), ("baseline", 1.0), ("location-affinity", 1.0))
# `app` and `web` pods depend on `db`, whose samples count, and `app` pods on
# `cache` too, whose samples no score reads
DEPENDS_ON = {"app": (DependencyRef("db", 2.0), DependencyRef("cache", 1.0, 0.7, 0.3)),
              "web": (DependencyRef("db", 1.0, 0.3, 0.7),)}


def rt_processes(utilization):
    """One deadline process of `utilization`, or none for 0."""
    return ((RtProcessSpec(DeadlinePolicy(int(utilization * 1e6), 1_000_000), pid=1),)
            if utilization else ())


def shaped_pod(rng, pod_id):
    """A pod of one of a few shapes, so that decisions repeat shapes: `svc`
    pods differ in one field at a time, RT utilization included, and every
    other service has one shape."""
    service = rng.choice(["svc", "svc", "db", "cache", "app", "web"])
    if service != "svc":
        return pod(pod_id, request=50, service=service, dependencies=DEPENDS_ON.get(service, ()))
    procs = rt_processes(rng.choice([0.0, 0.3, 0.45, 0.6]))
    return pod(pod_id, request=rng.choice([50, 150]), priority=rng.choice([0, 5]),
               rt_processes=procs, location_scope=rng.choice([None, None, "n2"]))


def small_rt_cluster():
    # four one-core nodes fill up fast: filters reject and RT pods preempt
    zones = {"z1": ["n1", "n2"], "z2": ["n3"], "z3": ["n4"]}
    state = ClusterState([Node(id=n, cores=1, cpu_capacity=600)
                          for nodes in zones.values() for n in nodes],
                         Topology(zones, {"z1": 0.5, "z2": 0.8, "z3": 1.2}))
    state.metric_store.specs = {"db": MetricSpec("load")}
    state.metric_store.staleness_s = 30.0
    return state


def write(state, rng, node_id):
    """Place a pending pod on `node_id` if one fits its CPU, else evict one
    of its pods; False if neither is possible."""
    room = state.nodes[node_id].cpu_capacity - state.load[node_id][0]
    fits = [p for p in state.queue if state.pods[p].cpu_request <= room]
    if fits:
        state.apply_placement(rng.choice(fits), node_id, 1.0)
    elif state.running_on(node_id):
        state.evict(rng.choice(state.running_on(node_id)).id, 2.0)
    else:
        return False
    return True


def cached_entries(config, pod, view) -> dict:
    """What a decision of `pod` in `view` reads from `config`'s cache."""
    key = (shape(pod), config.stamp(pod, view))
    assert key in config.cache
    return config.cache[key]


def count_hook_calls(monkeypatch, key) -> Counter:
    """Count every filter and score call, under the name `key(hook name)`
    gives at the time of the call."""
    calls = Counter()
    for cls, hook in ((BaselinePlugin, "score"), (LocationAffinityPlugin, "score"),
                      (RealtimePlugin, "filter"), (RealtimePlugin, "score"),
                      (DependenciesPlugin, "score")):
        def counted(self, *args, _original=getattr(cls, hook), _name=f"{cls.name}.{hook}"):
            calls[key(_name)] += 1
            return _original(self, *args)
        monkeypatch.setattr(cls, hook, counted)
    return calls


@pytest.mark.parametrize("plugins", [
    PLACEMENT_ONLY, (("dependencies", 1.0),),
    (("dependencies", 10.0), ("realtime", 1.0), ("baseline", 1.0))],
    ids=["placements", "dependencies", "dependencies-realtime-baseline"])
def test_shared_config_decides_as_a_fresh_one_over_random_sequences(monkeypatch, plugins):
    """A long-lived config, shared by every state, view, snapshot and deep copy
    below, decides exactly as a fresh config of the same plugins, tie-break
    draws and Unschedulable reasons included, while calling fewer hooks; a
    monitor under it gives every verdict a fresh dry run gives.  Between
    decisions, placements, links and metric samples change and the clock
    advances, so samples go stale."""
    calls = count_hook_calls(monkeypatch, lambda _: counting)
    shared = SchedulerConfig(plugins=plugins, tie_break="seeded-random")
    rng = random.Random(19)
    decisions = 0

    def decide(view, candidates):
        nonlocal counting, decisions
        for candidate in candidates:
            seed = rng.random()
            fresh = SchedulerConfig(plugins=plugins, tie_break="seeded-random")
            rng_shared, rng_fresh = random.Random(seed), random.Random(seed)
            stamps = shared.stamp(candidate, view)
            assert stamps is not None
            hash(stamps)  # raises unless every part of the stamps is hashable
            counting = "shared"
            got = schedule_one(view, candidate, shared, rng_shared)
            counting = "fresh"
            want = schedule_one(view, candidate, fresh, rng_fresh)
            assert got == want
            assert rng_shared.getstate() == rng_fresh.getstate()
            counting = None
            for node_id, entry in cached_entries(shared, candidate, view).items():
                assert entry[1:] == fresh.evaluate(candidate, node_id, view)  # what it read
            decisions += 1

    counting = None
    for run in range(5):
        state, now = small_rt_cluster(), 0.0
        monitor = ClusterMonitor(MonitorConfig(), shared)
        for step_no in range(40):
            now += rng.choice([0.0, 0.0, 5.0, 20.0, 40.0])
            ids = (f"r{run}-{step_no}-{k}" for k in range(4))
            roll = rng.random()
            running = [p.id for p in state.pods.values() if p.status is PodStatus.RUNNING]
            exclude = rng.choice(running) if running else None
            excluded = [state.pods[exclude]] if running else []
            candidates = [shaped_pod(rng, next(ids)) for _ in range(2)]
            if roll < 0.15:
                state.add_pods(shaped_pod(rng, next(ids)) for _ in range(2))
            elif roll < 0.3:
                write(state, rng, rng.choice(sorted(state.nodes)))
            elif roll < 0.35 and running:
                state.evict(rng.choice(running), 2.0)
            elif roll < 0.5:  # between two decisions of the same pods
                decide(state.view(now=now), candidates)
                state.set_uplink(rng.choice(sorted(state.topology.zones)),
                                 rng.choice([0.1, 0.5, 3.0]))
            elif roll < 0.6:
                for p in rng.sample(list(state.pods.values()), min(3, len(state.pods))):
                    state.metric_store.ingest(p.service, p.id, rng.choice([1.0, 4.0, 9.0]), now)
            elif roll < 0.7:
                decide(state.snapshot(exclude=exclude, now=now), candidates + excluded)
            elif roll < 0.85:
                # a monitor-style dry run: the excluded pod's node has a load of the view's own
                decide(state.view(exclude=exclude, now=now), candidates + excluded)
            else:
                # a decision on a deep copy, then a write to the same node of the original
                copy = deepcopy(state)
                node_id = rng.choice(sorted(state.nodes))
                if write(copy, random.Random(step_no), node_id):
                    decide(copy.view(now=now), candidates)
                    write(state, random.Random(step_no + 1), node_id)
            state.check_invariants()
            decide(state.view(now=now), candidates)
            view = state.view(now=now)
            for pod_id in running:
                if state.pods[pod_id].status is PodStatus.RUNNING:
                    assert monitor._verdict(state, view, state.pods[pod_id], now) == \
                        simulate_scheduling(state, pod_id, SchedulerConfig(plugins=plugins), now)
    assert decisions > 500
    assert calls["shared"] < calls["fresh"]  # the cache is used


def test_every_config_caches_under_the_stamps_of_its_plugins():
    state = make_state()
    state.add_pods([pod("a"), pod("b", service="db")])
    state.apply_placement("b", "P1-A", 0.0)
    state.metric_store.specs = {"db": MetricSpec("load")}  # the stamp holds metric samples only
    state.metric_store.ingest("db", "b", 2.0, 0.0)
    app = pod("app", dependencies=(DependencyRef("db"),))
    view = state.view(now=5.0)
    links = tuple(UPLINKS.values())
    deps = (links, (("b", "P1-A"),), (("b", 2.0, True),))
    for plugins, stamps in (((("realtime", 1.0), ("location-affinity", 1.0)), ()),
                            ((("baseline", 1.0),), 1),
                            ((("dependencies", 1.0),), deps),
                            ((("dependencies", 1.0), ("realtime", 1.0), ("baseline", 1.0)),
                             (deps, 1))):
        config = SchedulerConfig(plugins=plugins)
        assert config.stamp(app, view) == stamps and config.cache == {}
        schedule_one(view, app, config)
        assert [key[-1] for key in config.cache] == [stamps]
    # a stale sample, and a view that hides a pod of a dependency
    assert config.stamp(app, state.view(now=1000.0))[0][2] == (("b", 2.0, False),)
    hidden = (links, (), ())  # b's sample is of no running replica, so no score reads it
    assert config.stamp(app, state.view(exclude="b")) == (hidden, 0)
    schedule_one(state.view(exclude="b"), app, config)  # cached, b's own node too
    assert [key[-1] for key in config.cache] == [(deps, 1), (hidden, 0)]
    assert config.cache[next(reversed(config.cache))]["P1-A"][0] == (0, 0, 0.0)
    assert set(config.cache[next(reversed(config.cache))]) == set(state.nodes)
    assert config.stamp(pod("c"), state.view(exclude="b")) == ((), 0)


def test_a_link_set_back_to_its_latency_reuses_its_decisions(monkeypatch):
    state = make_state()
    state.add_pod(pod("b", service="db"))
    state.apply_placement("b", "P1-A", 0.0)
    state.metric_store.ingest("db", "b", 2.0, 0.0)
    app = pod("app", dependencies=(DependencyRef("db"),))
    calls = count_hook_calls(monkeypatch, lambda hook: hook)
    config = SchedulerConfig(plugins=(("dependencies", 1.0),))
    evaluated = []
    for latency in (0.8, 3.0, 0.8):
        state.set_uplink("P2", latency)
        before = calls["dependencies.score"]
        schedule_one(state.view(now=5.0), app, config)
        evaluated.append(calls["dependencies.score"] - before)
    assert evaluated == [len(state.nodes), len(state.nodes), 0]


def test_a_dependency_score_is_computed_once_per_node_and_input(monkeypatch):
    """A pod that depends on `db`, under dependencies and baseline: after a
    write that moves only node loads and the max pod count, a decision
    computes no dependency score; a `db` sample, a link change and a move of
    the `db` replica each make it compute one score per node again.  Every
    decision equals a fresh config's."""
    state = make_state()
    state.metric_store.specs = {"db": MetricSpec("load")}
    state.add_pods([pod("b", service="db"), pod("x"), pod("y")])
    state.apply_placement("b", "P1-A", 0.0)
    state.metric_store.ingest("db", "b", 2.0, 0.0)
    app = pod("app", dependencies=(DependencyRef("db"),))
    plugins = (("dependencies", 1.0), ("baseline", 1.0))
    config, computed = SchedulerConfig(plugins=plugins), []
    score = dependencies.score_dependencies
    monkeypatch.setattr(dependencies, "score_dependencies",
                        lambda pod, node_id, view: computed.append(node_id)
                        or score(pod, node_id, view))

    def decide():
        view = state.view(now=5.0)
        computed.clear()
        outcome = schedule_one(view, app, config)
        nodes_computed = sorted(computed)
        assert outcome == schedule_one(view, app, SchedulerConfig(plugins=plugins))
        return nodes_computed

    nodes = sorted(state.nodes)
    assert decide() == nodes
    loads, max_pod_count = dict(state.load), state.view().max_pod_count
    state.apply_placement("x", "P2-A", 1.0)
    state.apply_placement("y", "P2-A", 1.0)
    assert state.load != loads and state.view().max_pod_count == max_pod_count + 1
    assert decide() == []
    state.metric_store.ingest("db", "b", 3.0, 4.0)
    assert decide() == nodes
    state.set_uplink("P2", 3.0)
    assert decide() == nodes
    state.evict("b", 4.0)
    state.apply_placement("b", "P3-A", 4.0)
    assert decide() == nodes


@pytest.mark.parametrize("plugins", [
    (("dependencies", 1.0),), (("dependencies", 1.0), ("baseline", 1.0)),
    (("location-affinity", 1.0), ("baseline", 1.0), ("dependencies", 1.0))],
    ids=["dependencies", "dependencies-baseline", "affinity-baseline-dependencies"])
def test_a_decision_that_makes_a_key_reads_each_stamp_once(monkeypatch, plugins):
    """A load-free scorer's stamp is read out of the new key's stamps, not
    stamped again, whether its plugin stamps alone or with others."""
    calls = Counter()
    for cls in (BaselinePlugin, DependenciesPlugin):
        def counted(self, *args, _original=cls.stamp, _name=cls.name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(cls, "stamp", counted)
    state = make_state()
    state.add_pod(pod("b", service="db"))
    state.apply_placement("b", "P1-A", 0.0)
    config = SchedulerConfig(plugins=plugins)
    for i, scope in enumerate((None, "P2-A")):  # two pod shapes: two new keys
        app = pod("app", dependencies=(DependencyRef("db"),), location_scope=scope)
        assert isinstance(schedule_one(state.view(now=1.0), app, config), Assigned)
        assert len(config.cache) == i + 1
        assert calls == {name: i + 1 for name, _ in plugins if name != "location-affinity"}


def test_a_node_set_back_to_an_earlier_load_reuses_its_decisions(monkeypatch):
    """A node's entries stand while its load stands: across a placement and
    the eviction that undoes it, and across the views of two dry runs that
    each exclude one of two same-shape pods from one node.  Location
    affinity's scores read no load, so they stand across all four."""
    state = make_state()
    state.add_pods([pod("a"), pod("b"), pod("x")])
    state.apply_placement("a", "P1-A", 0.0)
    state.apply_placement("b", "P1-A", 0.0)
    calls = count_hook_calls(monkeypatch, lambda hook: hook)
    config = SchedulerConfig(plugins=PLACEMENT_ONLY)
    evaluated = []

    def hook_calls(decide, *args):
        before = sum(calls.values())
        decide(*args)
        evaluated.append(sum(calls.values()) - before)

    hook_calls(schedule_one, state.view(), pod("c"), config)
    state.apply_placement("x", "P2-A", 1.0)
    state.evict("x", 2.0)
    hook_calls(schedule_one, state.view(), pod("c"), config)
    hook_calls(simulate_scheduling, state, "a", config)
    hook_calls(simulate_scheduling, state, "b", config)
    per_node = len(PLACEMENT_ONLY) + 1  # the realtime filter and each score
    assert evaluated == [per_node * len(state.nodes), 0, (per_node - 1) * len(state.nodes), 0]


@pytest.mark.parametrize("before, after", [
    (((100, 0.0),), ((50, 0.0), (50, 0.0))),
    (((100, 0.1),), ((100, 0.2),)),
    (((100, 0.0),), ((200, 0.0),)),
], ids=["pod-count", "rt-sum", "allocation"])
def test_a_node_whose_load_moved_in_one_field_is_evaluated_anew(before, after):
    """Pods of (CPU request, RT utilization) `before` on P1-A, then `after`
    in their place: the node's entry follows, though the other two fields
    of its load and the stamps are as they were."""
    olds, news = ([pod(f"{tag}{i}", request=request, rt_processes=rt_processes(u))
                   for i, (request, u) in enumerate(shapes)]
                  for tag, shapes in (("old", before), ("new", after)))
    state = make_state()
    state.add_pods([pod("m1"), pod("m2"), *olds, *news])
    for pod_id in ("m1", "m2"):  # P2-A keeps the baseline's stamp, the max pod count, at 2
        state.apply_placement(pod_id, "P2-A", 0.0)
    config, candidate = SchedulerConfig(plugins=PLACEMENT_ONLY), pod("c")

    def entry_of_p1a():
        view = state.view()
        schedule_one(view, candidate, config)
        entry = cached_entries(config, candidate, view)["P1-A"][1:]
        assert entry == SchedulerConfig(plugins=PLACEMENT_ONLY).evaluate(candidate, "P1-A", view)
        return entry

    for p in olds:
        state.apply_placement(p.id, "P1-A", 0.0)
    first = entry_of_p1a()
    for p in olds:
        state.evict(p.id, 1.0)
    for p in news:
        state.apply_placement(p.id, "P1-A", 1.0)
    assert entry_of_p1a() != first


# Filter and score hook calls of one `ci` run.  A rise fails: the cache
# lost hits.  A fall is pinned anew, with the reason in CHANGES.md.
HOOK_CALLS = {
    "fig5-dependencies": {"baseline.score": 400, "dependencies.score": 400},
    "fig6-realtime": {"baseline.score": 15955, "realtime.filter": 8223,
                      "realtime.score": 8223},
    "fig7-monitor": {"baseline.score": 9546, "realtime.filter": 5688,
                     "realtime.score": 5686},
    "stale-drift": {"baseline.score": 28, "dependencies.score": 24},
}


@pytest.mark.parametrize("name", sorted(HOOK_CALLS))
def test_plugin_hook_calls_of_bundled_runs_are_pinned(monkeypatch, name):
    calls = count_hook_calls(monkeypatch, lambda hook: hook)
    config = load_test_scenario(name) if name == "stale-drift" else load_bundled(name)
    run_scenario(config, profile="ci")
    assert dict(calls) == HOOK_CALLS[name]
