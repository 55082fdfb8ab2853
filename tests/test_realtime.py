import itertools
import math
import random

import pytest

from fogsim.cluster import (DeadlinePolicy, FifoPolicy, Node, PodInstance,
                            RtProcessSpec, Topology)
from fogsim.cluster import ClusterState
from fogsim.realtime import RealtimePlugin, node_rt_utilization, rt_capacity

from conftest import make_state


def deadline_process(utilization):
    return RtProcessSpec(policy=DeadlinePolicy(int(utilization * 1_000_000), 1_000_000),
                         name_substring="worker")


def fifo_process(utilization):
    return RtProcessSpec(policy=FifoPolicy(priority=50, cpu_request=utilization), pid=2)


def rt_pod(pod_id, utilization, priority=0, request=100):
    return PodInstance(
        id=pod_id, service="rt", cpu_request=request, cpu_limit=request,
        priority_class=priority, rt_processes=(deadline_process(utilization),))


def single_node_state(quota_runtime_us=950_000, cores=1, capacity=1000):
    topology = Topology({"z": ["n1"]}, {"z": 0.5})
    node = Node(id="n1", cores=cores, cpu_capacity=capacity,
                rt_runtime_us=quota_runtime_us)
    return ClusterState([node], topology)


class TestPodUtilization:
    def test_high_utilization_deadline_process(self):
        pod = rt_pod("p", 0.6)
        assert pod.rt_utilization == pytest.approx(0.6)

    def test_no_rt_processes(self):
        pod = PodInstance(id="p", service="svc")
        assert pod.rt_utilization == 0.0

    def test_mixed_policies_sum(self):
        pod = PodInstance(id="p", service="svc", rt_processes=(
            RtProcessSpec(policy=DeadlinePolicy(200_000, 1_000_000), pid=1),
            RtProcessSpec(policy=FifoPolicy(priority=50, cpu_request=0.25), pid=2)))
        assert pod.rt_utilization == 0.2 + 0.25  # summed in process order


class TestNodeUtilization:
    def test_empty_node(self, state):
        assert node_rt_utilization("P1-A", state.snapshot()) == 0.0

    def test_additivity(self, state):
        state.add_pods([rt_pod("a", 0.6), rt_pod("b", 0.2)])
        state.apply_placement("a", "P1-A", 0.0)
        state.apply_placement("b", "P1-A", 0.0)
        assert node_rt_utilization("P1-A", state.snapshot()) == pytest.approx(0.8)

    # each pod cycles through `kinds`; a kind lists the policies of its processes
    @pytest.mark.parametrize("kinds", [[(deadline_process,)],
                                       [(fifo_process,), (deadline_process, fifo_process)]],
                             ids=["deadline", "fifo-and-mixed"])
    def test_conservation_after_apply_evict(self, state, kinds):
        rng = random.Random(3)
        pods = [PodInstance(id=f"p{i}", service="rt", rt_processes=tuple(
                    process(rng.choice([0.1, 0.2, 0.3])) for process in kinds[i % len(kinds)]))
                for i in range(10)]
        state.add_pods(pods)
        for _ in range(40):
            running = [p for p in state.pods.values() if p.assignment]
            pending = [p for p in state.pods.values() if p.status.value == "Pending"]
            if pending and (not running or rng.random() < 0.6):
                state.apply_placement(rng.choice(pending).id, "P2-B", 0.0)
            elif running:
                state.evict(rng.choice(running).id, 0.0)
            # the memo read after each mutation, whole and without one pod
            for exclude in [None, *(p.id for p in state.running_on("P2-B")[:1])]:
                view = state.view(exclude=exclude)
                expected = math.fsum(p.rt_utilization for p in view.running_on("P2-B"))
                assert node_rt_utilization("P2-B", view) == expected


class TestCapacityAndFilter:
    def test_capacity_from_node_fields(self):
        node = Node(id="n", cores=4, rt_runtime_us=950_000)
        assert rt_capacity(node) == pytest.approx(3.8)
        node = Node(id="m", cores=2, rt_period_us=500_000, rt_runtime_us=200_000)
        assert rt_capacity(node) == pytest.approx(0.8)

    def test_two_high_utilization_pods_infeasible(self):
        state = single_node_state()
        state.add_pod(rt_pod("existing", 0.6))
        state.apply_placement("existing", "n1", 0.0)
        plugin = RealtimePlugin()
        reason = plugin.filter(rt_pod("cand", 0.6), "n1", state.snapshot())
        assert reason is not None and "rt quota" in reason

    def test_high_plus_low_feasible(self):
        # brute-force total: 0.6 + 0.2 = 0.8 <= 0.95
        state = single_node_state()
        state.add_pod(rt_pod("existing", 0.6))
        state.apply_placement("existing", "n1", 0.0)
        assert RealtimePlugin().filter(rt_pod("cand", 0.2), "n1",
                                       state.snapshot()) is None

    def test_regular_pod_always_feasible(self):
        state = single_node_state()
        for i, util in enumerate([0.6, 0.3]):
            state.add_pod(rt_pod(f"p{i}", util))
            state.apply_placement(f"p{i}", "n1", 0.0)
        regular = PodInstance(id="reg", service="svc", cpu_request=10, cpu_limit=10)
        assert RealtimePlugin().filter(regular, "n1", state.snapshot()) is None

    def test_feasible_set_matches_brute_force(self):
        # exhaustive cross-check on small clusters and a utilization grid
        plugin = RealtimePlugin()
        grid = [0.2, 0.3, 0.6]
        for n_nodes in (1, 2, 3):
            for n_pods in range(0, 4):
                for utils in itertools.product(grid, repeat=n_pods):
                    state = make_state(cores=1, cpu_capacity=8000)
                    node_ids = sorted(state.nodes)[:n_nodes]
                    for i, u in enumerate(utils):
                        state.add_pod(rt_pod(f"p{i}", u, request=10))
                        state.apply_placement(f"p{i}", node_ids[i % n_nodes], 0.0)
                    snap = state.snapshot()
                    cand = rt_pod("cand", 0.3, request=10)
                    feasible = {n for n in node_ids
                                if plugin.filter(cand, n, snap) is None}
                    brute = set()
                    for n in node_ids:
                        total = sum(p.rt_utilization
                                    for p in snap.running_on(n)) + 0.3
                        if total <= rt_capacity(snap.nodes[n]) + 1e-9:
                            brute.add(n)
                    assert feasible == brute


class TestScore:
    def test_zero_load_scores_one(self, state):
        assert RealtimePlugin().score(rt_pod("x", 0.1), "P1-A",
                                      state.snapshot()) == 1.0

    def test_full_quota_scores_zero(self):
        state = single_node_state(quota_runtime_us=1_000_000)
        state.add_pod(rt_pod("p", 1.0))
        state.apply_placement("p", "n1", 0.0)
        assert RealtimePlugin().score(rt_pod("x", 0.1), "n1",
                                      state.snapshot()) == 0.0

    def test_adding_rt_pod_never_increases_score(self, state):
        plugin = RealtimePlugin()
        scores = []
        for i in range(5):
            scores.append(plugin.score(rt_pod("x", 0.1), "P3-A", state.snapshot()))
            state.add_pod(rt_pod(f"p{i}", 0.1))
            state.apply_placement(f"p{i}", "P3-A", 0.0)
        assert all(b <= a for a, b in zip(scores, scores[1:]))


def brute_force_min_plan(snapshot, node_id, candidate):
    """Oracle: smallest victim set (then least freed utilization) that
    admits the candidate on one node, considering only strictly
    lower-priority RT pods."""
    victims = [p for p in snapshot.running_on(node_id)
               if p.priority_class < candidate.priority_class
               and p.rt_utilization > 0]
    current = sum(p.rt_utilization for p in snapshot.running_on(node_id))
    capacity = rt_capacity(snapshot.nodes[node_id])
    demand = candidate.rt_utilization
    best = None
    for r in range(len(victims) + 1):
        for combo in itertools.combinations(victims, r):
            freed = sum(p.rt_utilization for p in combo)
            if current - freed + demand <= capacity + 1e-9:
                key = (r, freed)
                if best is None or key < best[0]:
                    best = (key, combo)
        if best is not None:
            break
    return best


class TestPostFilter:
    def test_minimal_plan_matches_brute_force(self):
        # full quota 1.0: evicting one 0.2 victim admits the 0.6 candidate
        state = single_node_state(quota_runtime_us=1_000_000)
        state.add_pods([rt_pod("v1", 0.2, priority=1), rt_pod("v2", 0.2, priority=1),
                        rt_pod("keep", 0.2, priority=20)])
        for p in ("v1", "v2", "keep"):
            state.apply_placement(p, "n1", 0.0)
        candidate = rt_pod("cand", 0.6, priority=10)
        snap = state.snapshot()
        plan = RealtimePlugin().post_filter(candidate, snap)
        oracle = brute_force_min_plan(snap, "n1", candidate)
        assert plan is not None and oracle is not None
        assert len(plan.victims) == oracle[0][0] == 1
        assert plan.freed_utilization == pytest.approx(oracle[0][1])

    def test_no_lower_priority_victims(self):
        state = single_node_state()
        state.add_pod(rt_pod("p", 0.6, priority=10))
        state.apply_placement("p", "n1", 0.0)
        candidate = rt_pod("cand", 0.6, priority=10)  # equal, not lower
        assert RealtimePlugin().post_filter(candidate, state.snapshot()) is None

    def test_cluster_wide_scenario_prefers_two_low_victims(self):
        # 5 nodes at high+low, 2 nodes high-only, 1 node with 3 lows: only
        # the last node can free enough quota, by evicting 2 low pods
        state = make_state(cores=1, cpu_capacity=1000)
        nodes = sorted(state.nodes)
        pods = 0
        for node in nodes[:5]:
            for util, prio in ((0.6, 10), (0.2, 0)):
                pods += 1
                state.add_pod(rt_pod(f"p{pods}", util, priority=prio))
                state.apply_placement(f"p{pods}", node, 0.0)
        for node in nodes[5:7]:
            pods += 1
            state.add_pod(rt_pod(f"p{pods}", 0.6, priority=10))
            state.apply_placement(f"p{pods}", node, 0.0)
        low_ids = []
        for _ in range(3):
            pods += 1
            low_ids.append(f"p{pods}")
            state.add_pod(rt_pod(f"p{pods}", 0.2, priority=0))
            state.apply_placement(f"p{pods}", nodes[7], 0.0)
        candidate = rt_pod("cand", 0.6, priority=10)
        plan = RealtimePlugin().post_filter(candidate, state.snapshot())
        assert plan is not None
        assert plan.node == nodes[7]
        assert len(plan.victims) == 2
        assert set(plan.victims) <= set(low_ids)

    def test_plan_soundness_random_clusters(self):
        rng = random.Random(12)
        plugin = RealtimePlugin()
        for _ in range(60):
            state = make_state(cores=1, cpu_capacity=8000)
            node_ids = sorted(state.nodes)[:rng.randint(1, 3)]
            for i in range(rng.randint(0, 5)):
                pod = rt_pod(f"p{i}", rng.choice([0.2, 0.3, 0.6]),
                             priority=rng.choice([0, 1, 5]), request=10)
                state.add_pod(pod)
                state.apply_placement(pod.id, rng.choice(node_ids), 0.0)
            candidate = rt_pod("cand", rng.choice([0.3, 0.6]),
                               priority=rng.choice([1, 5, 10]), request=10)
            snap = state.snapshot()
            plan = plugin.post_filter(candidate, snap)
            if plan is None:
                continue
            # victims strictly lower priority
            for victim in plan.victims:
                assert snap.pods[victim].priority_class < candidate.priority_class
            # applying the plan admits the candidate
            for victim in plan.victims:
                state.evict(victim, 1.0)
            assert plugin.filter(candidate, plan.node, state.snapshot()) is None
