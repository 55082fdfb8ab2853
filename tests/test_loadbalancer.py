import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fogsim import loadbalancer
from fogsim.loadbalancer import (POLICY_UNIFORM, LoadBalancer, RuleChain,
                                 chain_probabilities, select_replica)
from fogsim.simulator import run_scenario
from fogsim.telemetry import MetricStore

from conftest import load_test_scenario, walk_frequencies


class TestChainProbabilities:
    def test_single_replica(self):
        chain = chain_probabilities({"r": 0.4})
        assert chain.accept_probabilities == (1.0,)

    def test_known_vector(self):
        # ascending scores (0.2, 0.3, 0.5):
        # P1 = 0.2, P2 = 0.3 / (1 - 0.2) = 0.375, P3 = 1
        chain = chain_probabilities({"a": 0.2, "b": 0.3, "c": 0.5})
        assert chain.replicas == ("a", "b", "c")
        assert chain.accept_probabilities[0] == pytest.approx(0.2, abs=1e-12)
        assert chain.accept_probabilities[1] == pytest.approx(0.375, abs=1e-12)
        assert chain.accept_probabilities[2] == 1.0

    def test_five_equal_scores(self):
        chain = chain_probabilities({f"r{i}": 0.37 for i in range(5)})
        expected = (0.2, 0.25, 1 / 3, 0.5, 1.0)
        assert chain.accept_probabilities == pytest.approx(expected, abs=1e-9)
        assert chain.selection_probabilities == pytest.approx([0.2] * 5, abs=1e-12)

    def test_last_rule_always_one(self):
        rng = random.Random(1)
        for _ in range(50):
            scores = {f"r{i}": rng.random() for i in range(rng.randint(1, 10))}
            chain = chain_probabilities(scores)
            assert chain.accept_probabilities[-1] == 1.0

    def test_all_zero_falls_back_to_uniform(self):
        chain = chain_probabilities({"a": 0.0, "b": 0.0, "c": 0.0})
        assert chain.selection_probabilities == pytest.approx([1 / 3] * 3)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            chain_probabilities({"a": -0.1, "b": 0.5})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            chain_probabilities({"a": bad, "b": 0.5})

    def test_scores_whose_sum_passes_the_float_range(self):
        chain = chain_probabilities({"a": 1e308, "b": 1e308, "c": 1.0})
        assert chain.replicas == ("c", "a", "b")
        assert chain.selection_probabilities[1:] == (0.5, 0.5)
        assert chain.accept_probabilities[1:] == (0.5, 1.0)

    def test_selection_matches_monte_carlo_walk(self):
        chain = chain_probabilities({"a": 0.2, "b": 0.3, "c": 0.5})
        freqs = walk_frequencies(chain, 100_000, seed=11)
        assert freqs == pytest.approx((0.2, 0.3, 0.5), abs=0.01)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10))
    def test_selection_probability_equals_normalized_score(self, raw):
        scores = {f"r{i}": v for i, v in enumerate(raw)}
        chain = chain_probabilities(scores)
        total = sum(raw)
        for rep, prob in zip(chain.replicas, chain.selection_probabilities):
            expected = scores[rep] / total if total > 0 else 1 / len(raw)
            assert prob == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_own_score(self):
        base = {"a": 0.2, "b": 0.3, "c": 0.5}
        p_before = dict(zip(chain_probabilities(base).replicas,
                            chain_probabilities(base).selection_probabilities))
        for bump in (0.25, 0.4, 1.0, 5.0):
            raised = dict(base, a=bump)
            p_after = dict(zip(chain_probabilities(raised).replicas,
                               chain_probabilities(raised).selection_probabilities))
            assert p_after["a"] >= p_before["a"] - 1e-12


class TestSelectReplica:
    def test_single_always_selected(self):
        chain = chain_probabilities({"only": 1.0})
        rng = random.Random(3)
        assert all(select_replica(chain, rng) == "only" for _ in range(20))

    def test_seeded_rng_reproducible(self):
        chain = chain_probabilities({"a": 0.3, "b": 0.7})
        rng_a, rng_b = random.Random(9), random.Random(9)
        assert [select_replica(chain, rng_a) for _ in range(200)] == \
               [select_replica(chain, rng_b) for _ in range(200)]

    def test_walk_draws_once_per_rule_up_to_the_chosen_one(
            self, chain=chain_probabilities({"a": 0.2, "b": 0.3, "c": 0.5, "never": 0.0})):
        rng, reference = random.Random(11), random.Random(11)
        for _ in range(500):
            picked = select_replica(chain, rng)
            for rep, p in zip(chain.replicas, chain.accept_probabilities):
                if reference.random() < p:
                    break
            assert picked == rep
            assert rng.getstate() == reference.getstate()

    def test_walk_draws_once_per_rule_on_a_uniform_chain(self):
        chain = chain_probabilities(dict.fromkeys(["a", "b", "c", "d"], 1.0))
        self.test_walk_draws_once_per_rule_up_to_the_chosen_one(chain)

    @pytest.mark.parametrize("chain", [
        chain_probabilities({"a": 0.2, "b": 0.3, "c": 0.5}),
        chain_probabilities(dict.fromkeys(["a", "b", "c", "d"], 1.0)),
        RuleChain(("x", "y"), (0.25, 1.0), (0.25, 0.75)),
    ], ids=["weighted", "uniform", "hand-built"])
    def test_the_walk_reads_replica_and_accept_probability_pairs(self, chain):
        assert chain.rules == tuple(zip(chain.replicas, chain.accept_probabilities))
        assert chain == RuleChain(chain.replicas, chain.accept_probabilities,
                                  chain.selection_probabilities)
        for i, (rep, _) in enumerate(chain.rules):
            # draws of 1.0 decline every rule and 0.0 accepts any but a zero one
            draws = iter([1.0] * i + [0.0])
            assert select_replica(chain, SimpleNamespace(random=draws.__next__)) == rep
            assert next(draws, None) is None

    def test_empty_chain_raises_without_a_draw(self):
        rng = random.Random(4)
        before = rng.getstate()
        with pytest.raises(ValueError, match="empty rule chain"):
            select_replica(RuleChain((), (), ()), rng)
        assert rng.getstate() == before

    def test_empirical_frequencies(self):
        chain = chain_probabilities({"a": 0.2, "b": 0.3, "c": 0.5})
        rng = random.Random(5)
        counts = {"a": 0, "b": 0, "c": 0}
        n = 20_000
        for _ in range(n):
            counts[select_replica(chain, rng)] += 1
        assert counts["a"] / n == pytest.approx(0.2, abs=0.02)
        assert counts["c"] / n == pytest.approx(0.5, abs=0.02)


def test_uniform_chain_is_exactly_fair():
    chain = chain_probabilities(dict.fromkeys(["a", "b", "c", "d"], 1.0))
    assert chain.selection_probabilities == pytest.approx([0.25] * 4)


class FakeSnapshot:
    """Minimal snapshot stand-in for balancer refresh tests."""

    def __init__(self, replica_nodes, topology, specs=None, now=0.0):
        from fogsim.cluster import PodInstance, PodStatus
        self.topology = topology
        self.pods = {}
        for service, mapping in replica_nodes.items():
            for pod_id, node in mapping.items():
                self.pods[pod_id] = PodInstance(
                    id=pod_id, service=service, assignment=node,
                    status=PodStatus.RUNNING)
        self.metric_store = MetricStore()
        self.metric_store.specs = specs or {}
        self.now = now

    def running_of_service(self, service):
        return sorted((p for p in self.pods.values() if p.service == service),
                      key=lambda p: p.id)


class TestLoadBalancerRefresh:
    def test_chain_changes_only_at_refresh(self, topology):
        balancer = LoadBalancer([("P1-A", "svc")])
        snap = FakeSnapshot({"svc": {"s0": "P1-A", "s1": "P4-B"}}, topology)
        balancer.refresh(snap, 0.0)
        chain_before = balancer.chains.get(("P1-A", "svc"))
        # replica moves between refreshes; the chain must be unchanged
        snap.pods["s1"].assignment = "P1-B"
        assert balancer.chains.get(("P1-A", "svc")) is chain_before
        balancer.refresh(snap, 30.0)
        assert balancer.chains.get(("P1-A", "svc")) is not chain_before

    def test_zero_replica_service_dropped(self, topology):
        balancer = LoadBalancer([("P1-A", "svc")])
        snap = FakeSnapshot({"svc": {"s0": "P1-A"}}, topology)
        balancer.refresh(snap, 0.0)
        assert balancer.chains.get(("P1-A", "svc")) is not None
        balancer.refresh(FakeSnapshot({"svc": {}}, topology), 30.0)
        assert balancer.chains.get(("P1-A", "svc")) is None
        assert balancer.chains == {}

    def test_uniform_policy_ignores_scores(self, topology):
        balancer = LoadBalancer([("P1-A", "svc")], policy=POLICY_UNIFORM)
        snap = FakeSnapshot({"svc": {"s1": "P4-B", "s0": "P1-A"}}, topology)
        balancer.refresh(snap, 0.0)
        chain = balancer.chains.get(("P1-A", "svc"))
        assert chain.selection_probabilities == pytest.approx([0.5, 0.5])
        assert chain == chain_probabilities(dict.fromkeys(["s0", "s1"], 1.0))

    def test_a_client_gets_no_chain_for_a_service_it_never_requests(self, topology):
        balancer = LoadBalancer([("P1-A", "svc"), ("P4-B", "db")])
        snap = FakeSnapshot({"svc": {"s0": "P1-A", "s1": "P4-B"},
                             "db": {"d0": "P1-B"}, "idle": {"i0": "P1-A"}}, topology)
        balancer.refresh(snap, 0.0)
        assert set(balancer.chains) == {("P1-A", "svc"), ("P4-B", "db")}

    def test_streams_of_one_client_score_from_that_client(self, topology):
        balancer = LoadBalancer([("P1-A", "svc"), ("P4-B", "svc")])
        balancer.refresh(FakeSnapshot({"svc": {"s0": "P1-A", "s1": "P4-B"}}, topology), 0.0)
        # each client's own node is its nearest replica, so it takes every request
        assert balancer.chains["P1-A", "svc"].replicas[-1] == "s0"
        assert balancer.chains["P4-B", "svc"].replicas[-1] == "s1"


def test_each_refresh_builds_one_chain_per_stream_with_running_replicas(monkeypatch):
    """refresh-drift has one stream, `a1` to `web`, and an `rt` service that
    no client requests: every refresh builds the one `web` chain."""
    built, refreshes = [], []
    chain, refresh = loadbalancer.chain_probabilities, LoadBalancer.refresh

    def counted_refresh(self, view, now):
        before = len(built)
        refresh(self, view, now)
        served = {s for s in self.streams if view.running_of_service(s[1])}
        assert set(self.chains) == served
        refreshes.append(len(built) - before)

    monkeypatch.setattr(loadbalancer, "chain_probabilities",
                        lambda scores: built.append(scores) or chain(scores))
    monkeypatch.setattr(LoadBalancer, "refresh", counted_refresh)
    run_scenario(load_test_scenario("refresh-drift"), profile="ci")
    assert set(refreshes) == {1} and len(built) == 62
