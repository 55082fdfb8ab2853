import random

import numpy as np
import pytest

from fogsim import scenarios, simulator
from fogsim.cluster import DependencyRef, PodInstance
from fogsim.dependencies import (DependenciesPlugin, expected_quality, markov_matrix,
                                 replica_scores, score_dependencies, stationary_distribution)
from fogsim.loadbalancer import LoadBalancer, chain_probabilities
from fogsim.scenario_io import parse_scenario
from fogsim.scheduling import schedule_one
from fogsim.telemetry import LOWER_IS_BETTER, MetricSpec, path_latency, refresh_scoreboard

from conftest import make_state, walk_frequencies


def table_fixture():
    """Two dependency replicas on P1-A/P2-A with static metrics 5.0/1.0."""
    state = make_state()
    state.metric_store.specs = {"dependency": MetricSpec("load", LOWER_IS_BETTER)}
    state.add_pods([
        PodInstance(id="dependency-0", service="dependency"),
        PodInstance(id="dependency-1", service="dependency"),
    ])
    state.apply_placement("dependency-0", "P1-A", 0.0)
    state.apply_placement("dependency-1", "P2-A", 0.0)
    state.metric_store.ingest("dependency", "dependency-0", 5.0, 0.0)
    state.metric_store.ingest("dependency", "dependency-1", 1.0, 0.0)
    dep = DependencyRef("dependency", 1.0, 0.5, 0.5)
    candidate = PodInstance(id="candidate-0", service="candidate",
                            dependencies=(dep,))
    return state, candidate, dep


class TestMarkovMatrix:
    def test_rows_are_normalized_scores(self):
        matrix = markov_matrix([0.25, 0.75])
        assert np.allclose(matrix, [[0.25, 0.75], [0.25, 0.75]])

    def test_rows_match_monte_carlo_selection(self):
        # independent oracle: simulate the balancer's sequential rule walk
        chain = chain_probabilities({"r0": 0.25, "r1": 0.75})
        freqs = walk_frequencies(chain, 100_000, seed=3)
        row = markov_matrix([0.25, 0.75])[0]
        assert np.all(np.abs(freqs - row) < 0.01)

    def test_equal_scores_uniform(self):
        assert np.allclose(markov_matrix([0.4] * 4), 0.25)

    def test_all_zero_fallback(self):
        assert np.allclose(markov_matrix([0.0, 0.0]), 0.5)

    def test_row_stochastic_property(self):
        rng = random.Random(2)
        for _ in range(50):
            scores = [rng.random() for _ in range(rng.randint(1, 8))]
            matrix = np.asarray(markov_matrix(scores))
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(matrix >= 0)


class TestStationaryDistribution:
    def test_rank_one_returns_row(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        pi = stationary_distribution(np.tile(q, (4, 1)))
        assert np.max(np.abs(pi - q)) < 1e-12

    def test_known_two_state_chain(self):
        # pi P = pi with P = [[0.9, 0.1], [0.5, 0.5]] solves to (5/6, 1/6)
        pi = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-9)

    def test_single_state(self):
        assert stationary_distribution(np.array([[1.0]])) == pytest.approx([1.0])

    def test_invariance_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(n), size=n)
            pi = stationary_distribution(p)
            assert np.max(np.abs(pi @ p - pi)) < 1e-8
            assert abs(sum(pi) - 1.0) < 1e-9

    def test_non_convergence_raises(self):
        # two nearly-disconnected states mix too slowly for the iteration cap
        p = np.array([[1.0, 0.0], [2e-9, 1.0 - 2e-9]])
        with pytest.raises(RuntimeError, match="residual"):
            stationary_distribution(p)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_matches_normalized_scores_for_selection_chains(self):
        rng = random.Random(4)
        for _ in range(100):
            scores = [rng.random() for _ in range(rng.randint(1, 8))]
            pi = stationary_distribution(markov_matrix(scores))
            expected = np.array(scores) / sum(scores)
            assert np.max(np.abs(pi - expected)) < 1e-6


class TestExpectedQuality:
    def test_closed_form_matches_stationary_oracle(self):
        rng = random.Random(11)
        vectors = [[0.0] * 3, [0.0], [1.0]]
        for _ in range(300):
            n = rng.randint(1, 8)
            vectors.append([0.0 if rng.random() < 0.3 else rng.random()
                            for _ in range(n)])
        for scores in vectors:
            oracle = float(stationary_distribution(markov_matrix(scores))
                           @ np.asarray(scores))
            # the oracle smooths zero entries with 1e-9
            assert expected_quality(scores) == pytest.approx(oracle, abs=1e-8)

    def test_all_zero_scores_give_zero(self):
        assert expected_quality([0.0, 0.0]) == 0.0

    def test_table_fixture_node_scores_match_oracle(self):
        state, candidate, dep = table_fixture()
        snap = state.snapshot(now=1.0)
        for node in snap.nodes:
            per_replica = replica_scores(candidate, node, dep, snap)
            scores = [per_replica[r] for r in sorted(per_replica)]
            oracle = float(stationary_distribution(markov_matrix(scores))
                           @ np.asarray(scores))
            assert score_dependencies(candidate, node, snap) == pytest.approx(
                oracle, abs=1e-8)


class TestReplicaScores:
    def test_table_fixture_candidate_on_p2a(self):
        state, candidate, dep = table_fixture()
        snap = state.snapshot(now=1.0)
        scores = replica_scores(candidate, "P2-A", dep, snap)
        assert scores == pytest.approx({"dependency-0": 0.0, "dependency-1": 1.0})

    def test_single_colocated_replica_degenerates_to_one(self):
        state = make_state()
        state.add_pod(PodInstance(id="db-0", service="db"))
        state.apply_placement("db-0", "P2-A", 0.0)
        dep = DependencyRef("db", 1.0, 0.5, 0.5)
        pod = PodInstance(id="app-0", service="app", dependencies=(dep,))
        scores = replica_scores(pod, "P2-A", dep, state.snapshot())
        assert scores == {"db-0": 1.0}

    def test_equidistant_replicas_score_equally_latency_only(self):
        state = make_state()
        state.add_pods([PodInstance(id="db-0", service="db"),
                        PodInstance(id="db-1", service="db")])
        state.apply_placement("db-0", "P2-A", 0.0)
        state.apply_placement("db-1", "P2-B", 0.0)
        dep = DependencyRef("db", 1.0, latency_weight=1.0, metric_weight=0.0)
        pod = PodInstance(id="app-0", service="app", dependencies=(dep,))
        scores = replica_scores(pod, "P1-A", dep, state.snapshot())
        assert scores["db-0"] == scores["db-1"]

    def test_no_replicas_empty(self):
        state = make_state()
        dep = DependencyRef("ghost")
        pod = PodInstance(id="app-0", service="app", dependencies=(dep,))
        assert replica_scores(pod, "P1-A", dep, state.snapshot()) == {}


class TestScoreDependencies:
    def test_no_dependencies_scores_one_everywhere(self, state):
        pod = PodInstance(id="solo-0", service="solo")
        snap = state.snapshot()
        assert all(score_dependencies(pod, n, snap) == 1.0 for n in snap.nodes)

    @staticmethod
    def two_dependency_score(w1, w2):
        """P1-A's score for a pod whose two dependencies score 0.8 and 0.4 there."""
        state = make_state()
        state.add_pods([PodInstance(id="d1-0", service="d1"),
                        PodInstance(id="d2-0", service="d2")])
        state.apply_placement("d1-0", "P2-A", 0.0)
        state.apply_placement("d2-0", "P2-B", 0.0)
        pod = PodInstance(id="app-0", service="app", dependencies=(
            DependencyRef("d1", w1, latency_weight=0.2, metric_weight=0.8),
            DependencyRef("d2", w2, latency_weight=0.6, metric_weight=0.4)))
        return score_dependencies(pod, "P1-A", state.view())

    def test_weighted_average_of_dependency_scores(self):
        # weighted 0.75/0.25 -> 0.7
        assert self.two_dependency_score(0.75, 0.25) == pytest.approx(0.7)

    def test_weights_are_normalised_where_they_are_read(self):
        """Pods carry their descriptor's weights as declared: only the shares count."""
        assert self.two_dependency_score(3.0, 1.0) == self.two_dependency_score(0.75, 0.25)
        assert self.two_dependency_score(0.0, 0.0) == self.two_dependency_score(1.0, 1.0)
        assert self.two_dependency_score(0.0, 0.0) == pytest.approx(0.6)

    def test_missing_replicas_contribute_zero(self):
        state = make_state()
        pod = PodInstance(id="app-0", service="app",
                          dependencies=(DependencyRef("ghost", 1.0),))
        assert score_dependencies(pod, "P1-A", state.snapshot()) == 0.0

    def test_missing_replicas_log_a_warning(self, caplog):
        state = make_state()
        pod = PodInstance(id="app-0", service="app",
                          dependencies=(DependencyRef("ghost", 1.0),))
        with caplog.at_level("WARNING", logger="fogsim.dependencies"):
            score_dependencies(pod, "P1-A", state.view())
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("fogsim.dependencies", "WARNING", "dependency ghost of app-0 has no running replicas")]

    def test_table_fixture_ranks_p2a_first(self):
        state, candidate, _ = table_fixture()
        snap = state.snapshot(now=1.0)
        scores = {n: score_dependencies(candidate, n, snap) for n in snap.nodes}
        best = max(scores, key=scores.get)
        assert best == "P2-A"
        assert all(scores["P2-A"] > s for n, s in scores.items() if n != "P2-A")

    def test_in_unit_interval(self):
        state, candidate, _ = table_fixture()
        snap = state.snapshot(now=1.0)
        for node in snap.nodes:
            assert 0.0 <= score_dependencies(candidate, node, snap) <= 1.0

    def test_ranking_invariant_under_metric_scaling(self):
        for scale in (0.001, 3.0, 1e4):
            state, candidate, _ = table_fixture()
            snap = state.snapshot(now=1.0)
            before = {n: score_dependencies(candidate, n, snap) for n in snap.nodes}
            state.metric_store.ingest("dependency", "dependency-0", 5.0 * scale, 2.0)
            state.metric_store.ingest("dependency", "dependency-1", 1.0 * scale, 2.0)
            snap = state.snapshot(now=2.0)
            after = {n: score_dependencies(candidate, n, snap) for n in snap.nodes}
            rank = lambda d: sorted(d, key=lambda n: (-d[n], n))  # noqa: E731
            assert rank(before) == rank(after)


def test_a_sample_of_a_dependency_with_no_metric_moves_no_stamp_and_no_decision():
    """fig5-dependencies without its `metric =` line, up to the candidate's
    deploy: its dependency's samples reach no score, so a new one neither
    changes the stamp nor splits the arm's cache."""
    text = "".join(line for line in scenarios._bundled_text("fig5-dependencies")
                   .splitlines(keepends=True) if not line.startswith("metric ="))
    config = parse_scenario(text)
    arm = next(a for a in config.arms if a.name == "custom")
    run = simulator._Run(config, arm, 0, config.seed, simulator.request_timeline(config))
    for e in config.workload:  # deploy, pins and samples at 0, the candidate at 1
        run.dispatch(e.at, simulator.ACTION_KINDS[e.action], e.args)
    candidate = run.state.pods["candidate-0"]

    def decide():
        view = run.state.view(now=1.0)
        outcome = schedule_one(view, candidate, run.sched_config)
        scores = {n: score_dependencies(candidate, n, view) for n in view.nodes}
        return run.sched_config.stamp(candidate, view), outcome, scores

    before = decide()
    assert before[0][2] == ()
    run.state.metric_store.ingest("dependency", "dependency-1", 9.0, 1.0)
    assert decide() == before
    assert len(run.sched_config.cache) == 1


LOAD = MetricSpec("load", LOWER_IS_BETTER, metric_weight=1.0, latency_weight=0.0)
SAMPLES = {"d0": 5.0, "d1": 3.0, "d2": 1.0}


def metric_rule_state(spec, samples):
    """Replicas d0-d2 of `db` in zone P2, equally far from a client on P1-A,
    a pending `db` pod d9, and a dependent pod that weighs only the metric."""
    state = make_state()
    state.add_pods([PodInstance(id=f"d{i}", service="db") for i in (0, 1, 2, 9)])
    for pod_id, node in (("d0", "P2-A"), ("d1", "P2-B"), ("d2", "P2-A")):
        state.apply_placement(pod_id, node, 0.0)
    if spec is not None:
        state.metric_store.specs = {"db": spec}
    for pod_id, value in samples.items():
        state.metric_store.ingest("db", pod_id, value, 0.0)
    dep = DependencyRef("db", 1.0, latency_weight=0.0, metric_weight=1.0)
    return state, dep, PodInstance(id="app-0", service="app", dependencies=(dep,))


@pytest.mark.parametrize("spec, samples, now, expected", [
    (None, SAMPLES, 0.0, (1.0, 1.0, 1.0)),
    (LOAD, {"d9": 1.0}, 0.0, (1.0, 1.0, 1.0)),
    (LOAD, SAMPLES, 1000.0, (0.0, 0.0, 0.0)),
    (LOAD, SAMPLES, 0.0, (0.0, 0.5, 1.0)),
], ids=["no-metric", "no-replica-sample", "all-stale", "fresh"])
def test_dependency_scores_and_the_balancer_read_one_metric_rule(spec, samples, now, expected):
    state, dep, candidate = metric_rule_state(spec, samples)
    view = state.view(now=now)
    scores = state.metric_store.scores("db", ["d0", "d1", "d2"], now)
    assert scores == dict(zip(["d0", "d1", "d2"], expected))
    assert replica_scores(candidate, "P3-A", dep, view) == scores
    nodes = {p.id: p.assignment for p in view.running_of_service("db")}
    assert refresh_scoreboard("db", nodes, lambda n: path_latency(view.topology, "P1-A", n),
                              view.metric_store, now) == scores
    balancer = LoadBalancer([("P1-A", "db")])
    balancer.refresh(view, now)
    assert balancer.chains["P1-A", "db"] == chain_probabilities(scores)
    # the stamp holds what the scores read: no sample of the pending pod d9
    stamp = DependenciesPlugin().stamp(candidate, view)
    state.metric_store.ingest("db", "d9", 7.0, 0.0)
    assert DependenciesPlugin().stamp(candidate, state.view(now=now)) == stamp
    assert state.metric_store.scores("db", ["d0", "d1", "d2"], now) == scores


def test_with_no_metric_samples_move_neither_the_chain_nor_the_dependency_score():
    results = []
    for samples in (SAMPLES, dict(zip(SAMPLES, reversed(SAMPLES.values())))):
        state, _, candidate = metric_rule_state(None, samples)
        view = state.view(now=0.0)
        balancer = LoadBalancer([("P1-A", "db")])
        balancer.refresh(view, 0.0)
        results.append((balancer.chains["P1-A", "db"],
                        [score_dependencies(candidate, n, view) for n in view.nodes]))
    assert results[0] == results[1]
    assert results[0][1][0] == 1.0
    state, _, candidate = metric_rule_state(LOAD, SAMPLES)  # with a metric, samples count
    assert score_dependencies(candidate, "P1-A", state.view()) < 1.0
