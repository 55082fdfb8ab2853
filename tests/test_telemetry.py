import itertools

import pytest
from hypothesis import example, given, strategies as st

from fogsim.telemetry import (HIGHER_IS_BETTER, LOWER_IS_BETTER, MetricSample, MetricSpec,
                              MetricStore, normalize, path_latency, refresh_scoreboard)



class TestPathLatency:
    def test_cross_zone_sums_uplinks(self, topology):
        assert path_latency(topology, "P1-A", "P2-A") == pytest.approx(1.3)

    def test_same_node_uses_intra_node_base(self, topology):
        assert path_latency(topology, "P1-A", "P1-A") == pytest.approx(0.02)

    def test_same_zone_adds_one_switch_hop(self, topology):
        assert path_latency(topology, "P1-A", "P1-B") == pytest.approx(0.03)

    def test_symmetry_all_pairs(self, topology):
        for a, b in itertools.combinations(sorted(topology.zone_of), 2):
            assert path_latency(topology, a, b) == path_latency(topology, b, a)

    def test_unknown_node(self, topology):
        with pytest.raises(KeyError):
            path_latency(topology, "P1-A", "nope")


class TestNormalize:
    def test_lower_is_better_inverts(self):
        out = normalize({"d0": 5.0, "d1": 1.0}, LOWER_IS_BETTER)
        assert out == {"d0": 0.0, "d1": 1.0}

    def test_degenerate_all_equal(self):
        assert normalize({"a": 3.3, "b": 3.3}, LOWER_IS_BETTER) == {"a": 1.0, "b": 1.0}

    def test_higher_is_better_affine(self):
        out = normalize({"a": 0, "b": 1, "c": 2}, HIGHER_IS_BETTER)
        assert out == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize({}, LOWER_IS_BETTER)

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=8),
           st.sampled_from([LOWER_IS_BETTER, HIGHER_IS_BETTER]))
    @example({"a": -1.7e308, "b": 1.7e308, "c": 5e-324}, LOWER_IS_BETTER)  # span past the range
    def test_range_and_best_key(self, values, direction):
        out = normalize(values, direction)
        assert all(0.0 <= v <= 1.0 for v in out.values())
        best = (min if direction == LOWER_IS_BETTER else max)(values, key=values.get)
        assert out[best] == 1.0


class TestMetricStore:
    def test_latest_sample_wins(self):
        store = MetricStore()
        store.ingest("svc", "p0", 5.0, 1.0)
        store.ingest("svc", "p0", 7.0, 2.0)
        assert store._samples["svc"]["p0"] == MetricSample(7.0, 2.0)

    def test_backwards_timestamp_rejected(self):
        store = MetricStore()
        store.ingest("svc", "p0", 5.0, 2.0)
        with pytest.raises(ValueError):
            store.ingest("svc", "p0", 6.0, 1.0)

    def test_samples_are_kept_per_service_in_first_ingest_order(self):
        store = MetricStore()
        for service, pod_id, t in [("web", "w2", 1.0), ("db", "d1", 1.0), ("web", "w1", 2.0),
                                   ("db", "d0", 2.0), ("web", "w2", 3.0), ("web", "w0", 4.0)]:
            store.ingest(service, pod_id, t * 10, t)
        assert list(store._samples["web"].items()) == [
            ("w2", MetricSample(30.0, 3.0)), ("w1", MetricSample(20.0, 2.0)),
            ("w0", MetricSample(40.0, 4.0))]
        assert list(store._samples["db"]) == ["d1", "d0"]
        assert "cache" not in store._samples

    @staticmethod
    def store(metric=True):
        store = MetricStore()
        store.specs = {"svc": MetricSpec("m", LOWER_IS_BETTER)} if metric else {}
        store.staleness_s = 90.0
        return store

    def test_staleness_scores_worst_case(self):
        store = self.store()
        store.ingest("svc", "p0", 1.0, 0.0)
        store.ingest("svc", "p1", 9.0, 100.0)
        out = store.scores("svc", ["p0", "p1"], now=120.0)
        assert out["p0"] == 0.0  # 120 s old sample
        assert out["p1"] == 1.0

    def test_no_samples_is_neutral(self):
        assert self.store().scores("svc", ["p0", "p1"], 0.0) == {"p0": 1.0, "p1": 1.0}

    def test_no_sample_of_a_current_replica_is_neutral(self):
        store = self.store()
        store.ingest("svc", "gone", 1.0, 0.0)  # a pod that is no replica now
        assert store.scores("svc", ["p0", "p1"], 0.0) == {"p0": 1.0, "p1": 1.0}
        assert store.scores("svc", ["p0", "gone"], 0.0) == {"p0": 0.0, "gone": 1.0}

    def test_a_service_with_no_metric_scores_and_reads_no_sample(self):
        store = self.store(metric=False)
        store.ingest("svc", "p0", 1.0, 0.0)
        store.ingest("svc", "p1", 9.0, 0.0)
        assert store.scores("svc", ["p0", "p1"], 0.0) == {"p0": 1.0, "p1": 1.0}
        assert store.readings("svc", ["p0", "p1"], 0.0) == ()

    def test_readings_are_each_replica_sample_with_its_freshness_in_replica_order(self):
        store = self.store()
        store.ingest("svc", "p1", 9.0, 100.0)
        store.ingest("svc", "p0", 1.0, 0.0)
        store.ingest("svc", "gone", 5.0, 100.0)  # a pod that is no replica now
        replicas = ["p0", "p1", "p2"]
        assert store.readings("svc", replicas, 90.0) == (("p0", 1.0, True), ("p1", 9.0, True))
        assert store.readings("svc", replicas, 120.0) == (("p0", 1.0, False), ("p1", 9.0, True))
        assert store.readings("svc", ["p1"], 120.0) == (("p1", 9.0, True),)
        assert store.readings("cache", replicas, 0.0) == ()


class TestScoreboard:
    def scores(self, mv, lv, mw, lw, now=0.0):
        store = MetricStore()
        # invert lower-is-better inputs so the normalized values equal mv
        for pod, value in mv.items():
            store.ingest("svc", pod, value, now)
        store.specs = {"svc": MetricSpec("m", HIGHER_IS_BETTER, metric_weight=mw,
                                         latency_weight=lw)}
        nodes = {pod: pod for pod in mv}
        return refresh_scoreboard("svc", nodes, lv.get, store, now)

    def test_endpoint_scores(self):
        scores = self.scores(mv={"a": 1.0, "b": 0.0}, lv={"a": 0.0, "b": 1.0},
                             mw=0.5, lw=0.5)
        assert scores == {"a": 1.0, "b": 0.0}

    def test_direct_formula(self):
        # mv 0.6 and lv 0.2 after normalization, weights 0.75/0.25 -> 0.5
        scores = self.scores(mv={"a": 0.6, "b": 0.0, "c": 1.0},
                             lv={"a": 0.8, "b": 0.0, "c": 1.0}, mw=0.75, lw=0.25)
        assert scores["a"] == pytest.approx(0.75 * 0.6 + 0.25 * 0.2)

    def test_refresh_idempotent(self):
        args = dict(mv={"a": 1.0, "b": 0.5}, lv={"a": 0.0, "b": 1.0}, mw=0.5, lw=0.5)
        assert self.scores(**args) == self.scores(**args)

    def test_scores_cover_running_replicas_in_unit_range(self):
        scores = self.scores(mv={"a": 3.0, "b": 7.0, "c": 5.0},
                             lv={"a": 0.1, "b": 0.5, "c": 0.9}, mw=0.4, lw=0.6)
        assert set(scores) == {"a", "b", "c"}
        assert all(0.0 <= s <= 1.0 for s in scores.values())
