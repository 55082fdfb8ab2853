import pytest
from hypothesis import given, strategies as st

from fogsim.cluster import (DeadlinePolicy, DependencyRef, FifoPolicy,
                            RtProcessSpec)
from fogsim.fogservice import FogServiceSpec, LocationScope, expand, validate
from fogsim.telemetry import MetricSpec

from conftest import make_state


def rt(policy):
    return RtProcessSpec(policy=policy, name_substring="worker")


class TestValidate:
    def test_valid_spec_passes(self):
        assert validate(FogServiceSpec(name="svc", replicas=2)) == []

    def test_deadline_runtime_exceeding_period(self):
        # the policy checks its own range, so no descriptor can carry it
        with pytest.raises(ValueError, match="runtime_us <= deadline_us <= period_us"):
            DeadlinePolicy(600_000, 500_000)

    @pytest.mark.parametrize("runtime_us, period_us, deadline_us", [
        (0, 0, 0), (0, 1_000_000, 0), (-500_000, 1_000_000, 0),
        (100_000, 1_000_000, 50_000), (100_000, 1_000_000, 2_000_000)])
    def test_deadline_needs_positive_runtime_within_deadline_within_period(
            self, runtime_us, period_us, deadline_us):
        with pytest.raises(ValueError, match="0 < runtime_us"):
            DeadlinePolicy(runtime_us, period_us, deadline_us)

    def test_balanced_metric_weights_pass(self):
        spec = FogServiceSpec(name="svc", metric=MetricSpec(
            "load", metric_weight=0.5, latency_weight=0.5))
        assert validate(spec) == []

    def test_unnormalized_dep_weights_pass_negative_fails(self):
        ok = FogServiceSpec(name="svc", dependencies=(
            DependencyRef("a", 0.7), DependencyRef("b", 0.5)))
        assert validate(ok) == []
        bad = FogServiceSpec(name="svc", dependencies=(
            DependencyRef("a", 0.7), DependencyRef("b", -0.1)))
        assert any("negative weight" in v for v in validate(bad))

    def test_fifo_priority_range(self):
        spec = FogServiceSpec(name="svc", rt_processes=(
            rt(FifoPolicy(priority=120, cpu_request=0.2)),))
        assert any("priority" in v for v in validate(spec))

    def test_request_above_limit(self):
        spec = FogServiceSpec(name="svc", cpu_request=500, cpu_limit=100)
        assert any("cpu_request" in v for v in validate(spec))

    def test_unknown_location(self):
        spec = FogServiceSpec(name="svc", locations=[LocationScope("P9-Z")])
        assert any("unknown location" in v
                   for v in validate(spec, known_locations={"P1-A"}))


class TestExpand:
    def test_cluster_scoped_naming(self):
        pods = expand(FogServiceSpec(name="dependency", replicas=2))
        assert [p.id for p in pods] == ["dependency-0", "dependency-1"]

    def test_location_scoped_differential_scaling(self):
        spec = FogServiceSpec(name="cam", locations=[
            LocationScope("P1-A", 1), LocationScope("P2-A", 2, {"res": "hd"})])
        pods = expand(spec)
        assert len(pods) == 3
        scoped = [p for p in pods if p.location_scope == "P2-A"]
        assert len(scoped) == 2
        assert all(p.config == {"res": "hd"} for p in scoped)

    def test_single_replica_unscoped(self):
        pods = expand(FogServiceSpec(name="one"))
        assert len(pods) == 1 and pods[0].location_scope is None

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            expand(FogServiceSpec(name="svc", replicas=0))

    def test_dep_weights_normalized(self):
        spec = FogServiceSpec(name="svc", dependencies=(
            DependencyRef("a", 0.7), DependencyRef("b", 0.5)))
        deps = expand(spec)[0].dependencies
        assert sum(d.dep_weight for d in deps) == pytest.approx(1.0)
        assert deps[0].dep_weight == pytest.approx(0.7 / 1.2)

    @given(st.integers(1, 20), st.integers(0, 5))
    def test_expansion_is_deterministic_and_counts(self, replicas, locations):
        if locations:
            spec = FogServiceSpec(name="svc", locations=[
                LocationScope(f"L{i}", replicas) for i in range(locations)])
            expected = replicas * locations
        else:
            spec = FogServiceSpec(name="svc", replicas=replicas)
            expected = replicas
        first = [p.id for p in expand(spec)]
        second = [p.id for p in expand(spec)]
        assert first == second
        assert len(first) == expected == len(set(first))


def test_location_scope_survives_eviction():
    state = make_state()
    spec = FogServiceSpec(name="cam", locations=[LocationScope("P2-A", 1)],
                          cpu_request=100, cpu_limit=100)
    pods = expand(spec)
    state.add_pods(pods)
    pod_id = pods[0].id
    state.apply_placement(pod_id, "P3-B", 0.0)  # scheduled off its location
    state.evict(pod_id, 200.0)
    assert state.pods[pod_id].location_scope == "P2-A"

