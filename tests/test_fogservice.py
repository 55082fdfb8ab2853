
import pytest
from hypothesis import given, strategies as st

from fogsim.cluster import (DeadlinePolicy, DependencyRef, FifoPolicy,
                            RtProcessSpec)
from fogsim.fogservice import FogServiceSpec, LocationScope, expand, pod_ids
from fogsim.telemetry import MetricSpec

from conftest import make_state


class TestDescriptorChecks:
    """Each descriptor object checks its own fields when it is built."""

    def test_valid_spec_builds(self):
        spec = FogServiceSpec(name="svc", replicas=2)
        assert spec.replicas == 2

    def test_cpu_limit_zero_means_the_request(self):
        assert FogServiceSpec(name="svc", cpu_request=300).cpu_limit == 300
        assert FogServiceSpec(name="svc", cpu_request=300, cpu_limit=500).cpu_limit == 500

    def test_spec_is_frozen(self):
        spec = FogServiceSpec(name="svc")
        with pytest.raises(AttributeError):
            spec.cpu_limit = 5

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
        assert spec.metric.metric_weight == 0.5

    @pytest.mark.parametrize("kwargs, match", [
        ({"direction": "sideways"}, "direction"),
        ({"metric_weight": 0.7, "latency_weight": 0.5}, "summing to 1"),
        ({"metric_weight": 1.5, "latency_weight": -0.5}, ">= 0")])
    def test_metric_checks_direction_and_weight_sum(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MetricSpec("load", **kwargs)

    def test_unnormalized_dep_weights_pass_negative_fails(self):
        ok = FogServiceSpec(name="svc", dependencies=(
            DependencyRef("a", 0.7), DependencyRef("b", 0.5)))
        assert len(ok.dependencies) == 2
        with pytest.raises(ValueError, match="non-negative"):
            DependencyRef("b", -0.1)

    @pytest.mark.parametrize("args, match", [
        (("",), "target_service"),
        (("a", 1.0, -0.5, 1.5), "non-negative"),
        (("a", 1.0, 0.7, 0.7), "must equal 1")])
    def test_dependency_checks_target_and_weights(self, args, match):
        with pytest.raises(ValueError, match=match):
            DependencyRef(*args)

    @pytest.mark.parametrize("priority, cpu_request, match", [
        (120, 0.2, "priority"), (0, 0.2, "priority"), (50, 0.0, "cpu_request")])
    def test_fifo_priority_and_cpu_range(self, priority, cpu_request, match):
        with pytest.raises(ValueError, match=match):
            FifoPolicy(priority=priority, cpu_request=cpu_request)

    def test_rt_process_needs_a_selector_and_a_known_policy(self):
        with pytest.raises(ValueError, match="selector"):
            RtProcessSpec(policy=FifoPolicy(50, 0.2))
        with pytest.raises(ValueError, match="policy type"):
            RtProcessSpec(policy="fifo", pid=1)

    @pytest.mark.parametrize("kwargs, match", [
        ({"name": ""}, "name"),
        ({"replicas": 0}, "replicas"),
        ({"locations": []}, "locations"),
        ({"cpu_request": 500, "cpu_limit": 100}, "cpu_request"),
        ({"cpu_request": 0}, "cpu_request"),
        ({"rt_limit": 1.5}, "rt_limit"),
        ({"runtime_class": "vm"}, "runtime_class")])
    def test_spec_checks_its_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FogServiceSpec(**{"name": "svc", **kwargs})

    def test_location_scope_checks_its_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            LocationScope("P1-A", 0)


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

    @pytest.mark.parametrize("spec", [
        FogServiceSpec(name="db", replicas=3),
        FogServiceSpec(name="cam", locations=[LocationScope("P1-A", 2),
                                              LocationScope("P2-A", 1, {"res": "hd"})])])
    def test_pod_ids_name_the_expanded_pods_in_order(self, spec):
        assert ([(pod_id, scope and scope.location) for pod_id, scope in pod_ids(spec)]
                == [(p.id, p.location_scope) for p in expand(spec)])

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

