"""Acceptance suite: every criterion at its stated tolerance, one pass line
per criterion (run with `pytest -v tests/test_acceptance.py -s`)."""

import itertools
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from fogsim.cli import main as cli_main
from fogsim.cluster import DeadlinePolicy, PodInstance, RtProcessSpec
from fogsim.loadbalancer import chain_probabilities
from fogsim.realtime import RealtimePlugin, rt_capacity
from fogsim.report import convergence_times
from fogsim.runtime import RtPriorityManager, SimulatedProcessHost
from fogsim.scenarios import load_bundled
from fogsim.simulator import run_scenario

from conftest import load_test_scenario, make_state, walk_frequencies


def placements_by(res, arm, service=None):
    rows = defaultdict(list)
    for r_arm, rep, pod, svc, node, status, t in res.placements:
        if r_arm == arm and (service is None or svc == service):
            rows[int(rep)].append((pod, svc, node, status))
    return rows


def test_criterion_01_dependencies_placement():
    started = time.perf_counter()
    res = run_scenario(load_bundled("fig5-dependencies"), profile="ci")
    reps = 50
    custom = placements_by(res, "custom", "candidate")
    assert len(custom) == reps
    assert all(rows[0][2] == "P2-A" for rows in custom.values())
    baseline_nodes = Counter(rows[0][2]
                             for rows in placements_by(res, "baseline",
                                                       "candidate").values())
    assert baseline_nodes["P1-A"] == 0 and baseline_nodes["P2-A"] == 0
    assert max(baseline_nodes.values()) <= 2 * reps / 6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: custom 100% P2-A over {reps} reps; baseline "
          f"spread max {max(baseline_nodes.values())} <= {2 * reps / 6:.1f} "
          f"({elapsed:.1f}s)")


def test_criterion_02_rt_balancing():
    started = time.perf_counter()
    res = run_scenario(load_bundled("fig6-realtime"))
    custom = placements_by(res, "custom", "rt")
    for rep, rows in custom.items():
        counts = Counter(node for _, _, node, status in rows if status == "Running")
        assert sorted(counts.values()) == [5] * 8, f"rep {rep}: {counts}"
    spreads = []
    for rep, rows in placements_by(res, "baseline", "rt").items():
        counts = Counter(node for _, _, node, status in rows if status == "Running")
        values = [counts.get(n, 0) for n in
                  ("P1-A", "P1-B", "P2-A", "P2-B", "P3-A", "P3-B", "P4-A", "P4-B")]
        spreads.append(max(values) - min(values))
    assert any(s >= 3 for s in spreads)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: custom exactly 5 RT/node in all 20 runs; "
          f"baseline max spread {max(spreads)} ({elapsed:.1f}s)")


def test_criterion_03_deadline_feasibility():
    utilization = {"high": 0.6, "low": 0.2}
    res = run_scenario(load_bundled("fig6-deadline"))
    quota = 0.95
    for rep, rows in placements_by(res, "custom").items():
        per_node = defaultdict(float)
        highs = Counter()
        for pod, svc, node, status in rows:
            if status == "Running":
                per_node[node] += utilization[svc]
                if svc == "high":
                    highs[node] += 1
        assert all(c <= 1 for c in highs.values()), f"rep {rep}"
        assert all(u <= quota + 1e-9 for u in per_node.values()), f"rep {rep}"
    violating_runs = 0
    baseline = placements_by(res, "baseline")
    for rep, rows in baseline.items():
        per_node = defaultdict(float)
        for pod, svc, node, status in rows:
            if status == "Running":
                per_node[node] += utilization[svc]
        if any(u > quota + 1e-9 for u in per_node.values()):
            violating_runs += 1
    assert violating_runs / len(baseline) >= 0.5
    # priority variant: preemption admits every pod
    variant = run_scenario(load_test_scenario("fig6-deadline-preemption"))
    statuses = Counter(r[5] for r in variant.placements)
    assert statuses.get("Unschedulable", 0) == 0
    preemptions = [r for r in variant.evictions if r[6] == "preemption"]
    assert preemptions, "expected preemption events in the priority variant"
    print(f"\nPASS criterion 3: quota held in all custom runs; baseline "
          f"violated in {violating_runs}/20 runs; preemption variant placed "
          f"everything with {len(preemptions)} preemptions")


def test_criterion_04_monitor_convergence():
    res = run_scenario(load_bundled("fig7-monitor"))
    reps = sorted({int(rep) for _, rep, *_ in res.timeseries})
    assert len(reps) == 10
    final_by_rep = defaultdict(dict)
    for arm, rep, t, node, rt_pods, regular_pods, total in res.timeseries:
        final_by_rep[int(rep)][(float(t), node)] = (int(rt_pods), int(regular_pods))
    converged = []
    settled = convergence_times(res.timeseries)
    for rep in reps:
        per_rep = final_by_rep[rep]
        t_max = max(t for t, _ in per_rep)
        finals = {node: v for (t, node), v in per_rep.items() if t == t_max}
        assert set(finals.values()) == {(5, 10)}, f"rep {rep} final {finals}"
        converged.append(settled["custom", rep])
    within = [t for t in converged if t <= 380.0]
    assert len(within) >= 0.9 * len(reps)
    first_eviction = min(float(r[2]) for r in res.evictions)
    assert first_eviction > 120.0
    print(f"\nPASS criterion 4: fixed point 5 RT + 10 regular per node; "
          f"convergence ≤380s in {len(within)}/10 runs "
          f"(max {max(converged):.0f}s); first eviction at {first_eviction:.0f}s")


def test_criterion_05_load_balancing():
    started = time.perf_counter()
    res = run_scenario(load_bundled("fig9-loadbalancer"))
    by_arm = defaultdict(list)
    for arm, rep, t, client, service, replica, node, rtt in res.requests:
        by_arm[arm].append((replica, float(rtt)))
    baseline_counts = Counter(rep for rep, _ in by_arm["baseline"])
    assert len(by_arm["baseline"]) == 10_000
    for replica in (f"server-{i}" for i in range(5)):
        assert abs(baseline_counts[replica] - 2000) <= 150, baseline_counts
    custom_counts = Counter(rep for rep, _ in by_arm["custom"])
    ordered = [custom_counts.get(f"server-{i}", 0) for i in range(5)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:])), ordered
    assert abs(ordered[0] - 7000) <= 300, ordered
    custom_rtt = np.array([rtt for _, rtt in by_arm["custom"]])
    base_rtt = np.array([rtt for _, rtt in by_arm["baseline"]])
    quantiles = np.arange(0.05, 1.0, 0.05)
    assert np.all(np.quantile(custom_rtt, quantiles)
                  <= np.quantile(base_rtt, quantiles) + 1e-12)
    assert custom_rtt.mean() < base_rtt.mean()
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    print(f"\nPASS criterion 5: baseline ~2000/replica, custom counts "
          f"{ordered} (top {ordered[0]}), CDF dominated at every 5% quantile, "
          f"mean {custom_rtt.mean():.3f} < {base_rtt.mean():.3f} ms "
          f"({elapsed:.1f}s)")


def test_criterion_06_chain_exactness():
    rng = np.random.default_rng(2024)
    draws = 100_000
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 17))
        scores = rng.random(n)
        scores[rng.random(n) < 0.1] = 0.0
        chain = chain_probabilities({f"r{i:02d}": s
                                     for i, s in enumerate(scores)})
        assert chain.accept_probabilities[-1] == 1.0
        total = scores.sum()
        expected = (np.full(n, 1.0 / n) if total == 0
                    else np.array(sorted(scores)) / total)
        freqs = walk_frequencies(chain, draws, seed=case)
        worst = max(worst, float(np.max(np.abs(freqs - expected))))
        assert np.all(np.abs(freqs - expected) <= 0.01)
    for n in range(1, 17):
        chain = chain_probabilities({f"r{i}": 0.7 for i in range(n)})
        assert chain.accept_probabilities[-1] == 1.0
        assert np.allclose(chain.selection_probabilities, 1.0 / n, atol=1e-12)
    print(f"\nPASS criterion 6: 1000 random chains within ±1% of normalized "
          f"scores at 1e5 draws (worst deviation {worst:.4f}); P_N = 1; "
          f"equal scores uniform")


def test_criterion_07_stationary_distribution_oracle():
    from fogsim.dependencies import stationary_distribution
    rng = np.random.default_rng(7)
    worst_residual = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        matrix = rng.dirichlet(np.ones(n), size=n)
        pi = stationary_distribution(matrix)
        residual = float(np.max(np.abs(pi @ matrix - pi)))
        worst_residual = max(worst_residual, residual)
        assert residual < 1e-8
        assert abs(sum(pi) - 1.0) <= 1e-9
    for _ in range(100):
        n = int(rng.integers(1, 9))
        row = rng.dirichlet(np.ones(n))
        pi = stationary_distribution(np.tile(row, (n, 1)))
        assert np.max(np.abs(pi - row)) <= 1e-12
    print(f"\nPASS criterion 7: 500 random chains, worst residual "
          f"{worst_residual:.2e} < 1e-8; rank-1 rows recovered to 1e-12")


def test_criterion_08_feasibility_oracle():
    plugin = RealtimePlugin()
    grid = (0.1, 0.2, 0.3, 0.6)
    checked = 0
    for n_nodes in (1, 2, 3):
        for n_pods in range(6):
            for utils in itertools.product(grid, repeat=n_pods):
                for pattern in ("round-robin", "first"):
                    state = make_state(cores=1, cpu_capacity=8000)
                    node_ids = sorted(state.nodes)[:n_nodes]
                    for i, u in enumerate(utils):
                        target = (node_ids[i % n_nodes]
                                  if pattern == "round-robin" else node_ids[0])
                        pod = PodInstance(
                            id=f"p{i}", service="rt", cpu_request=10, cpu_limit=10,
                            rt_processes=(RtProcessSpec(
                                policy=DeadlinePolicy(int(u * 1e6), 1_000_000),
                                name_substring="w"),))
                        state.add_pod(pod)
                        state.apply_placement(pod.id, target, 0.0)
                    snap = state.view()
                    for cand_util in grid:
                        candidate = PodInstance(
                            id="cand", service="rt", cpu_request=10, cpu_limit=10,
                            rt_processes=(RtProcessSpec(
                                policy=DeadlinePolicy(int(cand_util * 1e6),
                                                      1_000_000),
                                name_substring="w"),))
                        feasible = {n for n in node_ids
                                    if plugin.filter(candidate, n, snap) is None}
                        brute = {n for n in node_ids
                                 if sum(p.rt_utilization
                                        for p in snap.running_on(n)) + cand_util
                                 <= rt_capacity(snap.nodes[n]) + 1e-9}
                        assert feasible == brute
                        checked += 1
    print(f"\nPASS criterion 8: plugin feasibility equals brute-force "
          f"evaluation in {checked} cluster configurations")


def test_criterion_09_runtime_retries():
    host = SimulatedProcessHost()
    host.spawn("pod-0", pid=7, name="detector", at=45.0)
    manager = RtPriorityManager(host)
    pod = PodInstance(id="pod-0", service="svc", rt_processes=(
        RtProcessSpec(policy=DeadlinePolicy(100_000, 1_000_000),
                      name_substring="detector"),))
    applied, pending = manager.assign_priorities(pod, now=0.0)
    assert applied == [] and pending is not None
    lookup = {"pod-0": pod}.get
    for now in (30.0, 60.0, 90.0):
        host.now = now
        manager.tick(lookup, now)
    calls = host.policy_calls("pod-0")
    assert len(calls) == 1
    assert calls[0].time == 60.0
    print("\nPASS criterion 9: policy applied at the t=60s tick, exactly one "
          "set_policy call per (pod, spec)")


def test_criterion_10_deterministic_csvs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli_main(["run", "fig6-deadline", "--reps", "3", "--seed", "99",
                         "--out", str(out)])
        assert code == 0
    files = ("placements.csv", "timeseries.csv", "requests.csv",
             "evictions.csv", "summary.txt")
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print(f"\nPASS criterion 10: identical seed gives byte-identical "
          f"{', '.join(files)}")
