"""Output checks on a run's result CSVs, and the digest that pins them.

The checks are the paper's expected outcomes for each workload.  They read
only the CSV files ``fogsim.report.write_results`` wrote, and the facts the
workload generator recorded, so a checker never trusts the program's own
in-memory state.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from pathlib import Path

from workloads import Workload

CSV_STEMS = ("placements", "timeseries", "requests", "evictions")

# fig7-monitor's fixed point and grace period (see its scenario description)
MONITOR_FIXED_POINT = (5, 10)
MONITOR_NODES = 8
MONITOR_GRACE_S = 120.0
EPS = 1e-9


def read(outdir: Path, stem: str) -> list[dict]:
    with open(Path(outdir) / f"{stem}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def digest(outdir: Path) -> str:
    """SHA-256 over the four result CSVs, in a fixed order."""
    h = hashlib.sha256()
    for stem in CSV_STEMS:
        h.update(stem.encode() + b"\0")
        h.update((Path(outdir) / f"{stem}.csv").read_bytes())
    return h.hexdigest()


def _runs(workload: Workload):
    return [(arm, str(rep)) for arm in workload.arms for rep in range(workload.reps)]


def check_monitor(workload: Workload, outdir: Path) -> list[str]:
    problems = []
    final: dict[tuple, dict[str, tuple[int, int]]] = defaultdict(dict)
    last_t: dict[tuple, float] = {}
    for row in read(outdir, "timeseries"):
        key, t = (row["arm"], row["rep"]), float(row["t"])
        if t > last_t.get(key, -1.0):
            last_t[key], final[key] = t, {}
        if t == last_t[key]:
            final[key][row["node"]] = (int(row["rt_pods"]), int(row["regular_pods"]))
    for key in _runs(workload):
        nodes = final.get(key, {})
        if len(nodes) != MONITOR_NODES or set(nodes.values()) != {MONITOR_FIXED_POINT}:
            problems.append(f"{key}: final per-node (rt, regular) {sorted(nodes.items())}"
                            f" is not {MONITOR_FIXED_POINT} on {MONITOR_NODES} nodes")
    for row in read(outdir, "evictions"):
        if float(row["t"]) <= MONITOR_GRACE_S:
            problems.append(f"eviction of {row['pod']} at t={row['t']} "
                            f"within the {MONITOR_GRACE_S:.0f} s grace")
    return problems


def check_placement(workload: Workload, outdir: Path) -> list[str]:
    problems = []
    service_of = {pod: name for name, svc in workload.services.items() for pod in svc.pods}
    placements = read(outdir, "placements")
    cpu = defaultdict(int)
    rt = defaultdict(float)
    seen = defaultdict(set)
    for row in placements:
        key = (row["arm"], row["rep"])
        seen[key].add(row["pod"])
        if service_of.get(row["pod"]) != row["service"]:
            problems.append(f"{key}: pod {row['pod']} reported as service {row['service']}")
            continue
        if row["status"] != "Running":
            continue
        facts = workload.services[row["service"]]
        cpu[key + (row["node"],)] += facts.cpu_request
        rt[key + (row["node"],)] += facts.rt_utilization
    for key in _runs(workload):
        if seen[key] != set(service_of):
            problems.append(f"{key}: placements do not list every pod exactly")
    for (arm, rep, node), used in sorted(cpu.items()):
        if used > workload.nodes[node].cpu_capacity:
            problems.append(f"{(arm, rep)}: {node} runs {used}m CPU over its "
                            f"{workload.nodes[node].cpu_capacity}m capacity")
        if arm == "rt" and rt[(arm, rep, node)] > workload.nodes[node].rt_capacity + EPS:
            problems.append(f"{(arm, rep)}: {node} RT utilization "
                            f"{rt[(arm, rep, node)]:.3f} over {workload.nodes[node].rt_capacity}")
    # a displacing pod starts on the victim's node at the eviction time and,
    # having a higher priority than any victim, is never evicted itself
    started = defaultdict(list)
    for row in placements:
        if row["status"] == "Running":
            started[(row["arm"], row["rep"], row["node"], row["time"])].append(row["service"])
    preempted = defaultdict(int)
    for row in read(outdir, "evictions"):
        key = (row["arm"], row["rep"])
        if row["reason"] != "preemption":
            problems.append(f"{key}: unexpected {row['reason']} eviction of {row['pod']}")
            continue
        preempted[key] += 1
        victim = workload.services[service_of[row["pod"]]].priority
        displacers = [s for s in started[key + (row["from_node"], row["t"])]
                      if workload.services[s].priority > victim]
        if not displacers:
            problems.append(f"{key}: no higher-priority pod took {row['pod']}'s place "
                            f"on {row['from_node']} at t={row['t']}")
    for key in _runs(workload):
        if key[0] == "rt" and not preempted[key]:
            problems.append(f"{key}: the late high-priority wave preempted nothing")
    return problems


def check_requests(workload: Workload, outdir: Path) -> list[str]:
    problems = []
    node_of = {(r["arm"], r["rep"], r["pod"]): r["node"]
               for r in read(outdir, "placements") if r["status"] == "Running"}
    count = defaultdict(int)
    for row in read(outdir, "requests"):
        key = (row["arm"], row["rep"])
        count[key] += 1
        if row["replica"] not in workload.services[row["service"]].pods:
            problems.append(f"{key}: replica {row['replica']} is not in {row['service']}")
        elif node_of.get(key + (row["replica"],)) != row["node"]:
            problems.append(f"{key}: {row['replica']} answered from {row['node']}, "
                            f"not its node {node_of.get(key + (row['replica'],))}")
        if len(problems) > 20:
            break
    for key in _runs(workload):
        if count[key] != workload.requests_per_run:
            problems.append(f"{key}: {count[key]} request rows for "
                            f"{workload.requests_per_run} requests issued")
    return problems


CHECKS = {
    "monitor-converge": check_monitor,
    "placement-burst": check_placement,
    "request-stream": check_requests,
}


def check(workload: Workload, outdir: Path) -> list[str]:
    return CHECKS[workload.name](workload, Path(outdir))
