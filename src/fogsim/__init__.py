"""Deterministic edge-cluster orchestration engine and discrete-event simulator.

Every public name is imported from its home module on first use (PEP 562), so
``import fogsim`` loads no submodule and a run loads only the modules it uses.
"""

import importlib

_HOMES = {
    "cluster": ("ClusterSnapshot", "ClusterState", "DeadlinePolicy", "DependencyRef",
                "FifoPolicy", "Node", "PodInstance", "PodStatus", "RtProcessSpec",
                "Topology"),
    "dependencies": ("markov_matrix", "replica_scores", "score_dependencies",
                     "stationary_distribution"),
    "fogservice": ("FogServiceSpec", "LocationScope", "expand"),
    "loadbalancer": ("LoadBalancer", "RuleChain", "chain_probabilities", "select_replica"),
    "monitor": ("ClusterMonitor", "MonitorConfig", "simulate_scheduling"),
    "realtime": ("RealtimePlugin", "node_rt_utilization", "rt_capacity"),
    "runtime": ("RtPriorityManager", "RuntimeDispatcher", "SimulatedProcessHost",
                "rt_group_limits"),
    "scheduling": ("Assigned", "Preempted", "SchedulerConfig", "Unschedulable", "run_queue",
                   "schedule_one"),
    "simulator": ("ArmSpec", "ScenarioConfig", "request_rtt", "run_scenario"),
    "telemetry": ("MetricSpec", "MetricStore", "normalize", "path_latency",
                  "refresh_scoreboard"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its home module and kept here.  Any other
    name raises AttributeError, which is what lets ``from fogsim import report``
    go on to import the submodule."""
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value
