"""Deterministic edge-cluster orchestration engine and discrete-event simulator."""

from .cluster import (ClusterSnapshot, ClusterState, DeadlinePolicy,
                      DependencyRef, FifoPolicy, Node, PodInstance, PodStatus,
                      RtProcessSpec, Topology)
from .dependencies import (markov_matrix, replica_scores, score_dependencies,
                           stationary_distribution)
from .fogservice import FogServiceSpec, LocationScope, expand
from .loadbalancer import (LoadBalancer, RuleChain, chain_probabilities,
                           select_replica, uniform_chain)
from .monitor import ClusterMonitor, MonitorConfig, simulate_scheduling
from .realtime import RealtimePlugin, node_rt_utilization, rt_capacity
from .runtime import (RtPriorityManager, RuntimeDispatcher,
                      SimulatedProcessHost, rt_group_limits)
from .scheduling import (Assigned, Preempted, SchedulerConfig, Unschedulable,
                         run_queue, schedule_one)
from .simulator import ArmSpec, ScenarioConfig, request_rtt, run_scenario
from .telemetry import (MetricSpec, MetricStore, normalize, path_latency,
                        refresh_scoreboard)

__version__ = "0.1.0"
