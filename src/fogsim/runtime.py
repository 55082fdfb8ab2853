"""Workload runtime layer: runtime-class dispatch, RT priority assignment
with a 30-second pending queue, and RT group limit computation, all against
a simulated process host that records every call, so that ordering, retries
and exactly-once application can be asserted.  A real host is out of scope.
"""

from __future__ import annotations

import logging
from typing import Optional

from .cluster import RUNTIME_CLASSES, DeadlinePolicy, FifoPolicy, Node, PodInstance
from .fogservice import FogServiceSpec
from .realtime import rt_capacity
from .records import Record, Value, set_fields

log = logging.getLogger(__name__)

RETRY_INTERVAL_S = 30.0
RT_GROUP_PERIOD_US = 1_000_000

RUNTIME_CONTAINER, RUNTIME_LEGACY = RUNTIME_CLASSES


class HostCall(Value):
    """One recorded call of the simulated process host."""

    def __init__(self, time: float, pod: str, call: str, pid: Optional[int], detail: str,
                 ok: bool):
        set_fields(self, time=time, pod=pod, call=call, pid=pid, detail=detail, ok=ok)


class SimulatedProcessHost:
    """Process host double: processes appear at scripted times and every
    call is recorded for assertions."""

    def __init__(self):
        self._procs: dict[str, list[tuple[float, int, str]]] = {}
        self._fail_pids: set[int] = set()
        self.calls: list[HostCall] = []
        self.now = 0.0

    def spawn(self, pod_id: str, pid: int, name: str, at: float = 0.0) -> None:
        self._procs.setdefault(pod_id, []).append((at, pid, name))

    def fail_pid(self, pid: int) -> None:
        self._fail_pids.add(pid)

    def list_processes(self, pod_id: str) -> list[tuple[int, str]]:
        return [(pid, name) for at, pid, name in self._procs.get(pod_id, ())
                if at <= self.now]

    def set_policy(self, pod_id: str, pid: int, policy: DeadlinePolicy | FifoPolicy) -> bool:
        ok = pid not in self._fail_pids
        detail = (f"deadline:{policy.runtime_us}:{policy.period_us}:{policy.deadline_us}"
                  if isinstance(policy, DeadlinePolicy)
                  else f"fifo:{policy.priority}:{policy.cpu_request}")
        self.calls.append(HostCall(self.now, pod_id, "set_policy", pid, detail, ok))
        return ok

    def set_rt_group_limits(self, pod_id: str, period_us: int, runtime_us: int) -> bool:
        self.calls.append(HostCall(self.now, pod_id, "set_rt_group_limits", None,
                                   f"{period_us}:{runtime_us}", True))
        return True

    def policy_calls(self, pod_id: Optional[str] = None) -> list[HostCall]:
        return [c for c in self.calls if c.call == "set_policy"
                and (pod_id is None or c.pod == pod_id)]


class RecordingRuntime:
    """Lifecycle recorder standing in for a concrete runtime backend."""

    def __init__(self, kind: str):
        self.kind = kind
        self.events: list[tuple[str, str]] = []


class RuntimeDispatcher:
    """Route lifecycle calls to the container or legacy runtime by the pod's
    runtime class, which the pod checked when it was built."""

    def __init__(self):
        self.container = RecordingRuntime(RUNTIME_CONTAINER)
        self.legacy = RecordingRuntime(RUNTIME_LEGACY)

    def create(self, pod: PodInstance) -> RecordingRuntime:
        runtime = self.legacy if pod.runtime_class == RUNTIME_LEGACY else self.container
        runtime.events.append(("create", pod.id))
        return runtime


class PendingAssignment(Record):
    """A started pod's RT process specs no process matched yet (indexes into
    its `rt_processes`), and when to retry them."""

    __eq__ = Value.__eq__  # by value; an entry changes, so it has no hash

    def __init__(self, pod_id: str, unmatched: list[int], next_retry: float):
        self.pod_id, self.unmatched, self.next_retry = pod_id, unmatched, next_retry


class RtPriorityManager:
    """Apply RT process policies on pod start, retrying unmatched processes
    on a fixed 30-second cadence until every spec has been applied."""

    def __init__(self, host: SimulatedProcessHost):
        self.host = host
        self.pending: dict[str, PendingAssignment] = {}
        self._applied: set[tuple[str, int, int]] = set()  # (pod, spec index, pid)

    def assign_priorities(self, pod: PodInstance,
                          now: float = 0.0) -> tuple[list[tuple[int, int]], Optional[PendingAssignment]]:
        """Match and apply the pod's RT process specs.

        Returns the (spec index, pid) pairs applied now and the pending
        entry created for unmatched specs, if any.  Specs are applied in
        declaration order.
        """
        entry = PendingAssignment(pod.id, list(range(len(pod.rt_processes))), now)
        applied = self._retry(pod, entry, now)
        if entry.unmatched:
            self.pending[pod.id] = entry
        return applied, entry if entry.unmatched else None

    def tick(self, pod_lookup, now: float) -> list[tuple[str, int, int]]:
        """Revisit the pending queue; returns (pod, spec index, pid) applied."""
        applied_now = []
        for pod_id in sorted(self.pending):
            entry = self.pending[pod_id]
            if now < entry.next_retry:
                continue
            applied_now.extend((pod_id, idx, pid)
                               for idx, pid in self._retry(pod_lookup(pod_id), entry, now))
            if not entry.unmatched:
                del self.pending[pod_id]
        return applied_now

    def _retry(self, pod: PodInstance, entry: PendingAssignment,
               now: float) -> list[tuple[int, int]]:
        """Apply the entry's specs once per (pod, spec, pid); keep each spec that
        matched nothing or failed on the entry, due again one interval on."""
        processes = self.host.list_processes(pod.id)
        applied, unmatched = [], []
        for idx in entry.unmatched:
            spec = pod.rt_processes[idx]
            pids = [pid for pid, name in processes
                    if (pid == spec.pid if spec.pid is not None else spec.name_substring in name)]
            done = bool(pids)
            for pid in pids:
                key = (pod.id, idx, pid)
                if key in self._applied:
                    continue
                if self.host.set_policy(pod.id, pid, spec.policy):
                    self._applied.add(key)
                    applied.append((idx, pid))
                else:
                    log.error("set_policy failed for pod %s pid %d", pod.id, pid)
                    done = False
            if not done:
                unmatched.append(idx)
        entry.unmatched, entry.next_retry = unmatched, now + RETRY_INTERVAL_S
        return applied


def rt_group_limits(spec: FogServiceSpec) -> tuple[int, int]:
    """RT group quota for a service: a fixed period and the runtime derived
    from its RT limit.  Regular CPU limits are untouched; budgeting the RT
    share separately avoids double-counting mixed pods."""
    runtime_us = int(round(spec.rt_limit * RT_GROUP_PERIOD_US))
    return RT_GROUP_PERIOD_US, runtime_us


def rt_group_limits_for_node(spec: FogServiceSpec, node: Node) -> tuple[int, int]:
    """Like :func:`rt_group_limits` but clamped to the node's RT quota."""
    period_us, runtime_us = rt_group_limits(spec)
    quota = rt_capacity(node) / node.cores
    ceiling = int(round(quota * RT_GROUP_PERIOD_US))
    if runtime_us > ceiling:
        log.warning("service %s rt_limit %.3f exceeds node %s quota %.3f; clamping",
                    spec.name, spec.rt_limit, node.id, quota)
        runtime_us = ceiling
    return period_us, runtime_us


def apply_rt_limits(pod: PodInstance, spec: FogServiceSpec, node: Node,
                    host: SimulatedProcessHost) -> tuple[int, int]:
    period_us, runtime_us = rt_group_limits_for_node(spec, node)
    host.set_rt_group_limits(pod.id, period_us, runtime_us)
    return period_us, runtime_us
