"""Scenario files: INI-style sections describing topology, services,
scheduler arms, monitor/balancer settings, and a timed workload script.

Sections: [scenario], [topology], [nodes], one [service <name>] per
service, one [arm <name>] per scheduler configuration to run, optional
[config <name>] entries for deploy-time overrides, [monitor],
[loadbalancer], and [workload] with one directive per line:

    at <t> deploy <service...> [using=<config>]
    at <t> pin <pod> <node>
    at <t> metric <service> <pod> <value>
    at <t> requests client=<node> service=<name> rate_hz=<hz> count=<n>
    at <t> link <zone> <one-way-ms>
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

from .cluster import DeadlinePolicy, DependencyRef, FifoPolicy, RtProcessSpec
from .fogservice import FogServiceSpec, LocationScope, validate
from .monitor import MonitorConfig
from .simulator import (ArmSpec, LbSettings, NodeSettings, ScenarioConfig,
                        TopologySpec, WorkloadEvent)
from .telemetry import MetricSpec


class ScenarioParseError(ValueError):
    pass


def _tokens_to_kwargs(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioParseError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key] = value
    return out


def _settings(section, cls) -> dict:
    """The fields of `cls` that `section` sets, each parsed as the type of
    its default; absent keys keep the dataclass default."""
    getters = {int: section.getint, float: section.getfloat}
    return {f.name: getters[type(f.default)](f.name) for f in dataclasses.fields(cls)
            if f.name in section and type(f.default) in getters}


def _parse_rt_process(line: str) -> RtProcessSpec:
    tokens = line.split()
    kind, kwargs = tokens[0], _tokens_to_kwargs(tokens[1:])
    pid = int(kwargs["pid"]) if "pid" in kwargs else None
    name = kwargs.get("name")
    if kind == "deadline":
        policy = DeadlinePolicy(int(kwargs["runtime_us"]), int(kwargs["period_us"]),
                                int(kwargs.get("deadline_us", 0)))
    elif kind == "fifo":
        policy = FifoPolicy(int(kwargs["priority"]), float(kwargs["cpu"]))
    else:
        raise ScenarioParseError(f"unknown rt process kind: {kind}")
    if pid is None and name is None:
        name = ""  # matches any process
    return RtProcessSpec(policy=policy, pid=pid, name_substring=name)


def _parse_dependency(line: str) -> DependencyRef:
    tokens = line.split()
    kwargs = _tokens_to_kwargs(tokens[1:])
    return DependencyRef(
        target_service=tokens[0],
        dep_weight=float(kwargs.get("weight", 1.0)),
        latency_weight=float(kwargs.get("lw", 0.5)),
        metric_weight=float(kwargs.get("mw", 0.5)))


def _parse_metric(value: str) -> MetricSpec:
    tokens = value.split()
    if len(tokens) < 2:
        raise ScenarioParseError(f"metric needs a name and direction: {value!r}")
    kwargs = _tokens_to_kwargs(tokens[2:])
    return MetricSpec(name=tokens[0], direction=tokens[1],
                      metric_weight=float(kwargs.get("mw", 0.5)),
                      latency_weight=float(kwargs.get("lw", 0.5)))


def _parse_service(name: str, section) -> FogServiceSpec:
    locations = None
    if "locations" in section:
        locations = []
        for tok in section["locations"].split():
            loc, _, count = tok.partition(":")
            config = {}
            if "config." + loc in section:
                config = _tokens_to_kwargs(section["config." + loc].split())
            locations.append(LocationScope(loc, int(count) if count else 1, config))
    deps = tuple(_parse_dependency(line)
                 for line in section.get("depends_on", "").splitlines() if line.strip())
    procs = tuple(_parse_rt_process(line)
                  for line in section.get("rt_processes", "").splitlines() if line.strip())
    metric = _parse_metric(section["metric"]) if "metric" in section else None
    spec = FogServiceSpec(
        name=name,
        replicas=section.getint("replicas", 1),
        locations=locations,
        cpu_request=section.getint("cpu_request", 100),
        cpu_limit=section.getint("cpu_limit", section.getint("cpu_request", 100)),
        rt_limit=section.getfloat("rt_limit", 0.0),
        rt_processes=procs,
        priority_class=section.getint("priority_class", 0),
        dependencies=deps,
        metric=metric,
        runtime_class=section.get("runtime_class", "container"))
    problems = validate(spec)
    if problems:
        raise ScenarioParseError(f"service {name}: " + "; ".join(problems))
    return spec


def _parse_arm(name: str, section) -> ArmSpec:
    plugins = []
    for tok in section.get("plugins", "baseline:1.0").split():
        pname, _, weight = tok.partition(":")
        plugins.append((pname, float(weight) if weight else 1.0))
    return ArmSpec(name=name, plugins=tuple(plugins),
                   tie_break=section.get("tie_break", "lexicographic"),
                   lb_policy=section.get("lb_policy", "weighted"))


REQUEST_KEYS = ("client", "service", "rate_hz", "count")
ARITY = {"pin": 2, "metric": 3, "link": 2}


def _parse_workload_line(line: str) -> WorkloadEvent:
    """One directive's event; any malformed field raises ValueError."""
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "at":
        raise ValueError("must start with 'at <t>'")
    at, action, rest = float(tokens[1]), tokens[2], tokens[3:]
    if action == "deploy":
        using = None
        names = []
        for tok in rest:
            if tok.startswith("using="):
                using = tok.split("=", 1)[1]
            else:
                names.append(tok)
        if not names:
            raise ValueError("deploy needs at least one service")
        return WorkloadEvent(at, "deploy", (tuple(names), using))
    if action == "requests":
        kwargs = _tokens_to_kwargs(rest)
        if sorted(kwargs) != sorted(REQUEST_KEYS):
            raise ValueError("requests takes " + " ".join(f"{k}=" for k in REQUEST_KEYS))
        return WorkloadEvent(at, "requests", (kwargs["client"], kwargs["service"],
                                              float(kwargs["rate_hz"]),
                                              int(kwargs["count"])))
    if action not in ARITY:
        raise ValueError(f"unknown workload action: {action}")
    if len(rest) != ARITY[action]:
        raise ValueError(f"{action} takes {ARITY[action]} arguments, got {len(rest)}")
    if action == "pin":
        return WorkloadEvent(at, "pin", (rest[0], rest[1]))
    if action == "metric":
        return WorkloadEvent(at, "metric", (rest[0], rest[1], float(rest[2])))
    return WorkloadEvent(at, "link", (rest[0], float(rest[1])))


def parse_scenario(text: str, name_hint: str = "") -> ScenarioConfig:
    """Parse and validate a scenario; any malformed or inconsistent input
    raises ScenarioParseError."""
    try:
        return _parse_scenario(text, name_hint)
    except ScenarioParseError:
        raise
    except KeyError as exc:
        raise ScenarioParseError(f"missing field {exc}") from None
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None


def _parse_scenario(text: str, name_hint: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # zone and node names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from None

    for required in ("scenario", "topology", "workload"):
        if required not in parser:
            raise ScenarioParseError(f"missing [{required}] section")

    meta = parser["scenario"]
    topo = parser["topology"]
    zones = {}
    uplinks = {}
    for key, value in topo.items():
        if key.startswith("zone."):
            zones[key[5:]] = tuple(value.split())
        elif key.startswith("uplink."):
            uplinks[key[7:]] = float(value)
    if not zones:
        raise ScenarioParseError("topology defines no zones")
    topology = TopologySpec(zones=zones, uplinks_ms=uplinks,
                            **_settings(topo, TopologySpec))

    nodes = NodeSettings()
    if "nodes" in parser:
        sect = parser["nodes"]
        overrides = {}
        for key, value in sect.items():
            if key.startswith("override."):
                _, node_id, attr = key.split(".", 2)
                overrides.setdefault(node_id, {})[attr] = int(value)
        nodes = NodeSettings(overrides=overrides, **_settings(sect, NodeSettings))

    services = []
    arms = []
    named = []
    for section_name in parser.sections():
        if section_name.startswith("service "):
            services.append(_parse_service(section_name.split(" ", 1)[1],
                                           parser[section_name]))
        elif section_name.startswith("arm "):
            arms.append(_parse_arm(section_name.split(" ", 1)[1],
                                   parser[section_name]))
        elif section_name.startswith("config "):
            named.append(_parse_arm(section_name.split(" ", 1)[1],
                                    parser[section_name]))

    monitor = None
    if "monitor" in parser:
        # built, and so checked, even when the monitor is off
        sect = parser["monitor"]
        monitor = MonitorConfig(**_settings(sect, MonitorConfig))
        if not sect.getboolean("enabled", False):
            monitor = None

    lb = LbSettings()
    if "loadbalancer" in parser:
        lb = LbSettings(**_settings(parser["loadbalancer"], LbSettings))

    workload = []
    for line in parser["workload"].get("events", "").splitlines():
        if line.strip():
            try:
                workload.append(_parse_workload_line(line))
            except ValueError as exc:
                raise ScenarioParseError(f"workload line {line.strip()!r}: {exc}") from None

    config = ScenarioConfig(
        name=meta.get("name", name_hint or "scenario"),
        description=meta.get("description", ""),
        seed=meta.getint("seed", 42),
        duration_s=meta.getfloat("duration_s", 10.0),
        repetitions=meta.getint("repetitions", 1),
        ci_repetitions=meta.getint("ci_repetitions", meta.getint("repetitions", 1)),
        sample_period_s=meta.getfloat("sample_period_s", 0.0),
        topology=topology, nodes=nodes, services=tuple(services),
        arms=tuple(arms), named_configs=tuple(named),
        monitor=monitor, lb=lb, workload=tuple(workload))
    problems = config.validate()
    if problems:
        raise ScenarioParseError("; ".join(problems))
    return config


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    return parse_scenario(path.read_text(), name_hint=path.stem)
