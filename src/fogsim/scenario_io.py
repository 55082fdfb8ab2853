"""Scenario files: INI-style sections describing topology, services,
scheduler arms, monitor/balancer settings, and a timed workload script.

Sections: [scenario], [topology] (the reader builds the scenario's one
`Topology`, which checks itself), [nodes] (the `Node` parameters of every
node, and `override.<node>.<field>` of one; the reader builds one `Node` per
node, zone by zone in sorted order), one [service <name>] per service, one
[arm <name>] per scheduler configuration to run, optional [config <name>]
scheduler settings (`plugins`, `tie_break`) for a deploy's `using=`,
[monitor], [loadbalancer], and [workload] with one directive per line:

    at <t> deploy <service...> [using=<config>]
    at <t> pin <pod> <node>
    at <t> metric <service> <pod> <value>
    at <t> requests client=<node> service=<name> rate_hz=<hz> count=<n>
    at <t> link <zone> <one-way-ms>

Other than the structured keys (`zone.`, `uplink.`, `override.`,
`locations`, `config.<location>`, `depends_on`, `rt_processes`, `metric`,
`plugins`, `enabled`, `events`), a section key or a `depends_on`, `metric`
or `rt_processes` token sets the constructor parameter of its name, parsed
as the parameter's annotated type; an unset parameter keeps its default.
Token names that differ: `weight`, `lw`, `mw` (`dep_weight`,
`latency_weight`, `metric_weight`), `cpu` (`cpu_request`), `pid` and `name`
(the process selector's `pid` and `name_substring`).  An unknown key or
section, a `config.<location>` of an unlisted location and a repeated token
key are errors.  The file is configparser's INI dialect with `=` the only
delimiter and no interpolation: whole-line `#` or `;` comments, and values
continued on lines indented deeper than their key.  There is no `[DEFAULT]`
section; a malformed line, or a repeated section or key, is an error naming its line.
"""

from __future__ import annotations

import math
from pathlib import Path

from .cluster import DeadlinePolicy, DependencyRef, FifoPolicy, Node, RtProcessSpec, Topology
from .fogservice import FogServiceSpec, LocationScope
from .loadbalancer import POLICY_WEIGHTED
from .monitor import MonitorConfig
from .records import fields_of
from .simulator import ACTION_ARGS, ArmSpec, LbSettings, ScenarioConfig, WorkloadEvent
from .telemetry import MetricSpec


class ScenarioParseError(ValueError):
    pass


SCALARS = {"int": int, "float": float, "str": str}  # annotation string -> parser
TOKEN_KEYS = {"weight": "dep_weight", "lw": "latency_weight", "mw": "metric_weight",
              "cpu": "cpu_request"}


def _value(parse, where: str, key: str, value: str):
    """`value` read by `parse` (int, float or str); raises, naming `where`
    and `key`, on a value of the wrong type or a float that is not finite."""
    try:
        parsed = parse(value)
    except ValueError:
        parsed = None
    if parsed is None or parse is float and not math.isfinite(parsed):
        raise ScenarioParseError(f"{where}: {key}: expected "
                                 f"{'an integer' if parse is int else 'a finite number'}, "
                                 f"got {value!r}")
    return parsed


def _build(cls, where: str, items, renames=None, **given):
    """`cls` from `given` plus each (key, value) of `items`, which sets the int,
    float or str parameter of `cls` the key names, directly or through `renames`
    (a parameter renamed, or in `given`, takes no key of its own name).  Raises,
    naming `where`, on a key no parameter takes, a value of the wrong type, a
    required parameter unset or a value `cls` rejects."""
    names, types = fields_of(cls), cls.__init__.__annotations__
    required = names[:len(names) - len(cls.__init__.__defaults__ or ())]
    fields = {name: SCALARS[types[name]] for name in names
              if types.get(name) in SCALARS and name not in given}
    keys = {key: name for key, name in (renames or {}).items() if name in fields}
    keys.update((name, name) for name in fields if name not in keys.values())
    kwargs = dict(given)
    for key, value in items:
        if key not in keys:
            raise ScenarioParseError(f"{where}: unknown key {key!r}")
        kwargs[keys[key]] = _value(fields[keys[key]], where, key, value)
    missing = [key for key, name in keys.items() if name not in kwargs and name in required]
    if missing:
        raise ScenarioParseError(f"{where}: missing {', '.join(missing)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a range check names its field; a scenario check, its place
        raise ScenarioParseError(str(exc) if cls is ScenarioConfig else f"{where}: {exc}") from None


def _rest(section, structured) -> list[tuple[str, str]]:
    """`section`'s items but the `structured` keys (ending in '.': prefixes)."""
    prefixes = tuple(s for s in structured if s.endswith("."))
    return [(k, v) for k, v in section.items()
            if k not in structured and not k.startswith(prefixes)]


def _tokens(tokens: list[str], where: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ScenarioParseError(f"{where}: expected key=value, got {tok!r}")
        if key in out:
            raise ScenarioParseError(f"{where}: repeated key {key!r}")
        out[key] = value
    return out


def _parse_rt_process(line: str, where: str) -> RtProcessSpec:
    kind, *tokens = line.split()
    policies = {"deadline": DeadlinePolicy, "fifo": FifoPolicy}
    if kind not in policies:
        raise ScenarioParseError(f"{where}: unknown rt process kind: {kind}")
    kwargs = _tokens(tokens, where)
    pid, name = kwargs.pop("pid", None), kwargs.pop("name", None)
    policy = _build(policies[kind], where, kwargs.items(), TOKEN_KEYS)
    if pid is None and name is None:
        name = ""  # matches any process
    return _build(RtProcessSpec, where, (), policy=policy, name_substring=name,
                  pid=None if pid is None else _value(int, where, "pid", pid))


def _parse_line(cls, line: str, where: str, *positional: str):
    """`cls` from a line of `positional` values, then key=value tokens."""
    tokens = line.split()
    if len(tokens) < len(positional):
        raise ScenarioParseError(f"{where}: needs {' and '.join(positional)}: {line!r}")
    return _build(cls, where, _tokens(tokens[len(positional):], where).items(), TOKEN_KEYS,
                  **dict(zip(positional, tokens)))


SERVICE_KEYS = ("locations", "config.", "depends_on", "rt_processes", "metric")


def _parse_service(name: str, section) -> FogServiceSpec:
    where = f"[service {name}]"
    locations = None
    if "locations" in section:
        locations = []
        for tok in section["locations"].split():
            loc, _, count = tok.partition(":")
            config = _tokens(section.get("config." + loc, "").split(), f"{where} config.{loc}")
            count = {"replicas": _value(int, where, "locations", count)} if count else {}
            locations.append(_build(LocationScope, f"{where} locations", (), location=loc,
                                    config=config, **count))
    listed = {"config." + scope.location for scope in locations or ()}
    for key in section:
        if key.startswith("config.") and key not in listed:
            raise ScenarioParseError(f"{where}: {key} names no location in locations")
    deps = tuple(_parse_line(DependencyRef, line, f"{where} depends_on", "target_service")
                 for line in section.get("depends_on", "").splitlines() if line.strip())
    procs = tuple(_parse_rt_process(line, f"{where} rt_processes")
                  for line in section.get("rt_processes", "").splitlines() if line.strip())
    metric = (_parse_line(MetricSpec, section["metric"], f"{where} metric", "name", "direction")
              if "metric" in section else None)
    return _build(FogServiceSpec, where, _rest(section, SERVICE_KEYS), name=name,
                  locations=locations, rt_processes=procs, dependencies=deps, metric=metric)


def _parse_arm(where: str, name: str, section, **given) -> ArmSpec:
    given["name"] = name
    if "plugins" in section:
        plugins = [tok.partition(":") for tok in section["plugins"].split()]
        given["plugins"] = tuple((p, _value(float, where, "plugins", w) if w else 1.0)
                                 for p, _, w in plugins)
    return _build(ArmSpec, where, _rest(section, ("plugins",)), **given)


def _parse_workload_line(line: str) -> WorkloadEvent:
    """One directive's event; any malformed field raises ValueError."""
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "at":
        raise ValueError("must start with 'at <t>'")
    action, rest = tokens[2], tokens[3:]
    at = _value(float, action, "at", tokens[1])
    if action == "deploy":
        names = tuple(tok for tok in rest if "=" not in tok)
        options = _tokens([tok for tok in rest if "=" in tok], action)
        if not names or options.keys() - {"using"}:
            raise ValueError("deploy takes one or more services and an optional using=")
        return WorkloadEvent(at, "deploy", (names, options.get("using")))
    if action not in ACTION_ARGS:
        raise ValueError(f"unknown workload action: {action}")
    keys = ACTION_ARGS[action]
    if action == "requests":
        kwargs = _tokens(rest, action)
        if sorted(kwargs) != sorted(keys):
            raise ValueError("requests takes " + " ".join(f"{k}=" for k in keys))
        rate_hz = _value(float, action, "rate_hz", kwargs["rate_hz"])
        count = _value(int, action, "count", kwargs["count"])
        return WorkloadEvent(at, "requests",
                             (kwargs["client"], kwargs["service"], rate_hz, count))
    if len(rest) != len(keys):
        raise ValueError(f"{action} takes {len(keys)} arguments, got {len(rest)}")
    if action == "pin":
        return WorkloadEvent(at, "pin", (rest[0], rest[1]))
    # metric <service> <pod> <value>, link <zone> <one-way-ms>
    return WorkloadEvent(at, action, (*rest[:-1], _value(float, action, keys[-1], rest[-1])))


def parse_scenario(text: str, name_hint: str = "") -> ScenarioConfig:
    """Parse and validate a scenario; any malformed or inconsistent input
    raises ScenarioParseError."""
    try:
        return _parse_scenario(text, name_hint)
    except ScenarioParseError:
        raise
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None


SECTIONS = ("scenario", "topology", "nodes", "monitor", "loadbalancer", "workload")
BOOLEAN_STATES = {**dict.fromkeys(("1", "yes", "true", "on"), True),
                  **dict.fromkeys(("0", "no", "false", "off"), False)}


def read_sections(text: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of `text`, whose lines end at "\n" only; a value's
    lines are stripped and joined by "\n", and its blank lines dropped."""
    sections, section, lines, indent = {}, None, None, 0
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        depth = len(line) - len(line.lstrip())
        if lines is not None and depth > indent:
            lines.append(stripped)
            continue
        indent, lines, end = depth, None, stripped.rfind("]")
        if stripped[0] == "[" and end > 1:  # text after the last "]" is ignored
            name = stripped[1:end]
            if name in sections:
                raise ScenarioParseError(f"line {number}: repeated section {stripped!r}")
            section = sections[name] = {}
            continue
        key, eq, value = map(str.strip, stripped.partition("="))
        if section is None:
            raise ScenarioParseError(f"line {number}: {stripped!r} comes before any [section]")
        if not (eq and key):
            raise ScenarioParseError(f"line {number}: expected <key> = <value>, got {stripped!r}")
        if key in section:
            raise ScenarioParseError(f"line {number}: repeated key {key!r}")
        lines = section[key] = [value]
    return {name: {k: "\n".join(v) for k, v in keys.items()} for name, keys in sections.items()}


def _parse_scenario(text: str, name_hint: str) -> ScenarioConfig:
    sections = {"nodes": {}, "monitor": {}, "loadbalancer": {}, **read_sections(text)}

    for required in ("scenario", "topology", "workload"):
        if required not in sections:
            raise ScenarioParseError(f"missing [{required}] section")
    topo = sections["topology"]
    zones = {k[5:]: tuple(v.split()) for k, v in topo.items() if k.startswith("zone.")}
    if not zones:
        raise ScenarioParseError("topology defines no zones")
    topology = _build(Topology, "[topology]", _rest(topo, ("zone.", "uplink.")),
                      zones=zones, uplinks_ms={k[7:]: _value(float, "[topology]", k, v)
                                               for k, v in topo.items()
                                               if k.startswith("uplink.")})

    settable, listed = fields_of(Node)[1:], topology.zone_of
    settings = {}  # node id, or None for every node -> {field: value}
    for key, value in sections["nodes"].items():
        node_id, field = None, key
        if key.startswith("override."):
            node_id, dot, field = key[len("override."):].partition(".")
            if not dot:
                raise ScenarioParseError(f"[nodes]: {key}: expected override.<node>.<field>")
            if node_id not in listed:
                raise ScenarioParseError(f"[nodes]: {key}: unknown node")
        if field not in settable:
            raise ScenarioParseError(f"[nodes]: unknown key {key!r}")
        settings.setdefault(node_id, {})[field] = _value(int, "[nodes]", key, value)
    # zone by zone in sorted order, which decides the first bad node a scenario names
    nodes = tuple(Node(n, **{**settings.get(None, {}), **settings.get(n, {})})
                  for zone in sorted(zones) for n in zones[zone])

    named = {"service": [], "arm": [], "config": []}  # [<kind> <name>] sections
    for section_name, section in sections.items():
        kind, _, name = section_name.partition(" ")
        if not (kind in named if name else kind in SECTIONS):
            raise ScenarioParseError(f"unknown section [{section_name}]")
        if kind == "service":
            named[kind].append(_parse_service(name, section))
        elif kind in named:  # a deploy reads only a config's scheduler settings
            fixed = {"lb_policy": POLICY_WEIGHTED} if kind == "config" else {}
            named[kind].append(_parse_arm(f"[{section_name}]", name, section, **fixed))

    # built, and so checked, even when the monitor is off or unset
    monitor = _build(MonitorConfig, "[monitor]", _rest(sections["monitor"], ("enabled",)))
    enabled = sections["monitor"].get("enabled", "false").lower()
    if enabled not in BOOLEAN_STATES:
        raise ScenarioParseError(f"[monitor]: enabled: expected true or false, got {enabled!r}")
    monitor = monitor if BOOLEAN_STATES[enabled] else None

    lb = _build(LbSettings, "[loadbalancer]", sections["loadbalancer"].items())

    for key, _ in _rest(sections["workload"], ("events",)):
        raise ScenarioParseError(f"[workload]: unknown key {key!r}")
    workload = []
    for line in sections["workload"].get("events", "").splitlines():
        if line.strip():
            try:
                workload.append(_parse_workload_line(line))
            except ValueError as exc:
                raise ScenarioParseError(f"workload line {line.strip()!r}: {exc}") from None

    meta = sections["scenario"]
    ci = ([("ci_repetitions", meta["repetitions"])]  # the ci profile's default
          if "repetitions" in meta and "ci_repetitions" not in meta else [])
    return _build(ScenarioConfig, "[scenario]", [("name", name_hint or "scenario"),
                                                 *meta.items(), *ci],
                  topology=topology, nodes=nodes, services=tuple(named["service"]),
                  arms=tuple(named["arm"]), named_configs=tuple(named["config"]),
                  monitor=monitor, lb=lb, workload=tuple(workload))


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:  # a directory, no permission, ...
        raise ScenarioParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                                 f"{exc.start})") from None
    return parse_scenario(text, name_hint=path.stem)
