"""Bundled experiment scenarios."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .scenario_io import load_scenario, parse_scenario
from .simulator import ScenarioConfig

BUNDLED = (
    "fig5-dependencies",
    "fig6-realtime",
    "fig6-deadline",
    "fig7-monitor",
    "fig9-loadbalancer",
)


def _bundled_text(name: str) -> str:
    ref = resources.files(__package__) / "scenarios" / f"{name}.ini"
    return ref.read_text(encoding="utf-8")


def load_bundled(name: str) -> ScenarioConfig:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled scenario: {name}")
    return parse_scenario(_bundled_text(name), name_hint=name)


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) for every bundled scenario."""
    return [(name, load_bundled(name).description) for name in BUNDLED]


def resolve(name_or_path: str) -> ScenarioConfig:
    """Load a bundled scenario by name, or any scenario file by path."""
    if name_or_path in BUNDLED:
        return load_bundled(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise FileNotFoundError(f"scenario not found: {name_or_path}")
    return load_scenario(path)
