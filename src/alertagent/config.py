"""Agent configuration file loading. Absent fields take the built-in defaults."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any

from .errors import ConfigError
from .model import (
    AgentConfig, BatteryAction, BatteryActionSpec, check_fields, need_int, need_str, need_type,
    read_json,
)

_INT = need_int(required=False)
_NUMBER = need_type(float, required=False)  # read as a float, even when written as 1

# Types only: AgentConfig holds the defaults and AgentConfig.validate the ranges.
_CONFIG = {
    "battery_critical_pct": _INT,
    "battery_rearm_pct": _INT,
    "safe_call_limit_ms": _INT,
    "precall_prob_threshold": _NUMBER,
    "precall_min_calls": _INT,
    "attend_window_ms": _INT,
    "tracker_timeout_ms": _INT,
    "sorter_t_floor_min": _NUMBER,
    "battery_actions": need_type(list, required=False),
}
_ACTIONS = {a.value: a for a in BatteryAction}
_ACTION = {"kind": need_str(_ACTIONS), "destination": need_type(str, required=False)}


def config_from_dict(doc: Any) -> AgentConfig:
    """The config a document describes; ``doc`` is left unchanged."""
    check_fields(doc, _CONFIG, "config", ConfigError)
    values = {
        name: float(value) if _CONFIG[name] is _NUMBER else value for name, value in doc.items()
    }
    if "battery_actions" in doc:
        specs = []
        for index, obj in enumerate(doc["battery_actions"]):
            check_fields(obj, _ACTION, f"battery_actions[{index}]", ConfigError)
            specs.append(BatteryActionSpec(_ACTIONS[obj["kind"]], obj.get("destination", "")))
        values["battery_actions"] = tuple(specs)
    config = AgentConfig(**values)
    config.validate()
    return config


def load_config(source: str | Path | IO[str]) -> AgentConfig:
    return config_from_dict(read_json(source, ConfigError))
