"""Agent configuration file loading. Absent fields take the built-in defaults."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any

from .errors import ConfigError
from .model import (
    AgentConfig, BatteryAction, BatteryActionSpec, check_fields, need_int, need_str, need_type,
    read_json,
)

_NUMBER = need_type(float, required=False)  # read as a float, even when written as 1
# Each field, optional, checked by its default's type; a field of another type fails
# at import. AgentConfig holds the defaults and AgentConfig.validate the ranges.
_BY_TYPE = {int: need_int(required=False), float: _NUMBER, tuple: need_type(list, required=False)}
_CONFIG = {name: _BY_TYPE[type(default)] for name, default in AgentConfig._field_defaults.items()}
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
