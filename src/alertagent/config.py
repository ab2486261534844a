"""Agent configuration file loading. Absent fields take the built-in defaults."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any

from .errors import ConfigError
from .model import AgentConfig, BatteryAction, BatteryActionSpec, read_json

_INT_FIELDS = (
    "battery_critical_pct",
    "battery_rearm_pct",
    "safe_call_limit_ms",
    "precall_min_calls",
    "attend_window_ms",
    "tracker_timeout_ms",
)
_FLOAT_FIELDS = ("precall_prob_threshold", "sorter_t_floor_min")
_ALL_FIELDS = _INT_FIELDS + _FLOAT_FIELDS + ("battery_actions",)

_ACTION_NAMES = tuple(a.value for a in BatteryAction)  # a set would raise TypeError on a list


def _parse_action(obj: Any, index: int) -> BatteryActionSpec:
    where = f"battery_actions[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    extra = [k for k in obj if k not in ("kind", "destination")]
    if extra:
        raise ConfigError(f"{where}: unknown field {extra[0]!r}")
    kind = obj.get("kind")
    if kind not in _ACTION_NAMES:
        raise ConfigError(f"{where}: kind must be one of {sorted(_ACTION_NAMES)}")
    destination = obj.get("destination", "")
    if not isinstance(destination, str):
        raise ConfigError(f"{where}: destination must be a string")
    return BatteryActionSpec(kind=BatteryAction(kind), destination=destination)


def config_from_dict(doc: Any) -> AgentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    extra = [k for k in doc if k not in _ALL_FIELDS]
    if extra:
        raise ConfigError(f"config: unknown field {extra[0]!r}")

    values: dict[str, Any] = {}
    for name in _INT_FIELDS:
        if name in doc:
            value = doc[name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name}: must be an integer")
            values[name] = value
    for name in _FLOAT_FIELDS:
        if name in doc:
            value = doc[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name}: must be a number")
            values[name] = float(value)
    if "battery_actions" in doc:
        raw = doc["battery_actions"]
        if not isinstance(raw, list):
            raise ConfigError("battery_actions: expected an array")
        values["battery_actions"] = tuple(
            _parse_action(item, index) for index, item in enumerate(raw)
        )

    config = AgentConfig(**values)
    config.validate()
    return config


def load_config(source: str | Path | IO[str]) -> AgentConfig:
    return config_from_dict(read_json(source, ConfigError))
