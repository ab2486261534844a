"""Deterministic event-driven smartphone alert agent.

Replays timestamped device/user event traces through a rule-based alert
policy (callback-priority sorting, suppression-session gating, battery
actions, call-exposure warnings, reachability tracking, device forwarding)
and produces a reproducible alert log.
"""

from .context import Context, ContextEngine
from .engine import AlertLog, Engine, Scenario, parse_scenario, read_alert_log, write_alert_log
from .errors import AlertLogError, ConfigError, InputError, KnowledgeBaseError, ScenarioError
from .kb import DeviceRegistration, KnowledgeBase, SafetyRecord, load_kb, save_kb
from .config import load_config
from .model import (
    AgentConfig, Alert, BatteryAction, BatteryActionSpec, Contact, Event, Group, group_weight,
)
from .sleep import alert_ordinal

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "Alert", "AlertLog", "AlertLogError", "BatteryAction", "BatteryActionSpec",
    "ConfigError", "Contact", "Context", "ContextEngine", "DeviceRegistration", "Engine", "Event",
    "Group", "InputError", "KnowledgeBase", "KnowledgeBaseError", "SafetyRecord", "Scenario",
    "ScenarioError", "alert_ordinal", "group_weight", "load_config", "load_kb", "parse_scenario",
    "read_alert_log", "save_kb", "write_alert_log", "__version__",
]
