"""Environment inference: registry lookups for sensor signals, user pinning on top.

The user's explicit choice always wins. Once a user_context event has set the
context, sensor observations are ignored until the next user_context event.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping


class Context(str, Enum):
    HOME = "Home"
    WORKSPACE = "Workspace"
    DRIVING = "Driving"
    OUTDOOR = "Outdoor"
    UNKNOWN = "Unknown"


SENSOR_SIGNAL_KINDS: tuple[str, ...] = (
    "wifi_network",
    "audio_device",
    "accessory",
    "microphone_class",
    "proximity",
)


def signal_key(signal_kind: str, signal_value: str) -> str:
    """Registry key for a sensor observation, e.g. ``wifi_network:home-net``."""
    return f"{signal_kind}:{signal_value}"


class ContextEngine:
    """Tracks the current context for one run. Starts at Unknown, unpinned."""

    def __init__(self, registry: Mapping[str, Context]):
        self._registry = dict(registry)
        self.current = Context.UNKNOWN
        self.user_pinned = False

    def apply_user(self, context: Context) -> None:
        """User input sets the context unconditionally and pins it."""
        self.current = context
        self.user_pinned = True

    def apply_sensor(self, signal_kind: str, signal_value: str) -> None:
        """Registered signals switch the context unless the user pinned one."""
        if not self.user_pinned:
            self.current = self._registry.get(signal_key(signal_kind, signal_value), self.current)
