"""The registered devices that an unattended user-facing alert is forwarded to."""

from __future__ import annotations

from dataclasses import dataclass

from .context import Context


@dataclass(frozen=True)
class DeviceRegistration:
    """A device that accepts certain alert kinds while in certain contexts."""

    device_id: str
    contexts: frozenset[Context]
    kinds: frozenset[str]


def matching_devices(
    devices: list[DeviceRegistration], current: Context, alert_kind: str
) -> list[DeviceRegistration]:
    """Devices registered for (current context, alert kind), in registry order.

    Forwarding is inert while the context is Unknown.
    """
    if current is Context.UNKNOWN:
        return []
    return [d for d in devices if current in d.contexts and alert_kind in d.kinds]

