"""Forwarding of unattended user-facing alerts to registered devices."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .context import Context
from .model import Alert


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


class AttendanceLedger:
    """Pending user-facing alerts keyed by alert seq, the next one due first.

    An alert is due for forwarding ``window_ms`` after it was raised. Alerts
    must be tracked in (t, seq) order, as the engine raises them; insertion
    order is then deadline order, and an attended alert leaves no deadline.
    """

    def __init__(self, window_ms: int) -> None:
        self.window_ms = window_ms
        # An OrderedDict reaches its first item in O(1); a dict popped from the
        # front leaves holes that next(iter()) must step over.
        self._pending: OrderedDict[int, Alert] = OrderedDict()

    def track(self, alert: Alert) -> None:
        self._pending[alert.seq] = alert

    def attend(self, alert_seq: int) -> bool:
        """Remove a pending entry. True if the alert was still pending."""
        return self._pending.pop(alert_seq, None) is not None

    def next_deadline(self) -> int | None:
        """Deadline of the earliest alert still pending."""
        return next(iter(self._pending.values())).t + self.window_ms if self._pending else None

    def pop_due(self) -> Alert:
        """Take out the earliest pending alert, now due (see next_deadline)."""
        return self._pending.popitem(last=False)[1]
