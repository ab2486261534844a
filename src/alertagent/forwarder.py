"""Forwarding of unattended user-facing alerts to registered devices."""

from __future__ import annotations

from collections import deque
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
    """Pending user-facing alerts keyed by alert seq, and a queue of their deadlines.

    An alert is due for forwarding ``window_ms`` after it was raised. Alerts
    must be tracked in (t, seq) order, as the engine raises them; the queue
    is then ordered by (deadline, seq) without sorting.
    """

    def __init__(self, window_ms: int) -> None:
        self.window_ms = window_ms
        self._pending: dict[int, Alert] = {}
        self._deadlines: deque[tuple[int, int]] = deque()

    def track(self, alert: Alert) -> None:
        self._pending[alert.seq] = alert
        self._deadlines.append((alert.t + self.window_ms, alert.seq))

    def attend(self, alert_seq: int) -> bool:
        """Remove a pending entry. True if the alert was still pending."""
        return self._pending.pop(alert_seq, None) is not None

    def next_deadline(self) -> int | None:
        """Earliest deadline not yet popped, whether or not its alert was attended."""
        return self._deadlines[0][0] if self._deadlines else None

    def pop_due(self) -> Alert | None:
        """Pop the earliest deadline; its alert, or None if it was attended in time."""
        _deadline, alert_seq = self._deadlines.popleft()
        return self._pending.pop(alert_seq, None)
