"""Per-caller gating of incoming-call audio alerts during a suppression session.

A session covers sleep, meetings, study and similar do-not-disturb periods.
While one is active a caller's calls stay silent until their group-dependent
ordinal is reached; the ordinal call rings and the caller's counter restarts.
"""

from __future__ import annotations

from .model import Group, group_weight

RING = "ring"
SUPPRESS = "suppress"


def alert_ordinal(group: Group, temp_important: bool) -> int:
    """Call number (within a session) on which the audible alert fires.

    Temporarily-important callers always ring on their first call. Otherwise
    the ordinal is (4 - weight) * 2, clamped to at least 1, so group A rings
    immediately and group D rings on the sixth call.
    """
    if temp_important:
        return 1
    return max(1, (4 - group_weight(group)) * 2)


class SleepGate:
    """Per-caller call counters for the active suppression session, if any."""

    def __init__(self) -> None:
        self.active = False
        self._counts: dict[str, int] = {}

    def set_active(self, on: bool) -> None:
        """Start or stop a session; counters reset either way. Idempotent."""
        if on == self.active:
            return
        self.active = on
        self._counts.clear()

    def on_call(self, caller_id: str, ordinal: int) -> tuple[str, int]:
        """Decide ring/suppress for one incoming call.

        Returns the decision and the caller's session count after this call.
        Outside a session every call rings and nothing is counted.
        """
        if not self.active:
            return RING, 0
        count = self._counts.get(caller_id, 0) + 1
        if count >= ordinal:
            self._counts.pop(caller_id, None)
            return RING, count
        self._counts[caller_id] = count
        return SUPPRESS, count
