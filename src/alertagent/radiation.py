"""Call-exposure tracking: main/continuous timers, warnings, safety statistics.

A call carries two timers. The main timer spans the whole call and decides
the safe/unsafe classification. The exposure timer measures the current
stretch of handset-at-ear time: it runs whenever the call is not in safety
mode (speakerphone, headphones, connected device), stops and clears on
entering safety mode, and restarts from zero on leaving it. An in-call
warning is due each time continuous exposure passes a whole multiple of the
safe limit.
"""

from __future__ import annotations

from .kb import SafetyRecord
from .model import AgentConfig


def unsafe_probability(record: SafetyRecord) -> float:
    """Fraction of a caller's past calls that were unsafe; 0.0 with no history."""
    if record.total_calls == 0:
        return 0.0
    return record.unsafe_calls / record.total_calls


def should_warn_precall(record: SafetyRecord | None, config: AgentConfig) -> bool:
    """Warn before the call when the caller's history is long and bad enough."""
    if record is None:
        return False
    if record.total_calls < config.precall_min_calls:
        return False
    return unsafe_probability(record) >= config.precall_prob_threshold


def is_unsafe_call(main_timer_ms: int, safe_limit_ms: int) -> bool:
    """A call is unsafe only if its total duration strictly exceeds the limit."""
    return main_timer_ms > safe_limit_ms


class CallMonitor:
    """At most one active call; tracks its timers and pending warning point."""

    def __init__(self, safe_limit_ms: int):
        self.safe_limit_ms = safe_limit_ms
        self.caller_id: str | None = None  # None exactly while no call is active
        self.start_ms = 0
        # Start of the current exposure stretch and the instant its next warning
        # is due; both None exactly while in safety mode or with no call.
        self.exposure_start_ms: int | None = None
        self.next_warning_ms: int | None = None

    def _expose(self, start_ms: int | None) -> None:
        """Begin an exposure stretch at ``start_ms``, or none (safety mode) if None."""
        self.exposure_start_ms = start_ms
        self.next_warning_ms = None if start_ms is None else start_ms + self.safe_limit_ms

    def start_call(self, t: int, caller_id: str, safety: bool) -> None:
        self.caller_id = caller_id
        self.start_ms = t
        self._expose(None if safety else t)

    def on_safety(self, t: int, entering: bool) -> None:
        """Apply a safety-mode transition; repeating the current state is a no-op."""
        if self.caller_id is not None and entering != (self.exposure_start_ms is None):
            self._expose(None if entering else t)

    def end_call(self, t: int) -> tuple[str, int]:
        """Close the call; returns (caller id, main timer duration)."""
        return self._close(), t - self.start_ms

    def abandon_call(self) -> str:
        """Drop the active call without classifying it (scenario ended mid-call)."""
        return self._close()

    def _close(self) -> str:
        caller_id = self.caller_id
        assert caller_id is not None, "no active call"
        self.caller_id = None
        self._expose(None)
        return caller_id

    def main_timer_ms(self, t: int) -> int:
        assert self.caller_id is not None, "no active call"
        return t - self.start_ms

    def exposure_ms(self, t: int) -> int:
        """Current continuous exposure; 0 while in safety mode or with no call."""
        return 0 if self.exposure_start_ms is None else t - self.exposure_start_ms

    def next_warning_at(self) -> int | None:
        """Absolute time at which the next exposure warning would be due."""
        return self.next_warning_ms

    def note_warning(self) -> int:
        """Move past the warning due now; returns the exposure it was issued at."""
        due = self.next_warning_ms
        assert due is not None and self.exposure_start_ms is not None
        self.next_warning_ms = due + self.safe_limit_ms
        return due - self.exposure_start_ms
