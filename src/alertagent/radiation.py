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

from dataclasses import dataclass

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


@dataclass
class CallSession:
    caller_id: str
    start_ms: int
    # Start of the current exposure stretch; None exactly while in safety mode.
    exposure_start_ms: int | None
    warnings_in_epoch: int = 0


class CallMonitor:
    """At most one active call; tracks its timers and pending warning point."""

    def __init__(self, safe_limit_ms: int):
        self.safe_limit_ms = safe_limit_ms
        self.session: CallSession | None = None

    def start_call(self, t: int, caller_id: str, safety: bool) -> None:
        self.session = CallSession(
            caller_id=caller_id,
            start_ms=t,
            exposure_start_ms=None if safety else t,
        )

    def on_safety(self, t: int, entering: bool) -> None:
        """Apply a safety-mode transition; repeating the current state is a no-op."""
        session = self.session
        if session is None or entering == (session.exposure_start_ms is None):
            return
        session.exposure_start_ms = None if entering else t
        session.warnings_in_epoch = 0

    def end_call(self, t: int) -> tuple[str, int]:
        """Close the call; returns (caller id, main timer duration)."""
        session = self.session
        assert session is not None, "no active call"
        self.session = None
        return session.caller_id, t - session.start_ms

    def abandon_call(self) -> str:
        """Drop the active call without classifying it (scenario ended mid-call)."""
        session = self.session
        assert session is not None, "no active call"
        self.session = None
        return session.caller_id

    def main_timer_ms(self, t: int) -> int:
        assert self.session is not None, "no active call"
        return t - self.session.start_ms

    def exposure_ms(self, t: int) -> int:
        """Current continuous exposure; 0 while in safety mode or with no call."""
        session = self.session
        if session is None or session.exposure_start_ms is None:
            return 0
        return t - session.exposure_start_ms

    def next_warning_at(self) -> int | None:
        """Absolute time at which the next exposure warning would be due."""
        session = self.session
        if session is None or session.exposure_start_ms is None:
            return None
        return session.exposure_start_ms + (session.warnings_in_epoch + 1) * self.safe_limit_ms

    def note_warning(self) -> int:
        """Count an emitted warning; returns the exposure it was issued at."""
        session = self.session
        assert session is not None and session.exposure_start_ms is not None
        session.warnings_in_epoch += 1
        return session.warnings_in_epoch * self.safe_limit_ms
