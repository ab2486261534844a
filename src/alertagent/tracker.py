"""Reachability tracking for failed outgoing calls.

Each failed call may open one task: the user is prompted for consent, a
tracking message goes out on yes, and a positive delivery report means the
callee's phone is reachable again. Tasks are per callee and at most one may
be open (non-terminal) per callee at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class TrackerState(str, Enum):
    AWAITING_CONSENT = "awaiting_consent"
    AWAITING_DELIVERY = "awaiting_delivery"
    DONE = "done"
    DECLINED = "declined"
    EXPIRED = "expired"


TERMINAL_STATES = frozenset(
    {TrackerState.DONE, TrackerState.DECLINED, TrackerState.EXPIRED}
)

FAILURE_REASONS = ("switched_off", "unreachable", "dropped")


@dataclass
class TrackerTask:
    callee_id: str
    state: TrackerState
    prompt_id: str
    created_ms: int
    reason: str
    tracking_msg_id: str | None = None


class CallerTracker:
    """Owns all tracking tasks for one run and mints their ids."""

    def __init__(self) -> None:
        self.tasks: list[TrackerTask] = []
        self._by_prompt: dict[str, TrackerTask] = {}
        self._by_msg: dict[str, TrackerTask] = {}
        self._prompt_count = 0
        self._msg_count = 0

    def active_task(self, callee_id: str) -> TrackerTask | None:
        for task in self.tasks:
            if task.callee_id == callee_id and task.state not in TERMINAL_STATES:
                return task
        return None

    def on_call_failed(self, t: int, callee_id: str, reason: str) -> TrackerTask | None:
        """Open a consent prompt for the callee; None while one is already open."""
        if self.active_task(callee_id) is not None:
            return None
        self._prompt_count += 1
        task = TrackerTask(
            callee_id=callee_id,
            state=TrackerState.AWAITING_CONSENT,
            prompt_id=f"p{self._prompt_count}",
            created_ms=t,
            reason=reason,
        )
        self.tasks.append(task)
        self._by_prompt[task.prompt_id] = task
        return task

    def on_user_response(
        self, t: int, prompt_id: str, answer: str
    ) -> tuple[str, TrackerTask | None]:
        """Apply a yes/no answer to a prompt.

        Outcomes: "accepted" (tracking message created), "declined", or
        "ignored" for unknown prompts and prompts no longer awaiting consent.
        """
        task = self._by_prompt.get(prompt_id)
        if task is None or task.state is not TrackerState.AWAITING_CONSENT:
            return "ignored", task
        if answer == "yes":
            self._msg_count += 1
            task.tracking_msg_id = f"m{self._msg_count}"
            task.state = TrackerState.AWAITING_DELIVERY
            self._by_msg[task.tracking_msg_id] = task
            return "accepted", task
        task.state = TrackerState.DECLINED
        return "declined", task

    def on_delivery_report(
        self, t: int, tracking_msg_id: str, positive: bool
    ) -> tuple[str, TrackerTask | None]:
        """Apply a delivery report.

        Outcomes: "done" (callee reachable, notify the user), "negative"
        (keep waiting), "stale" (task already terminal), or "unknown".
        """
        task = self._by_msg.get(tracking_msg_id)
        if task is None:
            return "unknown", None
        if task.state is not TrackerState.AWAITING_DELIVERY:
            return "stale", task
        if not positive:
            return "negative", task
        task.state = TrackerState.DONE
        return "done", task

    def expire(self, prompt_id: str, now: int, timeout_ms: int) -> TrackerTask | None:
        """Expire a delivery wait that has outlived the timeout; else None."""
        task = self._by_prompt.get(prompt_id)
        if (
            task is not None
            and task.state is TrackerState.AWAITING_DELIVERY
            and now - task.created_ms > timeout_ms
        ):
            task.state = TrackerState.EXPIRED
            return task
        return None
