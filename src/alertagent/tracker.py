"""Reachability tracking for failed outgoing calls.

Each failed call may open one task: the user is prompted for consent, a
tracking message goes out on yes, and a positive delivery report means the
callee's phone is reachable again. Tasks are per callee and at most one may
be open (non-terminal) per callee at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum


class TrackerState(str, Enum):
    AWAITING_CONSENT = "awaiting_consent"
    AWAITING_DELIVERY = "awaiting_delivery"
    DONE = "done"
    DECLINED = "declined"
    EXPIRED = "expired"


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
    """Owns all tracking tasks for one run, mints their ids and times out delivery waits.

    A delivery wait expires once it runs strictly past ``timeout_ms`` counted
    from the failed call, or at once if consent came later than that.
    """

    def __init__(self, timeout_ms: int) -> None:
        self.timeout_ms = timeout_ms
        self.tasks: dict[str, TrackerTask] = {}  # every task opened, by prompt id
        self._open: dict[str, TrackerTask] = {}  # callee -> its non-terminal task
        self._by_msg: dict[str, TrackerTask] = {}
        # (due, acceptance number, task); the number breaks ties in acceptance order.
        self._expiries: list[tuple[int, int, TrackerTask]] = []

    def _settle(self, task: TrackerTask, state: TrackerState) -> None:
        task.state = state
        del self._open[task.callee_id]

    def on_call_failed(self, t: int, callee_id: str, reason: str) -> TrackerTask | None:
        """Open a consent prompt for the callee; None while one is already open."""
        if callee_id in self._open:
            return None
        task = TrackerTask(
            callee_id=callee_id,
            state=TrackerState.AWAITING_CONSENT,
            prompt_id=f"p{len(self.tasks) + 1}",
            created_ms=t,
            reason=reason,
        )
        self.tasks[task.prompt_id] = task
        self._open[callee_id] = task
        return task

    def on_user_response(
        self, t: int, prompt_id: str, answer: str
    ) -> tuple[str, TrackerTask | None]:
        """Apply a yes/no answer to a prompt.

        Outcomes: "accepted" (tracking message created, delivery timeout
        scheduled), "declined", or "ignored" for unknown prompts and prompts
        no longer awaiting consent.
        """
        task = self.tasks.get(prompt_id)
        if task is None or task.state is not TrackerState.AWAITING_CONSENT:
            return "ignored", task
        if answer == "yes":
            accepted = len(self._by_msg) + 1
            task.tracking_msg_id = f"m{accepted}"
            task.state = TrackerState.AWAITING_DELIVERY
            self._by_msg[task.tracking_msg_id] = task
            due = max(t, task.created_ms + self.timeout_ms + 1)
            heapq.heappush(self._expiries, (due, accepted, task))
            return "accepted", task
        self._settle(task, TrackerState.DECLINED)
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
        self._settle(task, TrackerState.DONE)
        return "done", task

    def next_deadline(self) -> int | None:
        """Earliest delivery timeout not yet popped, whether or not its task settled."""
        return self._expiries[0][0] if self._expiries else None

    def expire(self) -> TrackerTask | None:
        """Pop the earliest delivery timeout; its task, now expired, or None if it settled first."""
        _due, _accepted, task = heapq.heappop(self._expiries)
        if task.state is not TrackerState.AWAITING_DELIVERY:
            return None
        self._settle(task, TrackerState.EXPIRED)
        return task
