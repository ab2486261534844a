"""Reachability tracking for failed outgoing calls.

Each failed call may open one task: the user is prompted for consent, a
tracking message goes out on yes, and a positive delivery report means the
callee's phone is reachable again. Tasks are per callee and at most one may
be open per callee at a time. A settled task is forgotten.
"""

from __future__ import annotations


class TrackerTask:
    __slots__ = ("callee_id", "prompt_id", "created_ms", "reason", "tracking_msg_id", "expires_ms")

    def __init__(self, callee_id: str, prompt_id: str, created_ms: int, reason: str) -> None:
        self.callee_id, self.prompt_id, self.created_ms, self.reason = (
            callee_id, prompt_id, created_ms, reason)
        self.tracking_msg_id: str | None = None
        self.expires_ms: int | None = None  # when the delivery wait times out, set on consent


class CallerTracker:
    """Owns the open tracking tasks of one run and mints their ids.

    A task's state is the index that holds it: ``_consent`` by prompt id while
    it awaits consent, ``_delivery`` by tracking id while it awaits delivery.
    Ids are minted in sequence (``p<n>``, ``m<n>``), so a report for an id the
    tracker minted but no longer waits on is told apart from an unknown one.

    A delivery wait expires once it runs strictly past ``timeout_ms`` counted
    from the failed call, or at once if consent came later than that.
    """

    def __init__(self, timeout_ms: int) -> None:
        self.timeout_ms = timeout_ms
        self._prompts = 0  # prompt ids minted
        self._messages = 0  # tracking message ids minted
        self._open: dict[str, TrackerTask] = {}  # callee -> its open task
        self._consent: dict[str, TrackerTask] = {}
        self._delivery: dict[str, TrackerTask] = {}

    def on_call_failed(self, t: int, callee_id: str, reason: str) -> TrackerTask | None:
        """Open a consent prompt for the callee; None while one is already open."""
        if callee_id in self._open:
            return None
        self._prompts += 1
        task = TrackerTask(callee_id, f"p{self._prompts}", t, reason)
        self._consent[task.prompt_id] = self._open[callee_id] = task
        return task

    def on_user_response(
        self, t: int, prompt_id: str, answer: str
    ) -> tuple[str, TrackerTask | None]:
        """Apply a yes/no answer to a prompt.

        Outcomes: "accepted" (tracking message created, ``expires_ms``
        set), "declined", or "ignored" for prompts not awaiting consent.
        """
        task = self._consent.pop(prompt_id, None)
        if task is None:
            return "ignored", None
        if answer != "yes":
            del self._open[task.callee_id]
            return "declined", task
        self._messages += 1
        task.tracking_msg_id = f"m{self._messages}"
        self._delivery[task.tracking_msg_id] = task
        task.expires_ms = max(t, task.created_ms + self.timeout_ms + 1)
        return "accepted", task

    def _minted(self, tracking_msg_id: str) -> bool:
        """Whether the id is one this tracker handed out: "m<n>" for 1 <= n <= minted."""
        try:
            n = int(tracking_msg_id[1:])
        except ValueError:  # not a number, or past the int-string digit limit
            return False
        return 1 <= n <= self._messages and f"m{n}" == tracking_msg_id

    def on_delivery_report(
        self, t: int, tracking_msg_id: str, positive: bool
    ) -> tuple[str, TrackerTask | None]:
        """Apply a delivery report.

        Outcomes: "done" (callee reachable, notify the user), "negative"
        (keep waiting), "stale" (minted, but its task already settled), or
        "unknown".
        """
        task = self._delivery.get(tracking_msg_id)
        if task is None:
            return ("stale" if self._minted(tracking_msg_id) else "unknown"), None
        if not positive:
            return "negative", task
        del self._delivery[tracking_msg_id], self._open[task.callee_id]
        return "done", task

    def expire(self, tracking_msg_id: str) -> TrackerTask | None:
        """Settle and return the task whose delivery wait ran out; None if it has settled."""
        task = self._delivery.pop(tracking_msg_id, None)
        if task is not None:
            del self._open[task.callee_id]
        return task
