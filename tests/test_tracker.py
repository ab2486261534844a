from __future__ import annotations

import random

from alertagent.tracker import CallerTracker, TrackerState

DAY_MS = 86_400_000
OPEN_STATES = (TrackerState.AWAITING_CONSENT, TrackerState.AWAITING_DELIVERY)


def test_failed_call_opens_consent_prompt():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    assert task is not None
    assert task.state is TrackerState.AWAITING_CONSENT
    assert task.prompt_id == "p1"


def test_duplicate_failure_is_idempotent_while_open():
    tracker = CallerTracker(DAY_MS)
    tracker.on_call_failed(0, "c3", "unreachable")
    assert tracker.on_call_failed(1000, "c3", "switched_off") is None


def test_failures_for_other_callees_are_independent():
    tracker = CallerTracker(DAY_MS)
    first = tracker.on_call_failed(0, "c3", "unreachable")
    second = tracker.on_call_failed(0, "c4", "dropped")
    assert second is not None and second.prompt_id != first.prompt_id


def test_consent_yes_creates_tracking_message():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    outcome, updated = tracker.on_user_response(1000, task.prompt_id, "yes")
    assert outcome == "accepted"
    assert updated.state is TrackerState.AWAITING_DELIVERY
    assert updated.tracking_msg_id == "m1"


def test_consent_no_declines_without_message():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    outcome, updated = tracker.on_user_response(1000, task.prompt_id, "no")
    assert outcome == "declined"
    assert updated.state is TrackerState.DECLINED
    assert updated.tracking_msg_id is None


def test_response_to_declined_prompt_is_ignored():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "no")
    outcome, _ = tracker.on_user_response(2000, task.prompt_id, "yes")
    assert outcome == "ignored"


def test_response_to_unknown_prompt_is_ignored():
    tracker = CallerTracker(DAY_MS)
    outcome, task = tracker.on_user_response(0, "p404", "yes")
    assert outcome == "ignored" and task is None


def test_positive_report_notifies_exactly_once():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    outcome, done = tracker.on_delivery_report(2000, "m1", positive=True)
    assert outcome == "done" and done.state is TrackerState.DONE
    outcome, _ = tracker.on_delivery_report(3000, "m1", positive=True)
    assert outcome == "stale"


def test_negative_report_keeps_waiting():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    outcome, waiting = tracker.on_delivery_report(2000, "m1", positive=False)
    assert outcome == "negative"
    assert waiting.state is TrackerState.AWAITING_DELIVERY


def test_report_for_unknown_id_is_ignored():
    tracker = CallerTracker(DAY_MS)
    outcome, task = tracker.on_delivery_report(0, "m404", positive=True)
    assert outcome == "unknown" and task is None


def test_expiry_requires_strictly_exceeding_the_timeout():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    due = tracker.next_deadline()
    assert due > 3_600_000
    assert DAY_MS < due <= DAY_MS + 3_600_000
    assert due == DAY_MS + 1  # the first instant strictly past the timeout
    expired = tracker.expire()
    assert expired is task and expired.state is TrackerState.EXPIRED
    assert tracker.next_deadline() is None


def test_consent_after_the_timeout_expires_at_once():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(2 * DAY_MS, task.prompt_id, "yes")
    assert tracker.next_deadline() == 2 * DAY_MS
    assert tracker.expire() is task and task.state is TrackerState.EXPIRED


def test_expire_leaves_settled_tasks_alone():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    tracker.on_delivery_report(2000, "m1", positive=True)
    assert tracker.next_deadline() == DAY_MS + 1
    assert tracker.expire() is None
    assert task.state is TrackerState.DONE
    assert tracker.next_deadline() is None


def test_positive_report_after_expiry_is_stale():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    assert tracker.expire() is task
    outcome, _ = tracker.on_delivery_report(2 * DAY_MS + 1, "m1", positive=True)
    assert outcome == "stale"


def test_new_task_allowed_after_terminal_state():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "no")
    again = tracker.on_call_failed(2000, "c3", "unreachable")
    assert again is not None and again.prompt_id == "p2"


def test_random_interleavings_keep_invariants():
    rng = random.Random(271828)
    callees = ["a", "b", "c"]
    for _ in range(300):
        tracker = CallerTracker(DAY_MS)
        notified: dict[str, int] = {}
        t = 0
        for _ in range(rng.randrange(0, 60)):
            t += rng.randrange(1, 3_600_000)
            roll = rng.random()
            if roll < 0.35:
                tracker.on_call_failed(t, rng.choice(callees), "unreachable")
            elif roll < 0.55:
                prompt_id = f"p{rng.randrange(1, 12)}"
                tracker.on_user_response(t, prompt_id, rng.choice(("yes", "no")))
            elif roll < 0.8:
                msg_id = f"m{rng.randrange(1, 12)}"
                outcome, task = tracker.on_delivery_report(t, msg_id, rng.random() < 0.5)
                if outcome == "done":
                    notified[task.prompt_id] = notified.get(task.prompt_id, 0) + 1
            else:
                while (due := tracker.next_deadline()) is not None and due <= t:
                    expired = tracker.expire()
                    assert expired is None or t - expired.created_ms > DAY_MS
            # at most one open task per callee, at any instant, and the open
            # index names exactly that task
            for callee in callees:
                open_tasks = [
                    x
                    for x in tracker.tasks.values()
                    if x.callee_id == callee and x.state in OPEN_STATES
                ]
                assert len(open_tasks) <= 1
                assert tracker._open.get(callee) is (open_tasks[0] if open_tasks else None)
        for task in tracker.tasks.values():
            expected = 1 if task.state is TrackerState.DONE else 0
            assert notified.get(task.prompt_id, 0) == expected
