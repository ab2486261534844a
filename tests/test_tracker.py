from __future__ import annotations

import gc
import random

from alertagent.tracker import CallerTracker, TrackerTask

DAY_MS = 86_400_000


def held(tracker: CallerTracker) -> tuple[dict, dict, dict]:
    """The tracker's open state: (callee -> task, prompt id -> task, tracking id -> task)."""
    return tracker._open, tracker._consent, tracker._delivery


def expire_due(tracker: CallerTracker, t: float) -> list[TrackerTask]:
    """Expire every delivery wait due by ``t``, as the engine fires them: earliest
    first, same-instant ones in acceptance order (the stable sort keeps the index's
    insertion order). Returns what ``expire`` returned."""
    due = sorted(
        (task for task in tracker._delivery.values() if task.expires_ms <= t),
        key=lambda task: task.expires_ms,
    )
    return [tracker.expire(task.tracking_msg_id) for task in due]


def test_failed_call_opens_consent_prompt():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    assert task is not None
    assert task.prompt_id == "p1"
    # awaiting consent
    assert held(tracker) == ({"c3": task}, {"p1": task}, {})


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
    assert outcome == "accepted" and updated is task
    assert updated.tracking_msg_id == "m1"
    # awaiting delivery
    assert held(tracker) == ({"c3": task}, {}, {"m1": task})


def test_consent_no_declines_without_message():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    outcome, updated = tracker.on_user_response(1000, task.prompt_id, "no")
    assert outcome == "declined" and updated is task
    assert updated.tracking_msg_id is None
    # settled and forgotten
    assert held(tracker) == ({}, {}, {})


def test_response_to_declined_prompt_is_ignored():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "no")
    outcome, ignored = tracker.on_user_response(2000, task.prompt_id, "yes")
    assert outcome == "ignored" and ignored is None
    assert held(tracker) == ({}, {}, {})


def test_response_to_unknown_prompt_is_ignored():
    tracker = CallerTracker(DAY_MS)
    outcome, task = tracker.on_user_response(0, "p404", "yes")
    assert outcome == "ignored" and task is None


def test_positive_report_notifies_exactly_once():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    outcome, done = tracker.on_delivery_report(2000, "m1", positive=True)
    assert outcome == "done" and done is task
    assert held(tracker) == ({}, {}, {})
    outcome, _ = tracker.on_delivery_report(3000, "m1", positive=True)
    assert outcome == "stale"


def test_negative_report_keeps_waiting():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    outcome, waiting = tracker.on_delivery_report(2000, "m1", positive=False)
    assert outcome == "negative" and waiting is task
    assert held(tracker) == ({"c3": task}, {}, {"m1": task})


def test_report_for_unknown_id_is_ignored():
    tracker = CallerTracker(DAY_MS)
    outcome, task = tracker.on_delivery_report(0, "m404", positive=True)
    assert outcome == "unknown" and task is None


def test_expiry_requires_strictly_exceeding_the_timeout():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    due = task.expires_ms
    assert due > 3_600_000
    assert DAY_MS < due <= DAY_MS + 3_600_000
    assert due == DAY_MS + 1  # the first instant strictly past the timeout
    expired = tracker.expire("m1")
    assert expired is task
    assert held(tracker) == ({}, {}, {})
    assert tracker.expire("m1") is None


def test_consent_after_the_timeout_expires_at_once():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(2 * DAY_MS, task.prompt_id, "yes")
    assert task.expires_ms == 2 * DAY_MS
    assert tracker.expire("m1") is task
    assert held(tracker) == ({}, {}, {})


def test_expire_leaves_settled_tasks_alone():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    assert tracker.on_delivery_report(2000, "m1", positive=True) == ("done", task)
    # The settled task's timeout is dropped, never fired.
    assert tracker.expire("m1") is None
    assert held(tracker) == ({}, {}, {})


def test_settled_tasks_are_not_kept():
    def live_tasks() -> int:
        gc.collect()
        return sum(isinstance(obj, TrackerTask) for obj in gc.get_objects())

    tracker = CallerTracker(DAY_MS)
    before = live_tasks()
    for i in range(1, 1001):
        t = 10 * i
        assert tracker.on_call_failed(t, "c3", "unreachable").prompt_id == f"p{i}"
        assert tracker.on_user_response(t + 1, f"p{i}", "yes")[0] == "accepted"
        assert tracker.on_delivery_report(t + 2, f"m{i}", positive=True)[0] == "done"
    # The tracker is still alive here, and holds none of the 1000 settled tasks.
    assert live_tasks() - before == 0
    assert all(tracker.expire(f"m{i}") is None for i in range(1, 1001))


def test_positive_report_after_expiry_is_stale():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    assert tracker.expire("m1") is task
    outcome, _ = tracker.on_delivery_report(2 * DAY_MS + 1, "m1", positive=True)
    assert outcome == "stale"


def test_new_task_allowed_after_terminal_state():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "no")
    again = tracker.on_call_failed(2000, "c3", "unreachable")
    assert again is not None and again.prompt_id == "p2"


def test_report_for_an_id_never_minted_is_unknown():
    tracker = CallerTracker(DAY_MS)
    task = tracker.on_call_failed(0, "c3", "unreachable")
    tracker.on_user_response(1000, task.prompt_id, "yes")
    tracker.on_delivery_report(2000, "m1", positive=True)
    assert tracker.on_delivery_report(3000, "m1", positive=False) == ("stale", None)
    for msg_id in ("m2", "m0", "m01", "m+1", "m 1", "m1_0", "m\uff11", "M1", "m", "p1", "m-1"):
        assert tracker.on_delivery_report(3000, msg_id, positive=True) == ("unknown", None)
    # Past the int-string digit limit, int() raises ValueError rather than parsing.
    assert tracker.on_delivery_report(3000, "m" + "9" * 5000, positive=True)[0] == "unknown"


def test_random_interleavings_keep_invariants():
    rng = random.Random(271828)
    callees = ["a", "b", "c"]
    for _ in range(300):
        tracker = CallerTracker(DAY_MS)
        tasks = {}  # prompt id -> task, every task opened
        settled: set[str] = set()  # prompt ids
        notified: dict[str, int] = {}
        t = 0
        for _ in range(rng.randrange(0, 60)):
            t += rng.randrange(1, 3_600_000)
            roll = rng.random()
            if roll < 0.35:
                task = tracker.on_call_failed(t, rng.choice(callees), "unreachable")
                if task is not None:
                    tasks[task.prompt_id] = task
            elif roll < 0.55:
                prompt_id = f"p{rng.randrange(1, 12)}"
                outcome, task = tracker.on_user_response(t, prompt_id, rng.choice(("yes", "no")))
                if outcome == "declined":
                    settled.add(task.prompt_id)
            elif roll < 0.8:
                msg_id = f"m{rng.randrange(1, 12)}"
                outcome, task = tracker.on_delivery_report(t, msg_id, rng.random() < 0.5)
                if outcome == "done":
                    notified[task.prompt_id] = notified.get(task.prompt_id, 0) + 1
                    settled.add(task.prompt_id)
            else:
                for expired in expire_due(tracker, t):
                    assert t - expired.created_ms > DAY_MS
                    settled.add(expired.prompt_id)
            # at most one open task per callee, at any instant; the tracker
            # holds exactly the open tasks, each in the index of its state
            open_tasks = [x for p, x in tasks.items() if p not in settled]
            assert len({x.callee_id for x in open_tasks}) == len(open_tasks)
            assert tracker._open == {x.callee_id: x for x in open_tasks}
            assert tracker._consent == {
                x.prompt_id: x for x in open_tasks if x.tracking_msg_id is None
            }
            assert tracker._delivery == {
                x.tracking_msg_id: x for x in open_tasks if x.tracking_msg_id is not None
            }
        # each task notifies at most once
        assert all(count == 1 for count in notified.values())
