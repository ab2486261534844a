from __future__ import annotations

from alertagent.context import Context
from alertagent.kb import DeviceRegistration, matching_devices
from alertagent.model import AgentConfig

from helpers import kb_doc, records, replay


def make_devices():
    return [
        DeviceRegistration("tv", frozenset({Context.HOME}), frozenset({"ring", "beep"})),
        DeviceRegistration(
            "laptop", frozenset({Context.HOME, Context.WORKSPACE}), frozenset({"beep"})
        ),
        DeviceRegistration("watch", frozenset({Context.DRIVING}), frozenset({"ring"})),
    ]


def test_matching_filters_on_context_and_kind():
    devices = make_devices()
    assert [d.device_id for d in matching_devices(devices, Context.HOME, "ring")] == ["tv"]
    assert [d.device_id for d in matching_devices(devices, Context.HOME, "beep")] == [
        "tv",
        "laptop",
    ]
    assert [d.device_id for d in matching_devices(devices, Context.DRIVING, "beep")] == []


def test_forwarding_is_inert_in_unknown_context():
    devices = make_devices() + [
        DeviceRegistration("odd", frozenset({Context.UNKNOWN}), frozenset({"ring"}))
    ]
    assert matching_devices(devices, Context.UNKNOWN, "ring") == []


# -- when an unattended alert forwards, through the engine -----------------------


TV_KB = kb_doc(devices=[{"device_id": "tv", "contexts": ["Home"], "kinds": ["beep"]}])


def run_at_home(lines, window_ms=60_000):
    lines = [{"t": 0, "type": "user_context", "context": "Home"}, *lines]
    return replay(lines, TV_KB, AgentConfig(attend_window_ms=window_ms))


def forwarded(lines, window_ms=60_000):
    """(t, seq of the alert carried) of each forward in the run's log, and its diagnostics."""
    run = run_at_home(lines, window_ms)
    forwards = [r for r in records(run.log) if r["kind"] == "forward_to_device"]
    return [(r["t"], r["alert"]["seq"]) for r in forwards], run.diagnostics


def beep(t, caller="c1"):
    return {"t": t, "type": "message_received", "caller": caller}


def attend(t, alert_id):
    return {"t": t, "type": "notification_attended", "alert_id": alert_id}


def test_forward_is_due_one_window_after_the_alert():
    assert forwarded([beep(1000)]) == ([(61_000, 1)], [])
    assert forwarded([beep(1000)], window_ms=7) == ([(1007, 1)], [])


def test_attend_removes_entry_once():
    once = [beep(0), attend(10, 1), beep(30, "c2"), {"t": 40, "type": "snapshot_request"}]
    twice = once[:2] + [attend(20, 1)] + once[2:]
    # The second attend changes nothing: not the later alert's forward, not the
    # callback list, and it is no diagnostic.
    assert forwarded(twice) == ([(60_030, 2)], [])
    assert run_at_home(twice).log == run_at_home(once).log


def test_a_forwarded_alert_forwards_once():
    # Attended at its deadline instant is too late; the alert forwards there, once.
    assert forwarded([beep(0), attend(60_000, 1), attend(70_000, 1)]) == ([(60_000, 1)], [])


def test_entries_are_independent():
    assert forwarded([beep(0), beep(5, "c2"), attend(6, 1)], window_ms=10) == ([(15, 2)], [])


def test_attending_a_middle_alert_keeps_deadline_order():
    lines = [beep(0), beep(0, "c2"), beep(4, "c3"), attend(4, 2)]
    assert forwarded(lines, window_ms=10) == ([(10, 1), (14, 3)], [])
