from __future__ import annotations

from alertagent.context import Context
from alertagent.forwarder import AttendanceLedger, DeviceRegistration, matching_devices
from alertagent.model import Alert


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


def test_ledger_tracks_with_deadline():
    ledger = AttendanceLedger(window_ms=60_000)
    assert ledger.next_deadline() is None
    alert = Alert(t=1000, seq=1, kind="ring", fields='"caller":"c1"')
    ledger.track(alert)
    assert ledger.next_deadline() == 61_000


def test_attend_removes_entry_once():
    ledger = AttendanceLedger(window_ms=60_000)
    ledger.track(Alert(t=0, seq=1, kind="ring", fields=""))
    assert ledger.attend(1) is True
    assert ledger.attend(1) is False
    # An attended alert leaves no deadline behind.
    assert ledger.next_deadline() is None


def test_pop_due_takes_the_alert_out():
    ledger = AttendanceLedger(window_ms=60_000)
    alert = Alert(t=0, seq=7, kind="beep", fields="")
    ledger.track(alert)
    assert ledger.pop_due() is alert
    assert ledger.next_deadline() is None
    assert ledger.attend(7) is False


def test_entries_are_independent():
    ledger = AttendanceLedger(window_ms=10)
    ledger.track(Alert(t=0, seq=1, kind="ring", fields=""))
    beep = Alert(t=5, seq=2, kind="beep", fields="")
    ledger.track(beep)
    assert ledger.attend(1) is True
    assert ledger.next_deadline() == 15
    assert ledger.pop_due() is beep
    assert ledger.next_deadline() is None


def test_attending_a_middle_alert_keeps_deadline_order():
    ledger = AttendanceLedger(window_ms=10)
    alerts = [Alert(t=t, seq=seq, kind="ring", fields="") for seq, t in enumerate((0, 0, 4), 1)]
    for alert in alerts:
        ledger.track(alert)
    assert ledger.attend(2) is True
    assert ledger.next_deadline() == 10
    assert ledger.pop_due() is alerts[0]
    assert ledger.next_deadline() == 14
    assert ledger.pop_due() is alerts[2]
    assert ledger.next_deadline() is None
