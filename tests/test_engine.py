from __future__ import annotations

import gc
import io
import json
import math

import pytest

from alertagent.engine import (
    AlertLog,
    Engine,
    alert_to_json,
    parse_scenario,
    read_alert_log,
    run_scenario,
    write_alert_log,
)
from alertagent.errors import AlertLogError, ScenarioError
from alertagent.kb import SafetyRecord, kb_to_text
from alertagent.model import (
    ALERT_KINDS,
    AgentConfig,
    Alert,
    BatteryAction,
    BatteryActionSpec,
)
from alertagent.sorter import MissedItemTally
from alertagent.tracker import TrackerTask

from helpers import contact_doc, kb_doc, kinds_of, load_kb_doc, log_text, make_scenario


def run(lines, kb_doc_dict=None, config=None):
    kb = load_kb_doc(kb_doc_dict or kb_doc())
    return run_scenario(make_scenario(lines), config or AgentConfig(), kb)


# -- parsing ----------------------------------------------------------------


def test_parse_empty_file():
    scenario = parse_scenario(io.StringIO(""))
    assert scenario.events == []


def test_parse_single_event_and_seq_by_line_number():
    text = '\n{"t": 0, "type": "battery_level", "pct": 50}\n'
    scenario = parse_scenario(io.StringIO(text))
    assert len(scenario.events) == 1
    assert scenario.events[0].seq == 2  # blank first line still counts


def test_parse_splits_lines_at_newline_only():
    text = (
        '{"t": 0, "type": "message_received", "caller": "a\u2028b\x85c"}\n'
        '{"t": 1, "type": "call_end"}'
    )
    scenario = parse_scenario(io.StringIO(text))
    assert scenario.events[0].data["caller"] == "a\u2028b\x85c"
    assert [ev.seq for ev in scenario.events] == [1, 2]


def test_parse_strips_json_whitespace_around_a_line():
    text = ' \t{"t": 0, "type": "call_end"}\t \r\n \t\r\n{"t": 1, "type": "call_end"}\r\n'
    scenario = parse_scenario(io.StringIO(text))
    assert [(ev.t, ev.seq) for ev in scenario.events] == [(0, 1), (1, 3)]


def test_parse_fills_defaults_and_drops_t_and_type_from_data():
    text = (
        '{"t": 0, "type": "call_start", "caller": "c1"}\n'
        '{"t": 1, "type": "call_start", "safety": true, "caller": "c2"}\n'
        '{"t": 2, "type": "call_end"}\n'
        '{"t": 3, "type": "battery_level", "pct": 50}\n'
    )
    events = parse_scenario(io.StringIO(text)).events
    assert events[0].data == {"caller": "c1", "safety": False}
    assert events[1].data == {"safety": True, "caller": "c2"}
    assert events[2].data == {}
    assert events[3].data == {"pct": 50}
    assert all("t" not in ev.data and "type" not in ev.data for ev in events)


def test_parse_rejects_out_of_range_pct():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(io.StringIO('{"t": 0, "type": "battery_level", "pct": 101}'))
    assert "pct" in str(err.value)


def test_parse_rejects_out_of_order_timestamps():
    text = (
        '{"t": 5, "type": "battery_level", "pct": 50}\n'
        '{"t": 4, "type": "battery_level", "pct": 50}'
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(io.StringIO(text))
    assert "line 2" in str(err.value)


def test_parse_names_the_bad_line_and_field():
    lines = ['{"t": %d, "type": "battery_level", "pct": 50}' % i for i in range(6)]
    lines.append('{"t": 9, "type": "call_start"}')  # missing caller on line 7
    with pytest.raises(ScenarioError) as err:
        parse_scenario(io.StringIO("\n".join(lines)))
    message = str(err.value)
    assert "line 7" in message and "caller" in message


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "object"),
        ('{"t": 0}', "type"),
        ('{"t": 0, "type": "warp"}', "unknown event type"),
        ('{"type": "call_end"}', "'t'"),
        ('{"t": -1, "type": "call_end"}', "'t'"),
        ('{"t": 0, "type": "call_end", "bogus": 1}', "unknown field"),
        ('{"t": 0, "type": "user_response", "prompt_id": "p1", "answer": "maybe"}', "answer"),
        ('{"t": 0, "type": "sensor", "signal_kind": "sonar", "signal_value": "x"}', "signal_kind"),
        ('{"t": 0, "type": "call_failed", "callee": "c", "reason": "lost"}', "reason"),
    ],
)
def test_parse_rejects_malformed_lines(line, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(io.StringIO(line))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"t":0} x', "invalid JSON: Extra data"),
        ("{}{}", "invalid JSON: Extra data"),
        ('{"t":0}]', "invalid JSON: Extra data"),
        (" x", "invalid JSON: Expecting value"),
        ("[]", "expected a JSON object"),
        ('{"a":NaN}', "invalid JSON: NaN is not a finite number"),
        ('{"a":1,"b":2,"a":3}', "invalid JSON: duplicate key 'a'"),
    ],
)
@pytest.mark.parametrize(
    "read, first, error",
    [
        (parse_scenario, '{"t":0,"type":"call_end"}', ScenarioError),
        (read_alert_log, '{"t":0,"seq":1,"kind":"ring","caller":"c"}', AlertLogError),
    ],
    ids=["scenario", "log"],
)
def test_line_errors_are_exact(read, first, error, line, message):
    with pytest.raises(error) as err:
        read(io.StringIO(f"{first}\n{line}\n"))
    assert str(err.value) == f"line 2: {message}"


# -- basic runs ---------------------------------------------------------------


def test_empty_scenario_changes_nothing():
    kb = load_kb_doc(kb_doc(contacts=[contact_doc("c1", "A")]))
    log, final_kb = run_scenario(make_scenario([]), AgentConfig(), kb)
    assert log.entries == [] and log.diagnostics == []
    assert final_kb == kb


def test_input_kb_is_not_mutated():
    kb = load_kb_doc(kb_doc(safety={"c2": {"total": 4, "unsafe": 1}}))
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 420_000, "type": "call_end"},
        {"t": 500_000, "type": "call_start", "caller": "c2"},
        {"t": 920_000, "type": "call_end"},
    ]
    _, final_kb = run_scenario(make_scenario(lines), AgentConfig(), kb)
    assert final_kb.safety_records["c2"] == SafetyRecord(total_calls=5, unsafe_calls=2)
    # The caller with a record already in the input keeps its old counts.
    assert kb.safety_records == {"c2": SafetyRecord(total_calls=4, unsafe_calls=1)}


def test_seven_minute_call_frozen_log():
    log, final_kb = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 420_000, "type": "call_end"},
        ]
    )
    assert [alert_to_json(a) for a in log.entries] == [
        '{"t":0,"seq":1,"kind":"ring","caller":"c1"}',
        '{"t":360000,"seq":2,"kind":"radiation_incall_warning","caller":"c1","exposure_ms":360000}',
    ]
    record = final_kb.safety_records["c1"]
    assert (record.total_calls, record.unsafe_calls) == (1, 1)


def test_alert_times_and_seqs_are_monotone():
    log, _ = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 1000, "type": "call_end"},
            {"t": 2000, "type": "message_received", "caller": "c2"},
            {"t": 900_000, "type": "snapshot_request"},
        ]
    )
    times = [a.t for a in log.entries]
    seqs = [a.seq for a in log.entries]
    assert times == sorted(times)
    assert seqs == sorted(set(seqs))


# -- composition ---------------------------------------------------------------


def test_precall_warning_fires_from_history():
    doc = kb_doc(safety={"c1": {"total": 4, "unsafe": 2}})
    log, _ = run([{"t": 0, "type": "call_start", "caller": "c1"}], doc)
    assert "radiation_precall_warning" in kinds_of(log)
    warning = next(a for a in log.entries if a.kind == "radiation_precall_warning")
    assert warning.payload == {"caller": "c1", "probability": 0.5}


def test_no_precall_warning_without_enough_history():
    doc = kb_doc(safety={"c1": {"total": 2, "unsafe": 2}})
    log, _ = run([{"t": 0, "type": "call_start", "caller": "c1"}], doc)
    assert "radiation_precall_warning" not in kinds_of(log)


def test_sleep_session_gates_calls_but_not_messages():
    doc = kb_doc(contacts=[contact_doc("d1", "D")])
    lines = [{"t": 0, "type": "sleep_mode", "on": True}]
    t = 1000
    for _ in range(3):
        lines.append({"t": t, "type": "call_start", "caller": "d1"})
        lines.append({"t": t + 100, "type": "call_end"})
        t += 1000
    lines.append({"t": t, "type": "message_received", "caller": "d1"})
    log, _ = run(lines, doc)
    assert kinds_of(log) == ["suppress_note", "suppress_note", "suppress_note", "beep"]


def test_suppressed_calls_still_reach_the_callback_list():
    doc = kb_doc(contacts=[contact_doc("d1", "D")])
    lines = [
        {"t": 0, "type": "sleep_mode", "on": True},
        {"t": 1000, "type": "call_start", "caller": "d1"},
        {"t": 1100, "type": "call_end"},
        {"t": 2000, "type": "snapshot_request"},
    ]
    log, _ = run(lines, doc)
    snapshot = next(a for a in log.entries if a.kind == "sorted_list_snapshot")
    assert snapshot.payload["entries"] == [
        {"caller": "d1", "kind": "call", "score": pytest.approx(1.0)}
    ]


def test_attending_a_ring_clears_the_missed_item():
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 200, "type": "notification_attended", "alert_id": 1},
        {"t": 300, "type": "snapshot_request"},
    ]
    log, _ = run(lines)
    snapshot = next(a for a in log.entries if a.kind == "sorted_list_snapshot")
    assert snapshot.payload["entries"] == []


def test_attending_unknown_alert_is_a_diagnostic():
    log, _ = run([{"t": 0, "type": "notification_attended", "alert_id": 42}])
    assert log.entries == []
    assert any("unknown alert id 42" in note for note in log.diagnostics)


def test_battery_burst_snapshot_matches_sorter_state():
    doc = kb_doc(contacts=[contact_doc("a1", "A"), contact_doc("b1", "B")])
    config = AgentConfig()
    lines = [
        {"t": 0, "type": "call_start", "caller": "b1"},
        {"t": 1000, "type": "call_end"},
        {"t": 2000, "type": "message_received", "caller": "a1"},
        {"t": 60_000, "type": "battery_level", "pct": 3},
    ]
    log, _ = run(lines, doc, config)
    snapshot = next(a for a in log.entries if a.kind == "sorted_list_snapshot")
    assert snapshot.t == 60_000

    tally = MissedItemTally()
    tally.add("b1", "call", 0)
    tally.add("a1", "message", 2000)
    kb = load_kb_doc(doc)
    expected = [
        {"caller": caller, "kind": kind, "score": score}
        for caller, kind, score in tally.snapshot(kb, 60_000, config.sorter_t_floor_min)
    ]
    assert snapshot.payload["entries"] == expected


def test_battery_divert_replaces_ring_and_inform_reacts():
    doc = kb_doc(contacts=[contact_doc("a1", "A"), contact_doc("b1", "B")])
    config = AgentConfig(
        battery_actions=(
            BatteryActionSpec(kind=BatteryAction.INFORM_CALLER),
            BatteryActionSpec(kind=BatteryAction.DIVERT_GROUP_A, destination="+1-999"),
        )
    )
    lines = [
        {"t": 0, "type": "battery_level", "pct": 3},
        {"t": 1000, "type": "call_start", "caller": "a1"},
        {"t": 2000, "type": "call_end"},
        {"t": 3000, "type": "call_start", "caller": "b1"},
        {"t": 4000, "type": "call_end"},
    ]
    log, _ = run(lines, doc, config)
    kinds = kinds_of(log)
    # Burst first: snapshot + one battery_action per configured action.
    assert kinds[:3] == ["sorted_list_snapshot", "battery_action", "battery_action"]
    # Group A call: inform + divert, no ring. Group B call: inform + ring.
    a_alerts = [a for a in log.entries if a.payload.get("caller") == "a1"]
    assert [a.kind for a in a_alerts] == ["battery_action", "battery_action"]
    assert [a.payload["action"] for a in a_alerts] == ["inform_caller", "divert_group_a"]
    assert a_alerts[1].payload["destination"] == "+1-999"
    b_alerts = [a for a in log.entries if a.payload.get("caller") == "b1"]
    assert [a.kind for a in b_alerts] == ["battery_action", "ring"]


def test_every_ring_or_suppress_maps_to_one_call():
    doc = kb_doc(contacts=[contact_doc("d1", "D")])
    lines = [
        {"t": 0, "type": "sleep_mode", "on": True},
        {"t": 1000, "type": "call_start", "caller": "d1"},
        {"t": 1100, "type": "call_end"},
        {"t": 2000, "type": "call_start", "caller": "x9"},
        {"t": 2100, "type": "call_end"},
        {"t": 3000, "type": "sleep_mode", "on": False},
        {"t": 4000, "type": "call_start", "caller": "d1"},
        {"t": 4100, "type": "call_end"},
    ]
    log, _ = run(lines, doc)
    decisions = [a for a in log.entries if a.kind in ("ring", "suppress_note")]
    calls = [l for l in lines if l["type"] == "call_start"]
    assert len(decisions) == len(calls)


# -- tracker through the engine ------------------------------------------------


def test_tracker_full_flow_through_engine():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 5000, "type": "delivery_report", "tracking_msg_id": "m1", "positive": False},
        {"t": 9000, "type": "delivery_report", "tracking_msg_id": "m1", "positive": True},
    ]
    log, _ = run(lines)
    assert kinds_of(log) == ["prompt", "tracker_message", "tracker_notify"]
    notify = log.entries[-1]
    assert notify.payload == {"prompt_id": "p1", "callee": "c3", "tracking_msg_id": "m1"}


def test_tracker_timeout_fires_during_drain():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "switched_off"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    log, _ = run(lines)
    assert kinds_of(log) == ["prompt", "tracker_message", "tracker_expired"]
    expired = log.entries[-1]
    assert expired.t == 86_400_001  # created at t=0, strict timeout


def test_late_report_after_timeout_is_ignored():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 90_000_000, "type": "delivery_report", "tracking_msg_id": "m1", "positive": True},
    ]
    log, _ = run(lines)
    assert kinds_of(log) == ["prompt", "tracker_message", "tracker_expired"]


def test_late_report_for_a_minted_id_is_silent_and_any_other_id_is_a_diagnostic():
    too_long = "m" + "1" * 5000  # past int()'s digit limit for strings
    unknown = ("m3", "m0", "m01", too_long)
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 0, "type": "call_failed", "callee": "c4", "reason": "unreachable"},
        {"t": 1, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 1, "type": "user_response", "prompt_id": "p2", "answer": "yes"},
        {"t": 2, "type": "delivery_report", "tracking_msg_id": "m2", "positive": True},
        # m2 is the last id minted and its task has settled: stale, no diagnostic
        {"t": 3, "type": "delivery_report", "tracking_msg_id": "m2", "positive": True},
        *(
            {"t": 4, "type": "delivery_report", "tracking_msg_id": msg_id, "positive": True}
            for msg_id in unknown
        ),
    ]
    log, _ = run(lines)
    assert kinds_of(log) == [
        "prompt",
        "prompt",
        "tracker_message",
        "tracker_message",
        "tracker_notify",
        "tracker_expired",
    ]
    assert log.entries[-1].payload["tracking_msg_id"] == "m1"
    assert log.diagnostics == [
        f"t=4: delivery_report for unknown tracking id {msg_id!r}" for msg_id in unknown
    ]


def test_settled_tracker_tasks_are_not_kept():
    lines = []
    for i in range(1000):
        t = 10 * i
        lines += [
            {"t": t, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
            {"t": t + 1, "type": "user_response", "prompt_id": f"p{i + 1}", "answer": "yes"},
            {
                "t": t + 2,
                "type": "delivery_report",
                "tracking_msg_id": f"m{i + 1}",
                "positive": True,
            },
        ]
    scenario = make_scenario(lines)

    def live_tasks() -> int:
        gc.collect()
        return sum(isinstance(obj, TrackerTask) for obj in gc.get_objects())

    before = live_tasks()
    engine = Engine(AgentConfig(), load_kb_doc(kb_doc()))
    log = engine.run(scenario)
    assert kinds_of(log).count("tracker_notify") == 1000
    assert live_tasks() - before == 0
    assert engine.tracker._open == {}


def test_response_to_settled_prompt_goes_to_diagnostics():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "no"},
        {"t": 2000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    log, _ = run(lines)
    assert kinds_of(log) == ["prompt"]
    assert any("p1" in note for note in log.diagnostics)


# -- forwarding through the engine ----------------------------------------------


FORWARD_KB = kb_doc(
    devices=[
        {"device_id": "tv", "contexts": ["Home"], "kinds": ["ring", "beep"]},
        {"device_id": "laptop", "contexts": ["Home", "Workspace"], "kinds": ["beep"]},
    ]
)


def test_unattended_ring_forwards_at_the_deadline():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
    ]
    log, _ = run(lines, FORWARD_KB)
    forwards = [a for a in log.entries if a.kind == "forward_to_device"]
    assert len(forwards) == 1
    assert forwards[0].t == 61_000
    assert forwards[0].payload["device_id"] == "tv"
    assert forwards[0].payload["alert"]["kind"] == "ring"
    assert forwards[0].payload["alert"]["seq"] == 1


def test_attended_alert_never_forwards():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 31_000, "type": "notification_attended", "alert_id": 1},
    ]
    log, _ = run(lines, FORWARD_KB)
    assert "forward_to_device" not in kinds_of(log)


def test_forwarding_uses_context_at_the_deadline_instant():
    doc = kb_doc(
        devices=[{"device_id": "desk", "contexts": ["Workspace"], "kinds": ["ring"]}]
    )
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 30_000, "type": "user_context", "context": "Workspace"},
    ]
    log, _ = run(lines, doc)
    forwards = [a for a in log.entries if a.kind == "forward_to_device"]
    assert [f.payload["device_id"] for f in forwards] == ["desk"]


def test_no_forwarding_while_context_unknown():
    lines = [
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
    ]
    log, _ = run(lines, FORWARD_KB)
    assert "forward_to_device" not in kinds_of(log)


def test_internal_deadline_fires_before_same_instant_event():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 61_000, "type": "message_received", "caller": "c2"},
    ]
    log, _ = run(lines, FORWARD_KB)
    at_deadline = [a.kind for a in log.entries if a.t == 61_000]
    assert at_deadline == ["forward_to_device", "beep"]


def test_same_instant_deadlines_fire_by_subsystem():
    # A crossing, a tracker timeout and an attendance deadline all at 360 000.
    doc = kb_doc(devices=[{"device_id": "tv", "contexts": ["Home"], "kinds": ["beep"]}])
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 1, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 300_000, "type": "message_received", "caller": "c2"},
        {"t": 400_000, "type": "call_end"},
    ]
    log, _ = run(lines, doc, AgentConfig(tracker_timeout_ms=359_999))
    at_instant = [a.kind for a in log.entries if a.t == 360_000]
    assert at_instant == ["radiation_incall_warning", "tracker_expired", "forward_to_device"]


def test_same_instant_tracker_timeouts_fire_in_acceptance_order():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 0, "type": "call_failed", "callee": "c4", "reason": "unreachable"},
        {"t": 1, "type": "user_response", "prompt_id": "p2", "answer": "yes"},
        {"t": 2, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    log, _ = run(lines, config=AgentConfig(tracker_timeout_ms=1000))
    expired = [a for a in log.entries if a.kind == "tracker_expired"]
    assert [(a.t, a.payload["prompt_id"]) for a in expired] == [(1001, "p2"), (1001, "p1")]


def test_attendance_at_the_deadline_instant_is_too_late():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 61_000, "type": "notification_attended", "alert_id": 1},
    ]
    log, _ = run(lines, FORWARD_KB)
    assert "forward_to_device" in kinds_of(log)


# -- exposure warnings through the engine ---------------------------------------


def test_warning_skipped_when_call_ends_exactly_on_the_limit():
    log, final_kb = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, "type": "call_end"},
        ]
    )
    assert "radiation_incall_warning" not in kinds_of(log)
    record = final_kb.safety_records["c1"]
    assert (record.total_calls, record.unsafe_calls) == (1, 0)


def test_warning_skipped_when_safety_starts_exactly_on_the_limit():
    log, _ = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, "type": "safety_mode_enter"},
            {"t": 400_000, "type": "call_end"},
        ]
    )
    assert "radiation_incall_warning" not in kinds_of(log)


def test_warning_fires_when_unrelated_event_shares_the_instant():
    log, _ = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, "type": "message_received", "caller": "c2"},
            {"t": 400_000, "type": "call_end"},
        ]
    )
    at_limit = [a.kind for a in log.entries if a.t == 360_000]
    assert at_limit == ["radiation_incall_warning", "beep"]


def test_open_call_at_scenario_end_is_abandoned():
    log, final_kb = run([{"t": 0, "type": "call_start", "caller": "c1"}])
    warnings = [a for a in log.entries if a.kind == "radiation_incall_warning"]
    assert warnings == []
    assert final_kb.safety_records == {}
    assert any("still active" in note for note in log.diagnostics)


def test_overlapping_call_start_goes_to_diagnostics():
    log, final_kb = run(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 1000, "type": "call_start", "caller": "c2"},
            {"t": 2000, "type": "call_end"},
        ]
    )
    assert any("another call is active" in note for note in log.diagnostics)
    # The overlapping call still rings and still counts as a missed item.
    assert kinds_of(log).count("ring") == 2
    assert "c1" in final_kb.safety_records and "c2" not in final_kb.safety_records


def test_safety_transition_outside_a_call_is_a_diagnostic():
    log, _ = run([{"t": 0, "type": "safety_mode_enter"}])
    assert log.entries == []
    assert any("no active call" in note for note in log.diagnostics)


# -- determinism and log io -----------------------------------------------------


def test_same_scenario_runs_identically():
    doc = kb_doc(contacts=[contact_doc("a1", "A")])
    lines = [
        {"t": 0, "type": "call_start", "caller": "a1"},
        {"t": 500_000, "type": "call_end"},
        {"t": 500_500, "type": "snapshot_request"},
    ]
    outputs = set()
    for _ in range(3):
        log, final_kb = run(lines, doc)
        outputs.add(log_text(log) + "|" + kb_to_text(final_kb))
    assert len(outputs) == 1


def test_alert_log_round_trip():
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 200, "type": "snapshot_request"},
    ]
    log, _ = run(lines)
    text = log_text(log)
    parsed = read_alert_log(io.StringIO(text))
    assert [(a.t, a.seq, a.kind) for a in parsed] == [
        (a.t, a.seq, a.kind) for a in log.entries
    ]
    assert parsed[-1].payload["entries"] == log.entries[-1].payload["entries"]


def test_write_alert_log_gives_a_path_the_same_bytes_as_a_stream(tmp_path):
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 150, "type": "message_received", "caller": "Zo\u00e9"},
        {"t": 200, "type": "snapshot_request"},
    ]
    log, _ = run(lines)
    path, stream = tmp_path / "log.jsonl", io.StringIO()
    write_alert_log(log, path)
    write_alert_log(log, stream)
    assert stream.getvalue() == "".join(alert_to_json(alert) + "\n" for alert in log.entries)
    assert path.read_bytes() == stream.getvalue().encode("utf-8")
    assert len(log.entries) == 3 and path.read_bytes().isascii()


def test_rewriting_a_read_log_sorts_top_level_keys_and_keeps_nested_ones():
    text = (
        '{"t":0,"seq":1,"kind":"ring","caller":"Zo\u00e9"}\n'
        '{"kind":"suppress_note", "ring_at":2,"t":7,"count":1,"seq":2,"caller":"c3"}\n'
        '{"t":60000,"seq":3,"kind":"forward_to_device","device_id":"d1",'
        '"alert":{"seq":1,"t":0,"caller":"c1","kind":"ring"}}\n'
        '{"t":60001,"seq":4,"kind":"sorted_list_snapshot",'
        '"entries":[{"score":3,"kind":"call","caller":"c3"}]}\n'
    )
    out = io.StringIO()
    write_alert_log(AlertLog(entries=read_alert_log(io.StringIO(text))), out)
    assert out.getvalue() == (
        '{"t":0,"seq":1,"kind":"ring","caller":"Zo\\u00e9"}\n'
        '{"t":7,"seq":2,"kind":"suppress_note","caller":"c3","count":1,"ring_at":2}\n'
        '{"t":60000,"seq":3,"kind":"forward_to_device",'
        '"alert":{"seq":1,"t":0,"caller":"c1","kind":"ring"},"device_id":"d1"}\n'
        '{"t":60001,"seq":4,"kind":"sorted_list_snapshot",'
        '"entries":[{"score":3,"kind":"call","caller":"c3"}]}\n'
    )


# One line of every alert kind as a read-back log may hold it: keys out of
# order in a nested alert, integer and float scores, non-ASCII and astral callers.
_EVERY_KIND_LOG = (
    '{"t":0,"seq":1,"kind":"ring","caller":"Zoé"}\n'
    '{"t":1,"seq":2,"kind":"beep","caller":"\U0001f600 \\"q\\""}\n'
    '{"t":2,"seq":3,"kind":"suppress_note","caller":"c1","count":2,"ring_at":3}\n'
    '{"t":3,"seq":4,"kind":"prompt","prompt_id":"p1","callee":"cé2","reason":"dropped"}\n'
    '{"t":4,"seq":5,"kind":"tracker_message","prompt_id":"p1","callee":"c2",'
    '"tracking_msg_id":"m1"}\n'
    '{"t":5,"seq":6,"kind":"tracker_notify","prompt_id":"p1","callee":"c2",'
    '"tracking_msg_id":"m1"}\n'
    '{"t":6,"seq":7,"kind":"tracker_expired","prompt_id":"p2","callee":"c3",'
    '"tracking_msg_id":"m2"}\n'
    '{"t":7,"seq":8,"kind":"radiation_precall_warning","caller":"c1",'
    '"probability":0.30000000000000004}\n'
    '{"t":8,"seq":9,"kind":"radiation_incall_warning","caller":"c1","exposure_ms":360000}\n'
    '{"t":9,"seq":10,"kind":"battery_action","action":"inform_caller","caller":"c1"}\n'
    '{"t":9,"seq":11,"kind":"battery_action","destination":"+1-555","action":"send_status_sms"}\n'
    '{"t":60000,"seq":12,"kind":"forward_to_device","device_id":"d\U0001f4f1",'
    '"alert":{"seq":1,"t":0,"caller":"Zoé","kind":"ring","extra":[1,{"b":2,"a":1.5}]}}\n'
    '{"t":60001,"seq":13,"kind":"sorted_list_snapshot","entries":['
    '{"score":3,"kind":"call","caller":"c3"},{"caller":"c1","kind":"call","score":1e-07},'
    '{"caller":"\U0001f600","kind":"message","score":1e+16},'
    '{"caller":"Zoé","kind":"message","score":0.30000000000000004}]}\n'
)


def test_alert_to_json_is_compact_json_dumps_for_every_kind():
    alerts = read_alert_log(io.StringIO(_EVERY_KIND_LOG))
    assert {alert.kind for alert in alerts} == set(ALERT_KINDS)
    for alert in alerts:
        assert alert_to_json(alert) == json.dumps(alert.to_record(), separators=(",", ":"))


@pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
def test_alert_to_json_refuses_a_non_finite_number(score):
    entries = [{"caller": "c1", "kind": "call", "score": score}]
    with pytest.raises(ValueError):
        alert_to_json(Alert(0, 1, "sorted_list_snapshot", {"entries": entries}))


def test_alert_table_covers_every_alert_kind():
    # Seeded tests draw samples from ALERT_KINDS, so its order is part of them.
    assert ALERT_KINDS == (
        "ring", "beep", "suppress_note", "prompt", "tracker_message", "tracker_notify",
        "tracker_expired", "radiation_precall_warning", "radiation_incall_warning",
        "battery_action", "forward_to_device", "sorted_list_snapshot",
    )


@pytest.mark.parametrize(
    "line, fragment",
    [
        ('{"t":0,"seq":1,"kind":"ring","caller":"c","extra":1}', "unknown field 'extra'"),
        (
            '{"t":0,"seq":1,"kind":"suppress_note","caller":"c","count":1}',
            "missing field 'ring_at'",
        ),
        ('{"t":0,"seq":true,"kind":"ring","caller":"c"}', "field 'seq' must be an integer"),
        ('{"t":0,"seq":1,"kind":"battery_action","action":"shout"}', "field 'action'"),
        ('{"t":0,"seq":1,"kind":"forward_to_device","device_id":"d","alert":[]}', "field 'alert'"),
        (
            '{"t":0,"seq":1,"kind":"sorted_list_snapshot",'
            '"entries":[{"caller":"c","kind":"call"}]}',
            "field 'entries' item 0: missing field 'score'",
        ),
    ],
)
def test_read_alert_log_checks_each_kinds_payload(line, fragment):
    with pytest.raises(AlertLogError) as err:
        read_alert_log(io.StringIO(line))
    assert str(err.value).startswith("line 1: ")
    assert fragment in str(err.value)
