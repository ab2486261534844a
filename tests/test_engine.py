from __future__ import annotations

import gc
import io
import json
import math
import subprocess
import sys
import time

import pytest

from alertagent.cli import main
from alertagent.config import load_config
from alertagent.engine import parse_scenario, read_alert_log
from alertagent.errors import AlertLogError, ScenarioError
from alertagent.kb import SafetyRecord, load_kb
from alertagent.model import (
    ALERT_KINDS,
    AgentConfig,
    BatteryAction,
    BatteryActionSpec,
    Event,
)
from alertagent.sorter import MissedItemTally

from helpers import (
    ROOT,
    contact_doc,
    decoded,
    entry_dicts,
    kb_doc,
    kb_text,
    kinds_of,
    load_bench_gen,
    load_kb_doc,
    log_text,
    make_scenario,
    records,
    replay,
    rewrite,
)


def payload(record):
    """A log record without its t, seq and kind."""
    return {key: value for key, value in record.items() if key not in ("t", "seq", "kind")}


def canonical(record):
    """The compact ``json.dumps`` of a record with its keys in log order: t, seq,
    kind, then the payload's keys sorted; nested values as they are."""
    head = {key: record[key] for key in ("t", "seq", "kind")}
    rest = payload(record)
    return json.dumps(head | {key: rest[key] for key in sorted(rest)}, separators=(",", ":"))


# -- parsing ----------------------------------------------------------------


def test_parse_empty_file():
    assert list(parse_scenario(io.StringIO(""))) == []


def test_parse_single_event_and_seq_by_line_number():
    text = '\n{"t": 0, "type": "battery_level", "pct": 50}\n'
    events = list(parse_scenario(io.StringIO(text)))
    assert len(events) == 1
    assert events[0].seq == 2  # blank first line still counts


def test_parse_splits_lines_at_newline_only():
    text = (
        '{"t": 0, "type": "message_received", "caller": "a\u2028b\x85c"}\n'
        '{"t": 1, "type": "call_end"}'
    )
    events = list(parse_scenario(io.StringIO(text)))
    assert events[0].data["caller"] == "a\u2028b\x85c"
    assert [ev.seq for ev in events] == [1, 2]


def test_parse_strips_json_whitespace_around_a_line():
    text = ' \t{"t": 0, "type": "call_end"}\t \r\n \t\r\n{"t": 1, "type": "call_end"}\r\n'
    events = list(parse_scenario(io.StringIO(text)))
    assert [(ev.t, ev.seq) for ev in events] == [(0, 1), (1, 3)]


def test_parse_leaves_omitted_fields_out_and_drops_t_and_type_from_data():
    text = (
        '{"t": 0, "type": "call_start", "caller": "c1"}\n'
        '{"t": 1, "type": "call_start", "safety": true, "caller": "c2"}\n'
        '{"t": 2, "type": "call_end"}\n'
        '{"t": 3, "type": "battery_level", "pct": 50}\n'
    )
    events = list(parse_scenario(io.StringIO(text)))
    assert events[0].data == {"caller": "c1"}  # an omitted safety stays omitted
    assert events[1].data == {"safety": True, "caller": "c2"}
    assert events[2].data == {}
    assert events[3].data == {"pct": 50}
    assert all("t" not in ev.data and "type" not in ev.data for ev in events)


def test_parse_rejects_out_of_range_pct():
    with pytest.raises(ScenarioError) as err:
        list(parse_scenario(io.StringIO('{"t": 0, "type": "battery_level", "pct": 101}')))
    assert "pct" in str(err.value)


def test_parse_rejects_out_of_order_timestamps():
    text = (
        '{"t": 5, "type": "battery_level", "pct": 50}\n'
        '{"t": 4, "type": "battery_level", "pct": 50}'
    )
    with pytest.raises(ScenarioError) as err:
        list(parse_scenario(io.StringIO(text)))
    assert str(err.value) == "line 2: timestamp 4 is earlier than the previous event at 5"


def test_parse_names_the_bad_line_and_field():
    lines = ['{"t": %d, "type": "battery_level", "pct": 50}' % i for i in range(6)]
    lines.append('{"t": 9, "type": "call_start"}')  # missing caller on line 7
    with pytest.raises(ScenarioError) as err:
        list(parse_scenario(io.StringIO("\n".join(lines))))
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
        list(parse_scenario(io.StringIO(line)))
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
        list(read(io.StringIO(f"{first}\n{line}\n")))
    assert str(err.value) == f"line 2: {message}"


_EVENT = '{"t":0,"type":"call_end"}'
_ALERT = '{"t":0,"seq":1,"kind":"ring","caller":"c"}'


@pytest.mark.parametrize(
    "read, first, line, message",
    [
        (parse_scenario, _EVENT, '{"t":1}', "line 2: missing field 'type'"),
        (parse_scenario, _EVENT, '{"t":1,"type":null}',
         "line 2: field 'type' names an unknown event type: None"),
        (parse_scenario, _EVENT, '{"t":1,"type":["call_end"]}',
         "line 2: field 'type' names an unknown event type: ['call_end']"),
        (parse_scenario, _EVENT, '{"t":1,"type":5}',
         "line 2: field 'type' names an unknown event type: 5"),
        (parse_scenario, _EVENT, '{"t":1,"type":"warp"}',
         "line 2: field 'type' names an unknown event type: 'warp'"),
        (parse_scenario, _EVENT, '{"t":-1,"type":"warp","x":1}',
         "line 2: field 'type' names an unknown event type: 'warp'"),
        (read_alert_log, _ALERT, '{"t":0,"seq":2}', "line 2: missing field 'kind'"),
        (read_alert_log, _ALERT, '{"t":0,"seq":2,"kind":null}',
         "line 2: field 'kind' names an unknown alert kind: None"),
        (read_alert_log, _ALERT, '{"t":0,"seq":2,"kind":["ring"]}',
         "line 2: field 'kind' names an unknown alert kind: ['ring']"),
        (read_alert_log, _ALERT, '{"t":0,"seq":2,"kind":5}',
         "line 2: field 'kind' names an unknown alert kind: 5"),
        (read_alert_log, _ALERT, '{"t":0,"seq":2,"kind":"shout"}',
         "line 2: field 'kind' names an unknown alert kind: 'shout'"),
        (read_alert_log, _ALERT, '{"t":"x","seq":2,"kind":"shout","caller":7}',
         "line 2: field 'kind' names an unknown alert kind: 'shout'"),
    ],
    ids=[
        "event_missing", "event_null", "event_list", "event_number", "event_unknown",
        "event_unknown_and_bad_t", "alert_missing", "alert_null", "alert_list", "alert_number",
        "alert_unknown", "alert_unknown_and_bad_t",
    ],
)
def test_tag_faults_are_exact(read, first, line, message):
    with pytest.raises(ScenarioError if read is parse_scenario else AlertLogError) as err:
        list(read(io.StringIO(f"{first}\n{line}\n")))
    assert str(err.value) == message


# -- basic runs ---------------------------------------------------------------


def test_empty_scenario_changes_nothing():
    kb = load_kb_doc(kb_doc(contacts=[contact_doc("c1", "A")]))
    run = replay([], kb)
    assert run.log == "" and run.diagnostics == []
    assert run.kb_out == kb_text(kb)


def _events_alive() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Event)


def test_a_run_keeps_no_dispatched_event():
    # Calls that end exactly at the exposure limit, or at twice it, make a
    # crossing decide by an event of its instant not yet dispatched.
    lines = []
    for i in range(250):
        t = 1_000_000 * i
        lines += [
            {"t": t, "type": "call_start", "caller": f"c{i % 7}"},
            {"t": t + 360_000 * (1 + i % 2), "type": "call_end"},
            {"t": t + 800_000, "type": "message_received", "caller": f"c{i % 5}"},
            {"t": t + 800_000, "type": "snapshot_request"},
        ]
    before = _events_alive()
    run = replay(make_scenario(lines))
    assert _events_alive() == before  # none of the 1000 is kept
    assert run == replay(lines)
    assert "radiation_incall_warning" in kinds_of(run.log)


def test_the_bench_counts_every_event_the_run_reads(tmp_path):
    # bench/child.py divides by the event count it takes from the scenario
    # after the run, so that count must be every non-blank line.
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    load_bench_gen().generate("busy_day", 1, inputs, 0.05)
    outputs.mkdir()
    child = [sys.executable, str(ROOT / "bench" / "child.py"), str(time.monotonic()),
             str(inputs), str(outputs)]
    result = json.loads(subprocess.run(child, capture_output=True, text=True,
                                       check=True).stdout.splitlines()[-1])
    lines = (inputs / "scenario.jsonl").read_text(encoding="utf-8").splitlines()
    assert result["events"] == sum(1 for line in lines if line.strip()) > 500


def test_input_kb_is_not_mutated():
    kb = load_kb_doc(kb_doc(safety={"c2": {"total": 4, "unsafe": 1}}))
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 420_000, "type": "call_end"},
        {"t": 500_000, "type": "call_start", "caller": "c2"},
        {"t": 920_000, "type": "call_end"},
    ]
    kb_out = json.loads(replay(lines, kb).kb_out)
    assert kb_out["safety_records"]["c2"] == {"total": 5, "unsafe": 2}
    # The caller with a record already in the input keeps its old counts.
    assert kb.safety_records == {"c2": SafetyRecord(total_calls=4, unsafe_calls=1)}


def test_seven_minute_call_frozen_log():
    run = replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 420_000, "type": "call_end"},
        ]
    )
    assert run.log == (
        '{"t":0,"seq":1,"kind":"ring","caller":"c1"}\n'
        '{"t":360000,"seq":2,"kind":"radiation_incall_warning","caller":"c1","exposure_ms":360000}\n'
    )
    assert json.loads(run.kb_out)["safety_records"]["c1"] == {"total": 1, "unsafe": 1}


def test_alert_times_and_seqs_are_monotone():
    alerts = records(replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 1000, "type": "call_end"},
            {"t": 2000, "type": "message_received", "caller": "c2"},
            {"t": 900_000, "type": "snapshot_request"},
        ]
    ).log)
    times = [r["t"] for r in alerts]
    seqs = [r["seq"] for r in alerts]
    assert times == sorted(times)
    assert seqs == sorted(set(seqs))


# -- composition ---------------------------------------------------------------


def test_precall_warning_fires_from_history():
    doc = kb_doc(safety={"c1": {"total": 4, "unsafe": 2}})
    log = replay([{"t": 0, "type": "call_start", "caller": "c1"}], doc).log
    assert "radiation_precall_warning" in kinds_of(log)
    warning = next(r for r in records(log) if r["kind"] == "radiation_precall_warning")
    assert payload(warning) == {"caller": "c1", "probability": 0.5}


def test_no_precall_warning_without_enough_history():
    doc = kb_doc(safety={"c1": {"total": 2, "unsafe": 2}})
    log = replay([{"t": 0, "type": "call_start", "caller": "c1"}], doc).log
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
    log = replay(lines, doc).log
    assert kinds_of(log) == ["suppress_note", "suppress_note", "suppress_note", "beep"]


def test_suppressed_calls_still_reach_the_callback_list():
    doc = kb_doc(contacts=[contact_doc("d1", "D")])
    lines = [
        {"t": 0, "type": "sleep_mode", "on": True},
        {"t": 1000, "type": "call_start", "caller": "d1"},
        {"t": 1100, "type": "call_end"},
        {"t": 2000, "type": "snapshot_request"},
    ]
    log = replay(lines, doc).log
    snapshot = next(r for r in records(log) if r["kind"] == "sorted_list_snapshot")
    assert snapshot["entries"] == [{"caller": "d1", "kind": "call", "score": pytest.approx(1.0)}]


def test_attending_a_ring_clears_the_missed_item():
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 200, "type": "notification_attended", "alert_id": 1},
        {"t": 300, "type": "snapshot_request"},
    ]
    log = replay(lines).log
    snapshot = next(r for r in records(log) if r["kind"] == "sorted_list_snapshot")
    assert snapshot["entries"] == []


def test_attending_unknown_alert_is_a_diagnostic():
    run = replay([{"t": 0, "type": "notification_attended", "alert_id": 42}])
    assert run.log == ""
    assert any("unknown alert id 42" in note for note in run.diagnostics)


def test_battery_burst_snapshot_matches_sorter_state():
    doc = kb_doc(contacts=[contact_doc("a1", "A"), contact_doc("b1", "B")])
    config = AgentConfig()
    lines = [
        {"t": 0, "type": "call_start", "caller": "b1"},
        {"t": 1000, "type": "call_end"},
        {"t": 2000, "type": "message_received", "caller": "a1"},
        {"t": 60_000, "type": "battery_level", "pct": 3},
    ]
    log = replay(lines, doc, config).log
    snapshot = next(line for line in log.splitlines() if "sorted_list_snapshot" in line)
    assert json.loads(snapshot)["t"] == 60_000

    kb = load_kb_doc(doc)
    tally = MissedItemTally()
    tally.add("b1", "call", 0, kb.contact_group("b1"))
    tally.add("a1", "message", 2000, kb.contact_group("a1"))
    # The snapshot's entries are written as the tally's text, byte for byte.
    assert snapshot.endswith(f'{tally.snapshot(60_000, config.sorter_t_floor_min)}}}')


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
    alerts = records(replay(lines, doc, config).log)
    kinds = [r["kind"] for r in alerts]
    # Burst first: snapshot + one battery_action per configured action.
    assert kinds[:3] == ["sorted_list_snapshot", "battery_action", "battery_action"]
    # Group A call: inform + divert, no ring. Group B call: inform + ring.
    a_alerts = [r for r in alerts if r.get("caller") == "a1"]
    assert [r["kind"] for r in a_alerts] == ["battery_action", "battery_action"]
    assert [r["action"] for r in a_alerts] == ["inform_caller", "divert_group_a"]
    assert a_alerts[1]["destination"] == "+1-999"
    b_alerts = [r for r in alerts if r.get("caller") == "b1"]
    assert [r["kind"] for r in b_alerts] == ["battery_action", "ring"]


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
    kinds = kinds_of(replay(lines, doc).log)
    decisions = [kind for kind in kinds if kind in ("ring", "suppress_note")]
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
    log = replay(lines).log
    assert kinds_of(log) == ["prompt", "tracker_message", "tracker_notify"]
    notify = records(log)[-1]
    assert payload(notify) == {"prompt_id": "p1", "callee": "c3", "tracking_msg_id": "m1"}


def test_tracker_timeout_fires_during_drain():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "switched_off"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    log = replay(lines).log
    assert kinds_of(log) == ["prompt", "tracker_message", "tracker_expired"]
    expired = records(log)[-1]
    assert expired["t"] == 86_400_001  # created at t=0, strict timeout


def test_a_deadline_made_at_the_current_instant_fires_before_its_next_event():
    # Consent comes after the timeout, so the wait expires at the consent's own
    # instant: after the tracker_message, before the message sharing that instant.
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 2000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 2000, "type": "message_received", "caller": "c2"},
    ]
    log = replay(lines, config=AgentConfig(tracker_timeout_ms=1000)).log
    assert [(r["t"], r["kind"]) for r in records(log)] == [
        (0, "prompt"), (2000, "tracker_message"), (2000, "tracker_expired"), (2000, "beep"),
    ]


def test_late_report_after_timeout_is_ignored():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
        {"t": 90_000_000, "type": "delivery_report", "tracking_msg_id": "m1", "positive": True},
    ]
    assert kinds_of(replay(lines).log) == ["prompt", "tracker_message", "tracker_expired"]


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
    run = replay(lines)
    assert kinds_of(run.log) == [
        "prompt",
        "prompt",
        "tracker_message",
        "tracker_message",
        "tracker_notify",
        "tracker_expired",
    ]
    assert records(run.log)[-1]["tracking_msg_id"] == "m1"
    assert run.diagnostics == [
        f"t=4: delivery_report for unknown tracking id {msg_id!r}" for msg_id in unknown
    ]


def test_settled_tracker_tasks_are_not_kept():
    # Retention is checked on CallerTracker (test_tracker.py::test_settled_tasks_are_not_kept).
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
    assert kinds_of(replay(lines).log).count("tracker_notify") == 1000


def test_response_to_settled_prompt_goes_to_diagnostics():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 1000, "type": "user_response", "prompt_id": "p1", "answer": "no"},
        {"t": 2000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    run = replay(lines)
    assert kinds_of(run.log) == ["prompt"]
    assert any("p1" in note for note in run.diagnostics)


# -- forwarding through the engine ----------------------------------------------


FORWARD_KB = kb_doc(
    devices=[
        {"device_id": "tv", "contexts": ["Home"], "kinds": ["ring", "beep"]},
        {"device_id": "laptop", "contexts": ["Home", "Workspace"], "kinds": ["beep"]},
    ]
)


def forwards_of(log):
    return [r for r in records(log) if r["kind"] == "forward_to_device"]


def test_unattended_ring_forwards_at_the_deadline():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
    ]
    forwards = forwards_of(replay(lines, FORWARD_KB).log)
    assert len(forwards) == 1
    assert forwards[0]["t"] == 61_000
    assert forwards[0]["device_id"] == "tv"
    assert forwards[0]["alert"]["kind"] == "ring"
    assert forwards[0]["alert"]["seq"] == 1


def test_attended_alert_never_forwards():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 31_000, "type": "notification_attended", "alert_id": 1},
    ]
    assert "forward_to_device" not in kinds_of(replay(lines, FORWARD_KB).log)


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
    forwards = forwards_of(replay(lines, doc).log)
    assert [f["device_id"] for f in forwards] == ["desk"]


def test_no_forwarding_while_context_unknown():
    lines = [
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
    ]
    assert "forward_to_device" not in kinds_of(replay(lines, FORWARD_KB).log)


def kinds_at(log, t):
    return [r["kind"] for r in records(log) if r["t"] == t]


def test_internal_deadline_fires_before_same_instant_event():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 61_000, "type": "message_received", "caller": "c2"},
    ]
    assert kinds_at(replay(lines, FORWARD_KB).log, 61_000) == ["forward_to_device", "beep"]


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
    log = replay(lines, doc, AgentConfig(tracker_timeout_ms=359_999)).log
    at_instant = kinds_at(log, 360_000)
    assert at_instant == ["radiation_incall_warning", "tracker_expired", "forward_to_device"]


@pytest.mark.parametrize(("lines", "timeout_ms", "fired"), [
    # c2's beep at 300 000 forwards at 360 000, the instant of c1's first crossing.
    ([{"t": 300_000, "type": "message_received", "caller": "c2"}], 86_400_000,
     [(300_000, "beep"), (360_000, "radiation_incall_warning"),
      (360_000, "forward_to_device"), (720_000, "radiation_incall_warning")]),
    # No event from 1 to 800 000: crossings at 360 000 and 720 000, c3's timeout between.
    ([{"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
      {"t": 1, "type": "user_response", "prompt_id": "p1", "answer": "yes"}], 500_000,
     [(360_000, "radiation_incall_warning"), (500_001, "tracker_expired"),
      (720_000, "radiation_incall_warning")]),
], ids=["tie_with_a_forward", "timeout_between_two_crossings"])
def test_crossings_and_heap_deadlines_fire_in_time_order(lines, timeout_ms, fired):
    # A crossing wins a tie with a deadline of any other subsystem, and a gap
    # between two events fires its crossings and other deadlines interleaved by time.
    doc = kb_doc(devices=[{"device_id": "tv", "contexts": ["Home"], "kinds": ["beep"]}])
    lines = [{"t": 0, "type": "user_context", "context": "Home"},
             {"t": 0, "type": "call_start", "caller": "c1"}, *lines,
             {"t": 800_000, "type": "call_end"}]
    log = replay(lines, doc, AgentConfig(tracker_timeout_ms=timeout_ms)).log
    assert [(r["t"], r["kind"]) for r in records(log) if 1 < r["t"] < 800_000] == fired


@pytest.mark.parametrize(("last", "unraised"), [
    ({"t": 359_999, "type": "call_end"}, "radiation_incall_warning"),
    ({"t": 59_999, "type": "notification_attended", "alert_id": 1}, "forward_to_device"),
], ids=["crossing", "forward"])
def test_a_deadline_one_ms_after_an_event_waits_for_it(last, unraised):
    # The event one ms before the deadline drops it: a call_end the crossing at
    # 360 000, an attendance the forward of c1's ring at 60 000.
    lines = [{"t": 0, "type": "user_context", "context": "Home"},
             {"t": 0, "type": "call_start", "caller": "c1"}, last]
    assert unraised not in kinds_of(replay(lines, FORWARD_KB).log)


def test_same_instant_tracker_timeouts_fire_in_acceptance_order():
    lines = [
        {"t": 0, "type": "call_failed", "callee": "c3", "reason": "unreachable"},
        {"t": 0, "type": "call_failed", "callee": "c4", "reason": "unreachable"},
        {"t": 1, "type": "user_response", "prompt_id": "p2", "answer": "yes"},
        {"t": 2, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    ]
    log = replay(lines, config=AgentConfig(tracker_timeout_ms=1000)).log
    expired = [r for r in records(log) if r["kind"] == "tracker_expired"]
    assert [(r["t"], r["prompt_id"]) for r in expired] == [(1001, "p2"), (1001, "p1")]


def test_attendance_at_the_deadline_instant_is_too_late():
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "call_start", "caller": "c1"},
        {"t": 2000, "type": "call_end"},
        {"t": 61_000, "type": "notification_attended", "alert_id": 1},
    ]
    assert "forward_to_device" in kinds_of(replay(lines, FORWARD_KB).log)


# -- exposure warnings through the engine ---------------------------------------


def test_warning_skipped_when_call_ends_exactly_on_the_limit():
    run = replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, "type": "call_end"},
        ]
    )
    assert "radiation_incall_warning" not in kinds_of(run.log)
    assert json.loads(run.kb_out)["safety_records"]["c1"] == {"total": 1, "unsafe": 0}


def test_warning_skipped_when_safety_starts_exactly_on_the_limit():
    log = replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, "type": "safety_mode_enter"},
            {"t": 400_000, "type": "call_end"},
        ]
    ).log
    assert "radiation_incall_warning" not in kinds_of(log)


@pytest.mark.parametrize("earlier", [0, 1, 300, 1000])
def test_warning_skipped_when_the_call_ends_late_in_a_crowded_instant(earlier):
    # The crossing sees a call_end anywhere in its instant, however many events
    # come before it or share it: here 1000 messages precede the call_end.
    lines = [{"t": 0, "type": "call_start", "caller": "c1"}]
    lines += [{"t": t, "type": "user_context", "context": "Home"} for t in range(1, earlier + 1)]
    lines += [{"t": 360_000, "type": "message_received", "caller": "c2"}] * 1000
    lines.append({"t": 360_000, "type": "call_end"})
    kinds = kinds_of(replay(lines).log)
    assert "radiation_incall_warning" not in kinds and kinds.count("beep") == 1000


# One valid event of every kind but the two that end an exposure stretch
# (call_end and safety_mode_enter), with the alerts it raises in the test below.
_NON_ENDING_EVENTS = [
    ({"type": "call_start", "caller": "c2"}, ["ring"]),
    ({"type": "call_failed", "callee": "c2", "reason": "unreachable"}, ["prompt"]),
    ({"type": "message_received", "caller": "c2"}, ["beep"]),
    ({"type": "battery_level", "pct": 50}, []),
    ({"type": "sensor", "signal_kind": "wifi_network", "signal_value": "home-ap"}, []),
    ({"type": "user_context", "context": "Home"}, []),
    ({"type": "user_response", "prompt_id": "p1", "answer": "yes"}, []),
    ({"type": "delivery_report", "tracking_msg_id": "m1", "positive": True}, []),
    ({"type": "notification_attended", "alert_id": 1}, []),
    ({"type": "sleep_mode", "on": True}, []),
    ({"type": "safety_mode_exit"}, []),
    ({"type": "snapshot_request"}, ["sorted_list_snapshot"]),
]


@pytest.mark.parametrize(
    ("event", "raised"), _NON_ENDING_EVENTS, ids=[event["type"] for event, _ in _NON_ENDING_EVENTS]
)
def test_warning_fires_when_unrelated_event_shares_the_instant(event, raised):
    # Only a call_end or a safety_mode_enter at the crossing's instant ends the
    # stretch there; any other event, a no-op safety_mode_exit too, leaves it running.
    log = replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 360_000, **event},
            {"t": 400_000, "type": "call_end"},
        ]
    ).log
    assert kinds_at(log, 360_000) == ["radiation_incall_warning", *raised]


def test_a_dropped_crossing_never_fires():
    # Safety mode drops c1's crossing at 360 000 and call_end its next one at
    # 920 000; neither may fire, not even while c2's exposure runs.
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100_000, "type": "safety_mode_enter"},
        {"t": 200_000, "type": "safety_mode_exit"},
        {"t": 600_000, "type": "call_end"},
        {"t": 700_000, "type": "call_start", "caller": "c2"},
        {"t": 1_000_000, "type": "call_end"},
    ]
    warnings = [r for r in records(replay(lines).log) if r["kind"] == "radiation_incall_warning"]
    assert [(r["t"], r["caller"], r["exposure_ms"]) for r in warnings] == [(560_000, "c1", 360_000)]


def test_open_call_at_scenario_end_is_abandoned():
    run = replay([{"t": 0, "type": "call_start", "caller": "c1"}])
    assert "radiation_incall_warning" not in kinds_of(run.log)
    assert json.loads(run.kb_out)["safety_records"] == {}
    assert any("still active" in note for note in run.diagnostics)


def test_overlapping_call_start_goes_to_diagnostics():
    run = replay(
        [
            {"t": 0, "type": "call_start", "caller": "c1"},
            {"t": 1000, "type": "call_start", "caller": "c2"},
            {"t": 2000, "type": "call_end"},
        ]
    )
    assert any("another call is active" in note for note in run.diagnostics)
    # The overlapping call still rings and still counts as a missed item.
    assert kinds_of(run.log).count("ring") == 2
    safety = json.loads(run.kb_out)["safety_records"]
    assert "c1" in safety and "c2" not in safety


def test_safety_transition_outside_a_call_is_a_diagnostic():
    run = replay([{"t": 0, "type": "safety_mode_enter"}])
    assert run.log == ""
    assert any("no active call" in note for note in run.diagnostics)


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
        run = replay(lines, doc)
        outputs.add(run.log + "|" + run.kb_out)
    assert len(outputs) == 1


def test_alert_log_round_trip():
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 200, "type": "snapshot_request"},
    ]
    log = replay(lines).log
    parsed = read_alert_log(io.StringIO(log))
    assert [(a.t, a.seq, a.kind) for a in parsed] == [
        (r["t"], r["seq"], r["kind"]) for r in records(log)
    ]
    assert log.splitlines()[-1].endswith(f',{parsed[-1].fields}}}')


def test_write_alert_log_gives_a_path_the_same_bytes_as_a_stream(tmp_path):
    # A prompt's payload is built out of key order (prompt_id, callee, reason):
    # the line sorts it after t, seq and kind.
    lines = [
        {"t": 0, "type": "call_start", "caller": "c1"},
        {"t": 100, "type": "call_end"},
        {"t": 120, "type": "call_failed", "callee": "c9", "reason": "dropped"},
        {"t": 150, "type": "message_received", "caller": "Zoé"},
        {"t": 200, "type": "snapshot_request"},
    ]
    log = replay(lines).log
    scenario, kb, path = tmp_path / "scenario.jsonl", tmp_path / "kb.json", tmp_path / "log.jsonl"
    scenario.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    kb.write_text(json.dumps(kb_doc()), encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(path)]) == 0
    assert log == "".join(canonical(r) + "\n" for r in records(log))
    assert path.read_bytes() == log.encode("utf-8")
    assert len(records(log)) == 4 and path.read_bytes().isascii()
    assert list(records(log)[1]) == ["t", "seq", "kind", "callee", "prompt_id", "reason"]


def test_rewriting_a_read_log_sorts_top_level_keys_and_keeps_nested_ones():
    text = (
        '{"t":0,"seq":1,"kind":"ring","caller":"Zoé"}\n'
        '{"kind":"suppress_note", "ring_at":2,"t":7,"count":1,"seq":2,"caller":"c3"}\n'
        '{"t":60000,"seq":3,"kind":"forward_to_device","device_id":"d1",'
        '"alert":{"seq":1,"t":0,"caller":"c1","kind":"ring"}}\n'
        '{"t":60001,"seq":4,"kind":"sorted_list_snapshot",'
        '"entries":[{"score":3,"kind":"call","caller":"c3"}]}\n'
    )
    assert rewrite(text) == (
        '{"t":0,"seq":1,"kind":"ring","caller":"Zo\\u00e9"}\n'
        '{"t":7,"seq":2,"kind":"suppress_note","caller":"c3","count":1,"ring_at":2}\n'
        '{"t":60000,"seq":3,"kind":"forward_to_device",'
        '"alert":{"seq":1,"t":0,"caller":"c1","kind":"ring"},"device_id":"d1"}\n'
        '{"t":60001,"seq":4,"kind":"sorted_list_snapshot",'
        '"entries":[{"score":3,"kind":"call","caller":"c3"}]}\n'
    )


def test_a_snapshot_longer_than_a_log_block_between_short_lines():
    # The run spools the beeps of 300 callers at the end of each batch of events; its
    # snapshot, longer than 4096 characters, stands between two beeps. The attendance,
    # in the second batch, names a beep spooled with the first batch and acknowledges
    # that caller's message.
    callers = [f"caller{n:03}" for n in range(300)]
    lines = [{"t": 0, "type": "user_context", "context": "Home"}]
    lines += [{"t": 1000 + n, "type": "message_received", "caller": caller}
              for n, caller in enumerate(callers)]
    lines += [
        {"t": 2000, "type": "snapshot_request"},
        {"t": 2001, "type": "message_received", "caller": "late"},
        {"t": 2002, "type": "notification_attended", "alert_id": 2},
        {"t": 2003, "type": "snapshot_request"},
    ]
    log = replay(lines, FORWARD_KB).log
    written = log.splitlines(keepends=True)
    first = written.index(next(line for line in written if "sorted_list_snapshot" in line))
    assert len(written[first]) > 4096
    assert [r["kind"] for r in records("".join(written[first - 1:first + 2]))] == [
        "beep", "sorted_list_snapshot", "beep"]
    snapshots = [r for r in records(log) if r["kind"] == "sorted_list_snapshot"]
    assert len(snapshots[0]["entries"]) == 300
    assert {e["caller"] for e in snapshots[1]["entries"]} == set(callers) - {"caller001"} | {"late"}
    forwards = forwards_of(log)
    assert len(forwards) == 2 * 300  # 301 beeps to tv and laptop, but the attended one
    assert all(canonical(f["alert"]) == written[f["alert"]["seq"] - 1][:-1] for f in forwards)


def test_forwards_of_one_due_alert_are_each_compact_json_dumps():
    doc = kb_doc(
        devices=[
            {"device_id": device, "contexts": ["Home"], "kinds": ["beep"]}
            for device in ("tv", "laptop", "d\U0001f4f1 \"q\"")
        ]
    )
    lines = [
        {"t": 0, "type": "user_context", "context": "Home"},
        {"t": 1000, "type": "message_received", "caller": "Zoé"},
        {"t": 2000, "type": "message_received", "caller": "c2"},
    ]
    log = replay(lines, doc).log
    forwards = forwards_of(log)
    assert len(forwards) == 6
    assert forwards[0]["alert"] == forwards[2]["alert"]
    assert forwards[2]["alert"] != forwards[3]["alert"]
    assert all(list(f["alert"]) == ["t", "seq", "kind", "caller"] for f in forwards)
    assert log.splitlines() == [canonical(r) for r in records(log)]


@pytest.mark.parametrize("case", ["sample"] + [
    f"{workload}-{seed}" for workload in ("busy_day", "callback_snapshots", "unreachable_callees")
    for seed in (1, 2, 3)])
def test_a_forward_carries_the_line_of_the_alert_it_names(case, tmp_path):
    # A forward's alert is, byte for byte, the line of the seq it names, as the
    # log numbers its lines by seq from 1. The workloads run at scale 0.05.
    inputs = ROOT / "sample"
    if case != "sample":
        workload, seed = case.rsplit("-", 1)
        inputs = tmp_path
        load_bench_gen().generate(workload, int(seed), inputs, 0.05)
    scenario = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    log = replay(scenario, load_kb(inputs / "kb.json"), load_config(inputs / "config.json")).log
    lines = log.splitlines()
    forwards = [line for line in lines if json.loads(line)["kind"] == "forward_to_device"]
    assert forwards
    for line in forwards:
        start = line.index('"alert":') + len('"alert":')
        alert, end = json.JSONDecoder().raw_decode(line, start)
        assert line[start:end] == lines[alert["seq"] - 1]


def test_rewriting_forwards_keeps_each_nested_key_order():
    text = (
        '{"t":60000,"seq":3,"kind":"forward_to_device",'
        '"alert":{"t":0,"seq":1,"kind":"ring","caller":"c1"},"device_id":"tv"}\n'
        '{"t":60000,"seq":4,"kind":"forward_to_device",'
        '"alert":{"caller":"c1","kind":"ring","seq":1,"t":0},"device_id":"laptop"}\n'
    )
    alerts = read_alert_log(io.StringIO(text))
    assert decoded(alerts[0].fields)["alert"] == decoded(alerts[1].fields)["alert"]
    assert log_text(alerts) == text


def test_rewriting_snapshots_keeps_each_entry_as_written():
    # Keys out of order, an integer score and escaped callers come back byte for byte.
    text = (
        '{"t":60001,"seq":1,"kind":"sorted_list_snapshot","entries":['
        '{"score":2,"kind":"call","caller":"q\\"\\u00e9"},'
        '{"kind":"message","caller":"\\ud83d\\ude00","score":0.5},'
        '{"caller":"c1","kind":"call","score":1e-07}]}\n'
        '{"t":60002,"seq":2,"kind":"sorted_list_snapshot","entries":[]}\n'
    )
    alerts = read_alert_log(io.StringIO(text))
    assert entry_dicts(alerts[0].fields)[0] == {
        "score": 2, "kind": "call", "caller": 'q"é'
    }
    assert log_text(alerts) == text


# One line of every alert kind as a read-back log may hold it: keys out of
# order in a nested alert, a nested float, integer and float scores, non-ASCII
# and astral callers.
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
    '"alert":{"probability":1e-07,"seq":1,"t":0,"caller":"Zoé",'
    '"kind":"radiation_precall_warning"}}\n'
    '{"t":60001,"seq":13,"kind":"sorted_list_snapshot","entries":['
    '{"score":3,"kind":"call","caller":"c3"},{"caller":"c1","kind":"call","score":1e-07},'
    '{"caller":"\U0001f600","kind":"message","score":1e+16},'
    '{"caller":"Zoé","kind":"message","score":0.30000000000000004}]}\n'
)


def test_written_line_is_compact_json_dumps_for_every_kind():
    alerts = read_alert_log(io.StringIO(_EVERY_KIND_LOG))
    assert {alert.kind for alert in alerts} == set(ALERT_KINDS)
    assert all(not {"t", "seq", "kind"} & decoded(alert.fields).keys() for alert in alerts)
    assert log_text(alerts).split("\n") == [canonical(r) for r in records(_EVERY_KIND_LOG)] + [""]


@pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
def test_written_log_refuses_a_non_finite_number(tmp_path, monkeypatch, capsys, score):
    # A payload is encoded when its alert is raised, and the encoder refuses NaN
    # and Infinity, which are not JSON: the run fails before any output file is
    # opened. No KB gives a non-finite probability, so one is put in. A snapshot's
    # scores become text in the tally, which refuses them there (test_sorter).
    monkeypatch.setattr("alertagent.engine.unsafe_probability", lambda record: score)
    scenario, kb, out = tmp_path / "scenario.jsonl", tmp_path / "kb.json", tmp_path / "log.jsonl"
    scenario.write_text('{"t": 0, "type": "call_start", "caller": "c1"}\n', encoding="utf-8")
    kb.write_text(json.dumps(kb_doc(safety={"c1": {"total": 3, "unsafe": 3}})), encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


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
            '{"t":0,"seq":1,"kind":"forward_to_device","device_id":"d","alert":{}}',
            "field 'alert' is not a user-facing alert: missing field 'kind'",
        ),
        (
            '{"t":9,"seq":2,"kind":"forward_to_device","device_id":"d","alert":'
            '{"t":0,"seq":1,"kind":"prompt","prompt_id":"p1","callee":"c","reason":"dropped"}}',
            "field 'alert' is not a user-facing alert: "
            "field 'kind' names an unknown user-facing alert kind: 'prompt'",
        ),
        (
            '{"t":9,"seq":3,"kind":"forward_to_device","device_id":"d","alert":'
            '{"t":9,"seq":2,"kind":"forward_to_device","device_id":"d",'
            '"alert":{"t":0,"seq":1,"kind":"ring","caller":"c"}}}',
            "field 'alert' is not a user-facing alert: "
            "field 'kind' names an unknown user-facing alert kind: 'forward_to_device'",
        ),
        (
            '{"t":9,"seq":2,"kind":"forward_to_device","device_id":"d",'
            '"alert":{"t":0,"seq":1,"kind":"ring"}}',
            "field 'alert' is not a user-facing alert: missing field 'caller'",
        ),
        (
            '{"t":9,"seq":2,"kind":"forward_to_device","device_id":"d",'
            '"alert":{"t":0,"seq":1,"kind":"beep","caller":"c","x":1}}',
            "field 'alert' is not a user-facing alert: unknown field 'x'",
        ),
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


@pytest.mark.parametrize(
    "entry, problem",
    [
        ('{"caller":"","kind":"call","score":1.0}', "field 'caller' must be a non-empty string"),
        ('{"caller":7,"kind":"call","score":1.0}', "field 'caller' must be a non-empty string"),
        ('{"caller":"c","kind":"x","score":1.0}',
         "field 'kind' must be one of ['call', 'message']"),
        ('{"caller":"c","kind":["call"],"score":1.0}',
         "field 'kind' must be a non-empty string"),
        ('{"caller":"c","kind":"call","score":true}', "field 'score' must be a number"),
        ('{"caller":"c","kind":"call","score":"1.0"}', "field 'score' must be a number"),
        ('{"caller":"c","kind":"call","x":1.0}', "missing field 'score'"),
        ('{"caller":"c","kind":"call","score":1.0,"x":1}', "unknown field 'x'"),
    ],
)
def test_a_snapshot_entry_unlike_a_written_one_gets_the_field_tables_error(entry, problem):
    # Entries the engine writes (exactly caller, kind and a float score) skip the
    # table walk; every other entry is walked, so its error text is the walk's.
    line = ('{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":'
            f'[{{"caller":"c","kind":"message","score":2.5}},{entry}]}}')
    with pytest.raises(AlertLogError) as err:
        read_alert_log(io.StringIO(line))
    assert str(err.value) == f"line 1: field 'entries' item 1: {problem}"
