"""Deterministic scenario replay: parsing, dispatch, timers, canonical log.

One run is a pure function of (scenario, config, initial knowledge base).
Events are processed in (t, seq) order. Internal deadlines (exposure-warning
points, tracker timeouts, attendance deadlines) interleave at their exact
virtual times and fire before external events carrying the same timestamp;
among themselves they order by subsystem (radiation, tracker, forwarder),
then by creation order. For each external event the subsystems react in a
fixed order: context, battery, audible gating, radiation, tracker, sorter,
forwarder. The alert log serializes with canonical field ordering and no
whitespace variance, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from .battery import BatteryGuard
from .context import SENSOR_SIGNAL_KINDS, Context, ContextEngine
from .errors import AlertLogError, ScenarioError
from .forwarder import AttendanceLedger, matching_devices
from .kb import KnowledgeBase
from .model import (
    ALERT_FIELDS,
    FAILURE_REASONS,
    MAX_T,
    REQUIRED,
    USER_FACING_ALERT_KINDS,
    AgentConfig,
    Alert,
    BatteryAction,
    Event,
    Fields,
    check_fields,
    need_int,
    need_str,
    need_type,
    read_json_lines,
    write_text,
)
from .radiation import CallMonitor, is_unsafe_call, should_warn_precall, unsafe_probability
from .sleep import RING, SleepGate, alert_ordinal
from .sorter import MissedItemTally
from .tracker import CallerTracker, TrackerTask

# ---------------------------------------------------------------------------
# Scenario parsing


@dataclass
class Scenario:
    name: str
    events: list[Event] = field(default_factory=list)


# Every event kind, with the fields it carries besides t and type. A field that
# may be left out has a default, which parse_scenario fills in.
_EVENT_FIELDS: dict[str, Fields] = {
    kind: {"t": need_int(0, MAX_T), "type": need_str(), **fields}
    for kind, fields in {
        "call_start": {"caller": need_str(), "safety": need_type(bool, default=False)},
        "call_end": {},
        "call_failed": {"callee": need_str(), "reason": need_str(FAILURE_REASONS)},
        "message_received": {"caller": need_str()},
        "battery_level": {"pct": need_int(0, 100)},
        "sensor": {"signal_kind": need_str(SENSOR_SIGNAL_KINDS), "signal_value": need_str()},
        "user_context": {"context": need_str({c.value for c in Context})},
        "user_response": {"prompt_id": need_str(), "answer": need_str(("yes", "no"))},
        "delivery_report": {"tracking_msg_id": need_str(), "positive": need_type(bool)},
        "notification_attended": {"alert_id": need_int(1)},
        "sleep_mode": {"on": need_type(bool)},
        "safety_mode_enter": {},
        "safety_mode_exit": {},
        "snapshot_request": {},
    }.items()
}
# The table for a line whose type is missing or names no event kind.
_BAD_TYPE: Fields = {"type": (lambda kind: f"names an unknown event type: {kind!r}", REQUIRED)}


def parse_scenario(source: str | Path | IO[str], name: str = "scenario") -> Scenario:
    """Parse a JSON-lines scenario; seq is the 1-based line number.

    Timestamps must be nondecreasing in file order. Blank lines are skipped
    but still count toward line numbering.
    """
    events: list[Event] = []
    prev_t = 0
    for lineno, obj in read_json_lines(source, ScenarioError):
        kind = obj.get("type")
        fields = _EVENT_FIELDS.get(kind, _BAD_TYPE) if isinstance(kind, str) else _BAD_TYPE
        check_fields(obj, fields, lineno, ScenarioError)
        t = obj["t"]
        if t < prev_t:
            raise ScenarioError(
                f"line {lineno}: timestamp {t} is earlier than the previous event at {prev_t}"
            )
        prev_t = t
        if len(obj) < len(fields):
            for field_name, (_check, default) in fields.items():
                if field_name not in obj:
                    obj[field_name] = default
        del obj["t"], obj["type"]
        events.append(Event(t, lineno, kind, obj))
    return Scenario(name=name, events=events)


# ---------------------------------------------------------------------------
# Alert log


@dataclass
class AlertLog:
    entries: list[Alert] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


# A non-finite number raises ValueError rather than being written as NaN or
# Infinity, which are not JSON.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
# JSONEncoder.encode builds a new C encoder on every call; this one is built
# once, with _ENCODER's settings (ASCII strings, keys in record order, finite
# numbers) but no circular-reference check, as a record is a tree. Without the
# _json accelerator c_make_encoder is None and _ENCODER encodes.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    ":", ",", False, False, False,
)


def alert_to_json(alert: Alert) -> str:
    record = alert.to_record()
    return "".join(_C_ENCODER(record, 0)) if _C_ENCODER else _ENCODER.encode(record)


def write_alert_log(log: AlertLog, sink: str | Path | IO[str]) -> None:
    """Write the log one line per alert, each straight to the sink."""
    write_text(sink, (alert_to_json(alert) + "\n" for alert in log.entries))


_BAD_KIND: Fields = {"kind": (lambda kind: f"names an unknown alert kind: {kind!r}", REQUIRED)}


def read_alert_log(source: str | Path | IO[str]) -> list[Alert]:
    """Parse a written alert log back into Alert values (for reporting)."""
    alerts: list[Alert] = []
    for lineno, obj in read_json_lines(source, AlertLogError):
        kind = obj.get("kind")
        fields = ALERT_FIELDS.get(kind, _BAD_KIND) if isinstance(kind, str) else _BAD_KIND
        check_fields(obj, fields, lineno, AlertLogError)
        alerts.append(Alert(obj.pop("t"), obj.pop("seq"), obj.pop("kind"), obj))
    return alerts


# ---------------------------------------------------------------------------
# Engine

# Alert kinds that acknowledge a missed item when attended.
_ACK_ITEM_KIND = {"ring": "call", "suppress_note": "call", "beep": "message"}

# External events that end the current exposure stretch; a warning falling on
# the exact same instant is a reach, not a crossing, and must not fire.
_EPOCH_TERMINATORS = frozenset({"call_end", "safety_mode_enter"})


class Engine:
    """One scenario run. Owns copies of the knowledge base and all state.

    Internal deadlines come from three sources, merged by (t, subsystem): the
    active call's next exposure crossing, read live from the call monitor;
    the tracker's delivery timeouts; and the attendance ledger's deadlines.
    Each source owns the rule for its deadlines and breaks same-instant ties
    by creation order.
    """

    def __init__(self, config: AgentConfig, kb: KnowledgeBase):
        config.validate()
        kb.validate()
        self.config = config
        self.kb = kb.copy()

        self.ctx = ContextEngine(self.kb.context_signals)
        self.battery = BatteryGuard(config)
        self.sleep = SleepGate()
        self.monitor = CallMonitor(config.safe_call_limit_ms)
        self.tracker = CallerTracker(config.tracker_timeout_ms)
        self.tally = MissedItemTally()
        self.ledger = AttendanceLedger(config.attend_window_ms)

        self.clock = 0
        self.entries: list[Alert] = []
        self.diagnostics: list[str] = []
        self._handlers = {kind: getattr(self, f"_on_{kind}") for kind in _EVENT_FIELDS}

    # -- plumbing -----------------------------------------------------------

    def _note(self, message: str) -> None:
        self.diagnostics.append(f"t={self.clock}: {message}")

    def _emit(self, kind: str, payload: dict[str, Any]) -> None:
        alert = Alert(self.clock, len(self.entries) + 1, kind, payload)
        self.entries.append(alert)
        if kind in USER_FACING_ALERT_KINDS:
            self.ledger.track(alert)

    def _emit_snapshot(self) -> None:
        entries = self.tally.snapshot(self.kb, self.clock, self.config.sorter_t_floor_min)
        self._emit(
            "sorted_list_snapshot",
            {"entries": [{"caller": c, "kind": k, "score": s} for c, k, s in entries]},
        )

    def _emit_tracker(self, kind: str, task: TrackerTask) -> None:
        self._emit(
            kind,
            {
                "prompt_id": task.prompt_id,
                "callee": task.callee_id,
                "tracking_msg_id": task.tracking_msg_id,
            },
        )

    # -- internal deadlines -------------------------------------------------

    def _fire_deadlines(self, before: float, events: list[Event], index: int) -> None:
        """Fire every deadline earlier than ``before``; events[index:] are still to come."""
        monitor, tracker, ledger = self.monitor, self.tracker, self.ledger
        while True:
            t = before
            crossing = monitor.next_warning_at()
            if crossing is not None and crossing < t:
                t = crossing
            timeout = tracker.next_deadline()
            if timeout is not None and timeout < t:
                t = timeout
            attendance = ledger.next_deadline()
            if attendance is not None and attendance < t:
                t = attendance
            if t == before:
                return
            self.clock = t
            # Same-instant ties go by subsystem: radiation, tracker, forwarder.
            if t == crossing:
                self._fire_crossing(events, index)
            elif t == timeout:
                self._fire_tracker_timeout()
            else:
                self._fire_attendance()

    def _fire_crossing(self, events: list[Event], index: int) -> None:
        t = self.clock
        exposure = self.monitor.note_warning()
        # The exposure stretch must continue strictly past this instant: an
        # epoch-ending event at the same t means the limit was only reached,
        # never exceeded, so the crossing is consumed without a warning.
        while index < len(events) and events[index].t == t:
            if events[index].kind in _EPOCH_TERMINATORS:
                return
            index += 1
        self._emit(
            "radiation_incall_warning", {"caller": self.monitor.caller_id, "exposure_ms": exposure}
        )

    def _fire_tracker_timeout(self) -> None:
        self._emit_tracker("tracker_expired", self.tracker.expire())

    def _fire_attendance(self) -> None:
        alert = self.ledger.pop_due()
        devices = matching_devices(self.kb.devices, self.ctx.current, alert.kind)
        if devices:
            record = alert.to_record()  # one record, shared by every device's forward
            for device in devices:
                self._emit("forward_to_device", {"device_id": device.device_id, "alert": record})

    # -- per-event handlers, each calling its stages in the documented order --

    def _dispatch(self, ev: Event) -> None:
        self._handlers[ev.kind](ev)

    def _on_call_start(self, ev: Event) -> None:
        caller = ev.data["caller"]
        group = self.kb.contact_group(caller)
        # battery stage: a diverted call neither rings nor is suppressed
        specs, diverted = self.battery.on_incoming_call(group)
        for spec in specs:
            payload = {"action": spec.kind.value, "caller": caller}
            if spec.kind is BatteryAction.DIVERT_GROUP_A:
                payload["destination"] = spec.destination
            self._emit("battery_action", payload)
        # audible stage
        if not diverted:
            ordinal = alert_ordinal(group, self.kb.temp_important(caller))
            decision, count = self.sleep.on_call(caller, ordinal)
            if decision == RING:
                self._emit("ring", {"caller": caller})
            else:
                self._emit("suppress_note", {"caller": caller, "count": count, "ring_at": ordinal})
        # radiation stage
        if self.monitor.caller_id is not None:
            self._note(f"call from {caller!r} while another call is active; not tracked")
        else:
            record = self.kb.safety_records.get(caller)
            if should_warn_precall(record, self.config):
                assert record is not None
                self._emit(
                    "radiation_precall_warning",
                    {"caller": caller, "probability": unsafe_probability(record)},
                )
            self.monitor.start_call(ev.t, caller, ev.data["safety"])
        # sorter stage
        self.tally.add(caller, "call", ev.t)

    def _on_call_end(self, ev: Event) -> None:
        if self.monitor.caller_id is None:
            self._note("call_end with no active call")
        else:
            caller, main_ms = self.monitor.end_call(ev.t)
            self.kb.record_call(caller, is_unsafe_call(main_ms, self.config.safe_call_limit_ms))

    def _on_safety_mode(self, ev: Event) -> None:
        if self.monitor.caller_id is None:
            self._note(f"{ev.kind} with no active call")
        else:
            self.monitor.on_safety(ev.t, entering=ev.kind == "safety_mode_enter")

    _on_safety_mode_enter = _on_safety_mode_exit = _on_safety_mode

    def _on_call_failed(self, ev: Event) -> None:
        task = self.tracker.on_call_failed(ev.t, ev.data["callee"], ev.data["reason"])
        if task is not None:
            self._emit(
                "prompt",
                {"prompt_id": task.prompt_id, "callee": task.callee_id, "reason": task.reason},
            )

    def _on_message_received(self, ev: Event) -> None:
        self._emit("beep", {"caller": ev.data["caller"]})
        self.tally.add(ev.data["caller"], "message", ev.t)

    def _on_battery_level(self, ev: Event) -> None:
        if self.battery.on_level(ev.data["pct"]):
            self._emit_snapshot()
            for spec in self.config.battery_actions:
                payload = {"action": spec.kind.value}
                if spec.destination:
                    payload["destination"] = spec.destination
                self._emit("battery_action", payload)

    def _on_sensor(self, ev: Event) -> None:
        self.ctx.apply_sensor(ev.data["signal_kind"], ev.data["signal_value"])

    def _on_user_context(self, ev: Event) -> None:
        self.ctx.apply_user(Context(ev.data["context"]))

    def _on_user_response(self, ev: Event) -> None:
        outcome, task = self.tracker.on_user_response(ev.t, ev.data["prompt_id"], ev.data["answer"])
        if outcome == "accepted":
            assert task is not None
            self._emit_tracker("tracker_message", task)
        elif outcome == "ignored":
            self._note(f"user_response for unknown or settled prompt {ev.data['prompt_id']!r}")

    def _on_delivery_report(self, ev: Event) -> None:
        outcome, task = self.tracker.on_delivery_report(
            ev.t, ev.data["tracking_msg_id"], ev.data["positive"]
        )
        if outcome == "done":
            assert task is not None
            self._emit_tracker("tracker_notify", task)
        elif outcome == "unknown":
            self._note(f"delivery_report for unknown tracking id {ev.data['tracking_msg_id']!r}")

    def _on_notification_attended(self, ev: Event) -> None:
        alert_id = ev.data["alert_id"]
        if alert_id > len(self.entries):
            self._note(f"notification_attended for unknown alert id {alert_id}")
            return
        alert = self.entries[alert_id - 1]
        # sorter stage: attending the item's alert acknowledges the item
        item_kind = _ACK_ITEM_KIND.get(alert.kind)
        if item_kind is not None:
            self.tally.acknowledge(alert.payload["caller"], item_kind)
        # forwarder stage: a pending entry attended in time never forwards
        self.ledger.attend(alert_id)

    def _on_sleep_mode(self, ev: Event) -> None:
        self.sleep.set_active(ev.data["on"])

    def _on_snapshot_request(self, ev: Event) -> None:
        self._emit_snapshot()

    # -- main loop ------------------------------------------------------------

    def run(self, scenario: Scenario) -> AlertLog:
        events = scenario.events
        for index, ev in enumerate(events):
            self._fire_deadlines(ev.t + 1, events, index)
            self.clock = ev.t
            self._dispatch(ev)
        # A call the scenario never ended would keep producing exposure
        # warnings forever; stop tracking it, unclassified.
        if self.monitor.caller_id is not None:
            caller = self.monitor.abandon_call()
            self._note(
                f"call from {caller!r} still active at end of scenario; exposure tracking stopped"
            )
        self._fire_deadlines(math.inf, events, len(events))
        return AlertLog(entries=self.entries, diagnostics=self.diagnostics)


def run_scenario(
    scenario: Scenario, config: AgentConfig, kb: KnowledgeBase
) -> tuple[AlertLog, KnowledgeBase]:
    """Replay a scenario; returns the alert log and the updated knowledge base.

    The given knowledge base is not modified.
    """
    engine = Engine(config, kb)
    log = engine.run(scenario)
    return log, engine.kb
