"""Deterministic scenario replay: parsing, dispatch, timers, canonical log. One run
is a pure function of (scenario, config, initial knowledge base); README.md's
determinism contract states the order in which events and deadlines take effect."""

from __future__ import annotations

import heapq
import json
import math
import os
import tempfile
import weakref
from array import array
from collections.abc import Sequence
from itertools import accumulate, count
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from .battery import BatteryGuard
from .context import SENSOR_SIGNAL_KINDS, Context, ContextEngine
from .errors import AlertLogError, ScenarioError
from .kb import KnowledgeBase, matching_devices
from .model import (
    ALERT_FIELDS,
    FAILURE_REASONS,
    MAX_T,
    MISSED_ITEM_KIND,
    USER_FACING_ALERT_KINDS,
    AgentConfig,
    Alert,
    BatteryAction,
    Event,
    Tagged,
    need_int,
    need_str,
    need_type,
    read_records,
    write_text,
)
from .radiation import CallMonitor, is_unsafe_call, should_warn_precall, unsafe_probability
from .sleep import RING, SleepGate, alert_ordinal
from .sorter import MissedItemTally
from .tracker import CallerTracker, TrackerTask

# ---------------------------------------------------------------------------
# Scenario parsing


# Every event kind, with the fields it carries besides t and type.
_EVENT_FIELDS = Tagged("type", "event type", {"t": need_int(0, MAX_T)}, {
    "call_start": {"caller": need_str(), "safety": need_type(bool, required=False)},
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
})


class Scenario:
    """A JSON-lines scenario, read one line at a time as it is iterated; seq is the
    1-based line number. Timestamps must be nondecreasing in file order. Blank lines
    are skipped but still count toward line numbering. ``count`` is the number of
    events the current pass has yielded."""

    def __init__(self, source: str | Path | IO[str]):
        self.source, self.count = source, 0

    def __iter__(self) -> Iterator[Event]:
        self.count = prev_t = 0
        for lineno, t, kind, data in read_records(self.source, _EVENT_FIELDS, ScenarioError):
            if t < prev_t:
                raise ScenarioError(
                    f"line {lineno}: timestamp {t} is earlier than the previous event at {prev_t}"
                )
            prev_t = t
            self.count += 1
            yield Event(t, lineno, kind, data)

    # bench/child.py's event count, len(scenario.events), until it reads ``count``.
    events = property(lambda self: range(self.count))


parse_scenario = Scenario  # the scenario in a source; nothing is read until it is iterated


# ---------------------------------------------------------------------------
# Alert log

class AlertLog(Sequence[Alert]):
    """A run's alerts as their finished log lines, each ASCII and ending in "\\n": ``write``
    appends a line to ``lines``, and ``pack`` moves those to the spool, an anonymous
    temporary file, noting where each ends. Reading an alert takes its line from either
    and splits the head, '{"t":T,"seq":S,"kind":"K",' (no comma inside T, S or K), off
    its fields. ``entries`` is the log itself."""

    def __init__(self, entries: Iterable[Alert] = ()):
        self.lines: list[str] = []
        self.write = self.lines.append  # one C call per alert; ``lines`` is never rebound
        self._spool = tempfile.TemporaryFile()
        weakref.finalize(self, self._spool.close)  # on every path, a failed run's too
        self._ends = array("q", [0])  # where each spooled line ends, after a leading 0
        for a in entries:
            self.write(_line(*a))

    entries = property(lambda self: self)

    def pack(self) -> None:
        """Append the lines written since the last pack to the spool's end: one write per
        line, as joining them first would hold a batch's text twice over at once."""
        self._ends.extend(accumulate(map(len, self.lines), initial=self._ends.pop()))
        self._spool.seek(0, os.SEEK_END)
        self._spool.writelines(line.encode("ascii") for line in self.lines)
        self.lines.clear()

    def _read(self, start: int, end: int) -> str:
        """The spooled text from offset ``start`` up to ``end``, or to the spool's end."""
        self._spool.seek(start)
        return self._spool.read(end - start).decode("ascii")

    def chunks(self) -> Iterator[str]:
        """The log's text, packed first, in chunks of at most 64 KiB."""
        self.pack()
        for start in range(0, self._ends[-1], 1 << 16):
            yield self._read(start, start + (1 << 16))

    def __len__(self) -> int:
        return len(self._ends) - 1 + len(self.lines)

    def __getitem__(self, index: int) -> Alert:
        index = range(len(self))[index]  # as a list's index: from the end if negative
        if index >= (packed := len(self._ends) - 1):
            line = self.lines[index - packed]
        else:
            line = self._read(self._ends[index], self._ends[index + 1])
        t, seq, kind, fields = line.split(",", 3)
        return Alert(int(t[5:]), int(seq[6:]), kind[8:-1], fields[:-2])


# A non-finite number raises ValueError rather than being written as NaN or
# Infinity, which are not JSON.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
# JSONEncoder.encode builds a new C encoder on every call; this one is built
# once, with _ENCODER's settings (ASCII strings, keys in record order, finite
# numbers) but no circular-reference check, as a record is a tree. Without the
# _json accelerator c_make_encoder is None and _ENCODER encodes.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None,
    ":", ",", False, False, False,
)


def _fields(payload: dict[str, Any]) -> str:
    """A payload as an alert's fields: its keys sorted, nested values in their own order."""
    record = dict(sorted(payload.items()))
    return ("".join(_C_ENCODER(record, 0)) if _C_ENCODER else _ENCODER.encode(record))[1:-1]


def _line(t: int, seq: int, kind: str, fields: str) -> str:
    """An alert's log line: t, seq and kind, then its fields, and "}\\n"."""
    return f'{{"t":{t},"seq":{seq},"kind":"{kind}",{fields}}}\n'


def write_alert_log(log: AlertLog, sink: str | Path | IO[str]) -> None:
    """Write the log's lines, as they are, to the sink."""
    write_text(sink, log.chunks())


def read_alert_log(source: str | Path | IO[str]) -> list[Alert]:
    """Parse a written alert log back into Alert values."""
    return [Alert(t, rest.pop("seq"), kind, _fields(rest))
            for _, t, kind, rest in read_records(source, ALERT_FIELDS, AlertLogError)]


# ---------------------------------------------------------------------------
# Engine

# External events that end the current exposure stretch; a warning falling on
# the exact same instant is a reach, not a crossing, and must not fire.
_EPOCH_TERMINATORS = frozenset({"call_end", "safety_mode_enter"})

# A heap deadline's subsystem, which orders same-instant deadlines: a tracker
# timeout, then the forward of an unattended alert.
_TIMEOUT, _FORWARD = range(2)

# The run dispatches events in batches of at least this many (about 0.1 MB), cut
# between instants: one by one, parse and dispatch interleaved took 10-20% longer.
_BATCH = 256


class Engine:
    """One scenario run. Owns all its state, but of the knowledge base copies only the map of
    safety records, the one part a run changes. ``diagnostics`` notes what it could not act on.

    The active call's next exposure crossing is the monitor's ``next_warning_ms``.
    Every other internal deadline waits in one heap of (t, subsystem, creation number,
    key), so same-instant deadlines fire by subsystem, then in creation order, after a
    crossing at that instant. A heap entry whose subsystem has dropped it since (report
    arrived, alert attended) is skipped when it comes up."""

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

        self.clock = 0
        self.entries = AlertLog()
        self.diagnostics: list[str] = []
        self._alerts = 0  # the log's length, kept here: len() of it is a Python call
        self._deadlines: list[tuple[int, int, int, Any]] = []
        self._created = count()
        # seq -> (kind, line) of each user-facing alert neither attended nor forwarded yet
        self._pending: dict[int, tuple[str, str]] = {}

    # -- plumbing -----------------------------------------------------------

    def _note(self, message: str) -> None:
        self.diagnostics.append(f"t={self.clock}: {message}")

    def _emit(self, kind: str, payload: dict[str, Any]) -> None:
        self._emit_fields(kind, _fields(payload))

    def _emit_fields(self, kind: str, fields: str) -> None:
        seq = self._alerts = self._alerts + 1
        line = _line(self.clock, seq, kind, fields)
        self.entries.write(line)
        if kind in USER_FACING_ALERT_KINDS:
            self._pending[seq] = (kind, line)
            self._push(self.clock + self.config.attend_window_ms, _FORWARD, seq)

    def _emit_snapshot(self) -> None:
        self._emit_fields("sorted_list_snapshot",
                          self.tally.snapshot(self.clock, self.config.sorter_t_floor_min))

    def _emit_tracker(self, kind: str, task: TrackerTask) -> None:
        self._emit(kind, {"prompt_id": task.prompt_id, "callee": task.callee_id,
                          "tracking_msg_id": task.tracking_msg_id})

    # -- internal deadlines -------------------------------------------------

    def _push(self, t: int, subsystem: int, key: Any = None) -> None:
        heapq.heappush(self._deadlines, (t, subsystem, next(self._created), key))

    def _fire_deadlines(self, before: float) -> None:
        """Fire every live deadline earlier than ``before``, in time order: the monitor's
        crossing, which wins a tie, and the heap's entries."""
        deadlines, monitor = self._deadlines, self.monitor
        while True:
            due = monitor.next_warning_ms
            if deadlines and deadlines[0][0] < before and (due is None or deadlines[0][0] < due):
                t, subsystem, _, key = heapq.heappop(deadlines)
                self.clock = t
                if subsystem == _TIMEOUT:
                    task = self.tracker.expire(key)
                    if task is not None:
                        self._emit_tracker("tracker_expired", task)
                elif (pending := self._pending.pop(key, None)) is not None:
                    self._forward(*pending)
            elif due is not None and due < before:
                self.clock = due
                self._fire_crossing()
            else:
                return

    def _fire_crossing(self) -> None:
        exposure = self.monitor.note_warning()
        # The limit is passed only if the exposure stretch outlasts this instant.
        if self.clock not in self._ending:
            self._emit("radiation_incall_warning",
                       {"caller": self.monitor.caller_id, "exposure_ms": exposure})

    def _forward(self, kind: str, line: str) -> None:
        for device in matching_devices(self.kb.devices, self.ctx.current, kind):
            device_id = encode_basestring_ascii(device.device_id)
            self._emit_fields("forward_to_device", f'"alert":{line[:-1]},"device_id":{device_id}')

    # -- per-event handlers, each calling its stages in the documented order --

    def _dispatch(self, ev: Event) -> None:
        _HANDLERS[ev.kind](self, ev)

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
            self.monitor.start_call(ev.t, caller, ev.data.get("safety", False))
        # sorter stage
        self.tally.add(caller, "call", ev.t, group)

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
        self.tally.add(ev.data["caller"], "message", ev.t, self.kb.contact_group(ev.data["caller"]))

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
            self._push(task.expires_ms, _TIMEOUT, task.tracking_msg_id)
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
        if alert_id > self._alerts:
            self._note(f"notification_attended for unknown alert id {alert_id}")
            return
        alert = self.entries[alert_id - 1]
        # sorter stage: attending the item's alert acknowledges the item
        if (item_kind := MISSED_ITEM_KIND.get(alert.kind)) is not None:
            self.tally.acknowledge(json.loads(f"{{{alert.fields}}}")["caller"], item_kind)
        # forwarder stage: an alert attended in time never forwards
        self._pending.pop(alert_id, None)

    def _on_sleep_mode(self, ev: Event) -> None:
        self.sleep.set_active(ev.data["on"])

    def _on_snapshot_request(self, ev: Event) -> None:
        self._emit_snapshot()

    # -- main loop ------------------------------------------------------------

    def _run_batch(self, events: list[Event]) -> None:
        # A crossing fires before the first event at or after its instant (it falls
        # a positive limit after the instant that sets it), and batches
        # hold whole instants, so this batch knows whether that instant ends exposure.
        self._ending = {ev.t for ev in events if ev.kind in _EPOCH_TERMINATORS}
        for ev in events:
            self._fire_deadlines(ev.t + 1)
            self.clock = ev.t
            self._dispatch(ev)
        self.entries.pack()

    def run(self, scenario: Iterable[Event]) -> AlertLog:
        """Replay the scenario as it is read, in batches of whole instants."""
        batch: list[Event] = []
        for ev in scenario:
            if len(batch) >= _BATCH and ev.t != batch[-1].t:
                self._run_batch(batch)
                batch = []
            batch.append(ev)
        self._run_batch(batch)
        # A call the scenario never ended would keep producing exposure
        # warnings forever; stop tracking it, unclassified.
        if self.monitor.caller_id is not None:
            caller = self.monitor.abandon_call()
            self._note(
                f"call from {caller!r} still active at end of scenario; exposure tracking stopped"
            )
        self._fire_deadlines(math.inf)
        self.entries.pack()
        return self.entries


# Each event kind's handler, an Engine function taking the engine and the event.
_HANDLERS = {kind: getattr(Engine, f"_on_{kind}") for kind in _EVENT_FIELDS}
