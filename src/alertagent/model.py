"""Core domain types (contact groups, events, alerts, agent configuration), the
strict JSON readers every input file goes through, and the field tables every
input object is checked against."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from .errors import ConfigError, InputError


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


# RFC 8259 JSON with unique keys and finite numbers. Plain json.loads accepts
# NaN and Infinity (which json.dumps then writes back, making invalid JSON),
# lets the last of two equal keys win, and reads 1e999 as infinity. The hooks
# raise ValueError, as int() does for a literal longer than Python's digit limit.
_DECODER = json.JSONDecoder(
    object_pairs_hook=_unique_keys, parse_constant=_finite_float, parse_float=_finite_float
)


def _read_text(source: str | Path | IO[str], error: type[InputError]) -> str:
    """Whole text of a file path (UTF-8) or of an open text stream."""
    if not isinstance(source, (str, Path)):
        return source.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise error(f"line {line}: invalid UTF-8: {exc.reason}") from exc


def _decode(text: str, error: type[InputError], line: int | None = None) -> Any:
    """Decode one JSON text; ``line`` is its line number when it is one line of a file.

    A line comes stripped of JSON whitespace, so ``raw_decode`` (no whitespace
    scans) reads it whole or leaves "Extra data", as ``decode`` would.
    """
    where = "" if line is None else f"line {line}: "
    try:
        if line is None:
            return _DECODER.decode(text)
        obj, end = _DECODER.raw_decode(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        return obj
    except json.JSONDecodeError as exc:
        if line is None:
            where = f"line {exc.lineno}, column {exc.colno}: "
        raise error(f"{where}invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise error(f"{where}invalid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{where}invalid JSON: nested too deeply") from None


def read_json(source: str | Path | IO[str], error: type[InputError]) -> Any:
    """Strictly decode a whole JSON document; any fault raises ``error``."""
    return _decode(_read_text(source, error), error)


def read_json_lines(
    source: str | Path | IO[str], error: type[InputError]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """(1-based line number, object) for each non-blank line of a JSON-lines file.

    Lines end at "\\n" only (str.splitlines also splits at a raw U+2028 inside
    a string), and only JSON's own whitespace around a line is stripped
    (str.strip also strips U+00A0 and the like). Each line is decoded like
    ``read_json`` and must hold an object.
    """
    for lineno, raw in enumerate(_read_text(source, error).split("\n"), start=1):
        line = raw.strip(" \t\r")
        if line:
            obj = _decode(line, error, lineno)
            if not isinstance(obj, dict):
                raise error(f"line {lineno}: expected a JSON object")
            yield lineno, obj


def write_text(sink: str | Path | IO[str], chunks: Iterable[str]) -> None:
    """Write text chunks, one after another, to a file path (UTF-8) or an open text stream."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sink.writelines(chunks)


# A field table maps each field an object may hold to (check, default). A check
# returns what is wrong with a value, or None. A field whose default is
# REQUIRED must be given; any other may be left out, and ABSENT means it has no
# default value. Only parse_scenario fills in defaults; check_fields never does.
Fields = dict[str, tuple[Callable[[Any], Any], Any]]
REQUIRED = object()
ABSENT = object()
MAX_T = 2**53 - 1  # the bound on event times and durations (ms): exact as a double


def need_str(choices: Any = None, default: Any = REQUIRED):
    """A non-empty string, one of ``choices`` if given."""

    def check(value: Any) -> str | None:
        if not isinstance(value, str) or not value:
            return "must be a non-empty string"
        if choices is not None and value not in choices:
            return f"must be one of {sorted(choices)}"
        return None

    return check, default


def need_int(lo: int | None = None, hi: int | None = None, default: Any = REQUIRED):
    def check(value: Any) -> str | None:
        if not isinstance(value, int) or isinstance(value, bool):
            return "must be an integer"
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return "out of range"
        return None

    return check, default


def need_choices(choices: Any, default: Any = REQUIRED):
    """An array whose items are each one of ``choices``."""

    def check(value: Any) -> str | None:
        if not isinstance(value, list):
            return "must be an array"
        for item in value:
            if not isinstance(item, str) or item not in choices:
                return f"holds {item!r}, not one of {sorted(choices)}"
        return None

    return check, default


_TYPE_NAMES = {
    bool: "a boolean", float: "a number", str: "a string", list: "an array", dict: "an object"
}


def need_type(kind: type, default: Any = REQUIRED):
    """Any JSON value of one type: ``float`` takes integers a float can hold, ``str`` takes ""."""
    kinds = (int, float) if kind is float else kind

    def check(value: Any) -> str | None:
        if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
            return f"must be {_TYPE_NAMES[kind]}"
        if kind is float and isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                return "is too large for a float"
        return None

    return check, default


def fields_problem(obj: Any, fields: Fields) -> str | None:
    """What is wrong with ``obj`` against a field table, or None."""
    if not isinstance(obj, dict):
        return "expected an object"
    known = 0
    for name, (check, default) in fields.items():
        if name in obj:
            known += 1
            problem = check(obj[name])
            if problem is not None:
                return f"field {name!r} {problem}"
        elif default is REQUIRED:
            return f"missing field {name!r}"
    if known < len(obj):
        return f"unknown field {next(name for name in obj if name not in fields)!r}"
    return None


def check_fields(obj: Any, fields: Fields, where: str | int, error: type[InputError]) -> None:
    """Raise ``error`` at ``where``, a line number or a path, if ``obj`` breaks ``fields``."""
    problem = fields_problem(obj, fields)
    if problem is not None:
        raise error(f"{f'line {where}' if isinstance(where, int) else where}: {problem}")


class Group(str, Enum):
    """Contact classification. A is the inner circle, D covers unknown callers."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


_WEIGHTS = {Group.A: 4, Group.B: 3, Group.C: 2, Group.D: 1}


def group_weight(group: Group) -> int:
    """Priority weight of a group: A=4, B=3, C=2, D=1."""
    return _WEIGHTS[group]


@dataclass(frozen=True)
class Contact:
    id: str
    display_name: str
    group: Group
    temp_important: bool = False


class Event(NamedTuple):
    """One timestamped input to the engine.

    ``t`` is virtual milliseconds since the scenario epoch. ``seq`` breaks
    ties between events sharing the same ``t`` (file order).
    """

    t: int
    seq: int
    kind: str
    data: dict[str, Any]


class BatteryAction(str, Enum):
    INFORM_CALLER = "inform_caller"
    DIVERT_GROUP_A = "divert_group_a"
    SEND_STATUS_SMS = "send_status_sms"
    EMAIL_STATUS = "email_status"


# Actions whose destination (phone number or address) must be configured.
_NEEDS_DESTINATION = frozenset(
    {BatteryAction.DIVERT_GROUP_A, BatteryAction.SEND_STATUS_SMS, BatteryAction.EMAIL_STATUS}
)


@dataclass(frozen=True)
class BatteryActionSpec:
    """One enabled low-battery action and its destination, if it needs one."""

    kind: BatteryAction
    destination: str = ""


FAILURE_REASONS = ("switched_off", "unreachable", "dropped")


class Alert(NamedTuple):
    """One output decision. ``seq`` is unique and strictly increasing per run."""

    t: int
    seq: int
    kind: str
    payload: dict[str, Any]

    def to_record(self) -> dict[str, Any]:
        """Flat record in canonical key order: t, seq, kind, then sorted payload keys."""
        record: dict[str, Any] = {"t": self.t, "seq": self.seq, "kind": self.kind}
        for key in sorted(self.payload):
            record[key] = self.payload[key]
        return record


_SNAPSHOT_ENTRY: Fields = {
    "caller": need_str(),
    "kind": need_str(("call", "message")),
    "score": need_type(float),
}


def _snapshot_entries(value: Any) -> str | None:
    if not isinstance(value, list):
        return "must be an array"
    for index, entry in enumerate(value):
        problem = fields_problem(entry, _SNAPSHOT_ENTRY)
        if problem is not None:
            return f"item {index}: {problem}"
    return None


_CALLER = {"caller": need_str()}
_PROMPT = {"prompt_id": need_str(), "callee": need_str()}
_TRACKER = _PROMPT | {"tracking_msg_id": need_str()}

# Every alert kind, with the payload fields it carries besides t, seq and kind.
ALERT_FIELDS: dict[str, Fields] = {
    kind: {"t": need_int(), "seq": need_int(), "kind": need_str(), **fields}
    for kind, fields in {
        "ring": _CALLER,
        "beep": _CALLER,
        "suppress_note": _CALLER | {"count": need_int(), "ring_at": need_int()},
        "prompt": _PROMPT | {"reason": need_str(FAILURE_REASONS)},
        "tracker_message": _TRACKER,
        "tracker_notify": _TRACKER,
        "tracker_expired": _TRACKER,
        "radiation_precall_warning": _CALLER | {"probability": need_type(float)},
        "radiation_incall_warning": _CALLER | {"exposure_ms": need_int()},
        "battery_action": {
            "action": need_str({a.value for a in BatteryAction}),
            "caller": need_str(default=ABSENT),
            "destination": need_str(default=ABSENT),
        },
        "forward_to_device": {"device_id": need_str(), "alert": need_type(dict)},
        "sorted_list_snapshot": {"entries": (_snapshot_entries, REQUIRED)},
    }.items()
}
ALERT_KINDS = tuple(ALERT_FIELDS)

# Alert kinds presented directly to the user. Only these enter the
# attendance ledger and are eligible for forwarding to registered devices.
USER_FACING_ALERT_KINDS = frozenset(
    {
        "ring",
        "beep",
        "tracker_notify",
        "radiation_precall_warning",
        "radiation_incall_warning",
    }
)


def _clip(value: Any) -> str:
    """``value`` as an error message echoes it: at most 20 characters."""
    text = str(value)
    return text if len(text) <= 20 else text[:19] + "…"


@dataclass(frozen=True)
class AgentConfig:
    """Tunable thresholds for every subsystem, all on the virtual clock."""

    battery_critical_pct: int = 4
    battery_rearm_pct: int = 20
    safe_call_limit_ms: int = 360_000
    precall_prob_threshold: float = 0.5
    precall_min_calls: int = 3
    attend_window_ms: int = 60_000
    tracker_timeout_ms: int = 86_400_000
    sorter_t_floor_min: float = 1.0
    battery_actions: tuple[BatteryActionSpec, ...] = ()

    def validate(self) -> None:
        if not 0 < self.battery_critical_pct < self.battery_rearm_pct <= 100:
            raise ConfigError(
                "battery thresholds must satisfy 0 < battery_critical_pct "
                f"< battery_rearm_pct <= 100, got {_clip(self.battery_critical_pct)} "
                f"and {_clip(self.battery_rearm_pct)}"
            )
        # Bounded like event times, so every deadline stays a small integer.
        for name in ("safe_call_limit_ms", "attend_window_ms", "tracker_timeout_ms"):
            if not 0 < getattr(self, name) <= MAX_T:
                raise ConfigError(f"{name}: must be positive and at most 2**53 - 1")
        # A score is at most weight 4 times a count below 2**53, over the floor.
        floor = self.sorter_t_floor_min
        if not (math.isfinite(floor) and floor > 0 and math.isfinite(4 * 2**53 / floor)):
            raise ConfigError("sorter_t_floor_min: must be positive and keep every score finite")
        if not 0.0 <= self.precall_prob_threshold <= 1.0:
            raise ConfigError("precall_prob_threshold: must be within [0, 1]")
        if self.precall_min_calls < 0:
            raise ConfigError("precall_min_calls: must be nonnegative")
        for spec in self.battery_actions:
            if spec.kind in _NEEDS_DESTINATION and not spec.destination:
                raise ConfigError(f"battery action {spec.kind.value}: destination required")
