"""Core domain types (contact groups, events, alerts, agent configuration), the
strict JSON readers every input file goes through, and the field tables every
input object is checked against."""

from __future__ import annotations

import json
import math
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, NamedTuple

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
# The same decoder without the duplicate-key hook, which makes json's C scanner
# build a list of pairs and call back into Python for every object. Only
# read_json_lines uses it, and only where no key can repeat (see there).
_SCAN_LINE = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float).scan_once


def _decode(text: str, error: type[InputError], line: int | None = None) -> Any:
    """Decode one JSON text; ``line`` is its line number when it is one line of a file."""
    where = "" if line is None else f"line {line}: "
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        if line is None:
            where = f"line {exc.lineno}, column {exc.colno}: "
        raise error(f"{where}invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a hook's fault, or too deep a nesting
        message = "nested too deeply" if isinstance(exc, RecursionError) else str(exc)
        raise error(f"{where or _fault_where(text, str(exc))}invalid JSON: {message}") from exc


def _fault_where(text: str, fault: str) -> str:
    """The "line N: " for a fault, its exception's message, that json's C decode
    names without a place. N is the first line such that the text up to its end
    meets the same fault; any shorter cut ends inside the document, so it fails as a
    JSONDecodeError instead. "" when the whole text does not meet that fault again.
    """
    ends = list(accumulate(len(line) + 1 for line in text.split("\n")))
    lo, hi = 0, len(ends)
    while lo < hi:
        mid = (lo + hi) // 2
        met = None
        try:
            _DECODER.decode(text[: ends[mid]])
        except (ValueError, RecursionError) as exc:
            met = str(exc)
        lo, hi = (lo, mid) if met == fault else (mid + 1, hi)
    return f"line {lo + 1}: " if lo < len(ends) else ""


def read_json(source: str | Path | IO[str], error: type[InputError]) -> Any:
    """Strictly decode a whole JSON document read by ``_lines``; any fault raises ``error``."""
    text = ""
    for line in _lines(source, error):
        text += line  # extended in place while it has one reference: no list of every line
    return _decode(text, error)


def _key_count(value: dict) -> int:
    """The keys of every object in a decoded JSON value, at every depth. A loop,
    not recursion, so no depth the C scan reaches can exceed Python's call limit."""
    count, stack = 0, [value]
    while stack:
        value = stack.pop()
        if type(value) is dict:
            count += len(value)
            value = value.values()
        for item in value:
            if type(item) is dict or type(item) is list:
                stack.append(item)
    return count


def _lines(source: str | Path | IO[str], error: type[InputError]) -> Iterator[str]:
    """Lines of an open text stream as it splits them (``io.StringIO``: at "\\n" only), or
    of a path read one at a time, split at b"\\n" only and decoded as UTF-8 with its "\\n"."""
    if not isinstance(source, (str, Path)):
        yield from source
        return
    try:
        with open(source, "rb") as file:
            for lineno, raw in enumerate(file, start=1):
                yield raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"line {lineno}: invalid UTF-8: {exc.reason}") from exc
    except OSError as exc:
        raise error(exc.strerror or str(exc)) from exc


def read_json_lines(
    source: str | Path | IO[str], error: type[InputError]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """(1-based line number, object) for each non-blank line of a JSON-lines file.

    A path is read one line at a time, so the first faulty line in file order is named.
    Lines end at "\\n" only (str.splitlines also splits at a raw U+2028 inside a string),
    and only JSON's own whitespace around a line is stripped (str.strip also strips
    U+00A0 and the like). Each line is decoded like ``read_json`` and must hold an object.

    Each key in the text is followed by a colon outside any string, and a repeated
    key leaves the value fewer keys than the text. So a line with as many colons
    as its value has keys, at every depth, repeats no key: the hook-free scan
    decodes it as ``_decode`` would. Any other line, or one that scan fails on, is
    decoded again by ``_decode``, which gives the same value or names the fault.
    """
    for lineno, raw in enumerate(_lines(source, error), start=1):
        line = raw.strip(" \t\r\n")
        if line:
            try:
                obj, end = _SCAN_LINE(line, 0)
            except (StopIteration, ValueError, RecursionError):
                obj = end = None
            if not (isinstance(obj, dict) and end == len(line) and (
                    (colons := line.count(":")) == len(obj) or colons == _key_count(obj))):
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


MAX_T = 2**53 - 1  # the bound on event times and durations (ms): exact as a double


def need_str(choices: Any = None, required: bool = True):
    """A non-empty string, one of ``choices`` if given."""

    def check(value: Any) -> str | None:
        if not isinstance(value, str) or not value:
            return "must be a non-empty string"
        if choices is not None and value not in choices:
            return f"must be one of {sorted(choices)}"
        return None

    return check, required


def need_int(lo: int | None = None, hi: int | None = None, required: bool = True):
    def check(value: Any) -> str | None:
        if not isinstance(value, int) or isinstance(value, bool):
            return "must be an integer"
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return "out of range"
        return None

    return check, required


def need_choices(choices: Any, required: bool = True):
    """An array whose items are each one of ``choices``."""

    def check(value: Any) -> str | None:
        if not isinstance(value, list):
            return "must be an array"
        for item in value:
            if not isinstance(item, str) or item not in choices:
                return f"holds {item!r}, not one of {sorted(choices)}"
        return None

    return check, required


_TYPE_NAMES = {
    bool: "a boolean", float: "a number", str: "a string", list: "an array", dict: "an object"
}


def need_type(kind: type, required: bool = True):
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

    return check, required


def fields_problem(obj: Any, fields: dict) -> str | None:
    """What is wrong with ``obj`` against a field table, or None.

    A field table maps each field an object may hold to (check, required). A
    check returns what is wrong with a value, or None. A required field must be
    given; any other may be left out, and nothing fills it in. The walk is in
    table order, so the problem named is the first one there; an unknown field
    is named only when every known one passes.
    """
    if not isinstance(obj, dict):
        return "expected an object"
    known = 0
    for name, (check, required) in fields.items():
        if name in obj:
            known += 1
            problem = check(obj[name])
            if problem is not None:
                return f"field {name!r} {problem}"
        elif required:
            return f"missing field {name!r}"
    if known < len(obj):
        return f"unknown field {next(name for name in obj if name not in fields)!r}"
    return None


def check_fields(obj: Any, fields: dict, where: str | int, error: type[InputError]) -> None:
    """Raise ``error`` at ``where``, a line number or a path, naming the problem
    ``fields_problem`` finds in ``obj``, if any."""
    problem = fields_problem(obj, fields)
    if problem is not None:
        raise error(f"{f'line {where}' if isinstance(where, int) else where}: {problem}")


class Tagged(dict):
    """Field tables by the value of the field ``tag``: each kind's table holds
    ``common``, the tag and the kind's own fields. An object whose tag is missing
    or names no kind is checked against ``unknown``, which names the tag."""

    def __init__(self, tag: str, noun: str, common: dict, kinds: dict[str, dict]) -> None:
        super().__init__({kind: {**common, tag: need_str(), **own} for kind, own in kinds.items()})
        self.tag = tag
        self.unknown = {tag: (lambda value: f"names an unknown {noun}: {value!r}", True)}

    def table(self, obj: Any) -> dict:
        value = obj.get(self.tag) if isinstance(obj, dict) else None
        return self.get(value, self.unknown) if isinstance(value, str) else self.unknown


def read_records(
    source: str | Path | IO[str], tables: Tagged, error: type[InputError]
) -> Iterator[tuple[int, int, str, dict[str, Any]]]:
    """(line number, t, tag, the rest of the object) for each line of a JSON-lines
    file of timestamped records, each checked against the table its tag names."""
    for lineno, obj in read_json_lines(source, error):
        check_fields(obj, tables.table(obj), lineno, error)
        yield lineno, obj.pop("t"), obj.pop(tables.tag), obj


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


class Contact(NamedTuple):
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


class BatteryActionSpec(NamedTuple):
    """One enabled low-battery action and its destination, if it needs one."""

    kind: BatteryAction
    destination: str = ""


FAILURE_REASONS = ("switched_off", "unreachable", "dropped")


class Alert(NamedTuple):
    """One output decision. ``seq`` is unique and strictly increasing per run.
    ``fields`` is the text of its payload fields exactly as its log line holds
    them: keys sorted, compact JSON, without the outer braces."""

    t: int
    seq: int
    kind: str
    fields: str


_SNAPSHOT_ENTRY = {
    "caller": need_str(),
    "kind": need_str(("call", "message")),
    "score": need_type(float),
}


def _snapshot_entries(value: Any) -> str | None:
    if not isinstance(value, list):
        return "must be an array"
    for index, entry in enumerate(value):
        # An entry as the engine writes it passes without the table walk.
        if (type(entry) is dict and len(entry) == 3 and type(entry.get("score")) is float
                and entry.get("kind") in ("call", "message")
                and type(caller := entry.get("caller")) is str and caller):
            continue
        problem = fields_problem(entry, _SNAPSHOT_ENTRY)
        if problem is not None:
            return f"item {index}: {problem}"
    return None


def _forwarded(value: Any) -> str | None:
    problem = fields_problem(value, _USER_FACING_FIELDS.table(value))
    return problem and f"is not a user-facing alert: {problem}"


_CALLER = {"caller": need_str()}
_PROMPT = {"prompt_id": need_str(), "callee": need_str()}
_TRACKER = _PROMPT | {"tracking_msg_id": need_str()}

# Every alert kind, with the payload fields it carries besides t, seq and kind.
ALERT_FIELDS = Tagged("kind", "alert kind", {"t": need_int(), "seq": need_int()}, {
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
        "caller": need_str(required=False),
        "destination": need_str(required=False),
    },
    "forward_to_device": {"device_id": need_str(), "alert": (_forwarded, True)},
    "sorted_list_snapshot": {"entries": (_snapshot_entries, True)},
})
ALERT_KINDS = tuple(ALERT_FIELDS)

# Alert kinds presented directly to the user. Only these wait to be attended
# and are forwarded to registered devices: a forward carries one's record.
USER_FACING_ALERT_KINDS = frozenset(
    {"ring", "beep", "tracker_notify", "radiation_precall_warning", "radiation_incall_warning"}
)
# The alert kinds that report a missed item, and its kind: attending one acknowledges it.
MISSED_ITEM_KIND = {"ring": "call", "suppress_note": "call", "beep": "message"}
_USER_FACING_FIELDS = Tagged("kind", "user-facing alert kind", {}, {
    kind: fields for kind, fields in ALERT_FIELDS.items() if kind in USER_FACING_ALERT_KINDS
})


def _clip(value: Any) -> str:
    """``value`` as an error message echoes it: at most 20 characters."""
    text = str(value)
    return text if len(text) <= 20 else text[:19] + "…"


class AgentConfig(NamedTuple):
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
