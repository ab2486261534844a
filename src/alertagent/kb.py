"""Durable agent state: contacts, call-safety statistics, signal registry, devices to forward to.
README.md's "Knowledge base" section gives the document's four sections and its canonical
layout, so that identical knowledge bases save to identical bytes."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Iterator, NamedTuple

from .context import Context
from .errors import KnowledgeBaseError
from .model import (
    ALERT_KINDS,
    MAX_T,
    Contact,
    Group,
    check_fields,
    need_choices,
    need_int,
    need_str,
    need_type,
    read_json,
    write_text,
)

_CONTEXTS = {c.value: c for c in Context}
_GROUPS = {g.value: g for g in Group}


def _signal_map(value: Any) -> str | None:
    """context_signals: an object that maps each signal key to a context name."""
    if not isinstance(value, dict):
        return "must be an object"
    for signal, name in value.items():
        if not isinstance(name, str) or name not in _CONTEXTS:
            return f"maps {signal!r} to {name!r}, not one of {sorted(_CONTEXTS)}"
    return None


# Per-field types and choices. The rules that span fields or objects (ids
# non-empty, device ids unique, counts within [0, MAX_T], unsafe <= total) are in
# KnowledgeBase.validate, which knowledge bases built in code go through too.
_TOP = {
    "contacts": need_type(list),
    "context_signals": (_signal_map, True),
    "devices": need_type(list),
    "safety_records": need_type(dict),
}
_CONTACT = {
    "id": need_type(str),
    "name": need_type(str),
    "group": need_str(_GROUPS),
    "temp_important": need_type(bool),
}
_DEVICE = {
    "device_id": need_type(str),
    "contexts": need_choices(_CONTEXTS),
    "kinds": need_choices(ALERT_KINDS),
}
_RECORD = {"total": need_int(), "unsafe": need_int()}


class SafetyRecord(NamedTuple):
    """Per-caller tally of calls that ran past the safe conversation limit."""

    total_calls: int = 0
    unsafe_calls: int = 0

    def validate(self, caller_id: str) -> None:
        if self.total_calls < 0 or self.unsafe_calls < 0:
            raise KnowledgeBaseError(f"safety_records[{caller_id!r}]: counts must be nonnegative")
        for name, count in (("total", self.total_calls), ("unsafe", self.unsafe_calls)):
            if count > MAX_T:
                raise KnowledgeBaseError(
                    f"safety_records[{caller_id!r}]: {name} must be at most 2**53 - 1"
                )
        if self.unsafe_calls > self.total_calls:
            raise KnowledgeBaseError(
                f"safety_records[{caller_id!r}]: unsafe ({self.unsafe_calls}) "
                f"exceeds total ({self.total_calls})"
            )


class DeviceRegistration(NamedTuple):
    """A device that accepts certain alert kinds while in certain contexts."""

    device_id: str
    contexts: frozenset[Context]
    kinds: frozenset[str]


def matching_devices(devices: list[DeviceRegistration], current: Context,
                     alert_kind: str) -> list[DeviceRegistration]:
    """Devices registered for (current context, alert kind), in registry order;
    none while the context is Unknown, where forwarding is inert."""
    if current is Context.UNKNOWN:
        return []
    return [d for d in devices if current in d.contexts and alert_kind in d.kinds]


class KnowledgeBase:
    def __init__(self, contacts: dict[str, Contact] | None = None,
                 safety_records: dict[str, SafetyRecord] | None = None,
                 devices: list[DeviceRegistration] | None = None,
                 context_signals: dict[str, Context] | None = None) -> None:
        self.contacts = {} if contacts is None else contacts
        self.safety_records = {} if safety_records is None else safety_records
        self.devices = [] if devices is None else devices
        self.context_signals = {} if context_signals is None else context_signals

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is KnowledgeBase else NotImplemented

    def contact_group(self, caller_id: str) -> Group:
        """Group of a caller; callers without a contact entry count as Group D."""
        contact = self.contacts.get(caller_id)
        return contact.group if contact is not None else Group.D

    def temp_important(self, caller_id: str) -> bool:
        contact = self.contacts.get(caller_id)
        return contact.temp_important if contact is not None else False

    def record_call(self, caller_id: str, unsafe: bool) -> None:
        """Count one finished call in a new record for the caller, from zero on first use.

        A count stops at MAX_T, the bound a loaded record is held to, so a saved
        knowledge base always loads again, and unsafe stays at most total.
        """
        record = self.safety_records.get(caller_id) or SafetyRecord()
        self.safety_records[caller_id] = SafetyRecord(
            min(record.total_calls + 1, MAX_T), min(record.unsafe_calls + unsafe, MAX_T))

    def copy(self) -> KnowledgeBase:
        """A copy a run may change. Only ``record_call`` changes anything, and it stores a
        new record, so only the map of safety records is copied; the rest is shared."""
        return KnowledgeBase(**vars(self) | {"safety_records": dict(self.safety_records)})

    def validate(self) -> None:
        for key, contact in self.contacts.items():
            if not contact.id:
                raise KnowledgeBaseError(f"contacts[{key!r}]: contact id must be non-empty")
            if key != contact.id:
                raise KnowledgeBaseError(f"contacts[{key!r}]: key does not match contact id")
        for caller_id, record in self.safety_records.items():
            if not caller_id:
                raise KnowledgeBaseError("safety_records['']: caller id must be non-empty")
            record.validate(caller_id)
        seen: set[str] = set()
        for index, device in enumerate(self.devices):
            if not device.device_id:
                raise KnowledgeBaseError(f"devices[{index}]: device_id must be non-empty")
            if device.device_id in seen:
                raise KnowledgeBaseError(f"devices[{device.device_id!r}]: duplicate device_id")
            seen.add(device.device_id)
            if not device.contexts or not device.kinds:
                raise KnowledgeBaseError(
                    f"devices[{device.device_id!r}]: contexts and kinds must be non-empty"
                )
        for signal in self.context_signals:
            if not signal:
                raise KnowledgeBaseError("context_signals: signal key must be non-empty")


def kb_from_dict(doc: Any) -> KnowledgeBase:
    """The knowledge base a document describes; ``doc`` is left unchanged."""
    check_fields(doc, _TOP, "document root", KnowledgeBaseError)
    signals = doc["context_signals"]
    kb = KnowledgeBase(context_signals={key: _CONTEXTS[name] for key, name in signals.items()})
    for index, obj in enumerate(doc["contacts"]):
        check_fields(obj, _CONTACT, f"contacts[{index}]", KnowledgeBaseError)
        if obj["id"] in kb.contacts:
            raise KnowledgeBaseError(f"contacts[{index}]: duplicate id {obj['id']!r}")
        group = _GROUPS[obj["group"]]
        kb.contacts[obj["id"]] = Contact(obj["id"], obj["name"], group, obj["temp_important"])
    for caller_id, obj in doc["safety_records"].items():
        check_fields(obj, _RECORD, f"safety_records[{caller_id!r}]", KnowledgeBaseError)
        kb.safety_records[caller_id] = SafetyRecord(obj["total"], obj["unsafe"])
    for index, obj in enumerate(doc["devices"]):
        check_fields(obj, _DEVICE, f"devices[{index}]", KnowledgeBaseError)
        contexts = frozenset(_CONTEXTS[name] for name in obj["contexts"])
        kb.devices.append(DeviceRegistration(obj["device_id"], contexts, frozenset(obj["kinds"])))
    kb.validate()
    return kb


def _strings(values: list[str]) -> str:
    """A device's contexts or kinds (never empty once validated) as the document lays them out."""
    return "[\n        " + ",\n        ".join(map(encode_basestring_ascii, values)) + "\n      ]"


def _kb_chunks(kb: KnowledgeBase) -> Iterator[str]:
    """The canonical document, byte for byte what ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"`` gives, one chunk per contact, device or safety record; before
    Python 3.13 indent=2 makes json encode in pure Python, so the layout is written
    here around json's C string encoder."""
    s = encode_basestring_ascii
    contacts = (
        f'{{\n      "group": {s(c.group.value)},\n      "id": {s(c.id)},\n      "name": '
        f'{s(c.display_name)},\n      "temp_important": {"true" if c.temp_important else "false"}'
        "\n    }" for c in (kb.contacts[key] for key in sorted(kb.contacts))
    )
    signals = (f"{s(key)}: {s(c.value)}" for key, c in sorted(kb.context_signals.items()))
    devices = (
        f'{{\n      "contexts": {_strings(sorted(c.value for c in d.contexts))},\n      '
        f'"device_id": {s(d.device_id)},\n      "kinds": {_strings(sorted(d.kinds))}\n    }}'
        for d in kb.devices
    )
    records = (
        f'{s(caller_id)}: {{\n      "total": {r.total_calls},\n      "unsafe": {r.unsafe_calls}'
        "\n    }" for caller_id, r in sorted(kb.safety_records.items())
    )
    opening = "{\n"
    for name, items, brackets in (("contacts", contacts, "[]"), ("context_signals", signals, "{}"),
                                  ("devices", devices, "[]"), ("safety_records", records, "{}")):
        yield f'{opening}  "{name}": {brackets[0]}'
        between = "\n    "  # json.dumps writes an empty array or object as its brackets
        for item in items:
            yield between + item
            between = ",\n    "
        yield brackets[1] if between == "\n    " else f"\n  {brackets[1]}"
        opening = ",\n"
    yield "\n}\n"


def load_kb(source: str | Path | IO[str]) -> KnowledgeBase:
    """Parse and validate a knowledge-base document from a path or stream."""
    return kb_from_dict(read_json(source, KnowledgeBaseError))


def save_kb(kb: KnowledgeBase, sink: str | Path | IO[str]) -> None:
    """Write the canonical form a chunk at a time; identical inputs yield identical bytes."""
    write_text(sink, _kb_chunks(kb))
