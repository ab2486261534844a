"""Durable agent state: contacts, call-safety statistics, devices, signal registry.

The on-disk format is a single JSON document with four required sections:

    {
      "contacts":        [{"id", "name", "group", "temp_important"}, ...],
      "context_signals": {"<signal_kind>:<signal_value>": "<context name>", ...},
      "devices":         [{"device_id", "contexts": [...], "kinds": [...]}, ...],
      "safety_records":  {"<caller id>": {"total": int, "unsafe": int}, ...}
    }

Saving is canonical: map keys sorted, contacts sorted by id, device
context/kind sets sorted, two-space indent. Identical knowledge bases always
serialize to identical bytes, and load(save(kb)) reproduces an equal value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from .context import Context
from .errors import KnowledgeBaseError
from .forwarder import DeviceRegistration
from .model import ALERT_KINDS, Contact, Group, read_json, write_text

_TOP_KEYS = ("contacts", "context_signals", "devices", "safety_records")
_CONTACT_KEYS = ("id", "name", "group", "temp_important")
_DEVICE_KEYS = ("device_id", "contexts", "kinds")
_RECORD_KEYS = ("total", "unsafe")

_CONTEXT_NAMES = tuple(c.value for c in Context)  # tuples: a set raises TypeError on a list
_GROUP_NAMES = tuple(g.value for g in Group)


@dataclass
class SafetyRecord:
    """Per-caller tally of calls that ran past the safe conversation limit."""

    total_calls: int = 0
    unsafe_calls: int = 0

    def validate(self, caller_id: str) -> None:
        if self.total_calls < 0 or self.unsafe_calls < 0:
            raise KnowledgeBaseError(f"safety_records[{caller_id!r}]: counts must be nonnegative")
        if self.unsafe_calls > self.total_calls:
            raise KnowledgeBaseError(
                f"safety_records[{caller_id!r}]: unsafe ({self.unsafe_calls}) "
                f"exceeds total ({self.total_calls})"
            )


@dataclass
class KnowledgeBase:
    contacts: dict[str, Contact] = field(default_factory=dict)
    safety_records: dict[str, SafetyRecord] = field(default_factory=dict)
    devices: list[DeviceRegistration] = field(default_factory=list)
    context_signals: dict[str, Context] = field(default_factory=dict)

    def contact_group(self, caller_id: str) -> Group:
        """Group of a caller; callers without a contact entry count as Group D."""
        contact = self.contacts.get(caller_id)
        return contact.group if contact is not None else Group.D

    def temp_important(self, caller_id: str) -> bool:
        contact = self.contacts.get(caller_id)
        return contact.temp_important if contact is not None else False

    def record_call(self, caller_id: str, unsafe: bool) -> SafetyRecord:
        """Count one finished call; creates the caller's record on first use."""
        record = self.safety_records.get(caller_id)
        if record is None:
            record = SafetyRecord()
            self.safety_records[caller_id] = record
        record.total_calls += 1
        if unsafe:
            record.unsafe_calls += 1
        return record

    def validate(self) -> None:
        for key, contact in self.contacts.items():
            if not contact.id:
                raise KnowledgeBaseError("contacts: contact id must be non-empty")
            if key != contact.id:
                raise KnowledgeBaseError(f"contacts[{key!r}]: key does not match contact id")
        for caller_id, record in self.safety_records.items():
            record.validate(caller_id)
        seen: set[str] = set()
        for device in self.devices:
            if not device.device_id:
                raise KnowledgeBaseError("devices: device_id must be non-empty")
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


def _require_keys(obj: dict[str, Any], keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise KnowledgeBaseError(f"{where}: missing field {missing[0]!r}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise KnowledgeBaseError(f"{where}: unknown field {extra[0]!r}")


def _parse_contact(obj: Any, index: int) -> Contact:
    where = f"contacts[{index}]"
    if not isinstance(obj, dict):
        raise KnowledgeBaseError(f"{where}: expected an object")
    _require_keys(obj, _CONTACT_KEYS, where)
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise KnowledgeBaseError(f"{where}: id must be a non-empty string")
    if not isinstance(obj["name"], str):
        raise KnowledgeBaseError(f"{where}: name must be a string")
    if obj["group"] not in _GROUP_NAMES:
        raise KnowledgeBaseError(f"{where}: group must be one of A, B, C, D")
    if not isinstance(obj["temp_important"], bool):
        raise KnowledgeBaseError(f"{where}: temp_important must be a boolean")
    return Contact(
        id=obj["id"],
        display_name=obj["name"],
        group=Group(obj["group"]),
        temp_important=obj["temp_important"],
    )


def _parse_device(obj: Any, index: int) -> DeviceRegistration:
    where = f"devices[{index}]"
    if not isinstance(obj, dict):
        raise KnowledgeBaseError(f"{where}: expected an object")
    _require_keys(obj, _DEVICE_KEYS, where)
    if not isinstance(obj["device_id"], str) or not obj["device_id"]:
        raise KnowledgeBaseError(f"{where}: device_id must be a non-empty string")
    for list_field in ("contexts", "kinds"):
        value = obj[list_field]
        if not isinstance(value, list) or not value:
            raise KnowledgeBaseError(f"{where}: {list_field} must be a non-empty array")
    for name in obj["contexts"]:
        if name not in _CONTEXT_NAMES:
            raise KnowledgeBaseError(f"{where}: unknown context {name!r}")
    for kind in obj["kinds"]:
        if kind not in ALERT_KINDS:
            raise KnowledgeBaseError(f"{where}: unknown alert kind {kind!r}")
    return DeviceRegistration(
        device_id=obj["device_id"],
        contexts=frozenset(Context(name) for name in obj["contexts"]),
        kinds=frozenset(obj["kinds"]),
    )


def _parse_record(obj: Any, caller_id: str) -> SafetyRecord:
    where = f"safety_records[{caller_id!r}]"
    if not isinstance(obj, dict):
        raise KnowledgeBaseError(f"{where}: expected an object")
    _require_keys(obj, _RECORD_KEYS, where)
    for key in _RECORD_KEYS:
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise KnowledgeBaseError(f"{where}: {key} must be an integer")
    return SafetyRecord(total_calls=obj["total"], unsafe_calls=obj["unsafe"])


def kb_from_dict(doc: Any) -> KnowledgeBase:
    if not isinstance(doc, dict):
        raise KnowledgeBaseError("document root: expected an object")
    _require_keys(doc, _TOP_KEYS, "document root")
    if not isinstance(doc["contacts"], list):
        raise KnowledgeBaseError("contacts: expected an array")
    if not isinstance(doc["devices"], list):
        raise KnowledgeBaseError("devices: expected an array")
    if not isinstance(doc["safety_records"], dict):
        raise KnowledgeBaseError("safety_records: expected an object")
    if not isinstance(doc["context_signals"], dict):
        raise KnowledgeBaseError("context_signals: expected an object")

    contacts: dict[str, Contact] = {}
    for index, raw in enumerate(doc["contacts"]):
        contact = _parse_contact(raw, index)
        if contact.id in contacts:
            raise KnowledgeBaseError(f"contacts[{index}]: duplicate id {contact.id!r}")
        contacts[contact.id] = contact

    safety_records = {
        caller_id: _parse_record(raw, caller_id)
        for caller_id, raw in doc["safety_records"].items()
    }

    devices = [_parse_device(raw, index) for index, raw in enumerate(doc["devices"])]

    context_signals: dict[str, Context] = {}
    for signal, name in doc["context_signals"].items():
        if name not in _CONTEXT_NAMES:
            raise KnowledgeBaseError(f"context_signals[{signal!r}]: unknown context {name!r}")
        context_signals[signal] = Context(name)

    kb = KnowledgeBase(
        contacts=contacts,
        safety_records=safety_records,
        devices=devices,
        context_signals=context_signals,
    )
    kb.validate()
    return kb


def kb_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-data form with deterministic ordering, ready for serialization."""
    return {
        "contacts": [
            {
                "id": contact.id,
                "name": contact.display_name,
                "group": contact.group.value,
                "temp_important": contact.temp_important,
            }
            for contact in (kb.contacts[key] for key in sorted(kb.contacts))
        ],
        "context_signals": {
            signal: context.value for signal, context in sorted(kb.context_signals.items())
        },
        "devices": [
            {
                "device_id": device.device_id,
                "contexts": sorted(c.value for c in device.contexts),
                "kinds": sorted(device.kinds),
            }
            for device in kb.devices
        ],
        "safety_records": {
            caller_id: {"total": record.total_calls, "unsafe": record.unsafe_calls}
            for caller_id, record in sorted(kb.safety_records.items())
        },
    }


def kb_to_text(kb: KnowledgeBase) -> str:
    return json.dumps(kb_to_dict(kb), sort_keys=True, indent=2) + "\n"


def load_kb(source: str | Path | IO[str]) -> KnowledgeBase:
    """Parse and validate a knowledge-base document from a path or stream."""
    return kb_from_dict(read_json(source, KnowledgeBaseError))


def save_kb(kb: KnowledgeBase, sink: str | Path | IO[str]) -> None:
    """Write the canonical form; identical inputs yield identical bytes."""
    write_text(sink, kb_to_text(kb))
