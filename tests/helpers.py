"""Shared builders for test inputs. Everything goes through the real parsers."""

from __future__ import annotations

import importlib.util
import io
import json
from itertools import zip_longest
from pathlib import Path
from types import ModuleType
from typing import Any, Iterable, NamedTuple

import pytest

from alertagent.engine import AlertLog, Scenario, parse_scenario, write_alert_log
from alertagent.kb import KnowledgeBase, load_kb
from alertagent.model import Contact, Group
from alertagent.sorter import MissedItemTally


ROOT = Path(__file__).resolve().parent.parent


def load_bench_gen() -> ModuleType:
    """The benchmark's seeded input generator, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kb_doc(
    contacts: list[dict[str, Any]] | None = None,
    safety: dict[str, Any] | None = None,
    devices: list[dict[str, Any]] | None = None,
    signals: dict[str, str] | None = None,
) -> dict[str, Any]:
    return {
        "contacts": contacts or [],
        "safety_records": safety or {},
        "devices": devices or [],
        "context_signals": signals or {},
    }


def contact_doc(cid: str, group: str, temp_important: bool = False) -> dict[str, Any]:
    return {"id": cid, "name": cid.upper(), "group": group, "temp_important": temp_important}


def load_kb_doc(doc: dict[str, Any]) -> KnowledgeBase:
    return load_kb(io.StringIO(json.dumps(doc)))


def make_scenario(lines: list[dict[str, Any]]) -> Scenario:
    text = "\n".join(json.dumps(line) for line in lines) + "\n"
    return parse_scenario(io.StringIO(text))


def log_text(log: AlertLog) -> str:
    sink = io.StringIO()
    write_alert_log(log, sink)
    return sink.getvalue()


def assert_same_text(actual: str, expected: str) -> None:
    """Byte equality, reported as the first line that differs: pytest's own
    diff of two large texts takes minutes."""
    if actual != expected:
        pairs = zip_longest(actual.split("\n"), expected.split("\n"))
        line, got, want = next((n, a, e) for n, (a, e) in enumerate(pairs, 1) if a != e)
        pytest.fail(f"line {line}: got {got!r}, expected {want!r}")


def kinds_of(log: AlertLog) -> list[str]:
    return [alert.kind for alert in log.entries]


class Record(NamedTuple):
    """One caller's unacknowledged items of one kind, as the sorter oracles read them."""

    caller_id: str
    kind: str
    n: int
    latest_time_ms: int


def tally_of(records: Iterable[Record], kb: KnowledgeBase) -> MissedItemTally:
    """A tally holding exactly these records, built through ``add`` with each
    caller's group in ``kb``, as the engine adds them."""
    tally = MissedItemTally()
    for record in records:
        group = kb.contact_group(record.caller_id)
        for _ in range(record.n):
            tally.add(record.caller_id, record.kind, record.latest_time_ms, group)
    return tally


def kb_with(groups: dict[str, Group]) -> KnowledgeBase:
    return KnowledgeBase(contacts={cid: Contact(cid, cid, group) for cid, group in groups.items()})


def entry_dicts(entries: str) -> list[dict[str, Any]]:
    """A snapshot's entries as {caller, kind, score} dicts: the tally ranks them
    into their JSON array text, and a read-back log's snapshot holds the same text."""
    return json.loads(entries)


def snapshot_score(record: Record, group: Group, now_ms: int, floor: float) -> float:
    """The score a snapshot gives one record whose caller is in ``group``."""
    tally = tally_of([record], kb_with({record.caller_id: group}))
    [entry] = entry_dicts(tally.snapshot(now_ms, floor))
    return entry["score"]
