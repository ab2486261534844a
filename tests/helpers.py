"""Shared builders for test inputs, through the real parsers, and ``replay``: the one
way a test runs a scenario. Tests assert on the outputs it returns, as written."""

from __future__ import annotations

import importlib.util
import io
import json
import tempfile
from itertools import zip_longest
from pathlib import Path
from types import ModuleType
from typing import Any, Iterable, NamedTuple

import pytest

from alertagent.engine import (
    AlertLog, Engine, Scenario, parse_scenario, read_alert_log, write_alert_log,
)
from alertagent.kb import KnowledgeBase, load_kb, save_kb
from alertagent.model import AgentConfig, Alert, Contact, Group, group_weight
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
    return parse_scenario(io.StringIO(_scenario_text(lines)))


def _scenario_text(lines: Iterable[dict[str, Any]]) -> str:
    return "".join(json.dumps(line) + "\n" for line in lines)


class Replay(NamedTuple):
    """What one run writes: the alert log and the KB-out, and its diagnostics."""

    log: str
    kb_out: str
    diagnostics: list[str]


def replay(scenario: Scenario | str | Iterable[dict], kb: dict | KnowledgeBase | None = None,
           config: AgentConfig | None = None) -> Replay:
    """Run a scenario, parsed (the run consumes it), as JSON-lines text or as its
    lines, through the calls ``alertagent run`` makes; ``kb`` is a KB document or
    a loaded knowledge base (empty by default), and ``config`` defaults to
    ``AgentConfig()``. The log is the engine's own lines as ``write_alert_log``
    writes them, to a path and then again to a stream, with the same bytes both
    times, checked against the same alerts decoded one by one and laid out again;
    after both writes the log's decoding view is checked to index as a list of them does."""
    if not isinstance(scenario, Scenario):
        text = scenario if isinstance(scenario, str) else _scenario_text(scenario)
        scenario = parse_scenario(io.StringIO(text))
    if not isinstance(kb, KnowledgeBase):
        kb = load_kb_doc(kb or kb_doc())
    engine = Engine(config or AgentConfig(), kb)
    log = engine.run(scenario)
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_alert_log(log, path)
        write_alert_log(log, sink)
        assert_same_text(path.read_bytes().decode("utf-8"), sink.getvalue())
    alerts = list(log)
    assert_same_text(log_text(alerts), sink.getvalue())
    _check_index(log, alerts)
    return Replay(sink.getvalue(), kb_text(engine.kb), engine.diagnostics)


def _check_index(log: AlertLog, alerts: list[Alert]) -> None:
    """The log's decoding view reads as the list of its alerts does: walked in reverse
    (as the benchmark's generator names attended alerts), from the end, and past it."""
    assert list(reversed(log)) == alerts[::-1]
    if alerts:
        assert log[-1] == log[len(log) - 1] == alerts[-1] and log[-len(log)] == alerts[0]
    for past in (len(log), -len(log) - 1):
        with pytest.raises(IndexError):
            log[past]


def records(log: str) -> list[dict[str, Any]]:
    """Each line of a written alert log, decoded."""
    return [json.loads(line) for line in log.splitlines()]


def log_text(alerts: list[Alert]) -> str:
    """The alert log ``write_alert_log`` writes for these alerts."""
    sink = io.StringIO()
    write_alert_log(AlertLog(entries=alerts), sink)
    return sink.getvalue()


def drop_unwritten(alerts: list[Alert]) -> None:
    """Build the log of these alerts and drop it without writing it."""
    AlertLog(entries=alerts)


def rewrite(log: str) -> str:
    """A written alert log read back with ``read_alert_log`` and written again."""
    return log_text(read_alert_log(io.StringIO(log)))


def kb_text(kb: KnowledgeBase) -> str:
    """The canonical document ``save_kb`` writes."""
    sink = io.StringIO()
    save_kb(kb, sink)
    return sink.getvalue()


def assert_same_text(actual: str, expected: str) -> None:
    """Byte equality, reported as the first line that differs: pytest's own
    diff of two large texts takes minutes."""
    if actual != expected:
        pairs = zip_longest(actual.split("\n"), expected.split("\n"))
        line, got, want = next((n, a, e) for n, (a, e) in enumerate(pairs, 1) if a != e)
        pytest.fail(f"line {line}: got {got!r}, expected {want!r}")


def kinds_of(log: str) -> list[str]:
    return [record["kind"] for record in records(log)]


class Record(NamedTuple):
    """One caller's unacknowledged items of one kind, as the sorter oracles read them."""

    caller_id: str
    kind: str
    n: int
    latest_time_ms: int


def oracle_sorted(records: Iterable[Record], groups: dict[str, Group], now_ms: int,
                  floor: float) -> list[dict[str, Any]]:
    """A snapshot's entries ranked by brute force, each caller's group taken from
    ``groups`` (Group D if absent)."""

    def weight(r):
        return group_weight(groups.get(r.caller_id, Group.D))

    def score(r):
        minutes = (now_ms - r.latest_time_ms) / 60000.0
        if minutes < floor:
            minutes = floor
        return (weight(r) * r.n) / minutes

    ordered = sorted(
        records,
        key=lambda r: (-score(r), -weight(r), -r.latest_time_ms, r.caller_id, r.kind),
    )
    return [{"caller": r.caller_id, "kind": r.kind, "score": score(r)} for r in ordered]


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


def decoded(fields: str) -> dict[str, Any]:
    """An alert's fields text, decoded."""
    return json.loads(f"{{{fields}}}")


def entry_dicts(fields: str) -> list[dict[str, Any]]:
    """A snapshot's entries as {caller, kind, score} dicts: the tally ranks them
    into a snapshot alert's fields text, and a read-back log's snapshot holds the same text."""
    return decoded(fields)["entries"]


def snapshot_score(record: Record, group: Group, now_ms: int, floor: float) -> float:
    """The score a snapshot gives one record whose caller is in ``group``."""
    tally = tally_of([record], kb_with({record.caller_id: group}))
    [entry] = entry_dicts(tally.snapshot(now_ms, floor))
    return entry["score"]
