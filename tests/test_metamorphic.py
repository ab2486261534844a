"""Metamorphic relations (Chen et al., "Metamorphic testing", HKUST-CS98-01).

Each test changes an input in a way that must change the output in a known
way, or not at all, and compares the two runs byte for byte. The inputs are the worked example in
``sample/``, the benchmark generator's three workloads at seed 1 (scale 0.2; the split-point
test runs them at scale 0.05 and seeds 1 to 3) and a hand-written scenario that raises every
diagnostic the engine makes, so the relations reach the diagnostics' text too.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path
from typing import Any

import pytest

from alertagent.config import load_config
from alertagent.context import SENSOR_SIGNAL_KINDS, signal_key
from alertagent.kb import KnowledgeBase, load_kb
from alertagent.model import AgentConfig

from helpers import ROOT, Replay, assert_same_text, load_bench_gen, replay, rewrite

CASES = ("sample", "busy_day", "callback_snapshots", "unreachable_callees")

# Over sample/'s KB and config: each diagnostic at its own instant, and rings left
# unattended at Home, so they forward. The last call is never ended.
DIAGNOSTIC_EVENTS = [
    {"t": 0, "type": "sensor", "signal_kind": "wifi_network", "signal_value": "home-net"},
    {"t": 1000, "type": "call_end"},
    {"t": 2000, "type": "safety_mode_enter"},
    {"t": 3000, "type": "call_start", "caller": "mom", "safety": False},
    {"t": 4000, "type": "call_start", "caller": "lee", "safety": False},
    {"t": 5000, "type": "call_end"},
    {"t": 6000, "type": "notification_attended", "alert_id": 99},
    {"t": 7000, "type": "user_response", "prompt_id": "p1", "answer": "yes"},
    {"t": 8000, "type": "delivery_report", "tracking_msg_id": "m1", "positive": True},
    {"t": 9000, "type": "call_start", "caller": "sam", "safety": False},
]
DIAGNOSTICS = [
    "t=1000: call_end with no active call",
    "t=2000: safety_mode_enter with no active call",
    "t=4000: call from 'lee' while another call is active; not tracked",
    "t=6000: notification_attended for unknown alert id 99",
    "t=7000: user_response for unknown or settled prompt 'p1'",
    "t=8000: delivery_report for unknown tracking id 'm1'",
    "t=9000: call from 'sam' still active at end of scenario; exposure tracking stopped",
]


@pytest.fixture(params=CASES + ("diagnostics",))
def inputs(request, tmp_path) -> Path:
    if request.param == "sample":
        return ROOT / "sample"
    if request.param == "diagnostics":
        for name in ("kb.json", "config.json"):
            shutil.copy(ROOT / "sample" / name, tmp_path / name)
        (tmp_path / "scenario.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in DIAGNOSTIC_EVENTS), encoding="utf-8")
        return tmp_path
    load_bench_gen().generate(request.param, 1, tmp_path, 0.2)
    return tmp_path


def _kb_and_config(inputs: Path) -> tuple[KnowledgeBase, AgentConfig]:
    return load_kb(inputs / "kb.json"), load_config(inputs / "config.json")


def test_log_read_back_and_rewritten_is_byte_identical(inputs):
    scenario_text = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    text = replay(scenario_text, *_kb_and_config(inputs)).log
    assert text
    assert_same_text(rewrite(text), text)


def test_unregistered_sensor_events_leave_the_log_unchanged(inputs):
    registry = load_kb(inputs / "kb.json").context_signals
    lines = (inputs / "scenario.jsonl").read_text(encoding="utf-8").splitlines()
    noisy: list[str] = []
    for index, line in enumerate(lines):
        noisy.append(line)
        if index % 3 == 0:
            kind = SENSOR_SIGNAL_KINDS[index % len(SENSOR_SIGNAL_KINDS)]
            value = f"unregistered-{index}"
            assert signal_key(kind, value) not in registry
            t = json.loads(line)["t"]
            noisy.append(json.dumps({"t": t, "type": "sensor", "signal_kind": kind,
                                     "signal_value": value}))
    original = replay("\n".join(lines) + "\n", *_kb_and_config(inputs)).log
    assert original
    assert_same_text(replay("\n".join(noisy) + "\n", *_kb_and_config(inputs)).log, original)


PREFIX = "renamed/"  # a fixed prefix keeps the order of ids, on which sorter ties break


def _rename(value: Any) -> Any:
    """``value`` with every caller and callee id under PREFIX, at any depth."""
    if isinstance(value, list):
        return [_rename(item) for item in value]
    if not isinstance(value, dict):
        return value
    return {key: PREFIX + item if key in ("caller", "callee") else _rename(item)
            for key, item in value.items()}


def _rename_lines(text: str) -> str:
    lines = (json.dumps(_rename(json.loads(line)), separators=(",", ":"))
             for line in text.splitlines())
    return "".join(line + "\n" for line in lines)


def _rename_kb(doc: dict[str, Any]) -> dict[str, Any]:
    """A KB document with every contact id and safety-record key under PREFIX."""
    return doc | {
        "contacts": [contact | {"id": PREFIX + contact["id"]} for contact in doc["contacts"]],
        "safety_records": {PREFIX + key: record for key, record in doc["safety_records"].items()},
    }


def _rename_note(note: str) -> str:
    """A diagnostic with the caller id it names, if any, under PREFIX."""
    return re.sub(r"call from '([^']*)'", lambda m: f"call from {PREFIX + m[1]!r}", note)


def test_renaming_callers_renames_the_log_and_kb_out_and_nothing_else(inputs):
    scenario_text = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    kb_doc = json.loads((inputs / "kb.json").read_text(encoding="utf-8"))
    config = load_config(inputs / "config.json")
    run = replay(scenario_text, kb_doc, config)
    renamed = replay(_rename_lines(scenario_text), _rename_kb(kb_doc), config)
    assert run.log
    assert_same_text(renamed.log, _rename_lines(run.log))
    expected = _rename_kb(json.loads(run.kb_out))
    assert_same_text(renamed.kb_out, json.dumps(expected, sort_keys=True, indent=2) + "\n")
    assert renamed.diagnostics == [_rename_note(note) for note in run.diagnostics]


def _toggle_safety(text: str) -> tuple[str, int]:
    """``text`` with each call_start's ``"safety": false`` added where it is left out
    and taken out where it is written, and the number of lines changed."""
    lines, changed = [], 0
    for line in text.split("\n"):
        obj = json.loads(line) if line else {}
        if obj.get("type") == "call_start" and obj.get("safety", False) is False:
            if obj.pop("safety", None) is None:
                obj["safety"] = False
            line = json.dumps(obj)
            changed += 1
        lines.append(line)
    return "\n".join(lines), changed


def test_an_omitted_safety_runs_as_false(inputs):
    scenario_text = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    toggled, changed = _toggle_safety(scenario_text)
    if inputs == ROOT / "sample":
        assert '"safety"' not in scenario_text and changed == 10
    else:
        assert '"safety": false' not in toggled and changed
    kb, config = _kb_and_config(inputs)
    run, toggled_run = replay(scenario_text, kb, config), replay(toggled, kb, config)
    assert run.log
    assert_same_text(toggled_run.log, run.log)
    assert_same_text(toggled_run.kb_out, run.kb_out)


# About 11.6 days, and not a whole number of seconds, so no rounding to a coarser unit hides
# a dependence on absolute time.
SHIFT = 1_000_000_007


def _shift(record: dict[str, Any]) -> dict[str, Any]:
    """An event or a log record with its ``t``, and a forward's nested ``t``, moved by SHIFT."""
    moved = record | {"t": record["t"] + SHIFT}
    if "alert" in record:
        moved["alert"] = _shift(record["alert"])
    return moved


def _shift_note(note: str) -> str:
    """A diagnostic, "t=<ms>: ...", with its time moved by SHIFT."""
    t, rest = note.split(":", 1)
    return f"t={int(t.removeprefix('t=')) + SHIFT}:{rest}"


def test_shifting_every_event_in_time_shifts_every_log_time_and_nothing_else(inputs):
    scenario_text = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    shifted_text = "".join(json.dumps(_shift(json.loads(line))) + "\n" if line.strip() else "\n"
                           for line in scenario_text.splitlines())
    kb, config = _kb_and_config(inputs)
    run, shifted = replay(scenario_text, kb, config), replay(shifted_text, kb, config)
    assert run.log and '"kind":"forward_to_device"' in run.log
    assert_same_text(shifted.log, "".join(
        json.dumps(_shift(json.loads(line)), separators=(",", ":")) + "\n"
        for line in run.log.splitlines()))
    assert_same_text(shifted.kb_out, run.kb_out)
    assert shifted.diagnostics == [_shift_note(note) for note in run.diagnostics]


def test_the_hand_written_input_raises_every_diagnostic():
    kb, config = _kb_and_config(ROOT / "sample")
    assert replay(DIAGNOSTIC_EVENTS, kb, config).diagnostics == DIAGNOSTICS


END_NOTE = "still active at end of scenario"


def _through(run: Replay, t: int) -> tuple[str, list[str]]:
    """The log lines and the diagnostics of a run at instants up to ``t``."""
    lines = [line for line in run.log.splitlines(keepends=True) if json.loads(line)["t"] <= t]
    notes = [note for note in run.diagnostics if int(note[2:note.index(":")]) <= t]
    return "".join(lines), notes


def _cuts_late_in_a_call(lines: list[str], times: list[int], limit_ms: int) -> list[int]:
    """Each cut k that falls inside a call begun at least ``limit_ms`` before t[k-1]:
    an exposure warning may be due before the cut, and the call ends after it."""
    cuts, start = [], None
    for k in range(1, len(lines)):
        kind = json.loads(lines[k - 1])["type"]
        if kind == "call_start" and start is None:
            start = times[k - 1]
        elif kind == "call_end":
            start = None
        if start is not None and times[k - 1] < times[k] and times[k - 1] - start >= limit_ms:
            cuts.append(k)
    return cuts


def _end_soon_after_a_crossing(limit_ms: int) -> list[str]:
    """A call that ends 30 s after its exposure crossing, a message between the two.
    No workload at scale 0.05 and seeds 1 to 3 has an event between a crossing and
    a call end or safety entry less than 60 s after it, so only this input shows a
    crossing that looks up to 60 s past its own instant."""
    events = [{"t": 0, "type": "call_start", "caller": "c1"},
              {"t": limit_ms + 10_000, "type": "message_received", "caller": "c2"},
              {"t": limit_ms + 30_000, "type": "call_end"}]
    return [json.dumps(event) + "\n" for event in events]


@pytest.mark.parametrize("case", ["sample", "end_soon_after_a_crossing"] + [
    f"{workload}-{seed}" for workload in CASES[1:] for seed in (1, 2, 3)])
def test_no_line_depends_on_a_later_instant(case, tmp_path):
    """The scenario cut after its last event at an instant T runs, up to T, as the
    whole scenario does: the same log lines and the same diagnostics, bar the cut
    run's own note on a call still active at its end. The workloads run at scale
    0.05 and seeds 1 to 3. Every cut of sample/, of a call that ends soon after
    its crossing and of callback_snapshots is replayed; of the two longer
    workloads, eight seeded cuts each and every cut late in a call, where a
    crossing's look at its own instant could read past it."""
    if "-" not in case:
        inputs = ROOT / "sample"
    else:
        workload, seed = case.rsplit("-", 1)
        inputs = tmp_path
        load_bench_gen().generate(workload, int(seed), inputs, 0.05)
    kb, config = _kb_and_config(inputs)
    lines = (inputs / "scenario.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    if case == "end_soon_after_a_crossing":
        lines = _end_soon_after_a_crossing(config.safe_call_limit_ms)
    times = [json.loads(line)["t"] for line in lines]
    cuts = [k for k in range(1, len(lines)) if times[k - 1] < times[k]]
    if case.startswith(("busy_day", "unreachable_callees")):
        late = _cuts_late_in_a_call(lines, times, config.safe_call_limit_ms)
        cuts = sorted(set(random.Random(case).sample(cuts, 8)) | set(late))
    full = replay("".join(lines), kb, config)
    for k in cuts:
        log, notes = _through(replay("".join(lines[:k]), kb, config), times[k - 1])
        full_log, full_notes = _through(full, times[k - 1])
        assert_same_text(log, full_log)
        assert [note for note in notes if END_NOTE not in note] == full_notes, f"cut at {k}"
