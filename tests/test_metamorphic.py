"""Metamorphic relations (Chen et al., "Metamorphic testing", HKUST-CS98-01).

Each test changes an input in a way that must change the output in a known
way, or not at all, and compares the two runs byte for byte. The inputs are the worked example in
``sample/`` and the benchmark generator's three workloads at seed 1.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any

import pytest

from alertagent.config import load_config
from alertagent.context import SENSOR_SIGNAL_KINDS, signal_key
from alertagent.engine import AlertLog, parse_scenario, read_alert_log, run_scenario
from alertagent.kb import kb_from_dict, kb_to_text, load_kb

from helpers import ROOT, assert_same_text, load_bench_gen, log_text

CASES = ("sample", "busy_day", "callback_snapshots", "unreachable_callees")


@pytest.fixture(params=CASES)
def inputs(request, tmp_path) -> Path:
    if request.param == "sample":
        return ROOT / "sample"
    load_bench_gen().generate(request.param, 1, tmp_path, 0.2)
    return tmp_path


def _log(inputs: Path, scenario_text: str) -> str:
    log, _ = run_scenario(
        parse_scenario(io.StringIO(scenario_text)),
        load_config(inputs / "config.json"),
        load_kb(inputs / "kb.json"),
    )
    return log_text(log)


def test_log_read_back_and_rewritten_is_byte_identical(inputs):
    text = _log(inputs, (inputs / "scenario.jsonl").read_text(encoding="utf-8"))
    assert text
    assert_same_text(log_text(AlertLog(entries=read_alert_log(io.StringIO(text)))), text)


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
    original = _log(inputs, "\n".join(lines) + "\n")
    assert original
    assert_same_text(_log(inputs, "\n".join(noisy) + "\n"), original)


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


def test_renaming_callers_renames_the_log_and_kb_out_and_nothing_else(inputs):
    scenario_text = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    kb_doc = json.loads((inputs / "kb.json").read_text(encoding="utf-8"))
    config = load_config(inputs / "config.json")
    log, kb_out = run_scenario(
        parse_scenario(io.StringIO(scenario_text)), config, kb_from_dict(kb_doc)
    )
    renamed_log, renamed_kb_out = run_scenario(
        parse_scenario(io.StringIO(_rename_lines(scenario_text))),
        config,
        kb_from_dict(_rename_kb(kb_doc)),
    )
    assert log.entries
    assert_same_text(log_text(renamed_log), _rename_lines(log_text(log)))
    expected = _rename_kb(json.loads(kb_to_text(kb_out)))
    assert_same_text(
        kb_to_text(renamed_kb_out), json.dumps(expected, sort_keys=True, indent=2) + "\n"
    )
