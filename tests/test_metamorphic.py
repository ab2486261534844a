"""Metamorphic relations (Chen et al., "Metamorphic testing", HKUST-CS98-01).

Each test changes an input in a way that must not change the output, and
compares the two runs byte for byte. The inputs are the worked example in
``sample/`` and the benchmark generator's three workloads at seed 1.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from alertagent.config import load_config
from alertagent.context import SENSOR_SIGNAL_KINDS, signal_key
from alertagent.engine import AlertLog, parse_scenario, read_alert_log, run_scenario
from alertagent.kb import load_kb

from helpers import ROOT, load_bench_gen, log_text

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


def _assert_same_log(actual: str, expected: str) -> None:
    """Byte equality, reported as the first differing line: pytest's own diff
    of two multi-megabyte strings takes minutes."""
    pairs = enumerate(zip(actual.splitlines(), expected.splitlines()), start=1)
    first = next((lineno for lineno, (a, e) in pairs if a != e), None)
    assert first is None, f"logs differ first at line {first}"
    assert len(actual) == len(expected), "one log is a prefix of the other"


def test_log_read_back_and_rewritten_is_byte_identical(inputs):
    text = _log(inputs, (inputs / "scenario.jsonl").read_text(encoding="utf-8"))
    assert text
    _assert_same_log(log_text(AlertLog(entries=read_alert_log(io.StringIO(text)))), text)


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
    _assert_same_log(_log(inputs, "\n".join(noisy) + "\n"), original)
