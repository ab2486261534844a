"""Self-tests of the benchmark; not part of the package's test suite.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import check_outputs  # noqa: E402
from gen import USER_FACING, WORKLOADS, generate  # noqa: E402
from run import run_workload  # noqa: E402
from spans import layer_metrics  # noqa: E402

from alertagent.config import load_config  # noqa: E402
from alertagent.engine import Engine, parse_scenario, write_alert_log  # noqa: E402
from alertagent.kb import load_kb  # noqa: E402

TINY = 0.03


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_input_bytes(tmp_path, workload):
    generate(workload, 7, tmp_path / "a", TINY)
    generate(workload, 7, tmp_path / "b", TINY)
    generate(workload, 8, tmp_path / "c", TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["scenario.jsonl"] != _files(tmp_path / "c")["scenario.jsonl"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_inputs_pass_validate(tmp_path, workload):
    paths = generate(workload, 1, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for flag, name in (("--scenario", "scenario.jsonl"), ("--kb", "kb.json"),
                       ("--config", "config.json")):
        proc = subprocess.run(
            [sys.executable, "-m", "alertagent", "validate", flag, paths[name]],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


def _replay(inputs: Path) -> list[str]:
    engine = Engine(load_config(inputs / "config.json"), load_kb(inputs / "kb.json"))
    log = engine.run(parse_scenario(inputs / "scenario.jsonl"))
    out = inputs / "log.jsonl"
    write_alert_log(log, out)
    return out.read_text(encoding="utf-8").splitlines(keepends=True)


def _renumber(lines: list[str]) -> str:
    records = [json.loads(line) for line in lines]
    for seq, rec in enumerate(records, start=1):
        rec["seq"] = seq
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("replay")
    generate("callback_snapshots", 3, inputs, 0.2)
    return inputs, _replay(inputs)


def test_checks_accept_real_log(replayed):
    inputs, lines = replayed
    assert check_outputs(inputs, "".join(lines)) == []


def test_checks_reject_nan_score(replayed):
    inputs, lines = replayed
    index = next(i for i, line in enumerate(lines)
                 if '"kind":"sorted_list_snapshot"' in line and '"score"' in line)
    rec = json.loads(lines[index])
    rec["entries"][0]["score"] = float("nan")
    bad = lines[:index] + [json.dumps(rec, separators=(",", ":")) + "\n"] + lines[index + 1:]
    problems = check_outputs(inputs, "".join(bad))
    assert any("not strict JSON" in p for p in problems), problems


def test_checks_reject_seq_gap(replayed):
    inputs, lines = replayed
    index = next(i for i, line in enumerate(lines) if '"kind":"forward_to_device"' in line)
    problems = check_outputs(inputs, "".join(lines[:index] + lines[index + 1:]))
    assert any("seq" in p for p in problems), problems


def test_checks_reject_missing_beep(replayed):
    inputs, lines = replayed
    index = next(i for i, line in enumerate(lines) if '"kind":"beep"' in line)
    problems = check_outputs(inputs, _renumber(lines[:index] + lines[index + 1:]))
    assert any("beep" in p for p in problems), problems


def test_attendances_name_earlier_user_facing_alerts(tmp_path):
    generate("busy_day", 4, tmp_path, TINY)
    alerts = {rec["seq"]: rec for rec in map(json.loads, _replay(tmp_path))}
    events = map(json.loads, (tmp_path / "scenario.jsonl").read_text().splitlines())
    attended = [ev for ev in events if ev["type"] == "notification_attended"]
    assert attended
    for ev in attended:
        alert = alerts[ev["alert_id"]]
        assert alert["kind"] in USER_FACING and alert["t"] <= ev["t"]
    # Some come within the 60 s window, so they stop a forward.
    assert any(ev["t"] - alerts[ev["alert_id"]]["t"] < 60_000 for ev in attended)


def test_gc_pauses_leave_layer_times():
    header = {"counts": {}, "log_bytes": 1, "alerts": 1, "tracker_tasks": 0, "kb_contacts": 1}
    spans = [["engine.run", 0, 100, -1], ["sorter.snapshot", 10, 50, 0], ["gc", 20, 30, 1]]
    m = layer_metrics(header, spans)
    assert m["engine.run_s"] == pytest.approx(90e-9)
    assert m["sorter.snapshot_s"] == pytest.approx(30e-9)
    assert m["sorter.self_s"] == pytest.approx(30e-9)
    assert m["engine.self_s"] == pytest.approx(60e-9)
    assert m["gc.pause_s"] == pytest.approx(10e-9)


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(True, "per_layer"), (False, "end_to_end")])
def test_run_reports_every_declared_metric(tmp_path, trace, kind):
    summary = run_workload("busy_day", 2, 0, trace, tmp_path / "work", scale=TINY)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == _declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())
