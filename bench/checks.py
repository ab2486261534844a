"""Output checks for one replay: the log against the scenario and config.

``check_outputs`` returns a list of problems; an empty list means the log
passed every check. The checks are independent of the engine's code except
for the config loader, which gives the battery thresholds, and the
read-back/rewrite round trip, which is a property of its log io.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from pathlib import Path


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _strict_records(text: str, problems: list[str]) -> list[dict]:
    """Parse every line as RFC 8259 JSON; NaN and Infinity are errors."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"log line {lineno}: not strict JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            problems.append(f"log line {lineno}: not an object")
            continue
        records.append(obj)
    return records


def _battery_bursts(levels: list[int], critical: int, rearm: int) -> int:
    """Bursts by the hysteresis rule: below critical while armed; re-arm at rearm."""
    armed, bursts = True, 0
    for pct in levels:
        if armed and pct < critical:
            armed, bursts = False, bursts + 1
        elif pct >= rearm:
            armed = True
    return bursts


def _check_sequence(records: list[dict], problems: list[str]) -> None:
    prev_t = None
    for index, rec in enumerate(records, start=1):
        if rec.get("seq") != index:
            problems.append(f"log entry {index}: seq {rec.get('seq')!r}, expected {index}")
            return
        if prev_t is not None and rec.get("t", -1) < prev_t:
            problems.append(f"log entry {index}: t {rec.get('t')!r} before {prev_t}")
            return
        prev_t = rec.get("t")


def _check_per_instant(events: list[dict], records: list[dict], problems: list[str]) -> None:
    """Each call_start gives one ring, suppress_note or per-call divert; each
    message one beep; compared instant by instant."""
    calls, messages = Counter(), Counter()
    for ev in events:
        if ev["type"] == "call_start":
            calls[ev["t"]] += 1
        elif ev["type"] == "message_received":
            messages[ev["t"]] += 1
    audible, beeps = Counter(), Counter()
    for rec in records:
        kind = rec.get("kind")
        if kind in ("ring", "suppress_note") or (
            kind == "battery_action" and rec.get("action") == "divert_group_a" and "caller" in rec
        ):
            audible[rec["t"]] += 1
        elif kind == "beep":
            beeps[rec["t"]] += 1
    for t in sorted(set(calls) | set(audible)):
        if calls[t] != audible[t]:
            problems.append(f"t={t}: {calls[t]} call_start, {audible[t]} ring/suppress/divert")
            break
    for t in sorted(set(messages) | set(beeps)):
        if messages[t] != beeps[t]:
            problems.append(f"t={t}: {messages[t]} message_received, {beeps[t]} beep")
            break


def _check_snapshots(events: list[dict], records: list[dict], config,
                     problems: list[str]) -> None:
    requests = sum(1 for ev in events if ev["type"] == "snapshot_request")
    levels = [ev["pct"] for ev in events if ev["type"] == "battery_level"]
    bursts = _battery_bursts(levels, config.battery_critical_pct, config.battery_rearm_pct)
    snapshots = [rec for rec in records if rec.get("kind") == "sorted_list_snapshot"]
    if len(snapshots) != requests + bursts:
        problems.append(f"{len(snapshots)} snapshots, expected {requests} requests + "
                        f"{bursts} bursts")
    for rec in snapshots:
        prev = math.inf
        for entry in rec.get("entries", []):
            score = entry.get("score")
            if (not isinstance(score, (int, float)) or isinstance(score, bool)
                    or not math.isfinite(score) or score <= 0 or score > prev):
                problems.append(f"snapshot seq {rec.get('seq')}: bad score {score!r} "
                                f"after {prev!r}")
                return
            prev = score


def _check_round_trip(text: str, problems: list[str]) -> None:
    # alertagent is imported inside functions: run.py puts the checkout's
    # src/ on sys.path only after making sure it is there.
    from alertagent.engine import AlertLog, read_alert_log, write_alert_log

    buf = io.StringIO()
    try:
        write_alert_log(AlertLog(entries=read_alert_log(io.StringIO(text))), buf)
    except ValueError as exc:
        problems.append(f"read_alert_log rejected the log: {exc}")
        return
    if buf.getvalue() != text:
        problems.append("reading the log back and writing it again changed its bytes")


def check_outputs(inputs: Path, log_text: str) -> list[str]:
    """Every check on one written log; returns the problems found."""
    from alertagent.config import load_config

    events = [json.loads(line) for line in
              (inputs / "scenario.jsonl").read_text(encoding="utf-8").splitlines()]
    config = load_config(inputs / "config.json")
    problems: list[str] = []
    records = _strict_records(log_text, problems)
    _check_sequence(records, problems)
    _check_per_instant(events, records, problems)
    _check_snapshots(events, records, config, problems)
    _check_round_trip(log_text, problems)
    return problems
