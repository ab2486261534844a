"""End-to-end acceptance checks, one test per criterion.

Each test prints one ``criterion N [...]: PASS`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces its time budget.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

from alertagent.kb import KnowledgeBase, SafetyRecord, load_kb, matching_devices
from alertagent.model import AgentConfig, Contact, Group
from alertagent.sleep import alert_ordinal
from alertagent.tracker import CallerTracker

from helpers import (
    Record,
    contact_doc,
    entry_dicts,
    kb_doc,
    kb_text,
    kinds_of,
    load_kb_doc,
    make_scenario,
    oracle_sorted,
    records,
    replay,
    snapshot_score,
    tally_of,
)
from test_radiation import oracle_warn_times, simulate
from test_tracker import expire_due


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:2d} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number:2d} [{title}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


# -- 1: sleep-alert ordinals ---------------------------------------------------


def test_criterion_1_sleep_alert_ordinals():
    with criterion(1, "sleep-alert ordinals per group", budget_s=1.0):
        assert alert_ordinal(Group.A, False) == 1
        assert alert_ordinal(Group.B, False) == 2
        assert alert_ordinal(Group.C, False) == 4
        assert alert_ordinal(Group.D, False) == 6

        callers = {"pa": "A", "pb": "B", "pc": "C", "pd": "D"}
        doc = kb_doc(contacts=[contact_doc(cid, grp) for cid, grp in callers.items()])
        lines = [{"t": 0, "type": "sleep_mode", "on": True}]
        t = 10_000
        for _round in range(6):
            for cid in callers:
                lines.append({"t": t, "type": "call_start", "caller": cid})
                lines.append({"t": t + 1000, "type": "call_end"})
                t += 10_000
        alerts = records(replay(lines, doc).log)

        ring_calls: dict[str, list[int]] = {}
        for cid in callers:
            decisions = [
                r["kind"] for r in alerts if r.get("caller") == cid
                and r["kind"] in ("ring", "suppress_note")
            ]
            assert len(decisions) == 6
            ring_calls[cid] = [i + 1 for i, kind in enumerate(decisions) if kind == "ring"]
        assert ring_calls["pa"] == [1, 2, 3, 4, 5, 6]
        assert ring_calls["pb"] == [2, 4, 6]
        assert ring_calls["pc"] == [4]
        assert ring_calls["pd"] == [6]


# -- 2: sorter oracle equivalence ------------------------------------------------


def test_criterion_2_sorter_matches_brute_force_oracle():
    with criterion(2, "sorter equals brute-force oracle on 1000 sets", budget_s=10.0):
        rng = random.Random(60405)
        group_cycle = list(Group)
        groups = {f"c{i}": group_cycle[i % 4] for i in range(45)}
        kb = KnowledgeBase(
            contacts={cid: Contact(cid, cid, grp) for cid, grp in groups.items()}
        )
        now = 7 * 24 * 3600 * 1000
        pairs = [(f"c{i}", kind) for i in range(60) for kind in ("call", "message")]
        for _ in range(1000):
            chosen = rng.sample(pairs, rng.randrange(0, 101))
            records = [
                Record(
                    caller_id=cid,
                    kind=kind,
                    n=rng.randrange(1, 21),
                    latest_time_ms=now - rng.randrange(0, now + 1),
                )
                for cid, kind in chosen
            ]
            assert entry_dicts(tally_of(records, kb).snapshot(now, 1.0)) == oracle_sorted(
                records, groups, now, 1.0
            )


# -- 3: sorter monotonicity -------------------------------------------------------


def test_criterion_3_score_monotonicity():
    with criterion(3, "score monotone in count, weight, elapsed", budget_s=5.0):
        rng = random.Random(112358)
        week_ms = 7 * 24 * 3600 * 1000
        floor_ms = 60_000
        ups = [(Group.D, Group.C), (Group.C, Group.B), (Group.B, Group.A)]
        for _ in range(10_000):
            group = rng.choice(list(Group))
            n = rng.randrange(1, 21)
            elapsed = rng.randrange(0, week_ms + 1)
            now = week_ms
            rec = Record("x", "call", n, now - elapsed)
            base = snapshot_score(rec, group, now, 1.0)

            bigger_n = Record("x", "call", n + 1, now - elapsed)
            assert snapshot_score(bigger_n, group, now, 1.0) > base

            for low, high in ups:
                if group is low:
                    assert snapshot_score(rec, high, now, 1.0) > base

            delta = rng.randrange(1, week_ms + 1)
            shifted = Record("x", "call", n, now - (elapsed + delta))
            later_score = snapshot_score(shifted, group, now, 1.0)
            assert later_score <= base
            if elapsed + delta > floor_ms:
                assert later_score < base


# -- 4: radiation boundary behavior ------------------------------------------------


def test_criterion_4_radiation_boundaries():
    with criterion(4, "exposure warnings and classification boundaries", budget_s=1.0):
        config = AgentConfig()

        def call(duration_ms, safety):
            lines = [
                {"t": 0, "type": "call_start", "caller": "c1", "safety": safety},
                {"t": duration_ms, "type": "call_end"},
            ]
            run = replay(lines, config=config)
            return run.log, json.loads(run.kb_out)["safety_records"]["c1"]

        log, record = call(360_000, safety=False)
        assert "radiation_incall_warning" not in kinds_of(log)
        assert (record["total"], record["unsafe"]) == (1, 0)

        log, record = call(420_000, safety=False)
        warnings = [r for r in records(log) if r["kind"] == "radiation_incall_warning"]
        assert len(warnings) == 1 and warnings[0]["t"] == 360_000
        assert record["unsafe"] == 1

        log, record = call(600_000, safety=True)
        assert "radiation_incall_warning" not in kinds_of(log)
        assert record["unsafe"] == 1  # main-timer rule


# -- 5: subtimer invariant and crossing oracle ---------------------------------------


def test_criterion_5_subtimer_and_crossing_oracle():
    with criterion(5, "subtimer invariant, crossings match oracle", budget_s=10.0):
        rng = random.Random(141421)
        for round_no in range(1000):
            end_t = rng.randrange(1, 2_500_001)
            grain = 60_000 if round_no % 2 == 0 else 1
            times = sorted(
                rng.randrange(0, end_t // grain + 1) * grain
                for _ in range(rng.randrange(0, 8))
            )
            transitions = [(t, rng.choice(("enter", "exit"))) for t in times]
            initial = rng.random() < 0.5
            # simulate() asserts exposure <= main timer at every instant.
            got = simulate(initial, transitions, end_t)
            assert got == oracle_warn_times(initial, transitions, end_t)


# -- 6: battery trigger -----------------------------------------------------------


def test_criterion_6_battery_trigger_and_hysteresis():
    with criterion(6, "battery burst below 4%, re-arm at 20%", budget_s=1.0):
        config = load_config_with_sms()
        levels_first = [(0, 100), (1000, 5), (2000, 4), (3000, 3)]
        lines = [
            {"t": t, "type": "battery_level", "pct": pct} for t, pct in levels_first
        ]
        alerts = records(replay(lines, config=config).log)
        snapshots = [r for r in alerts if r["kind"] == "sorted_list_snapshot"]
        actions = [r for r in alerts if r["kind"] == "battery_action"]
        assert len(snapshots) == 1 and snapshots[0]["t"] == 3000  # at 3, not 4
        assert len(actions) == 1 and actions[0]["action"] == "send_status_sms"

        levels_again = levels_first + [(4000, 25), (5000, 3)]
        lines = [
            {"t": t, "type": "battery_level", "pct": pct} for t, pct in levels_again
        ]
        alerts = records(replay(lines, config=config).log)
        snapshots = [r for r in alerts if r["kind"] == "sorted_list_snapshot"]
        assert [s["t"] for s in snapshots] == [3000, 5000]


def load_config_with_sms() -> AgentConfig:
    from alertagent.model import BatteryAction, BatteryActionSpec

    return AgentConfig(
        battery_actions=(
            BatteryActionSpec(kind=BatteryAction.SEND_STATUS_SMS, destination="+1-0"),
        )
    )


# -- 7: tracker state machine, exhaustive interleavings ------------------------------


TIMEOUT_MS = 86_400_000
ALPHABET = ("failed", "yes", "no", "pos", "neg", "timeout")


def run_tracker_path(path) -> int:
    """Drive the tracker; responses and reports target the first episode's ids.

    As in the engine, every delivery timeout due by a step's time fires
    before the step, and the rest fire after the last one.
    """
    tracker = CallerTracker(TIMEOUT_MS)
    t = 0
    notifies = 0
    first_prompt: str | None = None
    first_msg: str | None = None
    for step in path + ("end",):
        t += 1000
        if step in ("timeout", "end"):  # a day of silence passes
            t += TIMEOUT_MS
        expire_due(tracker, t)
        if step == "failed":
            task = tracker.on_call_failed(t, "x", "unreachable")
            if task is not None and first_prompt is None:
                first_prompt = task.prompt_id
        elif step in ("yes", "no"):
            answer = "yes" if step == "yes" else "no"
            outcome, task = tracker.on_user_response(t, first_prompt or "p?", answer)
            if outcome == "accepted" and first_msg is None:
                first_msg = task.tracking_msg_id
        elif step in ("pos", "neg"):
            outcome, _ = tracker.on_delivery_report(t, first_msg or "m?", step == "pos")
            if outcome == "done":
                notifies += 1
    assert expire_due(tracker, math.inf) == []
    return notifies


def oracle_notifies(path) -> int:
    """Independent transition table for one tracking episode."""
    state = "idle"
    late = False  # the timeout elapsed before consent was given
    notifies = 0
    for step in path:
        if state == "idle":
            if step == "failed":
                state = "consent"
        elif state == "consent":
            if step == "yes":
                state = "expired" if late else "delivery"
            elif step == "no":
                state = "declined"
            elif step == "timeout":
                late = True
        elif state == "delivery":
            if step == "pos":
                state = "done"
                notifies += 1
            elif step == "timeout":
                state = "expired"
    return notifies


def test_criterion_7_tracker_exhaustive_interleavings():
    with criterion(7, "tracker exact over all interleavings <= 6", budget_s=5.0):
        checked = 0
        for length in range(0, 7):
            for path in itertools.product(ALPHABET, repeat=length):
                got = run_tracker_path(path)
                expected = oracle_notifies(path)
                assert got == expected, path
                assert got <= 1
                checked += 1
        assert checked == sum(6**k for k in range(0, 7))


# -- 8: determinism ----------------------------------------------------------------


def _mixed_scenario_lines(rng: random.Random, count: int) -> list[dict]:
    callers = [f"c{i}" for i in range(8)]
    contexts = ["Home", "Workspace", "Driving", "Outdoor", "Unknown"]
    signal_kinds = ["wifi_network", "audio_device", "accessory", "microphone_class", "proximity"]
    reasons = ["switched_off", "unreachable", "dropped"]
    lines: list[dict] = []
    t = 0
    call_active = False
    sleep_on = False
    while len(lines) < count:
        t += rng.randrange(0, 60_001)
        kind = rng.choice(
            [
                "call_start", "call_end", "message_received", "battery_level",
                "sensor", "user_context", "user_response", "delivery_report",
                "notification_attended", "sleep_mode", "safety_mode_enter",
                "safety_mode_exit", "snapshot_request", "call_failed",
            ]
        )
        if kind == "call_start" and call_active:
            kind = "call_end"
        if (
            kind in ("call_end", "safety_mode_enter", "safety_mode_exit")
            and not call_active
            and rng.random() < 0.8
        ):
            kind = "message_received"
        line: dict = {"t": t, "type": kind}
        if kind == "call_start":
            line["caller"] = rng.choice(callers)
            line["safety"] = rng.random() < 0.3
            call_active = True
        elif kind == "call_end":
            call_active = False
        elif kind == "message_received":
            line["caller"] = rng.choice(callers)
        elif kind == "battery_level":
            line["pct"] = rng.randrange(0, 101)
        elif kind == "sensor":
            line["signal_kind"] = rng.choice(signal_kinds)
            line["signal_value"] = rng.choice(["home-net", "office-net", "car-bt", "podcast"])
        elif kind == "user_context":
            line["context"] = rng.choice(contexts)
        elif kind == "user_response":
            line["prompt_id"] = f"p{rng.randrange(1, 9)}"
            line["answer"] = rng.choice(["yes", "no"])
        elif kind == "delivery_report":
            line["tracking_msg_id"] = f"m{rng.randrange(1, 7)}"
            line["positive"] = rng.random() < 0.5
        elif kind == "notification_attended":
            line["alert_id"] = rng.randrange(1, 600)
        elif kind == "sleep_mode":
            sleep_on = not sleep_on
            line["on"] = sleep_on
        elif kind == "call_failed":
            line["callee"] = rng.choice(callers)
            line["reason"] = rng.choice(reasons)
        lines.append(line)
    return lines


def test_criterion_8_determinism_of_mixed_runs():
    with criterion(8, "500-event scenario: 3 byte-identical runs", budget_s=5.0):
        rng = random.Random(500_500)
        lines = _mixed_scenario_lines(rng, 500)
        assert len(list(make_scenario(lines))) == 500

        doc = kb_doc(
            contacts=[
                contact_doc("c0", "A"), contact_doc("c1", "B", temp_important=True),
                contact_doc("c2", "C"), contact_doc("c3", "D"), contact_doc("c4", "A"),
            ],
            safety={"c0": {"total": 6, "unsafe": 4}, "c5": {"total": 3, "unsafe": 3}},
            devices=[
                {"device_id": "tv", "contexts": ["Home"], "kinds": ["ring", "beep"]},
                {
                    "device_id": "laptop",
                    "contexts": ["Home", "Workspace"],
                    "kinds": ["beep", "tracker_notify", "radiation_incall_warning"],
                },
            ],
            signals={"wifi_network:home-net": "Home", "audio_device:car-bt": "Driving"},
        )
        kb = load_kb_doc(doc)
        config = load_config_with_sms()

        outputs = set()
        alert_count = 0
        for _ in range(3):
            run = replay(lines, kb, config)
            outputs.add((run.log, run.kb_out))
            alerts = records(run.log)
            alert_count = len(alerts)
            times = [r["t"] for r in alerts]
            assert times == sorted(times)
            assert [r["seq"] for r in alerts] == list(range(1, alert_count + 1))
        assert len(outputs) == 1
        assert alert_count > 50  # the mix genuinely exercises the subsystems


# -- 9: knowledge-base round-trip -----------------------------------------------------


def _random_kb(rng: random.Random) -> KnowledgeBase:
    from alertagent.context import Context
    from alertagent.kb import DeviceRegistration
    from alertagent.model import ALERT_KINDS

    contacts = {}
    for i in range(rng.randrange(0, 20)):
        cid = f"c{i}"
        contacts[cid] = Contact(cid, f"Person {i}", rng.choice(list(Group)), rng.random() < 0.25)
    safety = {}
    for i in range(rng.randrange(0, 15)):
        total = rng.randrange(0, 30)
        safety[f"n{i}"] = SafetyRecord(total_calls=total, unsafe_calls=rng.randrange(0, total + 1))
    devices = []
    device_ids = rng.sample(range(100), rng.randrange(0, 6))
    for i in device_ids:
        devices.append(
            DeviceRegistration(
                device_id=f"d{i}",
                contexts=frozenset(rng.sample(list(Context), rng.randrange(1, 4))),
                kinds=frozenset(rng.sample(ALERT_KINDS, rng.randrange(1, 4))),
            )
        )
    signals = {
        f"wifi_network:net{i}": rng.choice(list(Context))
        for i in range(rng.randrange(0, 6))
    }
    return KnowledgeBase(
        contacts=contacts, safety_records=safety, devices=devices, context_signals=signals
    )


def test_criterion_9_kb_round_trip():
    with criterion(9, "200 random KBs: load/save identity + fixed point", budget_s=5.0):
        rng = random.Random(900_900)
        for _ in range(200):
            kb = _random_kb(rng)
            first = kb_text(kb)
            loaded = load_kb(io.StringIO(first))
            assert loaded == kb
            assert kb_text(loaded) == first


# -- 10: forwarding rule ---------------------------------------------------------------


def test_criterion_10_forwarding_matches_oracle():
    with criterion(10, "forwarding set equals oracle; attended never forwards", budget_s=2.0):
        doc = kb_doc(
            devices=[
                {"device_id": "tv", "contexts": ["Home"], "kinds": ["ring", "beep"]},
                {"device_id": "laptop", "contexts": ["Home", "Workspace"], "kinds": ["beep"]},
                {"device_id": "watch", "contexts": ["Driving"], "kinds": ["ring"]},
            ]
        )
        kb = load_kb_doc(doc)

        def forwarded_for(context_name: str, attend: bool, use_message: bool):
            lines = [{"t": 0, "type": "user_context", "context": context_name}]
            if use_message:
                lines.append({"t": 1000, "type": "message_received", "caller": "c1"})
            else:
                lines.append({"t": 1000, "type": "call_start", "caller": "c1"})
                lines.append({"t": 2000, "type": "call_end"})
            if attend:
                lines.append({"t": 30_000, "type": "notification_attended", "alert_id": 1})
            else:
                lines.append({"t": 120_000, "type": "snapshot_request"})
            alerts = records(replay(lines, kb).log)
            return [r["device_id"] for r in alerts if r["kind"] == "forward_to_device"]

        for context_name in ("Home", "Workspace", "Driving", "Outdoor", "Unknown"):
            for use_message in (False, True):
                from alertagent.context import Context

                alert_kind = "beep" if use_message else "ring"
                expected = [
                    d.device_id
                    for d in matching_devices(kb.devices, Context(context_name), alert_kind)
                ]
                assert forwarded_for(context_name, attend=False, use_message=use_message) == expected
                assert forwarded_for(context_name, attend=True, use_message=use_message) == []
