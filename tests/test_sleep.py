from __future__ import annotations

import random

from alertagent.model import Group
from alertagent.sleep import RING, SUPPRESS, SleepGate, alert_ordinal


def test_ordinals_per_group():
    assert alert_ordinal(Group.A, False) == 1
    assert alert_ordinal(Group.B, False) == 2
    assert alert_ordinal(Group.C, False) == 4
    assert alert_ordinal(Group.D, False) == 6


def test_temporary_importance_rings_first_time():
    for group in Group:
        assert alert_ordinal(group, True) == 1


def test_group_a_rings_on_first_call():
    gate = SleepGate()
    gate.set_active(True)
    decision, _ = gate.on_call("a", alert_ordinal(Group.A, False))
    assert decision == RING


def test_group_d_rings_on_sixth_call():
    gate = SleepGate()
    gate.set_active(True)
    ordinal = alert_ordinal(Group.D, False)
    decisions = [gate.on_call("d", ordinal)[0] for _ in range(6)]
    assert decisions == [SUPPRESS] * 5 + [RING]


def test_counter_resets_after_ring():
    gate = SleepGate()
    gate.set_active(True)
    ordinal = alert_ordinal(Group.B, False)
    decisions = [gate.on_call("b", ordinal)[0] for _ in range(4)]
    assert decisions == [SUPPRESS, RING, SUPPRESS, RING]


def test_calls_outside_a_session_always_ring():
    gate = SleepGate()
    for _ in range(3):
        assert gate.on_call("d", alert_ordinal(Group.D, False))[0] == RING


def test_deactivation_clears_counters():
    gate = SleepGate()
    gate.set_active(True)
    ordinal = alert_ordinal(Group.B, False)
    assert gate.on_call("b", ordinal)[0] == SUPPRESS
    gate.set_active(False)
    gate.set_active(True)
    # A fresh session starts counting from zero again.
    assert gate.on_call("b", ordinal)[0] == SUPPRESS
    assert gate.on_call("b", ordinal)[0] == RING


def test_set_active_is_idempotent():
    gate = SleepGate()
    gate.set_active(True)
    gate.on_call("b", 2)
    gate.set_active(True)  # no-op, counters kept
    assert gate.on_call("b", 2)[0] == RING


def test_decision_pattern_over_random_call_sequences():
    rng = random.Random(31337)
    groups = {"a": Group.A, "b": Group.B, "c": Group.C, "d": Group.D}
    for _ in range(200):
        gate = SleepGate()
        gate.set_active(True)
        temp = {cid: rng.random() < 0.2 for cid in groups}
        seen: dict[str, list[str]] = {cid: [] for cid in groups}
        for _ in range(rng.randrange(0, 80)):
            cid = rng.choice(list(groups))
            decision, _ = gate.on_call(cid, alert_ordinal(groups[cid], temp[cid]))
            seen[cid].append(decision)
        for cid, decisions in seen.items():
            k = alert_ordinal(groups[cid], temp[cid])
            expected_cycle = [SUPPRESS] * (k - 1) + [RING]
            for index, decision in enumerate(decisions):
                assert decision == expected_cycle[index % k]
            if temp[cid]:
                assert SUPPRESS not in decisions
