from __future__ import annotations

import random

from alertagent.battery import BatteryGuard
from alertagent.model import AgentConfig, BatteryAction, BatteryActionSpec, Group


def make_guard(actions=()):
    config = AgentConfig(battery_actions=tuple(actions))
    config.validate()
    return BatteryGuard(config)


def test_fires_strictly_below_critical():
    guard = make_guard()
    assert guard.on_level(5) is False
    assert guard.on_level(4) is False  # 4 is not below 4
    assert guard.on_level(3) is True
    assert not guard.armed


def test_one_burst_per_episode_until_rearm():
    guard = make_guard()
    assert guard.on_level(3) is True
    assert guard.on_level(2) is False
    assert guard.on_level(3) is False
    assert guard.on_level(19) is False  # below the re-arm threshold
    assert guard.on_level(2) is False
    assert guard.on_level(25) is False  # re-arms
    assert guard.armed
    assert guard.on_level(3) is True


def test_burst_count_matches_hysteresis_oracle():
    rng = random.Random(99)
    for _ in range(300):
        levels = [rng.randrange(0, 101) for _ in range(rng.randrange(0, 60))]
        guard = make_guard()
        fired = sum(1 for lvl in levels if guard.on_level(lvl))

        armed = True
        expected = 0
        for lvl in levels:
            if armed and lvl < 4:
                expected += 1
                armed = False
            elif lvl >= 20:
                armed = True
        assert fired == expected


def test_incoming_call_actions_only_during_episode():
    inform = BatteryActionSpec(kind=BatteryAction.INFORM_CALLER)
    guard = make_guard([inform])
    assert guard.on_incoming_call(Group.A) == ([], False)
    guard.on_level(3)
    assert guard.on_incoming_call(Group.D) == ([inform], False)


def test_divert_applies_to_group_a_only():
    divert = BatteryActionSpec(kind=BatteryAction.DIVERT_GROUP_A, destination="+91-1")
    guard = make_guard([divert])
    guard.on_level(2)
    assert guard.on_incoming_call(Group.A) == ([divert], True)
    assert guard.on_incoming_call(Group.B) == ([], False)


def test_configured_order_is_preserved():
    divert = BatteryActionSpec(kind=BatteryAction.DIVERT_GROUP_A, destination="+91-1")
    inform = BatteryActionSpec(kind=BatteryAction.INFORM_CALLER)
    guard = make_guard([divert, inform])
    guard.on_level(1)
    specs, diverted = guard.on_incoming_call(Group.A)
    assert specs == [divert, inform]
    assert diverted


def test_sms_and_email_do_not_react_to_calls():
    sms = BatteryActionSpec(kind=BatteryAction.SEND_STATUS_SMS, destination="+91-2")
    email = BatteryActionSpec(kind=BatteryAction.EMAIL_STATUS, destination="a@b")
    guard = make_guard([sms, email])
    guard.on_level(0)
    assert guard.on_incoming_call(Group.A) == ([], False)
