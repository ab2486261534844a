from __future__ import annotations

import math

import pytest

from alertagent.errors import ConfigError
from alertagent.model import (
    AgentConfig,
    Alert,
    BatteryAction,
    BatteryActionSpec,
    Group,
    group_weight,
)


def test_group_weights():
    assert group_weight(Group.A) == 4
    assert group_weight(Group.B) == 3
    assert group_weight(Group.C) == 2
    assert group_weight(Group.D) == 1


def test_group_weight_injective_and_total():
    weights = {group_weight(g) for g in Group}
    assert weights == {1, 2, 3, 4}
    assert len(list(Group)) == 4


def test_alert_record_canonical_key_order():
    alert = Alert(t=5, seq=2, kind="ring", payload={"zeta": 1, "alpha": 2})
    assert list(alert.to_record()) == ["t", "seq", "kind", "alpha", "zeta"]


def test_default_config_is_valid():
    AgentConfig().validate()


def test_config_rejects_inverted_battery_thresholds():
    with pytest.raises(ConfigError):
        AgentConfig(battery_critical_pct=30, battery_rearm_pct=20).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"safe_call_limit_ms": 0},
        {"attend_window_ms": -1},
        {"tracker_timeout_ms": 0},
        {"sorter_t_floor_min": 0.0},
        {"precall_prob_threshold": 1.5},
        {"precall_min_calls": -1},
        {"sorter_t_floor_min": math.nan},
        {"sorter_t_floor_min": math.inf},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        AgentConfig(**kwargs).validate()


def test_config_requires_destination_for_outbound_actions():
    for kind in (
        BatteryAction.DIVERT_GROUP_A,
        BatteryAction.SEND_STATUS_SMS,
        BatteryAction.EMAIL_STATUS,
    ):
        config = AgentConfig(battery_actions=(BatteryActionSpec(kind=kind),))
        with pytest.raises(ConfigError):
            config.validate()
    AgentConfig(
        battery_actions=(BatteryActionSpec(kind=BatteryAction.INFORM_CALLER),)
    ).validate()
