from __future__ import annotations

import math

import pytest

from alertagent.errors import ConfigError, InputError
from alertagent.model import (
    ABSENT,
    AgentConfig,
    Alert,
    BatteryAction,
    BatteryActionSpec,
    Event,
    Group,
    check_fields,
    fields_problem,
    group_weight,
    need_choices,
    need_int,
    need_str,
    need_type,
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
    event = Event(t=5, seq=1, kind="call_end", data={})
    with pytest.raises(AttributeError):
        alert.kind = "beep"
    with pytest.raises(AttributeError):
        event.t = 6


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
        {"sorter_t_floor_min": 5e-324},
        {"safe_call_limit_ms": 2**53},
        {"attend_window_ms": 2**53},
        {"tracker_timeout_ms": 2**53},
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


_OK = {"name": "n", "kind": "a", "count": 1}
_TABLE = {
    "name": need_str(),
    "kind": need_str(("a", "b")),
    "count": need_int(0, 9),
    "score": need_type(float, default=ABSENT),
    "on": need_type(bool, default=False),
    "tags": need_choices(("x", "y"), default=ABSENT),
}


@pytest.mark.parametrize(
    "obj, where, message",
    [
        ([], "root", "root: expected an object"),
        (_OK | {"bogus": 1}, "root", "root: unknown field 'bogus'"),
        ({"name": "n", "kind": "a"}, 7, "line 7: missing field 'count'"),
        (_OK | {"name": ""}, "x", "x: field 'name' must be a non-empty string"),
        (_OK | {"kind": "c"}, "x", "x: field 'kind' must be one of ['a', 'b']"),
        (_OK | {"count": True}, "x", "x: field 'count' must be an integer"),
        (_OK | {"count": 10}, "x", "x: field 'count' out of range"),
        (_OK | {"score": "1"}, "x", "x: field 'score' must be a number"),
        (_OK | {"score": False}, "x", "x: field 'score' must be a number"),
        (_OK | {"on": 1}, "x", "x: field 'on' must be a boolean"),
        (_OK | {"tags": ["x", ["y"]]}, "x", "x: field 'tags' holds ['y'], not one of ['x', 'y']"),
    ],
)
def test_check_fields_names_the_first_problem(obj, where, message):
    with pytest.raises(InputError) as err:
        check_fields(obj, _TABLE, where, InputError)
    assert str(err.value) == message


def test_check_fields_accepts_and_never_fills_in_optional_fields():
    obj = {"name": "n", "kind": "b", "count": 0, "score": 2}
    check_fields(obj, _TABLE, "x", InputError)
    assert obj == {"name": "n", "kind": "b", "count": 0, "score": 2}
    assert fields_problem(obj, _TABLE) is None
