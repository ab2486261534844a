from __future__ import annotations

import copy
import io
import json

import pytest

from alertagent.cli import main
from alertagent.config import config_from_dict, load_config
from alertagent.errors import ConfigError
from alertagent.model import AgentConfig, BatteryAction

from helpers import kb_doc


def load(doc) -> AgentConfig:
    return load_config(io.StringIO(json.dumps(doc)))


def test_empty_object_gives_defaults():
    assert load({}) == AgentConfig()


def test_fields_override_defaults():
    config = load({"battery_critical_pct": 10, "battery_rearm_pct": 50})
    assert config.battery_critical_pct == 10
    assert config.battery_rearm_pct == 50
    assert config.safe_call_limit_ms == 360_000


def test_battery_actions_parse_in_order():
    config = load(
        {
            "battery_actions": [
                {"kind": "send_status_sms", "destination": "+1"},
                {"kind": "inform_caller"},
            ]
        }
    )
    assert [spec.kind for spec in config.battery_actions] == [
        BatteryAction.SEND_STATUS_SMS,
        BatteryAction.INFORM_CALLER,
    ]


@pytest.mark.parametrize(
    "doc",
    [
        {"unknown_knob": 1},
        {"battery_critical_pct": "low"},
        {"precall_prob_threshold": "half"},
        {"battery_actions": [{"kind": "shout"}]},
        {"battery_actions": [{"kind": "send_status_sms"}]},  # destination required
        {"battery_critical_pct": 30, "battery_rearm_pct": 20},
        {"battery_actions": [{"kind": ["inform_caller"]}]},
    ],
)
def test_bad_configs_are_rejected(doc):
    with pytest.raises(ConfigError):
        load(doc)


def test_parse_error_names_location():
    with pytest.raises(ConfigError) as err:
        load_config(io.StringIO("{\n  nope\n}"))
    assert "line 2" in str(err.value)


def test_config_from_dict_leaves_its_document_unchanged():
    doc = {
        "precall_prob_threshold": 1,
        "battery_actions": [
            {"kind": "inform_caller"},
            {"kind": "email_status", "destination": "a@b"},
        ],
    }
    before = copy.deepcopy(doc)
    config = config_from_dict(doc)
    assert doc == before
    assert isinstance(config.precall_prob_threshold, float)
    assert config.battery_actions[0].destination == ""


@pytest.mark.parametrize("field", ["battery_critical_pct", "battery_rearm_pct"])
def test_threshold_error_clips_a_huge_value(tmp_path, capsys, field):
    huge = "1" + "0" * 400
    (tmp_path / "config.json").write_text(f'{{"{field}": {huge}}}', encoding="utf-8")
    (tmp_path / "kb.json").write_text(json.dumps(kb_doc()), encoding="utf-8")
    (tmp_path / "scenario.jsonl").write_text('{"t": 0, "type": "call_end"}\n', encoding="utf-8")
    code = main(
        [
            "run",
            "--scenario", str(tmp_path / "scenario.jsonl"),
            "--kb", str(tmp_path / "kb.json"),
            "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "log.jsonl"),
        ]
    )
    err = capsys.readouterr().err.strip()
    assert code == 1
    assert field in err and "1000000000000000000…" in err
    assert len(err) < 200, err
