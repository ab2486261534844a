from __future__ import annotations

import json

import pytest

from alertagent.cli import main

from helpers import ROOT, contact_doc, kb_doc


@pytest.fixture
def workspace(tmp_path):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(
        json.dumps(kb_doc(contacts=[contact_doc("c1", "A")])), encoding="utf-8"
    )
    scenario_path = tmp_path / "scenario.jsonl"
    scenario_path.write_text(
        '{"t": 0, "type": "call_start", "caller": "c1"}\n'
        '{"t": 420000, "type": "call_end"}\n'
        '{"t": 500000, "type": "snapshot_request"}\n',
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config_path.write_text('{"attend_window_ms": 30000}', encoding="utf-8")
    return tmp_path, scenario_path, kb_path, config_path


def test_run_happy_path(workspace, capsys):
    tmp_path, scenario, kb, config = workspace
    out = tmp_path / "log.jsonl"
    kb_out = tmp_path / "kb-out.json"
    code = main(
        [
            "run",
            "--scenario", str(scenario),
            "--kb", str(kb),
            "--config", str(config),
            "--out", str(out),
            "--kb-out", str(kb_out),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "events=3" in summary and "alerts=" in summary
    lines = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["kind"] == "ring"
    saved = json.loads(kb_out.read_text(encoding="utf-8"))
    assert saved["safety_records"]["c1"] == {"total": 1, "unsafe": 1}


def test_run_is_referentially_transparent(workspace):
    tmp_path, scenario, kb, config = workspace
    outputs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        assert main(
            ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)]
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_reports_bad_line_number(workspace, capsys):
    tmp_path, _, kb, _ = workspace
    bad = tmp_path / "bad.jsonl"
    good = '{"t": 0, "type": "battery_level", "pct": 50}'
    bad.write_text("\n".join([good] * 6 + ["{broken"]) + "\n", encoding="utf-8")
    code = main(
        ["run", "--scenario", str(bad), "--kb", str(kb), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "line 7" in err and "bad.jsonl" in err


def test_run_missing_input_file_is_code_1(workspace, capsys):
    tmp_path, scenario, _, _ = workspace
    code = main(
        [
            "run",
            "--scenario", str(scenario),
            "--kb", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_run_unwritable_out_is_code_2(workspace, capsys):
    tmp_path, scenario, kb, _ = workspace
    code = main(
        ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(tmp_path)]
    )
    assert code == 2


def test_precall_warning_with_empty_history_does_not_crash(tmp_path):
    kb = tmp_path / "kb.json"
    kb.write_text(
        json.dumps(kb_doc(safety={"c1": {"total": 0, "unsafe": 0}})), encoding="utf-8"
    )
    config = tmp_path / "config.json"
    config.write_text(
        '{"precall_min_calls": 0, "precall_prob_threshold": 0.0}', encoding="utf-8"
    )
    scenario = tmp_path / "scenario.jsonl"
    scenario.write_text('{"t": 0, "type": "call_start", "caller": "c1"}\n', encoding="utf-8")
    out = tmp_path / "log.jsonl"
    code = main(
        [
            "run",
            "--scenario", str(scenario),
            "--kb", str(kb),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    warnings = [r for r in records if r["kind"] == "radiation_precall_warning"]
    assert warnings == [{"t": 0, "seq": 2, "kind": "radiation_precall_warning",
                         "caller": "c1", "probability": 0.0}]


def test_validate_accepts_valid_inputs(workspace, capsys):
    _, scenario, kb, config = workspace
    assert main(["validate", "--scenario", str(scenario)]) == 0
    assert main(["validate", "--kb", str(kb)]) == 0
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.count("ok:") == 3


def test_validate_rejects_invariant_breaches(tmp_path, capsys):
    bad_kb = tmp_path / "kb.json"
    bad_kb.write_text(
        json.dumps(kb_doc(safety={"c": {"total": 4, "unsafe": 5}})), encoding="utf-8"
    )
    assert main(["validate", "--kb", str(bad_kb)]) == 1
    assert "unsafe" in capsys.readouterr().err


def test_validate_empty_scenario_is_valid(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["validate", "--scenario", str(empty)]) == 0


def test_report_counts_and_snapshot(workspace, capsys):
    tmp_path, scenario, kb, _ = workspace
    out = tmp_path / "log.jsonl"
    main(["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--log", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ring: 1" in text
    assert "radiation_incall_warning: 1" in text
    assert "c1: calls=1" in text
    assert "callback list (snapshot at t=500000):" in text
    assert "1. c1 (call)" in text


def test_report_without_snapshot(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text('{"t":0,"seq":1,"kind":"ring","caller":"c9"}\n', encoding="utf-8")
    assert main(["report", "--log", str(log)]) == 0
    assert "no snapshot" in capsys.readouterr().out


def test_report_empty_log(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    assert main(["report", "--log", str(log)]) == 0
    assert "alerts: 0" in capsys.readouterr().out


def test_report_malformed_log_is_code_1(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("junk\n", encoding="utf-8")
    assert main(["report", "--log", str(log)]) == 1


def _assert_input_error(capsys, path, line=None):
    err = capsys.readouterr().err
    assert path.name in err
    assert "internal error" not in err and "Traceback" not in err
    if line is not None:
        assert f"line {line}:" in err
    return err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_with_non_finite_number_is_code_1(tmp_path, capsys, literal):
    config = tmp_path / "config.json"
    config.write_text('{"sorter_t_floor_min": %s}' % literal, encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 1
    assert literal in _assert_input_error(capsys, config)


_HUGE = "1" + "0" * 400  # an integer too large for a float


@pytest.mark.parametrize("field", ["sorter_t_floor_min", "precall_prob_threshold"])
def test_config_with_integer_too_large_for_a_float_is_code_1(tmp_path, capsys, field):
    config = tmp_path / "config.json"
    config.write_text('{"%s": %s}' % (field, _HUGE), encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 1
    assert f"field {field!r}" in _assert_input_error(capsys, config)


@pytest.mark.parametrize(
    "t, code", [(2**53 - 1, 0), (2**53, 1), (_HUGE, 1)], ids=["limit", "past_limit", "huge"]
)
def test_scenario_time_is_bounded(workspace, capsys, t, code):
    tmp_path, _scenario, kb, _config = workspace
    scenario = tmp_path / "late.jsonl"
    scenario.write_text(
        '{"t": 0, "type": "message_received", "caller": "c1"}\n'
        '{"t": %s, "type": "snapshot_request"}\n' % t,
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    argv = ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)]
    assert main(argv) == code
    if code:
        assert "field 't' out of range" in _assert_input_error(capsys, scenario, line=2)


def _run_with_config(tmp_path, config_text, scenario_text, kb):
    """Exit code of ``run``; a run that exits 0 must write a log ``report`` reads."""
    config, scenario = tmp_path / "config.json", tmp_path / "scenario.jsonl"
    config.write_text(config_text, encoding="utf-8")
    scenario.write_text(scenario_text, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main(["run", "--scenario", str(scenario), "--kb", str(kb), "--config", str(config),
                 "--out", str(out)])
    if code == 0:
        assert main(["report", "--log", str(out)]) == 0
    return code


_NINES = "9" * 4300  # the longest integer Python writes as text by default


@pytest.mark.parametrize(
    "value, code", [(2**53 - 1, 0), (2**53, 1), (_NINES, 1)], ids=["limit", "past_limit", "nines"]
)
@pytest.mark.parametrize("field", ["safe_call_limit_ms", "attend_window_ms", "tracker_timeout_ms"])
def test_config_durations_are_bounded(tmp_path, capsys, field, value, code):
    # Unbounded, an attend_window_ms of 4300 nines put the message's forward at
    # a t of 4301 digits, which the log writer cannot write, and run exited 2.
    scenario = (
        '{"t": 0, "type": "sensor", "signal_kind": "wifi_network", "signal_value": "home-net"}\n'
        '{"t": 1, "type": "message_received", "caller": "c1"}\n'
    )
    config_text = '{"%s": %s}' % (field, value)
    assert _run_with_config(tmp_path, config_text, scenario, ROOT / "sample" / "kb.json") == code
    if code:
        err = _assert_input_error(capsys, tmp_path / "config.json")
        assert f"{field}: must be positive and at most 2**53 - 1" in err


@pytest.mark.parametrize("floor, code", [("1e-290", 0), ("1e-300", 1), ("5e-324", 1)])
def test_sorter_floor_keeps_every_score_finite(workspace, capsys, floor, code):
    # Unbounded, a fresh item scored 1 / 5e-324: the log held "score":Infinity,
    # which is not JSON, and report rejected the log run had written.
    tmp_path, _scenario, kb, _config = workspace
    scenario = (
        '{"t": 0, "type": "message_received", "caller": "c1"}\n'
        '{"t": 0, "type": "snapshot_request"}\n'
    )
    config_text = '{"sorter_t_floor_min": %s}' % floor
    assert _run_with_config(tmp_path, config_text, scenario, kb) == code
    if code:
        assert "sorter_t_floor_min" in _assert_input_error(capsys, tmp_path / "config.json")


# Lines padded with whitespace that JSON does not allow (str.strip would take it off).
_NOT_JSON_WHITESPACE = ["\u00a0%s", "\x1c%s\u2028", "\x0b"]


@pytest.mark.parametrize("pad", _NOT_JSON_WHITESPACE, ids=["nbsp", "separators", "vtab_only"])
@pytest.mark.parametrize(
    "argv, good",
    [
        (["validate", "--scenario"], '{"t": 0, "type": "snapshot_request"}'),
        (["report", "--log"], '{"t":0,"seq":1,"kind":"ring","caller":"c1"}'),
    ],
    ids=["scenario", "log"],
)
def test_whitespace_outside_json_is_code_1(tmp_path, capsys, argv, good, pad):
    path = tmp_path / "input.jsonl"
    bad = pad % good if "%s" in pad else pad
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    assert main(argv + [str(path)]) == 1
    _assert_input_error(capsys, path, line=2)


def test_report_rejects_non_finite_score(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"t":0,"seq":1,"kind":"ring","caller":"c1"}\n'
        '{"t":0,"seq":2,"kind":"sorted_list_snapshot",'
        '"entries":[{"caller":"c1","kind":"call","score":NaN}]}\n',
        encoding="utf-8",
    )
    assert main(["report", "--log", str(log)]) == 1
    _assert_input_error(capsys, log, line=2)


@pytest.mark.parametrize(
    "option, text, key, line",
    [
        (
            "--scenario",
            '{"t": 0, "type": "battery_level", "pct": 90}\n'
            '{"t": 1, "type": "battery_level", "pct": 50, "pct": 2}\n',
            "pct",
            2,
        ),
        ("--kb", json.dumps(kb_doc())[:-1] + ', "safety_records": {}}', "safety_records", None),
        ("--config", '{"attend_window_ms": 1, "attend_window_ms": 2}', "attend_window_ms", None),
    ],
    ids=["scenario", "kb", "config"],
)
def test_duplicate_key_is_code_1(tmp_path, capsys, option, text, key, line):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", option, str(path)]) == 1
    assert f"duplicate key {key!r}" in _assert_input_error(capsys, path, line)


_NOT_UTF8 = b'\n{"caller": "caf\xe9"}\n'
_TOO_DEEP = b"\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n"


@pytest.mark.parametrize("payload", [_NOT_UTF8, _TOO_DEEP], ids=["not_utf8", "too_deep"])
@pytest.mark.parametrize(
    "argv, line",
    [
        (["validate", "--scenario"], 2),
        (["validate", "--kb"], None),
        (["validate", "--config"], None),
        (["report", "--log"], 2),
    ],
    ids=["scenario", "kb", "config", "log"],
)
def test_undecodable_input_is_code_1(tmp_path, capsys, argv, line, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert main(argv + [str(path)]) == 1
    _assert_input_error(capsys, path, line)


@pytest.mark.parametrize(
    "line",
    [
        '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":5}',
        '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":["x"]}',
        '{"t":0,"seq":1,"kind":"ring","caller":["x"]}',
    ],
    ids=["entries_not_array", "entry_not_object", "caller_not_string"],
)
def test_report_rejects_ill_typed_payload(tmp_path, capsys, line):
    log = tmp_path / "log.jsonl"
    log.write_text(line + "\n", encoding="utf-8")
    assert main(["report", "--log", str(log)]) == 1
    _assert_input_error(capsys, log, line=1)
