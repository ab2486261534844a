from __future__ import annotations

import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest

from alertagent.cli import main
from alertagent.config import load_config
from alertagent.engine import read_alert_log
from alertagent.errors import InputError
from alertagent.kb import load_kb
from alertagent.model import read_json

from helpers import ROOT, contact_doc, drop_unwritten, kb_doc


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
    out, kb_out = tmp_path / "o", tmp_path / "kb-out"
    code = main(["run", "--scenario", str(bad), "--kb", str(kb), "--out", str(out),
                 "--kb-out", str(kb_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 7" in err and "bad.jsonl" in err
    assert not out.exists() and not kb_out.exists()


def test_a_fault_on_the_last_line_leaves_no_output(workspace, capsys):
    # Enough events that the run dispatches some before it reads the last line.
    tmp_path, _, kb, _ = workspace
    lines = [{"t": t, "type": "message_received", "caller": "c1"} for t in range(1, 1001)]
    lines.append({"t": 0, "type": "snapshot_request"})
    scenario = tmp_path / "late.jsonl"
    scenario.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out, kb_out = tmp_path / "o", tmp_path / "kb-out"
    code = main(["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out),
                 "--kb-out", str(kb_out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {scenario}: line 1001: timestamp 0 is earlier than the previous event at 1000\n"
    )
    assert not out.exists() and not kb_out.exists()


def test_run_checks_the_kb_before_it_reads_the_scenario(workspace, capsys):
    tmp_path, _, _, _ = workspace
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    missing = tmp_path / "nope.json"
    code = main(["run", "--scenario", str(bad), "--kb", str(missing), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "bad.jsonl" not in err


def _quiet_scenario(tmp_path, events: int):
    """A scenario that raises no alert."""
    scenario = tmp_path / f"quiet-{events}.jsonl"
    with open(scenario, "w", encoding="utf-8") as out:
        for t in range(events):
            if t % 2:
                out.write(f'{{"t": {t}, "type": "user_context", "context": "Home"}}\n')
            else:
                out.write(f'{{"t": {t}, "type": "sensor", "signal_kind": "proximity", '
                          f'"signal_value": "near"}}\n')
    return scenario


def _safety_exit_scenario(tmp_path, exits: int):
    """One call, then ``exits`` safety_mode_exit events 1 ms apart while it is exposed,
    each of which changes nothing, and the call's end before its first crossing."""
    scenario = tmp_path / f"exits-{exits}.jsonl"
    with open(scenario, "w", encoding="utf-8") as out:
        out.write('{"t": 0, "type": "call_start", "caller": "c1"}\n')
        for t in range(1, exits + 1):
            out.write(f'{{"t": {t}, "type": "safety_mode_exit"}}\n')
        out.write(f'{{"t": {exits + 1}, "type": "call_end"}}\n')
    return scenario


def _beep_scenario(tmp_path, alerts: int):
    """A scenario of messages from one caller, each raising one beep: a user-facing
    alert whose forward (to no device) comes due before the next message."""
    scenario = tmp_path / f"beeps-{alerts}.jsonl"
    with open(scenario, "w", encoding="utf-8") as out:
        for n in range(alerts):
            out.write(f'{{"t": {n * 60_001}, "type": "message_received", "caller": "c1"}}\n')
    return scenario


def _peak_traced_bytes(tmp_path, scenario) -> int:
    """tracemalloc's peak over ``alertagent run`` of ``scenario`` with an empty KB;
    the log goes to ``scenario`` with the suffix ``.log``."""
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(kb_doc()), encoding="utf-8")
    out = scenario.with_suffix(".log")
    argv = ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("scenario, alerts_per_event", [(_quiet_scenario, 0), (_beep_scenario, 1)],
                         ids=["quiet", "beeps"])
def test_run_memory_does_not_grow_with_the_event_count(tmp_path, capsys, scenario,
                                                       alerts_per_event):
    """Neither events nor the alerts they raise hold memory once written: the log's
    lines go to its spool at the end of each batch, and only their end offsets stay."""
    small = _peak_traced_bytes(tmp_path, scenario(tmp_path, 5_000))
    large = _peak_traced_bytes(tmp_path, scenario(tmp_path, 20_000))
    alerts = [word for word in capsys.readouterr().out.split() if word.startswith("alerts=")]
    assert alerts == [f"alerts={5_000 * alerts_per_event}", f"alerts={20_000 * alerts_per_event}"]
    assert large - small <= 256 * 1024, (small, large)


def test_run_memory_does_not_grow_with_no_op_safety_events(tmp_path, capsys):
    """A safety-mode event that leaves the exposure as it was queues no deadline."""
    small = _peak_traced_bytes(tmp_path, _safety_exit_scenario(tmp_path, 5_000))
    large = _peak_traced_bytes(tmp_path, _safety_exit_scenario(tmp_path, 20_000))
    assert capsys.readouterr().out.count("alerts=1 diagnostics=0") == 2
    assert large - small <= 256 * 1024, (small, large)


def test_run_memory_grows_by_little_more_than_each_alerts_line(tmp_path, capsys):
    """The run spools its log's lines to a file at the end of each batch, so each added
    alert keeps in memory its 8 B end offset: within its line's bytes and 16 B more."""
    small, large = _beep_scenario(tmp_path, 5_000), _beep_scenario(tmp_path, 20_000)
    small_peak = _peak_traced_bytes(tmp_path, small)
    peak_growth = _peak_traced_bytes(tmp_path, large) - small_peak
    out = capsys.readouterr().out
    assert "alerts=5000 " in out and "alerts=20000 " in out
    log_growth = large.with_suffix(".log").stat().st_size - small.with_suffix(".log").stat().st_size
    added = 15_000
    assert peak_growth / added <= log_growth / added + 16, (peak_growth / added, log_growth / added)


@pytest.fixture
def spools(monkeypatch):
    """Every spool the test's alert logs open. Once the test has dropped its logs and
    the garbage collector has run, each must be closed, with no ResourceWarning."""
    opened, make = [], tempfile.TemporaryFile

    def recording(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield opened
        gc.collect()
    assert opened and all(spool.closed for spool in opened)


def test_a_run_closes_its_log_spool(workspace, spools, capsys):
    tmp_path, scenario, kb, _ = workspace
    assert main(["run", "--scenario", str(scenario), "--kb", str(kb),
                 "--out", str(tmp_path / "o")]) == 0


def test_a_run_closes_its_log_spool_without_the_cycle_collector(workspace, spools, capsys):
    # Reference counting alone frees the run's engine and log: nothing they hold
    # refers back to them, so the spool is closed by the time main returns.
    tmp_path, scenario, kb, _ = workspace
    gc.disable()
    try:
        assert main(["run", "--scenario", str(scenario), "--kb", str(kb),
                     "--out", str(tmp_path / "o")]) == 0
        assert spools and all(spool.closed for spool in spools)
    finally:
        gc.enable()


def test_a_run_that_fails_mid_scenario_closes_its_log_spool(workspace, spools, capsys):
    tmp_path, _, kb, _ = workspace
    scenario = tmp_path / "bad-last.jsonl"
    scenario.write_text("".join(f'{{"t": {t}, "type": "message_received", "caller": "c1"}}\n'
                                for t in range(1000)) + "{broken\n", encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--kb", str(kb),
                 "--out", str(tmp_path / "o")]) == 1
    assert "line 1001" in capsys.readouterr().err


def test_a_log_dropped_unwritten_closes_its_spool(spools):
    drop_unwritten(read_alert_log(io.StringIO('{"t":0,"seq":1,"kind":"ring","caller":"c1"}\n')))


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


def test_run_missing_scenario_is_code_1(workspace, capsys):
    tmp_path, _, kb, _ = workspace
    missing = tmp_path / "nope.jsonl"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(missing), "--kb", str(kb), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {missing}: ")
    assert not out.exists()


class _FullSpool(io.BytesIO):
    """A log spool on a full disk: every write fails with ENOSPC."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write


def test_run_whose_log_spool_fails_is_code_2(workspace, monkeypatch, capsys):
    """A spool that cannot be written is an internal error, not a fault of the
    scenario the run was reading: exit 2, naming no input, and no log written."""
    tmp_path, scenario, kb, _ = workspace
    monkeypatch.setattr(tempfile, "TemporaryFile", _FullSpool)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and os.strerror(errno.ENOSPC) in err
    assert str(scenario) not in err
    assert not out.exists()


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


@pytest.mark.parametrize("doc, message", [
    (kb_doc(devices=[{"device_id": "", "contexts": ["Home"], "kinds": ["ring"]}]),
     "devices[0]: device_id must be non-empty"),
    (kb_doc(signals={"": "Home"}), "context_signals: signal key must be non-empty"),
], ids=["device_id", "signal_key"])
def test_validate_rejects_an_empty_id(tmp_path, capsys, doc, message):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--kb", str(kb)]) == 1
    assert capsys.readouterr().err == f"error: {kb}: {message}\n"


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


def test_report_prints_nothing_when_the_last_line_is_bad(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"t":0,"seq":1,"kind":"ring","caller":"c1"}\n'
        '{"t":1,"seq":2,"kind":"sorted_list_snapshot","entries":[]}\n'
        '{"t":2,"seq":3,"kind":"beep"}\n',
        encoding="utf-8",
    )
    assert main(["report", "--log", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {log}: line 3: missing field 'caller'\n"


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


@pytest.mark.parametrize(
    "record, field",
    [(f'"total": {_NINES}, "unsafe": 0', "total"), (f'"total": 5, "unsafe": {2**53}', "unsafe")],
    ids=["total_nines", "unsafe_past_limit"],
)
def test_safety_record_counts_are_bounded(workspace, capsys, record, field):
    # Unbounded, a total of 4300 nines loaded, one more call made it 4301
    # digits, and run exited 2 writing the KB.
    tmp_path, _scenario, _kb, _config = workspace
    kb = tmp_path / "big.json"
    kb.write_text(
        '{"contacts": [], "context_signals": {}, "devices": [], "safety_records": {"c1": {%s}}}'
        % record,
        encoding="utf-8",
    )
    scenario = tmp_path / "call.jsonl"
    scenario.write_text(
        '{"t": 0, "type": "call_start", "caller": "c1"}\n{"t": 1, "type": "call_end"}\n',
        encoding="utf-8",
    )
    argv = ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(tmp_path / "o"),
            "--kb-out", str(tmp_path / "kb-out.json")]
    assert main(argv) == 1
    assert f"{field} must be at most 2**53 - 1" in _assert_input_error(capsys, kb)


def test_safety_record_counts_stop_at_the_limit(workspace):
    tmp_path, _scenario, _kb, _config = workspace
    limit = 2**53 - 1
    kb, kb_out = tmp_path / "full.json", tmp_path / "kb-out.json"
    kb.write_text(json.dumps(kb_doc(safety={"c1": {"total": limit, "unsafe": limit - 1}})),
                  encoding="utf-8")
    scenario = tmp_path / "call.jsonl"
    scenario.write_text(
        '{"t": 0, "type": "call_start", "caller": "c1"}\n'
        '{"t": 400000, "type": "call_end"}\n',
        encoding="utf-8",
    )
    argv = ["run", "--scenario", str(scenario), "--kb", str(kb), "--out", str(tmp_path / "o"),
            "--kb-out", str(kb_out)]
    assert main(argv) == 0
    assert main(["validate", "--kb", str(kb_out)]) == 0
    record = load_kb(kb_out).safety_records["c1"]
    assert (record.total_calls, record.unsafe_calls) == (limit, limit)


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


# A KB and a config, each with a fault on line 5 that json's C decode names
# without a place. The line named is the first one the text must run to for the
# decode to meet that fault: the line of a NaN, an Infinity or 1e999, of the "}"
# closing an object with a repeated key, of the "[" where the depth runs out.
_KB_FAULT = '{\n"contacts": [],\n"context_signals": {},\n"devices": [],\n"safety_records": {"c1": %s}}'
_CONFIG_FAULT = '{\n"attend_window_ms": 1,\n\n\n"battery_actions": [%s]}'
_FAULTS = {
    "duplicate_key": ('{"total": 1, "unsafe": 0, "total": 2}', "duplicate key 'total'"),
    "nan": ('{"total": NaN, "unsafe": 0}', "NaN is not a finite number"),
    "1e999": ('{"total": 1e999, "unsafe": 0}', "1e999 is not a finite number"),
    "nesting": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
}
# Every input ends a line at "\n" only: a CRLF document names the LF one's line,
# and in a document whose lines end in a lone "\r" every fault is on line 1.
_LINE_ENDS = pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])


def _write_with_ends(path, text: str, end: str) -> str:
    """Write ``text`` with each "\\n" replaced by ``end``; the text as written."""
    text = text.replace("\n", end)
    path.write_text(text, encoding="utf-8", newline="")
    return text


def _read_json_error(source) -> str:
    with pytest.raises(InputError) as err:
        read_json(source, InputError)
    return str(err.value)


@_LINE_ENDS
@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize(
    "option, layout", [("--kb", _KB_FAULT), ("--config", _CONFIG_FAULT)], ids=["kb", "config"]
)
def test_whole_document_fault_names_its_line(tmp_path, capsys, option, layout, fault, end):
    value, message = _FAULTS[fault]
    path = tmp_path / "input.json"
    text = _write_with_ends(path, layout % value, end)
    line = 1 if end == "\r" else 5
    assert main(["validate", option, str(path)]) == 1
    assert f"line {line}: invalid JSON: {message}" in _assert_input_error(capsys, path, line)
    # An open stream of the same text gives the same error text.
    assert _read_json_error(io.StringIO(text)) == _read_json_error(path)


# Faults a line or more past where the object or array around them opens; the
# value starts on line 5 of either layout.
_FAULTS_MET_LATER = {
    "nan": ('{\n"total": 1,\n"unsafe":\nNaN\n}', 8, "NaN is not a finite number"),
    "duplicate_key": ('{\n"total": 1,\n"total": 2,\n"unsafe": 0\n}', 9, "duplicate key 'total'"),
    "nan_900_deep": ("[" * 900 + "\n\nNaN" + "]" * 900, 7, "NaN is not a finite number"),
}


@_LINE_ENDS
@pytest.mark.parametrize("fault", _FAULTS_MET_LATER)
@pytest.mark.parametrize(
    "option, layout", [("--kb", _KB_FAULT), ("--config", _CONFIG_FAULT)], ids=["kb", "config"]
)
def test_whole_document_fault_names_the_line_where_it_is_met(
    tmp_path, capsys, option, layout, fault, end
):
    value, line, message = _FAULTS_MET_LATER[fault]
    path = tmp_path / "input.json"
    _write_with_ends(path, layout % value, end)
    line = 1 if end == "\r" else line
    assert main(["validate", option, str(path)]) == 1
    assert f"line {line}: invalid JSON: {message}" in _assert_input_error(capsys, path, line)


@_LINE_ENDS
@pytest.mark.parametrize("name, load", [("kb.json", load_kb), ("config.json", load_config)],
                         ids=["kb", "config"])
def test_sample_document_loads_the_same_with_any_line_end(tmp_path, name, load, end):
    path = tmp_path / name
    text = _write_with_ends(path, (ROOT / "sample" / name).read_text(encoding="utf-8"), end)
    assert read_json(io.StringIO(text), InputError) == read_json(path, InputError)
    assert load(path) == load(ROOT / "sample" / name)


_NOT_UTF8 = b'\n{"caller": "caf\xe9"}\n'
_TOO_DEEP = b"\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n"


@pytest.mark.parametrize("payload", [_NOT_UTF8, _TOO_DEEP], ids=["not_utf8", "too_deep"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "--scenario"], ["validate", "--kb"], ["validate", "--config"], ["report", "--log"]],
    ids=["scenario", "kb", "config", "log"],
)
def test_undecodable_input_is_code_1(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert main(argv + [str(path)]) == 1
    _assert_input_error(capsys, path, line=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--kb", str(ROOT / "sample" / "kb.json"), "--scenario"],
        ["validate", "--scenario"],
        ["report", "--log"],
        ["validate", "--kb"],
        ["validate", "--config"],
    ],
    ids=["run", "scenario", "log", "kb", "config"],
)
def test_invalid_utf8_names_its_file_and_line(tmp_path, capsys, argv):
    path, out = tmp_path / "input.json", tmp_path / "log.jsonl"
    path.write_bytes(_NOT_UTF8)
    assert main([*argv, str(path), *(["--out", str(out)] if argv[0] == "run" else [])]) == 1
    err = _assert_input_error(capsys, path)
    assert f"{path.name}: line 2: invalid UTF-8: " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, first",
    [
        (["run", "--kb", str(ROOT / "sample" / "kb.json"), "--scenario"],
         b'{"t": 0, "type": "call_end"}'),
        (["report", "--log"], b'{"t":0,"seq":1,"kind":"ring","caller":"c"}'),
    ],
    ids=["run", "report"],
)
def test_the_first_faulty_line_in_file_order_is_named(tmp_path, capsys, argv, first):
    # A JSON fault on line 2 comes before a byte that is not UTF-8 on line 4.
    path, out = tmp_path / "input.jsonl", tmp_path / "log.jsonl"
    path.write_bytes(first + b'\n{"t": 1,}\n' + first + b'\n{"caller": "caf\xe9"}\n')
    assert main([*argv, str(path), *(["--out", str(out)] if argv[0] == "run" else [])]) == 1
    err = _assert_input_error(capsys, path, line=2)
    assert "invalid JSON" in err and "line 4" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":5}',
        '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":["x"]}',
        '{"t":0,"seq":1,"kind":"ring","caller":["x"]}',
        '{"t":0,"seq":1,"kind":"forward_to_device","device_id":"d","alert":{}}',
    ],
    ids=["entries_not_array", "entry_not_object", "caller_not_string", "forward_of_no_alert"],
)
def test_report_rejects_ill_typed_payload(tmp_path, capsys, line):
    log = tmp_path / "log.jsonl"
    log.write_text(line + "\n", encoding="utf-8")
    assert main(["report", "--log", str(log)]) == 1
    _assert_input_error(capsys, log, line=1)


_RING = '{"t":0,"seq":1,"kind":"ring","caller":%s}\n'


@pytest.mark.parametrize(
    "encoding, name, text, expected",
    [
        ("cp1252", "log.jsonl", _RING % '"名前"', r"  \u540d\u524d: calls=1 messages=0"),
        ("utf-8", "log.jsonl", _RING % r'"\ud800"', r"  \ud800: calls=1 messages=0"),
        (
            "ascii", "café.jsonl", '{"t": 0, "type": "call_end"}\n',
            r"scenario=caf\xe9 events=1 alerts=0 diagnostics=1",
        ),
    ],
    ids=["report_cjk_cp1252", "report_lone_surrogate", "run_file_name_ascii"],
)
def test_stdout_escapes_what_its_encoding_cannot_show(tmp_path, encoding, name, text, expected):
    """A string the engine accepted reaches stdout escaped, not as exit 2."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name == "log.jsonl":
        argv = ["report", "--log", str(path)]
    else:
        kb = str(ROOT / "sample" / "kb.json")
        argv = ["run", "--scenario", str(path), "--kb", kb, "--out", str(tmp_path / "out.jsonl")]
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "alertagent", *argv],
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": encoding},
        capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert expected in proc.stdout.decode("ascii").splitlines()


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["report", "run"])
def test_a_closed_stdout_exits_141_and_prints_nothing(tmp_path, command, buffering):
    """``report`` over 5000 callers, more than a pipe holds, with one line read, and
    ``run`` with stdout closed at once: exit 141 (128 + SIGPIPE), as ``cat`` would,
    with nothing on stderr. Both with the write failing in ``print`` (unbuffered)
    and in the last flush (buffered)."""
    if command == "report":
        log = tmp_path / "log.jsonl"
        log.write_text("".join(_RING % f'"c{n:05d}"' for n in range(5000)), encoding="utf-8")
        argv = ["report", "--log", str(log)]
    else:
        sample = ROOT / "sample"
        argv = ["run", "--scenario", str(sample / "scenario.jsonl"), "--kb",
                str(sample / "kb.json"), "--out", str(tmp_path / "out.jsonl")]
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    unbuffered = "1" if buffering == "unbuffered" else ""
    with open(tmp_path / "err.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "alertagent", *argv], stdout=subprocess.PIPE, stderr=err,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
        )
        if command == "report":
            assert proc.stdout.readline() == b"alerts: 5000\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
    assert (tmp_path / "err.txt").read_bytes() == b""


def test_importing_the_package_loads_no_introspection_modules():
    """``alertagent`` and its command line import neither ``dataclasses`` nor the
    modules it would pull in, which no output needs and every run would hold."""
    probe = ("import sys; before = set(sys.modules); import alertagent, alertagent.cli; "
             "print(*sorted(set(sys.modules) - before))")
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(proc.stdout.split())
    assert "alertagent.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, loaded
