"""Differential check of the JSON-lines reader against the strict decoder.

``read_json_lines`` decodes a line without the duplicate-key hook when the
line's colons prove that no key can repeat, and otherwise hands the line to
``_decode``. Line by line, it must give the value ``_decode`` gives, with its
key order and number types, or raise the error text ``_decode`` raises.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from alertagent.errors import InputError
from alertagent.model import _decode, read_json, read_json_lines

_KEYS = ['"t"', '"type"', '"a:b"', '":"', '"\\u003a"', '"c\\u003ad"', '"q\\""', '"caller"']
_ATOMS = [
    "0", "-7", "2.5", "1e3", "true", "false", "null", '""', '"x"', '"a:b"', '"::"',
    '"\\u003a"', '"e\\u003a\\u003a"', '"\\\\:"', "{}", "[]", "[[]]", "[{}]", "{ }", "[1, 2]",
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "9" * 4300, "9" * 4301,
]
_SPACES = ["", "", " ", "\t"]


def _value(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth < 4 and roll < 0.25:
        return _object(rng, depth + 1)
    if depth < 4 and roll < 0.35:
        items = [_value(rng, depth + 1) for _ in range(rng.randrange(3))]
        return "[" + ",".join(items) + "]"
    return rng.choice(_ATOMS)


def _object(rng: random.Random, depth: int) -> str:
    # Keys come from a small pool, so they often repeat, at every depth.
    pairs = [
        f"{rng.choice(_KEYS)}{rng.choice(_SPACES)}:{rng.choice(_SPACES)}{_value(rng, depth)}"
        for _ in range(rng.randrange(5))
    ]
    return "{" + ("," + rng.choice(_SPACES)).join(pairs) + "}"


# Hand-picked lines for each kind of fault and each way a colon can appear.
_CASES = [
    '{"t":0,"t":1}',  # a duplicate key at depth 0
    '{"a":{"b":1,"b":2}}',  # at depth 1
    '{"a":[{"b":{"c":1,"c":2}}]}',  # at depth 2
    '{"a":{"b":1},"c":{"b":2}}',  # equal keys in different objects
    '{"a:b":1}', '{"a":"b:c"}', '{"a\\u003ab":"c\\u003ad","e":1}', '{"\\u003a":1,":":2}',
    '{"a":{},"b":[],"c":[{},[]]}', '{"a":[{}],"b":{"c":[]}}',
    '{"t":NaN}', '{"t":1e999}', '{"t":-Infinity}', '{"t":%s}' % ("9" * 4301),
    '{"t":0} x', "{}{}", '{"t":0}{"t":1}', '{"t":0', "[1]", '"s"', "5", "null", "x", ":",
    "[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000,
    "{}", '{"t":0,"type":"call_end"}', ' {"t" : 0}\t', '{"t":"\\ud800"}',
    # Nested lines: whole log lines, colons inside nested strings and keys, and
    # duplicate keys in nested objects and in objects inside arrays.
    '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":[{"caller":"c1","kind":"call",'
    '"score":4.0},{"caller":"c\\"2","kind":"message","score":1e-07}]}',
    '{"t":60000,"seq":2,"kind":"forward_to_device","alert":{"t":0,"seq":1,"kind":"ring",'
    '"caller":"c1"},"device_id":"d1"}',
    '{"t":0,"seq":1,"kind":"sorted_list_snapshot","entries":[]}',
    '{"a":{"b":"c:d"}}', '{"a":[{"b":"::"}],"c":1}', '{"a":{"b:c":1}}', '{"a":[[{"b":"c:"}]]}',
    '{"a":{"b\\u003a":"\\u003a"},"c":[{"d":"\\u003a"}]}',
    '{"a":[{"b":1},{"b":2,"b":3}]}', '{"a":{"b":{"c":1}},"d":{"b":{"c":1,"c":2}}}',
    '{"entries":[{"caller":"c","caller":"d","score":1}]}',
    '{"a":{"b":1,"b":"x:y"}}',  # a lost key and a colon in a string, together
    '{"a":' * 400 + "1" + "}" * 400, '{"a":' * 400 + '"b:"' + "}" * 400,
]


def _strict(line: str) -> tuple[str, object]:
    """What ``_decode`` makes of one line, as the reader reports it."""
    try:
        obj = _decode(line.strip(" \t\r"), InputError, 1)
    except InputError as exc:
        return "error", str(exc)
    if not isinstance(obj, dict):
        return "error", "line 1: expected a JSON object"
    return "value", repr(obj)  # repr keeps key order and number types


def _fast(line: str) -> tuple[str, object]:
    try:
        ((lineno, obj),) = read_json_lines(io.StringIO(line), InputError)
    except InputError as exc:
        return "error", str(exc)
    assert lineno == 1
    return "value", repr(obj)


def _seeded_lines(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        line = _object(rng, 0)
        if rng.random() < 0.1:
            line = rng.choice(["", " ", "x", "{}", "}", ',"t":0}']) + line
        lines.append(rng.choice(_SPACES) + line + rng.choice(["", " ", "\r"]))
    return lines


@pytest.mark.parametrize("line", _CASES, ids=range(len(_CASES)))
def test_reader_matches_strict_decode_on_each_case(line):
    assert _fast(line) == _strict(line)


@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_strict_decode_on_seeded_lines(seed):
    outcomes = {"value": 0, "error": 0}
    for line in _seeded_lines(seed, 600):
        fast = _fast(line)
        assert fast == _strict(line), line
        outcomes[fast[0]] += 1
    assert min(outcomes.values()) > 50  # both outcomes are well covered


def test_seeded_lines_reach_both_decoders():
    # Guards the generator: many lines pass the colon test, and many repeat a key.
    lines = [line.strip(" \t\r") for line in _seeded_lines(0, 600)]
    outcomes = [_strict(line) for line in lines]
    colon_proof = sum(
        1 for line, (kind, _) in zip(lines, outcomes)
        if kind == "value" and line.count(":") == len(json.loads(line))
    )
    duplicates = sum(1 for kind, text in outcomes if kind == "error" and "duplicate key" in text)
    assert colon_proof > 100 and duplicates > 40


def _text_keys(line: str) -> int:
    """Keys written in a line, at every depth, a repeated key counted each time."""
    count = 0

    def pairs(items: list) -> dict:
        nonlocal count
        count += len(items)
        return dict(items)

    json.loads(line, object_pairs_hook=pairs)
    return count


def test_seeded_nested_lines_reach_both_decoders():
    # Guards the generator: over the seeds, many lines that nest an object pass
    # the colon test at every depth, and many repeat a key.
    passed = duplicates = 0
    for seed in range(4):
        for line in (line.strip(" \t\r") for line in _seeded_lines(seed, 600)):
            try:
                obj = json.loads(line)  # the last of two equal keys wins
            except ValueError:
                continue
            if not (isinstance(obj, dict) and any(isinstance(v, dict) for v in obj.values())):
                continue
            kind, text = _strict(line)
            passed += kind == "value" and line.count(":") == _text_keys(line)
            duplicates += kind == "error" and "duplicate key" in text
    assert passed > 50 and duplicates > 100


def _outcomes(source) -> list[tuple[str, object]]:
    """Each (line number, value) the reader gives, then the error text, if any."""
    outcomes = []
    try:
        for lineno, obj in read_json_lines(source, InputError):
            outcomes.append((lineno, repr(obj)))
    except InputError as exc:
        outcomes.append(("error", str(exc)))
    return outcomes


@pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "no_final_newline"])
def test_a_path_reads_like_a_stream(tmp_path, end):
    # Each line follows a good one, so a line read from the path is line 2, and
    # with no final newline it is the file's last byte.
    path = tmp_path / "lines.jsonl"
    lines = _CASES + [line for seed in range(4) for line in _seeded_lines(seed, 600)]
    for line in lines:
        text = '{"t":0}' + (end or "\n") + line + end
        path.write_bytes(text.encode("utf-8"))
        assert _outcomes(path) == _outcomes(io.StringIO(text)), line


def test_a_path_splits_lines_at_newline_only(tmp_path):
    # Raw U+2028 and U+0085 inside strings: str.splitlines splits at both.
    path = tmp_path / "lines.jsonl"
    path.write_bytes('{"a":"x\u2028y","b":"\u0085"}\n{"t":1}\n'.encode("utf-8"))
    assert list(read_json_lines(path, InputError)) == [
        (1, {"a": "x\u2028y", "b": "\u0085"}), (2, {"t": 1})
    ]


@pytest.mark.parametrize("data, line, reason", [
    (b'{"t":0}\n{"a":"caf\xe9"}\n{"t":1}\n', 2, "invalid continuation byte"),
    (b'{"t":0}\n{"a":"caf\xe9\n', 2, "invalid continuation byte"),
    (b'{"t":0}\n\n{"a":"caf\xe9', 3, "unexpected end of data"),
], ids=["mid_file", "before_last_newline", "at_eof"])
@pytest.mark.parametrize("read", [
    lambda path: list(read_json_lines(path, InputError)), lambda path: read_json(path, InputError)
], ids=["json_lines", "whole_document"])
def test_a_bad_byte_names_its_line_and_the_whole_file_reason(tmp_path, data, line, reason, read):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.reason == reason
    with pytest.raises(InputError) as err:
        read(path)
    assert str(err.value) == f"line {line}: invalid UTF-8: {reason}"
