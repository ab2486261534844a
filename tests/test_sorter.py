from __future__ import annotations

import json
import math
import random

import pytest

from alertagent.kb import KnowledgeBase
from alertagent.model import Group
from alertagent.sorter import MissedItemTally

from helpers import Record, entry_dicts, kb_with, oracle_sorted, snapshot_score, tally_of

MIN_MS = 60_000
FLOOR = 1.0


def record(caller="c1", kind="call", n=1, latest=0):
    return Record(caller_id=caller, kind=kind, n=n, latest_time_ms=latest)


def score(rec, group, now_ms):
    return snapshot_score(rec, group, now_ms, FLOOR)


def rank(records, kb, now_ms):
    return entry_dicts(tally_of(records, kb).snapshot(now_ms, FLOOR))


def entry(caller, kind, score):
    return {"caller": caller, "kind": kind, "score": score}


def test_score_group_a_one_call_one_minute():
    assert score(record(n=1, latest=0), Group.A, now_ms=MIN_MS) == 4.0


def test_score_group_b_four_calls_six_minutes():
    assert score(record(n=4, latest=0), Group.B, now_ms=6 * MIN_MS) == 2.0


def test_score_floor_clamps_fresh_items():
    assert score(record(n=3, latest=0), Group.D, now_ms=0) == 3.0


def test_sort_empty():
    assert MissedItemTally().snapshot(0, FLOOR) == '"entries":[]'


def test_sort_two_records_highest_first():
    kb = kb_with({"a": Group.A, "d": Group.D})
    records = [record(caller="d", n=2, latest=0), record(caller="a", n=1, latest=0)]
    assert rank(records, kb, now_ms=MIN_MS) == [entry("a", "call", 4.0), entry("d", "call", 2.0)]


def test_sort_matches_brute_force_oracle():
    rng = random.Random(7)
    groups = {f"c{i}": rng.choice(list(Group)) for i in range(12)}
    kb = kb_with(groups)
    now = 7 * 24 * 3600 * 1000
    pairs = [(f"c{i}", kind) for i in range(16) for kind in ("call", "message")]
    for _ in range(50):
        chosen = rng.sample(pairs, rng.randrange(0, 21))
        records = [
            record(caller=c, kind=k, n=rng.randrange(1, 21), latest=rng.randrange(0, now + 1))
            for c, k in chosen
        ]
        assert rank(records, kb, now) == oracle_sorted(records, groups, now, FLOOR)


def test_sort_output_is_permutation_of_input():
    rng = random.Random(11)
    kb = kb_with({"x": Group.B})
    records = [
        record(caller=f"c{i}", kind=rng.choice(("call", "message")), n=rng.randrange(1, 5))
        for i in range(30)
    ]
    ordered = rank(records, kb, now_ms=10 * MIN_MS)
    assert sorted((e["caller"], e["kind"]) for e in ordered) == sorted(
        (r.caller_id, r.kind) for r in records
    )


def test_tie_breaks_weight_then_recency_then_id_then_kind():
    # Equal scores by construction: score = weight * n / floor-clamped window.
    kb = kb_with({"a": Group.A, "b": Group.B, "0a": Group.A})
    records = [
        record(caller="b", n=4, latest=1000),  # 3*4/6 = 2.0
        record(caller="a", n=3, latest=1000),  # 4*3/6 = 2.0 -> wins on weight
    ]
    now = 1000 + 6 * MIN_MS
    assert [e["caller"] for e in rank(records, kb, now)] == ["a", "b"]

    # "0a" sorts before "a", so only recency puts its older call last.
    fresh = [record(caller="a", n=1, latest=5_000), record(caller="0a", n=1, latest=2_000)]
    message = record(caller="a", kind="message", n=1, latest=5_000)
    ordered = rank(fresh + [message], kb, now_ms=30_000)
    # All clamp to the floor: same score, same weight; recency first, then kind.
    assert [(e["caller"], e["kind"]) for e in ordered] == [
        ("a", "call"), ("a", "message"), ("0a", "call")
    ]

    # A full tie goes by the raw caller id: "~" (U+007E) before "é" (U+00E9),
    # though the escaped "\u00e9" would sort before "~".
    tied = [record(caller="é", latest=1000), record(caller="~", latest=1000)]
    assert [e["caller"] for e in rank(tied, kb, now_ms=30_000)] == ["~", "é"]


def test_entry_text_is_compact_json_dumps():
    # Callers the log must escape: a quote, a backslash, control characters,
    # non-ASCII, an astral character and a lone surrogate.
    callers = ['q"uote', "back\\slash", "ctl\x00\x1f\x7f", "Zoé", "\U0001f600", "\ud800"]
    now = 7 * MIN_MS + 1234
    records = [record(caller=c, kind=("call", "message")[i % 2], n=i + 1, latest=i * 999)
               for i, c in enumerate(callers)]
    text = tally_of(records, kb_with({})).snapshot(now, FLOOR)
    expected = [
        json.dumps({"caller": r.caller_id, "kind": r.kind,
                    "score": r.n / ((now - r.latest_time_ms) / 60000.0)}, separators=(",", ":"))
        for r in reversed(records)
    ]
    assert text == '"entries":[' + ",".join(expected) + "]"


@pytest.mark.parametrize("floor", [5e-324, math.nan], ids=["inf", "nan"])
def test_snapshot_refuses_a_non_finite_score(floor):
    # A score becomes log text in the tally, and NaN or Infinity is not JSON.
    # 1 / 5e-324 overflows to inf; a NaN floor makes every score NaN.
    tally = tally_of([record(n=1, latest=0), record(caller="c2", n=2, latest=0)], kb_with({}))
    with pytest.raises(ValueError, match="not a finite number"):
        tally.snapshot(0, floor)


def test_score_monotonicity_spot_checks():
    base = score(record(n=2, latest=0), Group.B, now_ms=5 * MIN_MS)
    assert score(record(n=3, latest=0), Group.B, now_ms=5 * MIN_MS) > base
    assert score(record(n=2, latest=0), Group.A, now_ms=5 * MIN_MS) > base
    assert score(record(n=2, latest=0), Group.B, now_ms=9 * MIN_MS) < base
    # Below the floor the window is clamped, so the score plateaus.
    assert score(record(n=2, latest=0), Group.B, now_ms=0) == score(
        record(n=2, latest=0), Group.B, now_ms=MIN_MS
    )


def test_tally_add_and_acknowledge():
    group = KnowledgeBase().contact_group("c1")  # no contact entry: Group D, weight 1
    tally = MissedItemTally()
    tally.add("c1", "call", 1000, group)
    tally.add("c1", "call", 5000, group)
    tally.add("c1", "message", 6000, group)
    # Within the floor a record scores its count.
    assert entry_dicts(tally.snapshot(6000, FLOOR)) == [
        entry("c1", "call", 2.0), entry("c1", "message", 1.0)
    ]
    # Two minutes after the latest call, its two calls score 2 / 2.
    later = entry_dicts(tally.snapshot(5000 + 2 * MIN_MS, FLOOR))
    assert entry("c1", "call", 1.0) in later

    assert tally.acknowledge("c1", "call") is True
    assert tally.acknowledge("c1", "call") is False
    assert entry_dicts(tally.snapshot(6000, FLOOR)) == [entry("c1", "message", 1.0)]


def test_identical_inputs_sort_identically():
    kb = kb_with({"a": Group.A})
    records = [record(caller=f"c{i}", n=1 + i % 3, latest=i * 100) for i in range(25)]
    now = 50 * MIN_MS
    tally = tally_of(records, kb)
    assert tally.snapshot(now, FLOOR) == tally.snapshot(now, FLOOR)
    # Arrival order does not reach the ranking.
    assert rank(records, kb, now) == rank(reversed(records), kb, now)
