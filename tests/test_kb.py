from __future__ import annotations

import copy
import io
import json
import random
import sys
import tracemalloc

import pytest

from alertagent.context import Context
from alertagent.errors import KnowledgeBaseError
from alertagent.kb import (
    DeviceRegistration, KnowledgeBase, SafetyRecord, kb_from_dict, load_kb, save_kb,
)
from alertagent.model import ALERT_KINDS, Contact, Group, _decode

from helpers import assert_same_text, contact_doc, kb_doc, kb_text, load_bench_gen, load_kb_doc


def test_empty_document_loads_empty_kb():
    kb = load_kb_doc(kb_doc())
    assert kb.contacts == {}
    assert kb.safety_records == {}
    assert kb.devices == []
    assert kb.context_signals == {}


def test_contact_round_trip_lookup():
    kb = load_kb_doc(kb_doc(contacts=[contact_doc("c1", "A")]))
    assert kb.contacts["c1"].group is Group.A
    assert kb.contact_group("c1") is Group.A


def test_unknown_caller_defaults_to_group_d():
    kb = load_kb_doc(kb_doc())
    assert kb.contact_group("nobody") is Group.D
    assert kb.temp_important("nobody") is False


def test_unsafe_exceeding_total_is_rejected():
    doc = kb_doc(safety={"c1": {"total": 4, "unsafe": 5}})
    with pytest.raises(KnowledgeBaseError):
        load_kb_doc(doc)


def test_save_load_save_is_byte_stable():
    kb = load_kb_doc(
        kb_doc(
            contacts=[contact_doc("b", "B"), contact_doc("a", "A", temp_important=True)],
            safety={"x": {"total": 4, "unsafe": 2}},
            devices=[{"device_id": "tv", "contexts": ["Home"], "kinds": ["ring", "beep"]}],
            signals={"wifi_network:home-net": "Home"},
        )
    )
    first = kb_text(kb)
    second = kb_text(load_kb(io.StringIO(first)))
    assert first == second


def test_round_trip_preserves_contacts_and_records():
    kb = load_kb_doc(
        kb_doc(
            contacts=[contact_doc("c1", "A"), contact_doc("c2", "D")],
            safety={"c1": {"total": 4, "unsafe": 2}},
        )
    )
    loaded = load_kb(io.StringIO(kb_text(kb)))
    assert loaded == kb
    assert loaded.safety_records["c1"].total_calls == 4
    assert loaded.safety_records["c1"].unsafe_calls == 2


def test_device_list_order_survives_round_trip():
    kb = load_kb_doc(
        kb_doc(
            devices=[
                {"device_id": "z", "contexts": ["Home"], "kinds": ["ring"]},
                {"device_id": "a", "contexts": ["Workspace"], "kinds": ["beep"]},
            ]
        )
    )
    loaded = load_kb(io.StringIO(kb_text(kb)))
    assert [d.device_id for d in loaded.devices] == ["z", "a"]
    assert loaded == kb


def test_record_call_creates_record_from_zero():
    kb = KnowledgeBase()
    kb.record_call("c9", unsafe=True)
    assert kb.safety_records["c9"] == SafetyRecord(total_calls=1, unsafe_calls=1)


def test_record_call_increments_safe_and_unsafe():
    kb = KnowledgeBase(safety_records={"c1": SafetyRecord(total_calls=3, unsafe_calls=1)})
    kb.record_call("c1", unsafe=False)
    assert kb.safety_records["c1"] == SafetyRecord(total_calls=4, unsafe_calls=1)
    kb.record_call("c1", unsafe=True)
    assert kb.safety_records["c1"] == SafetyRecord(total_calls=5, unsafe_calls=2)


def test_record_call_keeps_invariant_over_random_sequences():
    rng = random.Random(1009)
    for _ in range(200):
        kb = KnowledgeBase()
        for _ in range(rng.randrange(0, 40)):
            kb.record_call(f"c{rng.randrange(4)}", unsafe=rng.random() < 0.5)
        for caller_id, record in kb.safety_records.items():
            assert 0 <= record.unsafe_calls <= record.total_calls, caller_id


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"contacts": []}, "missing field"),
        (kb_doc() | {"extra": 1}, "unknown field"),
        (kb_doc(contacts=[{"id": "a", "name": "A", "group": "A"}]), "temp_important"),
        (kb_doc(contacts=[contact_doc("a", "E")]), "group"),
        (kb_doc(contacts=[contact_doc("a", "A"), contact_doc("a", "B")]), "duplicate"),
        (kb_doc(devices=[{"device_id": "d", "contexts": [], "kinds": ["ring"]}]), "contexts"),
        (kb_doc(devices=[{"device_id": "d", "contexts": ["Mars"], "kinds": ["ring"]}]), "context"),
        (kb_doc(devices=[{"device_id": "d", "contexts": ["Home"], "kinds": ["boom"]}]), "kind"),
        (kb_doc(signals={"wifi_network:x": "Moon"}), "context"),
        (kb_doc(safety={"c": {"total": -1, "unsafe": -1}}), "nonnegative"),
        (kb_doc(signals={"wifi_network:x": ["Home"]}), "context"),
        (kb_doc(contacts=[contact_doc("a", "A") | {"group": ["A"]}]), "group"),
        (
            kb_doc(devices=[{"device_id": "d", "contexts": [["Home"]], "kinds": ["ring"]}]),
            "context",
        ),
        (
            kb_doc(safety={"": {"total": 1, "unsafe": 0}}),
            "safety_records['']: caller id must be non-empty",
        ),
    ],
)
def test_malformed_documents_are_rejected(doc, fragment):
    with pytest.raises(KnowledgeBaseError) as err:
        load_kb_doc(doc)
    assert fragment in str(err.value)


def test_a_contact_filed_under_another_id_is_rejected():
    kb = KnowledgeBase(contacts={"a": Contact("b", "B", Group.A)})
    with pytest.raises(KnowledgeBaseError) as err:
        kb.validate()
    assert str(err.value) == "contacts['a']: key does not match contact id"


def test_duplicate_device_id_rejected():
    doc = kb_doc(
        devices=[
            {"device_id": "d", "contexts": ["Home"], "kinds": ["ring"]},
            {"device_id": "d", "contexts": ["Home"], "kinds": ["beep"]},
        ]
    )
    with pytest.raises(KnowledgeBaseError):
        load_kb_doc(doc)


def test_parse_error_names_location():
    with pytest.raises(KnowledgeBaseError) as err:
        load_kb(io.StringIO("{\n  broken\n}"))
    assert "line 2" in str(err.value)


def test_save_to_path(tmp_path):
    kb = load_kb_doc(kb_doc(contacts=[contact_doc("c1", "B")]))
    path = tmp_path / "kb.json"
    save_kb(kb, path)
    assert load_kb(path) == kb


def test_kb_from_dict_leaves_its_document_unchanged():
    doc = kb_doc(
        contacts=[contact_doc("a", "A", temp_important=True)],
        safety={"a": {"total": 2, "unsafe": 1}},
        devices=[{"device_id": "tv", "contexts": ["Home"], "kinds": ["ring"]}],
        signals={"wifi_network:home-net": "Home"},
    )
    before = copy.deepcopy(doc)
    kb = kb_from_dict(doc)
    assert doc == before
    assert kb.contacts["a"].temp_important and kb.safety_records["a"].unsafe_calls == 1


def _plain(kb: KnowledgeBase) -> dict:
    """The canonical document as plain data: contacts by id, sets sorted."""
    return {
        "contacts": [
            {"id": c.id, "name": c.display_name, "group": c.group.value,
             "temp_important": c.temp_important}
            for c in sorted(kb.contacts.values(), key=lambda c: c.id)
        ],
        "context_signals": {key: context.value for key, context in kb.context_signals.items()},
        "devices": [
            {"device_id": d.device_id, "contexts": sorted(c.value for c in d.contexts),
             "kinds": sorted(d.kinds)}
            for d in kb.devices
        ],
        "safety_records": {
            caller_id: {"total": r.total_calls, "unsafe": r.unsafe_calls}
            for caller_id, r in kb.safety_records.items()
        },
    }


def assert_json_dumps_layout(kb: KnowledgeBase) -> None:
    assert_same_text(kb_text(kb), json.dumps(_plain(kb), sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("workload", ["busy_day", "callback_snapshots", "unreachable_callees"])
def test_kb_to_text_is_json_dumps_on_the_bench_kbs(tmp_path, workload):
    load_bench_gen().generate(workload, 1, tmp_path, 0.2)
    kb = load_kb(tmp_path / "kb.json")
    assert kb.contacts and kb.safety_records and kb.devices and kb.context_signals
    assert_json_dumps_layout(kb)


class _ChunkSink(io.StringIO):
    """A text stream that records the length of each chunk written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


def test_save_kb_writes_a_busy_day_kb_in_small_chunks(tmp_path):
    load_bench_gen().generate("busy_day", 1, tmp_path, 1.0)
    kb = load_kb(tmp_path / "kb.json")
    sink = _ChunkSink()
    save_kb(kb, sink)
    # One chunk per contact, device or safety record, never the whole document.
    items = len(kb.contacts) + len(kb.devices) + len(kb.safety_records)
    assert len(sink.sizes) > items > 1000
    assert max(sink.sizes) < 4096
    assert_same_text(sink.getvalue(), json.dumps(_plain(kb), sort_keys=True, indent=2) + "\n")


# Characters JSON escapes or that sort differently once escaped.
_AWKWARD = ["a", "Z", "0", " ", '"', "\\", "/", "\x00", "\x1f", "\n", "\x7f", "é", " ",
            "\U0001f600"]


def _awkward(rng: random.Random) -> str:
    return "".join(rng.choice(_AWKWARD) for _ in range(rng.randint(1, 5)))


def test_kb_to_text_is_json_dumps_on_awkward_strings():
    rng = random.Random(2718)
    for _ in range(200):
        kb = KnowledgeBase()
        for _ in range(rng.randrange(6)):
            cid = _awkward(rng)
            name = _awkward(rng) if rng.random() < 0.8 else ""
            kb.contacts[cid] = Contact(cid, name, rng.choice(list(Group)), rng.random() < 0.5)
        for _ in range(rng.randrange(4)):
            kb.context_signals[_awkward(rng)] = rng.choice(list(Context))
        for _ in range(rng.randrange(4)):
            contexts = frozenset(rng.sample(list(Context), rng.randint(1, 3)))
            kinds = rng.sample(ALERT_KINDS, rng.randint(1, 3)) + [_awkward(rng)]
            kb.devices.append(DeviceRegistration(_awkward(rng), contexts, frozenset(kinds)))
        for _ in range(rng.randrange(5)):
            total = rng.choice([0, 1, 7, 2**70])
            kb.safety_records[_awkward(rng)] = SafetyRecord(total, total // 2)
        assert_json_dumps_layout(kb)


def _full_kb() -> KnowledgeBase:
    return load_kb_doc(
        kb_doc(
            contacts=[contact_doc("b", "B"), contact_doc("a", "A", temp_important=True)],
            safety={"x": {"total": 4, "unsafe": 2}, "w": {"total": 0, "unsafe": 0}},
            devices=[
                {"device_id": "tv", "contexts": ["Home"], "kinds": ["ring"]},
                {"device_id": "pc", "contexts": ["Workspace", "Home"], "kinds": ["ring", "beep"]},
            ],
            signals={"wifi_network:home-net": "Home", "audio_device:car-kit": "Driving"},
        )
    )


@pytest.mark.parametrize(
    "section", ["contacts", "context_signals", "devices", "safety_records", None]
)
def test_kb_to_text_is_json_dumps_with_a_section_empty(section):
    kb = _full_kb()
    if section is not None:
        getattr(kb, section).clear()
    assert_json_dumps_layout(kb)
    assert_json_dumps_layout(KnowledgeBase())


def test_a_safety_record_cannot_be_changed():
    record = SafetyRecord(3, 1)
    for name in ("total_calls", "unsafe_calls"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == SafetyRecord(3, 1)


def test_copy_shares_all_but_the_map_of_safety_records():
    kb = _full_kb()
    records = dict(kb.safety_records)
    run = kb.copy()
    assert run.contacts is kb.contacts and run.devices is kb.devices
    assert run.context_signals is kb.context_signals
    assert run.safety_records is not kb.safety_records and run.safety_records == records
    run.record_call("x", unsafe=True)
    run.record_call("new", unsafe=False)
    assert run.safety_records["x"] == SafetyRecord(5, 3)
    assert run.safety_records["new"] == SafetyRecord(1, 0)
    assert kb.safety_records == records and kb.safety_records["x"] == SafetyRecord(4, 2)


def test_each_omitted_section_is_a_new_container():
    first, second = KnowledgeBase(), KnowledgeBase()
    for name in ("contacts", "safety_records", "devices", "context_signals"):
        assert getattr(first, name) is not getattr(second, name), name
    first.record_call("c1", unsafe=False)
    assert second.safety_records == {} and second == KnowledgeBase() != first


def _traced_peak(call) -> int:
    """tracemalloc's peak over ``call()``, counting only what it allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_kb_holds_its_text_once(tmp_path):
    """A document is read a line at a time into one string, with no list of its lines
    beside it: loading peaks within the text, its decoding's own peak and 64 KiB."""
    contacts = {f"c{n:05d}": Contact(f"c{n:05d}", f"Contact {n}", Group.B) for n in range(5000)}
    path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(contacts), path)
    text = path.read_text(encoding="utf-8")
    decode_peak = _traced_peak(lambda: _decode(text, KnowledgeBaseError))
    load_peak = _traced_peak(lambda: load_kb(path))
    assert load_peak <= sys.getsizeof(text) + decode_peak + 64 * 1024, (
        load_peak, sys.getsizeof(text), decode_peak)
