from __future__ import annotations

import copy
import io
import json
import random

import pytest

from alertagent.context import Context
from alertagent.errors import KnowledgeBaseError
from alertagent.forwarder import DeviceRegistration
from alertagent.kb import KnowledgeBase, SafetyRecord, kb_from_dict, kb_to_text, load_kb, save_kb
from alertagent.model import ALERT_KINDS, Contact, Group

from helpers import assert_same_text, contact_doc, kb_doc, load_bench_gen, load_kb_doc


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
    first = kb_to_text(kb)
    second = kb_to_text(load_kb(io.StringIO(first)))
    assert first == second


def test_round_trip_preserves_contacts_and_records():
    kb = load_kb_doc(
        kb_doc(
            contacts=[contact_doc("c1", "A"), contact_doc("c2", "D")],
            safety={"c1": {"total": 4, "unsafe": 2}},
        )
    )
    loaded = load_kb(io.StringIO(kb_to_text(kb)))
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
    loaded = load_kb(io.StringIO(kb_to_text(kb)))
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
    ],
)
def test_malformed_documents_are_rejected(doc, fragment):
    with pytest.raises(KnowledgeBaseError) as err:
        load_kb_doc(doc)
    assert fragment in str(err.value)


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
    assert_same_text(kb_to_text(kb), json.dumps(_plain(kb), sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("workload", ["busy_day", "callback_snapshots", "unreachable_callees"])
def test_kb_to_text_is_json_dumps_on_the_bench_kbs(tmp_path, workload):
    load_bench_gen().generate(workload, 1, tmp_path, 0.2)
    kb = load_kb(tmp_path / "kb.json")
    assert kb.contacts and kb.safety_records and kb.devices and kb.context_signals
    assert_json_dumps_layout(kb)


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
