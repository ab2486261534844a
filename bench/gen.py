"""Seeded, stdlib-only input generator for the alertagent benchmark.

``generate(workload, seed, out_dir)`` writes ``scenario.jsonl``, ``kb.json``
and ``config.json`` for one named workload. The same (workload, seed, scale)
always gives the same bytes. Every workload has fixed quotas per event kind,
so the amount of work a replay does hardly depends on the seed; the seed only
moves times, callers and answers around.

Guarantees the replay relies on:

* calls pair start/end and never overlap;
* every ``user_response`` names a prompt the tracker has opened, and every
  ``delivery_report`` a tracking message it has sent (ids are minted in
  scenario order, so they are assigned after the merge by time);
* each ``notification_attended`` follows a call or message by 1 to 90 s and
  names a user-facing alert emitted shortly before it. Alert ids depend on
  everything the engine does (forwards, warnings, expiries), so the
  generator replays the scenario once, untimed, with the checkout's engine
  and fixes each id at dispatch. The ids are plain data in the written
  scenario.

The generator needs the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

MINUTE = 60_000
HOUR = 60 * MINUTE

BATTERY_ACTIONS = [
    {"kind": "inform_caller"},
    {"kind": "divert_group_a", "destination": "+1-555-0100"},
    {"kind": "send_status_sms", "destination": "+1-555-0101"},
    {"kind": "email_status", "destination": "owner@example.com"},
]

USER_FACING = ["ring", "beep", "tracker_notify", "radiation_precall_warning",
               "radiation_incall_warning"]
CONTEXTS = ["Home", "Workspace", "Driving", "Outdoor"]
SIGNALS = [
    ("wifi_network", "home-net", "Home"),
    ("wifi_network", "office-net", "Workspace"),
    ("audio_device", "car-kit", "Driving"),
    ("accessory", "bike-mount", "Outdoor"),
    ("proximity", "desk-dock", "Workspace"),
    ("microphone_class", "street", "Outdoor"),
]
UNREGISTERED_SIGNALS = [("wifi_network", "cafe-net"), ("audio_device", "earbuds")]

# Per-workload shape. Counts are activities at scale 1.0: "calls" is a
# call_start/call_end pair, "failed" a call_failed that opens a prompt,
# "bursts" battery readings that drop below the critical level while armed.
WORKLOADS: dict[str, dict] = {
    # Few callers that keep calling and texting with almost no attendance, so
    # the missed-item tally stays full, and frequent snapshot requests rank
    # it: the sorter's read path and the log writer carry the run.
    "callback_snapshots": {
        "contacts": 300, "callers": 300, "unknown_callers": 0, "devices": 4,
        "calls": 800, "messages": 1000, "snapshots": 150, "battery": 200,
        "bursts": 6, "sensor": 60, "user_context": 4, "sleep": 20,
        "attend": 30, "failed": 20, "gap_ms": 20_000,
    },
    # Thousands of callers and a large contact list; every stage but the
    # sorter's read path and the tracker is busy: parse, dispatch, timers,
    # forwarding and log writing. The tally is written (add, acknowledge)
    # but read only by one burst and one snapshot request.
    "busy_day": {
        "contacts": 5000, "callers": 1500, "unknown_callers": 500, "devices": 12,
        "calls": 4000, "messages": 5000, "snapshots": 1, "battery": 1500,
        "bursts": 1, "sensor": 1500, "user_context": 40, "sleep": 100,
        "attend": 2000, "failed": 30, "gap_ms": 4_000,
    },
    # Many failed calls to distinct callees with mostly "yes" consents and
    # sparse positive delivery reports, so open tracker tasks grow with trace
    # length and 24 h delivery timeouts fire: the tracker carries the run.
    "unreachable_callees": {
        "contacts": 200, "callers": 200, "unknown_callers": 50, "devices": 4,
        "calls": 300, "messages": 300, "snapshots": 10, "battery": 200,
        "bursts": 2, "sensor": 100, "user_context": 4, "sleep": 20,
        "attend": 100, "failed": 5000, "gap_ms": 30_000,
    },
}

YES_SHARE = 0.9
REPORT_SHARE = 0.4  # of accepted tasks, share that get a delivery report
POSITIVE_SHARE = 0.3  # of delivery reports, share that are positive
LONG_CALL_SHARE = 0.08  # calls that run past the 6 min exposure limit
SAFETY_CALL_SHARE = 0.2  # calls that toggle safety mode mid-call
ATTEND_BACK = 3  # an attendance names one of the last this-many + 1 user-facing alerts
ATTEND_DELAY_MS = 90_000  # longest wait from a call or message to an attendance;
# the attendance window is 60 s, so about a third come too late to stop a forward


def _scaled(spec: dict, scale: float) -> dict:
    out = dict(spec)
    for key, value in spec.items():
        if key not in ("contacts", "devices", "gap_ms") and value:
            out[key] = max(1, round(value * scale))
    # Sleep toggles come in on/off pairs.
    out["sleep"] += out["sleep"] % 2
    return out


def _kb(rng: random.Random, spec: dict) -> tuple[dict, list[str]]:
    contacts = []
    for i in range(spec["contacts"]):
        contacts.append({
            "id": f"c{i:05d}",
            "name": f"Contact {i}",
            "group": rng.choice("AABBBCCCDD"),
            "temp_important": rng.random() < 0.03,
        })
    callers = [c["id"] for c in contacts[: spec["callers"]]]
    callers += [f"n{i:05d}" for i in range(spec["unknown_callers"])]
    safety = {}
    for caller in rng.sample(callers, max(1, len(callers) // 10)):
        total = rng.randint(1, 12)
        safety[caller] = {"total": total, "unsafe": rng.randint(0, total)}
    # Every context gets the same device kinds (device counts are multiples
    # of four), so the number of forwards does not depend on which context
    # the seed happens to leave active.
    devices = []
    for i in range(spec["devices"]):
        j = i // len(CONTEXTS)
        devices.append({
            "device_id": f"dev{i:02d}",
            "contexts": [CONTEXTS[i % len(CONTEXTS)]],
            "kinds": sorted({USER_FACING[j % 5], USER_FACING[(j + 1) % 5]}),
        })
    kb = {
        "contacts": contacts,
        "context_signals": {f"{k}:{v}": ctx for k, v, ctx in SIGNALS},
        "devices": devices,
        "safety_records": safety,
    }
    return kb, callers


def _exact(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly round(n * share) True values in random order."""
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def _battery_levels(rng: random.Random, count: int, bursts: int, critical: int,
                    rearm: int) -> list[int]:
    """Readings with exactly ``bursts`` drops below critical while armed.

    Bursts are spread evenly over the readings. Each episode stays below the
    re-arm level for a few readings, so calls meet the in-episode reactions,
    then recovers and re-arms.
    """
    episode = 4
    stride = count / bursts
    burst_at = {int((k + 0.25 + rng.random() / 2) * stride) for k in range(bursts)}
    levels, in_episode, level = [], 0, 100
    for i in range(count):
        if i in burst_at:
            level, in_episode = rng.randint(0, critical - 1), episode
        elif in_episode:
            in_episode -= 1
            level = rng.randint(critical, rearm - 1) if in_episode else rng.randint(rearm, 100)
        else:
            level = min(100, max(rearm, level + rng.randint(-6, 5)))
        levels.append(level)
    return levels


def _scenario(rng: random.Random, spec: dict, callers: list[str], config) -> list[dict]:
    # Each kind's activities are spread evenly over the trace, each at a
    # random place in the middle half of its own stretch, so a seed can
    # neither bunch them up nor move a lone one to either end.
    counts = {"call": spec["calls"], "msg": spec["messages"], "snap": spec["snapshots"],
              "battery": spec["battery"], "sensor": spec["sensor"],
              "context": spec["user_context"], "sleep": spec["sleep"],
              "attend": spec["attend"], "failed": spec["failed"]}
    placed = [((k + 0.25 + rng.random() / 2) / n, token)
              for token, n in counts.items() for k in range(n)]
    placed.sort()
    tokens = [token for _, token in placed]
    tokens.remove("call")
    tokens.insert(0, "call")  # every attendance then has an alert to name
    levels = iter(_battery_levels(rng, spec["battery"], spec["bursts"],
                                  config.battery_critical_pct, config.battery_rearm_pct))
    long_calls = iter(_exact(rng, spec["calls"], LONG_CALL_SHARE))
    safety_calls = iter(_exact(rng, spec["calls"], SAFETY_CALL_SHARE))
    # Per failed call: declined, accepted with a delivery report, or
    # accepted and left to time out.
    n_no = round(spec["failed"] * (1 - YES_SHARE))
    n_report = round(spec["failed"] * YES_SHARE * REPORT_SHARE)
    outcomes = ["no"] * n_no + ["report"] * n_report + ["wait"] * (
        spec["failed"] - n_no - n_report)
    rng.shuffle(outcomes)
    gap = spec["gap_ms"]

    # (t, order, event); refs to prompts and tracking messages stay symbolic
    # (failure index) until the merge by time fixes the minting order.
    events: list[tuple[int, int, dict]] = []

    def add(t: int, event: dict) -> None:
        events.append((t, len(events), event))

    # last_rung: time of the latest call or message, which attendances follow.
    t, sleep_on, failures, last_rung = 0, False, 0, 0
    for token in tokens:
        if token == "attend":
            add(last_rung + rng.randint(1_000, ATTEND_DELAY_MS),
                {"type": "notification_attended", "back": rng.randint(0, ATTEND_BACK)})
            continue
        t += 1 + int(rng.expovariate(1.0 / gap))
        last_rung = t if token in ("call", "msg") else last_rung
        if token == "call":
            duration = rng.randint(7 * MINUTE, 20 * MINUTE) if next(long_calls) else rng.randint(
                5_000, 5 * MINUTE)
            safety = rng.random() < 0.1
            add(t, {"type": "call_start", "caller": rng.choice(callers), "safety": safety})
            if next(safety_calls):
                enter = t + rng.randint(1, duration // 2)
                add(enter, {"type": "safety_mode_enter"})
                add(rng.randint(enter + 1, t + duration - 1), {"type": "safety_mode_exit"})
            t += duration
            add(t, {"type": "call_end"})
        elif token == "msg":
            add(t, {"type": "message_received", "caller": rng.choice(callers)})
        elif token == "snap":
            add(t, {"type": "snapshot_request"})
        elif token == "battery":
            add(t, {"type": "battery_level", "pct": next(levels)})
        elif token == "sensor":
            if rng.random() < 0.8:
                kind, value, _ = rng.choice(SIGNALS)
            else:
                kind, value = rng.choice(UNREGISTERED_SIGNALS)
            add(t, {"type": "sensor", "signal_kind": kind, "signal_value": value})
        elif token == "context":
            add(t, {"type": "user_context", "context": rng.choice(CONTEXTS)})
        elif token == "sleep":
            sleep_on = not sleep_on
            add(t, {"type": "sleep_mode", "on": sleep_on})
        elif token == "failed":
            f = failures
            failures += 1
            add(t, {"type": "call_failed", "callee": f"x{f:06d}", "_f": f,
                    "reason": rng.choice(("switched_off", "unreachable", "dropped"))})
            answer_t = t + rng.randint(5_000, 10 * MINUTE)
            outcome = outcomes[f]
            add(answer_t, {"type": "user_response", "_f": f,
                           "answer": "no" if outcome == "no" else "yes"})
            if outcome == "report":
                add(answer_t + rng.randint(MINUTE, 30 * HOUR),
                    {"type": "delivery_report", "_f": f,
                     "positive": rng.random() < POSITIVE_SHARE})
    events.sort(key=lambda item: (item[0], item[1]))
    return _resolve(events)


def _resolve(events: list[tuple[int, int, dict]]) -> list[dict]:
    """Fix prompt and tracking ids in scenario order.

    ``_f`` links a response or report to its failed call. Attendances keep
    their ``back`` until ``_attend`` names the alert.
    """
    prompts: dict[int, str] = {}
    messages: dict[int, str] = {}
    out = []
    for t, _order, event in events:
        kind = event["type"]
        f = event.pop("_f", None)
        if kind == "call_failed":
            prompts[f] = f"p{len(prompts) + 1}"
        elif kind == "user_response":
            event["prompt_id"] = prompts[f]
            if event["answer"] == "yes":
                messages[f] = f"m{len(messages) + 1}"
        elif kind == "delivery_report":
            event["tracking_msg_id"] = messages[f]
        out.append({"t": t, **event})
    return out


def _scenario_text(events: list[dict]) -> str:
    return "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events)


def _attend(events: list[dict], config, kb) -> None:
    """Replace each attendance's ``back`` by the id of an alert it names.

    One untimed replay: at the attendance's dispatch, the user-facing alert
    ``back`` places below the latest one emitted so far, or the oldest if
    there are fewer. Whether it is still pending is left to timing.
    """
    from alertagent.engine import Engine, parse_scenario

    if not hasattr(Engine, "_dispatch"):
        raise RuntimeError("alertagent.engine.Engine has no _dispatch to name attendance ids by")
    attendances = [e for e in events if e["type"] == "notification_attended"]
    backs = iter([e.pop("back") for e in attendances])
    for event in attendances:
        event["alert_id"] = 1
    named: list[int] = []

    class Naming(Engine):
        def _dispatch(self, ev):
            if ev.kind == "notification_attended":
                back, alert_id = next(backs), 1
                for alert in reversed(self.entries):
                    if alert.kind in USER_FACING:
                        alert_id = alert.seq
                        if back == 0:
                            break
                        back -= 1
                ev.data["alert_id"] = alert_id
                named.append(alert_id)
            super()._dispatch(ev)

    Naming(config, kb).run(parse_scenario(io.StringIO(_scenario_text(events))))
    for event, alert_id in zip(attendances, named, strict=True):
        event["alert_id"] = alert_id


def generate(workload: str, seed: int, out_dir: str | Path, scale: float = 1.0) -> dict:
    """Write scenario.jsonl, kb.json and config.json; return their paths."""
    from alertagent.config import config_from_dict
    from alertagent.kb import kb_from_dict

    spec = _scaled(WORKLOADS[workload], scale)
    rng = random.Random(f"{workload}:{seed}")
    config_doc = {"battery_actions": BATTERY_ACTIONS}
    config = config_from_dict(config_doc)
    kb_doc, callers = _kb(rng, spec)
    events = _scenario(rng, spec, callers, config)
    _attend(events, config, kb_from_dict(kb_doc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in ("scenario.jsonl", "kb.json", "config.json")}
    paths["scenario.jsonl"].write_text(_scenario_text(events), encoding="utf-8")
    paths["kb.json"].write_text(json.dumps(kb_doc, indent=1) + "\n", encoding="utf-8")
    paths["config.json"].write_text(json.dumps(config_doc, indent=1) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}
