"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The traced child wraps, from outside the package, the public calls into each
layer of ``src/alertagent`` (the modules are the layers) plus the engine's
per-event and per-timer entry points. Each wrapped call records a span
``[name, start_ns, end_ns, parent_index]`` in memory; counters are bumped at
the same boundaries. ``layer_metrics`` turns the written spans into the
per-layer metrics. Hooks whose target does not exist are reported as absent
and leave their metrics at 0.

Garbage-collection pauses are recorded as spans of their own, children of
the span they interrupt. A pause lands wherever allocation happens to
trigger it, so layer times leave it out and ``gc.pause_s`` reports it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

EVENT_KINDS = (
    "call_start", "call_end", "call_failed", "message_received", "battery_level",
    "sensor", "user_context", "user_response", "delivery_report",
    "notification_attended", "sleep_mode", "safety_mode_enter", "safety_mode_exit",
    "snapshot_request",
)
TIMER_KINDS = ("crossing", "tracker_timeout", "attendance")
LAYERS = ("engine", "kb", "sorter", "tracker", "forwarder", "battery", "sleep",
          "radiation", "context")
GC_SPAN = "gc"


def _dispatch_name(args: tuple) -> str:
    return f"engine.dispatch.{args[1].kind}"


def _timer_name(args: tuple) -> str:
    return f"engine.timer.{args[1][3]}"


def _count_if(counter: str, test: Callable[[Any], bool]):
    def observe(counts: Counter, result: Any) -> None:
        if test(result):
            counts[counter] += 1
    return observe


def _count_len(counter: str):
    def observe(counts: Counter, result: Any) -> None:
        counts[counter] += len(result)
    return observe


# (module, class or None, attribute, span name, observer of the result).
# Module-level functions the engine imports by name are patched in the engine
# module, where its calls look them up.
HOOKS: tuple[tuple[str, str | None, str, Any, Any], ...] = (
    ("alertagent.engine", None, "parse_scenario", "engine.parse", None),
    ("alertagent.engine", "Engine", "__init__", "engine.init", None),
    ("alertagent.engine", "Engine", "run", "engine.run", None),
    ("alertagent.engine", "Engine", "_dispatch", _dispatch_name, None),
    ("alertagent.engine", "Engine", "_fire_timer", _timer_name, None),
    ("alertagent.engine", "Engine", "_timer_valid", "engine.timer_valid",
     _count_if("engine.timers.stale", lambda ok: not ok)),
    ("alertagent.engine", None, "write_alert_log", "engine.write", None),
    ("alertagent.kb", None, "load_kb", "kb.load", None),
    ("alertagent.kb", None, "save_kb", "kb.save", None),
    ("alertagent.sorter", "MissedItemTally", "snapshot", "sorter.snapshot",
     _count_len("sorter.snapshot.records")),
    ("alertagent.sorter", "MissedItemTally", "add", "sorter.add", None),
    ("alertagent.sorter", "MissedItemTally", "acknowledge", "sorter.acknowledge",
     _count_if("sorter.acknowledge.hits", bool)),
    ("alertagent.tracker", "CallerTracker", "on_call_failed", "tracker.on_call_failed",
     _count_if("tracker.prompts", lambda task: task is not None)),
    ("alertagent.tracker", "CallerTracker", "on_user_response", "tracker.on_user_response", None),
    ("alertagent.tracker", "CallerTracker", "on_delivery_report", "tracker.on_delivery_report",
     None),
    ("alertagent.tracker", "CallerTracker", "expire", "tracker.expire",
     _count_if("tracker.expired", lambda task: task is not None)),
    ("alertagent.tracker", "CallerTracker", "task_for_prompt", "tracker.task_for_prompt", None),
    ("alertagent.engine", None, "matching_devices", "forwarder.matching_devices",
     _count_len("forwarder.forwards")),
    ("alertagent.forwarder", "AttendanceLedger", "track", "forwarder.track", None),
    ("alertagent.forwarder", "AttendanceLedger", "attend", "forwarder.attend",
     _count_if("forwarder.attend.hits", bool)),
    ("alertagent.forwarder", "AttendanceLedger", "pop_due", "forwarder.pop_due", None),
    ("alertagent.forwarder", "AttendanceLedger", "deadline_of", "forwarder.deadline_of", None),
    ("alertagent.battery", "BatteryGuard", "on_level", "battery.on_level",
     _count_if("battery.bursts", bool)),
    ("alertagent.battery", "BatteryGuard", "on_incoming_call", "battery.on_incoming_call", None),
    ("alertagent.sleep", "SleepGate", "on_call", "sleep.on_call",
     _count_if("sleep.suppressed", lambda result: result[0] != "ring")),
    ("alertagent.sleep", "SleepGate", "set_active", "sleep.set_active", None),
    ("alertagent.radiation", "CallMonitor", "start_call", "radiation.monitor.start_call", None),
    ("alertagent.radiation", "CallMonitor", "on_safety", "radiation.monitor.on_safety", None),
    ("alertagent.radiation", "CallMonitor", "end_call", "radiation.monitor.end_call", None),
    ("alertagent.radiation", "CallMonitor", "abandon_call", "radiation.monitor.abandon_call",
     None),
    ("alertagent.radiation", "CallMonitor", "next_warning_at",
     "radiation.monitor.next_warning_at", None),
    ("alertagent.radiation", "CallMonitor", "note_warning", "radiation.monitor.note_warning",
     _count_if("radiation.warnings", lambda _: True)),
    ("alertagent.engine", None, "should_warn_precall", "radiation.should_warn_precall",
     _count_if("radiation.warnings", bool)),
    ("alertagent.engine", None, "is_unsafe_call", "radiation.is_unsafe_call", None),
    ("alertagent.context", "ContextEngine", "apply_sensor", "context.apply_sensor", None),
    ("alertagent.context", "ContextEngine", "apply_user", "context.apply_user", None),
)


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]
        self._gc_span: list = []

    def wrap(self, fn: Callable, name: Any, observe: Any) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fixed or name(args), 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_span = [GC_SPAN, time.perf_counter_ns(), 0, self._stack[-1]]
            self.spans.append(self._gc_span)
        else:
            self._gc_span[2] = time.perf_counter_ns()

    def install(self) -> None:
        """Patch every hook that exists; record the others as absent."""
        gc.callbacks.append(self._on_gc)
        for module_name, owner_name, attr, name, observe in HOOKS:
            label = ".".join(filter(None, (module_name, owner_name, attr)))
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            setattr(owner, attr, self.wrap(target, name, observe))

    def write(self, path: str | Path, extra: dict[str, Any]) -> None:
        """Write counters, absent hooks and then one span per line."""
        gc.callbacks.remove(self._on_gc)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counts": dict(self.counts), "absent": self.absent, **extra}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def read_spans(path: str | Path) -> tuple[dict[str, Any], list[list]]:
    with open(path, encoding="utf-8") as src:
        header = json.loads(src.readline())
        return header, [json.loads(line) for line in src]


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(header: dict[str, Any], spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced replay, from its spans and counters."""
    n = len(spans)
    child_ns = [0] * n
    gc_ns = [0] * n  # collector time within each span
    # A child comes after its parent, so one backward pass sums subtrees.
    for i in range(n - 1, -1, -1):
        name, start, end, parent = spans[i]
        if name == GC_SPAN:
            gc_ns[i] = end - start
        if parent >= 0:
            child_ns[parent] += end - start
            gc_ns[parent] += gc_ns[i]
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    layer_self_ns: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] += 1
        total_ns[name] += end - start - gc_ns[i]
        self_ns[name] += own
        layer_self_ns[name.split(".", 1)[0]] += own
    counts = Counter(header["counts"])
    s = 1e-9
    m: dict[str, float] = {
        "engine.parse_s": total_ns["engine.parse"] * s,
        "engine.init_s": total_ns["engine.init"] * s,
        "engine.run_s": total_ns["engine.run"] * s,
        "engine.write_s": total_ns["engine.write"] * s,
        "engine.log_bytes": header["log_bytes"],
        "engine.alerts": header["alerts"],
    }
    for kind in EVENT_KINDS:
        m[f"engine.dispatch.{kind}.calls"] = calls[f"engine.dispatch.{kind}"]
        m[f"engine.dispatch.{kind}.self_s"] = self_ns[f"engine.dispatch.{kind}"] * s
    fired = 0
    for kind in TIMER_KINDS:
        m[f"engine.timers.fired.{kind}"] = calls[f"engine.timer.{kind}"]
        fired += calls[f"engine.timer.{kind}"]
    stale = counts["engine.timers.stale"]
    m["engine.timers.stale"] = stale
    m["engine.timers.useful_ratio"] = _ratio(fired, fired + stale)
    m.update({
        "sorter.snapshot.calls": calls["sorter.snapshot"],
        "sorter.snapshot_s": total_ns["sorter.snapshot"] * s,
        "sorter.snapshot.records": counts["sorter.snapshot.records"],
        "sorter.add.calls": calls["sorter.add"],
        "sorter.acknowledge.calls": calls["sorter.acknowledge"],
        "sorter.acknowledge.hit_ratio": _ratio(
            counts["sorter.acknowledge.hits"], calls["sorter.acknowledge"]),
        "tracker.on_call_failed.calls": calls["tracker.on_call_failed"],
        "tracker.on_call_failed_s": total_ns["tracker.on_call_failed"] * s,
        "tracker.prompts": counts["tracker.prompts"],
        "tracker.tasks": header["tracker_tasks"],
        "tracker.expired": counts["tracker.expired"],
        "forwarder.matching_devices.calls": calls["forwarder.matching_devices"],
        "forwarder.matching_devices_s": total_ns["forwarder.matching_devices"] * s,
        "forwarder.forwards": counts["forwarder.forwards"],
        "forwarder.attend.hit_ratio": _ratio(
            counts["forwarder.attend.hits"], calls["forwarder.attend"]),
        "battery.on_level.calls": calls["battery.on_level"],
        "battery.bursts": counts["battery.bursts"],
        "battery.on_incoming_call_s": total_ns["battery.on_incoming_call"] * s,
        "sleep.on_call.calls": calls["sleep.on_call"],
        "sleep.suppressed": counts["sleep.suppressed"],
        "sleep.on_call_s": total_ns["sleep.on_call"] * s,
        "radiation.calls": sum(c for name, c in calls.items()
                               if name.startswith("radiation.monitor.")),
        "radiation.warnings": counts["radiation.warnings"],
        "radiation_s": sum(t for name, t in total_ns.items()
                           if name.startswith("radiation.")) * s,
        "context.apply_sensor.calls": calls["context.apply_sensor"],
        "context.apply_sensor_s": total_ns["context.apply_sensor"] * s,
        "kb.load_s": total_ns["kb.load"] * s,
        "kb.save_s": total_ns["kb.save"] * s,
        "kb.contacts": header["kb_contacts"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self_ns[layer] * s
    m["gc.pause_s"] = self_ns[GC_SPAN] * s
    return m
