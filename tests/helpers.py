"""Shared builders for test inputs. Everything goes through the real parsers."""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path
from types import ModuleType
from typing import Any

from alertagent.engine import AlertLog, Scenario, parse_scenario, write_alert_log
from alertagent.kb import KnowledgeBase, load_kb


ROOT = Path(__file__).resolve().parent.parent


def load_bench_gen() -> ModuleType:
    """The benchmark's seeded input generator, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kb_doc(
    contacts: list[dict[str, Any]] | None = None,
    safety: dict[str, Any] | None = None,
    devices: list[dict[str, Any]] | None = None,
    signals: dict[str, str] | None = None,
) -> dict[str, Any]:
    return {
        "contacts": contacts or [],
        "safety_records": safety or {},
        "devices": devices or [],
        "context_signals": signals or {},
    }


def contact_doc(cid: str, group: str, temp_important: bool = False) -> dict[str, Any]:
    return {"id": cid, "name": cid.upper(), "group": group, "temp_important": temp_important}


def load_kb_doc(doc: dict[str, Any]) -> KnowledgeBase:
    return load_kb(io.StringIO(json.dumps(doc)))


def make_scenario(lines: list[dict[str, Any]], name: str = "test") -> Scenario:
    text = "\n".join(json.dumps(line) for line in lines) + "\n"
    return parse_scenario(io.StringIO(text), name=name)


def log_text(log: AlertLog) -> str:
    sink = io.StringIO()
    write_alert_log(log, sink)
    return sink.getvalue()


def kinds_of(log: AlertLog) -> list[str]:
    return [alert.kind for alert in log.entries]
