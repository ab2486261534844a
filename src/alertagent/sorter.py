"""Callback-priority scoring and sorting for unacknowledged calls and messages.

Each caller accumulates one record per item kind (call or message). A record
scores ``weight * count / age`` where age is minutes since the latest item,
clamped below by a floor so fresh items stay finite and rank by weight*count.
Highest score first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import Group, group_weight

if TYPE_CHECKING:
    from .kb import KnowledgeBase

ITEM_KINDS = ("call", "message")


@dataclass(frozen=True)
class MissedItemRecord:
    caller_id: str
    kind: str  # "call" or "message"
    n: int  # unacknowledged items, >= 1 while the record exists
    latest_time_ms: int


def priority_score(
    record: MissedItemRecord, group: Group, now_ms: int, t_floor_min: float = 1.0
) -> float:
    """Score one record at virtual time ``now_ms``; strictly positive, finite."""
    elapsed_min = (now_ms - record.latest_time_ms) / 60000.0
    window_min = max(t_floor_min, elapsed_min)
    return (group_weight(group) * record.n) / window_min


def sort_notifications(
    records: list[MissedItemRecord],
    kb: "KnowledgeBase",
    now_ms: int,
    t_floor_min: float = 1.0,
) -> list[tuple[str, str, float]]:
    """Rank records by score descending, deterministically.

    Ties break by higher group weight, then more recent latest item, then
    caller id ascending, then item kind (call before message).
    """

    def score_of(record: MissedItemRecord) -> float:
        return priority_score(record, kb.contact_group(record.caller_id), now_ms, t_floor_min)

    def key(record: MissedItemRecord):
        weight = group_weight(kb.contact_group(record.caller_id))
        return (-score_of(record), -weight, -record.latest_time_ms, record.caller_id, record.kind)

    return [(r.caller_id, r.kind, score_of(r)) for r in sorted(records, key=key)]


class MissedItemTally:
    """Mutable per-run store of unacknowledged call/message counts."""

    def __init__(self) -> None:
        # (caller_id, kind) -> [count, latest_time_ms]; insertion order is
        # arrival order, which keeps downstream sorting reproducible.
        self._items: dict[tuple[str, str], list[int]] = {}

    def add(self, caller_id: str, kind: str, t: int) -> None:
        entry = self._items.get((caller_id, kind))
        if entry is None:
            self._items[(caller_id, kind)] = [1, t]
        else:
            entry[0] += 1
            entry[1] = t

    def acknowledge(self, caller_id: str, kind: str) -> bool:
        """Drop the caller's record of that kind. True if one existed."""
        return self._items.pop((caller_id, kind), None) is not None

    def records(self) -> list[MissedItemRecord]:
        return [
            MissedItemRecord(caller_id=caller, kind=kind, n=count, latest_time_ms=latest)
            for (caller, kind), (count, latest) in self._items.items()
        ]

    def snapshot(
        self, kb: "KnowledgeBase", now_ms: int, t_floor_min: float = 1.0
    ) -> list[tuple[str, str, float]]:
        return sort_notifications(self.records(), kb, now_ms, t_floor_min)
