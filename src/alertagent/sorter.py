"""Callback-priority scoring and sorting for unacknowledged calls and messages.

Each caller accumulates one record per item kind (call or message). A record
scores ``weight * count / age`` where age is minutes since the latest item,
clamped below by a floor so fresh items stay finite and rank by weight*count.
Highest score first.
"""

from __future__ import annotations

from typing import Any

from .model import Group, group_weight


class MissedItemTally:
    """Mutable per-run store of unacknowledged call/message counts."""

    def __init__(self) -> None:
        # (caller_id, kind) -> [count, latest_time_ms, weight of the group given at the
        # first add]. A caller's group is fixed for a run, as contacts are.
        self._items: dict[tuple[str, str], list[int]] = {}

    def add(self, caller_id: str, kind: str, t: int, group: Group) -> None:
        entry = self._items.get((caller_id, kind))
        if entry is None:
            self._items[(caller_id, kind)] = [1, t, group_weight(group)]
        else:
            entry[0] += 1
            entry[1] = t

    def acknowledge(self, caller_id: str, kind: str) -> bool:
        """Drop the caller's record of that kind. True if one existed."""
        return self._items.pop((caller_id, kind), None) is not None

    def snapshot(self, now_ms: int, t_floor_min: float) -> list[dict[str, Any]]:
        """Rank the records as snapshot entries {caller, kind, score}, highest score first.

        Every score is strictly positive and finite. Ties break by higher group
        weight, then more recent latest item, then caller id ascending, then
        item kind (call before message); no two records share a caller and a
        kind, so the order never depends on arrival order.
        """
        ranked = []
        for (caller, kind), (count, latest, weight) in self._items.items():
            score = weight * count / max(t_floor_min, (now_ms - latest) / 60000.0)
            ranked.append((-score, -weight, -latest, caller, kind))
        ranked.sort()
        return [{"caller": caller, "kind": kind, "score": -neg_score}
                for neg_score, _w, _l, caller, kind in ranked]
