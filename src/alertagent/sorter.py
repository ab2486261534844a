"""Callback-priority scoring and sorting for unacknowledged calls and messages.

Each caller accumulates one record per item kind (call or message). A record
scores ``weight * count / age`` where age is minutes since the latest item,
clamped below by a floor so fresh items stay finite and rank by weight*count.
Highest score first.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

from .model import Group, group_weight


class MissedItemTally:
    """Mutable per-run store of unacknowledged call/message counts."""

    def __init__(self) -> None:
        # (caller_id, kind) -> [count, latest_time_ms, weight of the group given at the
        # first add, its log entry's text up to the score]. A caller's group is fixed.
        self._items: dict[tuple[str, str], list] = {}

    def add(self, caller_id: str, kind: str, t: int, group: Group) -> None:
        entry = self._items.get((caller_id, kind))
        if entry is None:
            prefix = f'{{"caller":{encode_basestring_ascii(caller_id)},"kind":"{kind}","score":'
            self._items[(caller_id, kind)] = [1, t, group_weight(group), prefix]
        else:
            entry[0] += 1
            entry[1] = t

    def acknowledge(self, caller_id: str, kind: str) -> bool:
        """Drop the caller's record of that kind. True if one existed."""
        return self._items.pop((caller_id, kind), None) is not None

    def snapshot(self, now_ms: int, t_floor_min: float) -> str:
        """Rank the records as a snapshot alert's fields, highest score first: the
        compact JSON text ``"entries":[...]`` of the array of {caller, kind, score}.

        Ties break by higher group weight, then more recent latest item, then
        caller id ascending, then item kind (call before message); no two records
        share a caller and a kind, so the order never depends on arrival order.
        A score that is not finite is not JSON: the highest, first, raises
        ValueError, and a NaN floor makes every score NaN.
        """
        ranked = []
        for key, (count, latest, weight, prefix) in self._items.items():
            age = (now_ms - latest) / 60000.0
            score = weight * count / (age if age > t_floor_min else t_floor_min)
            ranked.append((-score, -weight, -latest, key, prefix))
        ranked.sort()
        if ranked and not math.isfinite(ranked[0][0]):
            raise ValueError(f"snapshot score {-ranked[0][0]!r} is not a finite number")
        parts = ['"entries":[']
        for index, (neg_score, _w, _l, _key, prefix) in enumerate(ranked):
            parts.append(f"{',' if index else ''}{prefix}{-neg_score!r}}}")
        parts.append("]")
        return "".join(parts)
