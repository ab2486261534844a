"""Battery-critical trigger with hysteresis, plus in-episode call reactions."""

from __future__ import annotations

from .model import AgentConfig, BatteryAction, BatteryActionSpec, Group


class BatteryGuard:
    """Fires one action burst per critical episode.

    A burst fires when the level drops strictly below the critical threshold
    while armed; the guard then stays disarmed (episode active) until the
    level recovers to the re-arm threshold.
    """

    def __init__(self, config: AgentConfig):
        self._critical = config.battery_critical_pct
        self._rearm = config.battery_rearm_pct
        self._actions = config.battery_actions
        self.armed = True

    def on_level(self, pct: int) -> bool:
        """Record a battery reading; True when the critical burst fires now."""
        if self.armed and pct < self._critical:
            self.armed = False
            return True
        if pct >= self._rearm:
            self.armed = True
        return False

    def on_incoming_call(self, caller_group: Group) -> tuple[list[BatteryActionSpec], bool]:
        """Actions to apply to one incoming call during a critical episode.

        Returns the matching specs in configured order and whether the call
        is diverted (a diverted call replaces the ring/suppress decision).
        """
        if self.armed:
            return [], False
        specs: list[BatteryActionSpec] = []
        diverted = False
        for spec in self._actions:
            if spec.kind is BatteryAction.INFORM_CALLER:
                specs.append(spec)
            elif spec.kind is BatteryAction.DIVERT_GROUP_A and caller_group is Group.A:
                specs.append(spec)
                diverted = True
        return specs, diverted
