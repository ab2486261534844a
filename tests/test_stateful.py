"""Stateful property tests: the tally and the tracker against small reference models.

Hypothesis drives random sequences of operations (MacIver et al., "Hypothesis:
A new approach to property-based testing", JOSS 2019) and checks each result,
and the state after each step, against a plain model of the same rules.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from alertagent.model import Group  # noqa: E402
from alertagent.sorter import MissedItemTally  # noqa: E402
from alertagent.tracker import CallerTracker  # noqa: E402

from helpers import Record, entry_dicts, kb_with, oracle_sorted  # noqa: E402

SETTINGS = settings(max_examples=100, stateful_step_count=30, deadline=None, derandomize=True)

# "d" has no contact entry, so it counts as Group D.
GROUPS = {"a": Group.A, "b": Group.B, "c": Group.C}
CALLERS = ("a", "b", "c", "d")
KINDS = ("call", "message")
STEP_MS = st.sampled_from((0, 1, 30_000, 60_000, 61_000, 3_600_000))


class TallyMachine(RuleBasedStateMachine):
    """``MissedItemTally`` against a dict of (caller, kind) -> [count, latest]."""

    def __init__(self) -> None:
        super().__init__()
        self.tally = MissedItemTally()
        self.kb = kb_with(GROUPS)
        self.model: dict[tuple[str, str], list[int]] = {}
        self.t = 0

    @rule(caller=st.sampled_from(CALLERS), kind=st.sampled_from(KINDS), step=STEP_MS)
    def add(self, caller, kind, step):
        self.t += step
        self.tally.add(caller, kind, self.t, self.kb.contact_group(caller))
        entry = self.model.setdefault((caller, kind), [0, self.t])
        entry[0] += 1
        entry[1] = self.t

    @rule(caller=st.sampled_from(CALLERS), kind=st.sampled_from(KINDS))
    def acknowledge(self, caller, kind):
        assert self.tally.acknowledge(caller, kind) is ((caller, kind) in self.model)
        self.model.pop((caller, kind), None)

    @rule(step=STEP_MS, floor=st.sampled_from((0.5, 1.0, 2.5)))
    def snapshot(self, step, floor):
        self.t += step
        records = [Record(c, k, n, latest) for (c, k), (n, latest) in self.model.items()]
        expected = oracle_sorted(records, GROUPS, self.t, floor)
        assert entry_dicts(self.tally.snapshot(self.t, floor)) == expected


TIMEOUT_MS = 10_000
CONSENT, DELIVERY, SETTLED = "awaiting_consent", "awaiting_delivery", "settled"


class TrackerMachine(RuleBasedStateMachine):
    """``CallerTracker`` against a model of each callee's open task and each task's expiry.

    Answers and reports name ids the tracker minted, drawn from bundles, so
    that tasks get far enough to settle; ``foreign_ids`` names ids it never minted.
    """

    prompts = Bundle("prompts")
    messages = Bundle("messages")

    def __init__(self) -> None:
        super().__init__()
        self.tracker = CallerTracker(TIMEOUT_MS)
        self.t = 0
        self.state: dict[str, str] = {}  # prompt id -> state
        self.callee: dict[str, str] = {}  # prompt id -> callee
        self.created: dict[str, int] = {}  # prompt id -> time of the failed call
        self.open: dict[str, str] = {}  # callee -> prompt id of its open task
        self.msg: dict[str, str] = {}  # tracking message id -> prompt id
        # (due, acceptance number, prompt id) of each task awaiting delivery
        self.expiries: list[tuple[int, int, str]] = []

    def _settle(self, prompt_id: str) -> None:
        self.state[prompt_id] = SETTLED
        del self.open[self.callee[prompt_id]]
        # A settled task has no expiry left to fire.
        self.expiries = [e for e in self.expiries if e[2] != prompt_id]

    @rule(target=prompts, callee=st.sampled_from(("x", "y", "z")), step=STEP_MS)
    def call_failed(self, callee, step):
        self.t += step
        task = self.tracker.on_call_failed(self.t, callee, "unreachable")
        if callee in self.open:
            assert task is None
            return multiple()
        prompt_id = f"p{len(self.state) + 1}"
        assert task is not None and task.prompt_id == prompt_id
        self.state[prompt_id] = CONSENT
        self.callee[prompt_id] = callee
        self.created[prompt_id] = self.t
        self.open[callee] = prompt_id
        return prompt_id

    @rule(
        target=messages,
        prompt_id=prompts,
        answer=st.sampled_from(("yes", "no")),
        step=STEP_MS,
    )
    def user_response(self, prompt_id, answer, step):
        self.t += step
        outcome, _task = self.tracker.on_user_response(self.t, prompt_id, answer)
        if self.state.get(prompt_id) != CONSENT:
            assert outcome == "ignored"
        elif answer == "no":
            assert outcome == "declined"
            self._settle(prompt_id)
        else:
            assert outcome == "accepted"
            self.state[prompt_id] = DELIVERY
            msg_id = f"m{len(self.msg) + 1}"
            self.msg[msg_id] = prompt_id
            # Strictly past the timeout from the failed call, or at once if later.
            due = max(self.t, self.created[prompt_id] + TIMEOUT_MS + 1)
            self.expiries.append((due, len(self.msg), prompt_id))
            return msg_id
        return multiple()

    @rule(
        msg_id=messages,
        positive=st.booleans(),
        step=STEP_MS,
    )
    def delivery_report(self, msg_id, positive, step):
        self.t += step
        outcome, _task = self.tracker.on_delivery_report(self.t, msg_id, positive)
        prompt_id = self.msg.get(msg_id)
        if prompt_id is None:
            assert outcome == "unknown"
        elif self.state[prompt_id] != DELIVERY:
            assert outcome == "stale"
        elif not positive:
            assert outcome == "negative"
        else:
            assert outcome == "done"
            self._settle(prompt_id)

    @rule(
        prompt_id=st.sampled_from(("p0", "p01", "q1")),
        msg_id=st.sampled_from(("m0", "m01", "m+1", "n1")),
        step=STEP_MS,
    )
    def foreign_ids(self, prompt_id, msg_id, step):
        """Ids the tracker never minted: answers are ignored, reports unknown."""
        self.t += step
        assert self.tracker.on_user_response(self.t, prompt_id, "yes") == ("ignored", None)
        assert self.tracker.on_delivery_report(self.t, msg_id, True) == ("unknown", None)

    @rule(step=STEP_MS)
    def fire_due_timeouts(self, step):
        """Advance the clock and fire every timeout due by then, as the engine does."""
        self.t += step
        self.expiries.sort()
        while self.expiries and self.expiries[0][0] <= self.t:
            _due, number, prompt_id = self.expiries[0]
            assert self.tracker.expire(f"m{number}").prompt_id == prompt_id
            self._settle(prompt_id)
        # The timeout of a task no longer awaiting delivery finds nothing to settle.
        for msg_id, prompt_id in self.msg.items():
            if self.state[prompt_id] != DELIVERY:
                assert self.tracker.expire(msg_id) is None

    @invariant()
    def matches_model(self):
        tracker = self.tracker
        # Each task awaiting delivery expires when the model says it is due.
        assert {m: task.expires_ms for m, task in tracker._delivery.items()} == {
            f"m{number}": due for due, number, _ in self.expiries
        }
        assert set(tracker._consent) == {p for p, s in self.state.items() if s == CONSENT}
        delivery = {m for m, p in self.msg.items() if self.state[p] == DELIVERY}
        assert set(tracker._delivery) == delivery
        assert {c: task.prompt_id for c, task in tracker._open.items()} == self.open
        # The open index holds exactly the tasks of the two state indexes.
        held = list(tracker._consent.values()) + list(tracker._delivery.values())
        assert sorted(task.prompt_id for task in held) == sorted(self.open.values())
        assert {task.callee_id: task for task in held} == tracker._open


TestTally = TallyMachine.TestCase
TestTally.settings = SETTINGS
TestTracker = TrackerMachine.TestCase
TestTracker.settings = SETTINGS
