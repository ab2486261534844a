"""Stateful property tests: the tally and the tracker against small reference models.

Hypothesis drives random sequences of operations (MacIver et al., "Hypothesis:
A new approach to property-based testing", JOSS 2019) and checks each result,
and the state after each step, against a plain model of the same rules.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

from alertagent.model import Group  # noqa: E402
from alertagent.sorter import MissedItemTally  # noqa: E402
from alertagent.tracker import CallerTracker, TrackerState  # noqa: E402

from helpers import Record, kb_with  # noqa: E402
from test_acceptance import _oracle_sorted  # noqa: E402

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
        self.tally.add(caller, kind, self.t)
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
        expected = _oracle_sorted(records, GROUPS, self.t, floor)
        assert self.tally.snapshot(self.kb, self.t, floor) == expected


TIMEOUT_MS = 10_000
OPEN_STATES = (TrackerState.AWAITING_CONSENT, TrackerState.AWAITING_DELIVERY)


class TrackerMachine(RuleBasedStateMachine):
    """``CallerTracker`` against a model of each callee's open task and each task's expiry."""

    def __init__(self) -> None:
        super().__init__()
        self.tracker = CallerTracker(TIMEOUT_MS)
        self.t = 0
        self.state: dict[str, TrackerState] = {}  # prompt id -> state
        self.callee: dict[str, str] = {}  # prompt id -> callee
        self.created: dict[str, int] = {}  # prompt id -> time of the failed call
        self.open: dict[str, str] = {}  # callee -> prompt id of its open task
        self.msg: dict[str, str] = {}  # tracking message id -> prompt id
        self.expiries: list[tuple[int, int, str]] = []  # (due, acceptance number, prompt id)

    @rule(callee=st.sampled_from(("x", "y", "z")), step=STEP_MS)
    def call_failed(self, callee, step):
        self.t += step
        task = self.tracker.on_call_failed(self.t, callee, "unreachable")
        if callee in self.open:
            assert task is None
            return
        prompt_id = f"p{len(self.state) + 1}"
        assert task is not None and task.prompt_id == prompt_id
        self.state[prompt_id] = TrackerState.AWAITING_CONSENT
        self.callee[prompt_id] = callee
        self.created[prompt_id] = self.t
        self.open[callee] = prompt_id

    @rule(number=st.integers(1, 4), answer=st.sampled_from(("yes", "no")), step=STEP_MS)
    def user_response(self, number, answer, step):
        self.t += step
        prompt_id = f"p{number}"
        outcome, _task = self.tracker.on_user_response(self.t, prompt_id, answer)
        if self.state.get(prompt_id) is not TrackerState.AWAITING_CONSENT:
            assert outcome == "ignored"
        elif answer == "no":
            assert outcome == "declined"
            self.state[prompt_id] = TrackerState.DECLINED
            del self.open[self.callee[prompt_id]]
        else:
            assert outcome == "accepted"
            self.state[prompt_id] = TrackerState.AWAITING_DELIVERY
            self.msg[f"m{len(self.msg) + 1}"] = prompt_id
            # Strictly past the timeout from the failed call, or at once if later.
            due = max(self.t, self.created[prompt_id] + TIMEOUT_MS + 1)
            self.expiries.append((due, len(self.msg), prompt_id))

    @rule(number=st.integers(1, 4), positive=st.booleans(), step=STEP_MS)
    def delivery_report(self, number, positive, step):
        self.t += step
        msg_id = f"m{number}"
        outcome, _task = self.tracker.on_delivery_report(self.t, msg_id, positive)
        prompt_id = self.msg.get(msg_id)
        if prompt_id is None:
            assert outcome == "unknown"
        elif self.state[prompt_id] is not TrackerState.AWAITING_DELIVERY:
            assert outcome == "stale"
        elif not positive:
            assert outcome == "negative"
        else:
            assert outcome == "done"
            self.state[prompt_id] = TrackerState.DONE
            del self.open[self.callee[prompt_id]]

    @rule(step=STEP_MS)
    def fire_due_timeouts(self, step):
        """Advance the clock and fire every timeout due by then, as the engine does."""
        self.t += step
        self.expiries.sort()
        while self.expiries and self.expiries[0][0] <= self.t:
            due, _number, prompt_id = self.expiries.pop(0)
            assert self.tracker.next_deadline() == due
            task = self.tracker.expire()
            if self.state[prompt_id] is TrackerState.AWAITING_DELIVERY:
                assert task is not None and task.prompt_id == prompt_id
                self.state[prompt_id] = TrackerState.EXPIRED
                del self.open[self.callee[prompt_id]]
            else:
                assert task is None

    @invariant()
    def matches_model(self):
        tracker = self.tracker
        assert tracker.next_deadline() == min(self.expiries, default=(None,))[0]
        assert {p: task.state for p, task in tracker.tasks.items()} == self.state
        assert {c: task.prompt_id for c, task in tracker._open.items()} == self.open
        # The open index agrees with a scan of every task.
        scanned = [task for task in tracker.tasks.values() if task.state in OPEN_STATES]
        assert {task.callee_id: task.prompt_id for task in scanned} == self.open
        assert len(scanned) == len(self.open)


TestTally = TallyMachine.TestCase
TestTally.settings = SETTINGS
TestTracker = TrackerMachine.TestCase
TestTracker.settings = SETTINGS
