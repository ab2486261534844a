from __future__ import annotations

import random

from alertagent.kb import SafetyRecord
from alertagent.model import AgentConfig
from alertagent.radiation import (
    CallMonitor,
    is_unsafe_call,
    should_warn_precall,
    unsafe_probability,
)

LIMIT = 360_000
CONFIG = AgentConfig()


def test_unsafe_probability():
    assert unsafe_probability(SafetyRecord(0, 0)) == 0.0
    assert unsafe_probability(SafetyRecord(4, 2)) == 0.5
    assert unsafe_probability(SafetyRecord(5, 5)) == 1.0


def test_precall_warning_threshold():
    assert should_warn_precall(SafetyRecord(4, 2), CONFIG) is True
    assert should_warn_precall(SafetyRecord(2, 2), CONFIG) is False  # too little history
    assert should_warn_precall(SafetyRecord(10, 1), CONFIG) is False  # 0.1 < 0.5
    assert should_warn_precall(None, CONFIG) is False


def test_classification_boundaries():
    assert is_unsafe_call(420_000, LIMIT) is True
    assert is_unsafe_call(360_000, LIMIT) is False  # reached, not exceeded
    assert is_unsafe_call(0, LIMIT) is False


def test_exposure_runs_from_call_start_outside_safety_mode():
    monitor = CallMonitor(LIMIT)
    monitor.start_call(0, "c1", safety=False)
    assert monitor.exposure_ms(120_000) == 120_000
    assert monitor.main_timer_ms(120_000) == 120_000


def test_safety_enter_clears_and_exit_restarts_exposure():
    monitor = CallMonitor(LIMIT)
    monitor.start_call(0, "c1", safety=False)
    monitor.on_safety(120_000, entering=True)
    assert monitor.exposure_ms(150_000) == 0
    monitor.on_safety(200_000, entering=False)
    assert monitor.exposure_ms(200_000) == 0
    assert monitor.exposure_ms(260_000) == 60_000
    assert monitor.main_timer_ms(260_000) == 260_000


def test_repeated_transitions_are_idempotent():
    monitor = CallMonitor(LIMIT)
    monitor.start_call(0, "c1", safety=False)
    monitor.on_safety(1000, entering=False)  # already exposed
    assert monitor.exposure_ms(2000) == 2000
    monitor.on_safety(3000, entering=True)
    monitor.on_safety(4000, entering=True)  # already in safety mode
    assert monitor.exposure_ms(5000) == 0


def test_call_starting_in_safety_mode_has_no_pending_warning():
    monitor = CallMonitor(LIMIT)
    monitor.start_call(0, "c1", safety=True)
    assert monitor.next_warning_at() is None
    monitor.on_safety(30_000, entering=False)
    assert monitor.next_warning_at() == 30_000 + LIMIT


def test_warning_points_advance_by_one_limit_each():
    monitor = CallMonitor(LIMIT)
    monitor.start_call(0, "c1", safety=False)
    assert monitor.next_warning_at() == LIMIT
    assert monitor.note_warning() == LIMIT
    assert monitor.next_warning_at() == 2 * LIMIT
    assert monitor.note_warning() == 2 * LIMIT


def simulate(initial_safety, transitions, end_t, limit=LIMIT):
    """Drive a monitor through transitions, firing due warnings in between.

    A warning fires only when the exposure stretch continues strictly past
    the warning instant, mirroring the engine's same-instant rule.
    """
    monitor = CallMonitor(limit)
    monitor.start_call(0, "c1", initial_safety)
    warn_times = []
    steps = list(transitions) + [(end_t, "end")]
    for when, action in steps:
        while True:
            due = monitor.next_warning_at()
            if due is None or due >= when:
                break
            monitor.note_warning()
            warn_times.append(due)
            assert monitor.exposure_ms(due) <= due  # subtimer never beats main timer
        if action == "enter":
            monitor.on_safety(when, entering=True)
        elif action == "exit":
            monitor.on_safety(when, entering=False)
        else:
            caller, main_ms = monitor.end_call(when)
            assert caller == "c1" and main_ms == when
        if monitor.caller_id is not None:
            assert monitor.exposure_ms(when) <= monitor.main_timer_ms(when)
    return warn_times


def oracle_warn_times(initial_safety, transitions, end_t, limit=LIMIT):
    """Interval arithmetic over exposure stretches, written independently."""
    epochs = []
    in_safety = initial_safety
    epoch_start = None if initial_safety else 0
    for when, action in transitions:
        if action == "enter" and not in_safety:
            epochs.append((epoch_start, when))
            epoch_start = None
            in_safety = True
        elif action == "exit" and in_safety:
            epoch_start = when
            in_safety = False
    if not in_safety:
        epochs.append((epoch_start, end_t))
    times = []
    for start, end in epochs:
        length = end - start
        count = (length - 1) // limit if length >= 1 else 0
        times.extend(start + k * limit for k in range(1, count + 1))
    return times


def test_seven_minute_call_warns_once_at_the_limit():
    assert simulate(False, [], 420_000) == [360_000]


def test_call_ending_exactly_at_the_limit_never_warns():
    assert simulate(False, [], 360_000) == []


def test_thirteen_minute_call_warns_twice():
    assert simulate(False, [], 780_000) == [360_000, 720_000]


def test_fully_safety_mode_call_never_warns():
    assert simulate(True, [], 600_000) == []


def test_safety_break_resets_the_exposure_clock():
    # 5 min exposed, 1 min safe, then 7 more minutes exposed.
    transitions = [(300_000, "enter"), (360_000, "exit")]
    assert simulate(False, transitions, 780_000) == [720_000]


def test_random_transition_sequences_match_interval_oracle():
    rng = random.Random(2718)
    for round_no in range(400):
        end_t = rng.randrange(1, 2_000_001)
        grain = 60_000 if round_no % 2 == 0 else 1
        count = rng.randrange(0, 8)
        times = sorted(
            rng.randrange(0, end_t // grain + 1) * grain for _ in range(count)
        )
        transitions = [(t, rng.choice(("enter", "exit"))) for t in times if t <= end_t]
        initial = rng.random() < 0.5
        assert simulate(initial, transitions, end_t) == oracle_warn_times(
            initial, transitions, end_t
        ), (initial, transitions, end_t)
