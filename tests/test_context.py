from __future__ import annotations

import random

from alertagent.context import Context, ContextEngine, signal_key


def make_engine():
    return ContextEngine(
        {
            signal_key("wifi_network", "home-net"): Context.HOME,
            signal_key("wifi_network", "office-net"): Context.WORKSPACE,
            signal_key("audio_device", "car-bt"): Context.DRIVING,
        }
    )


def test_initial_context_is_unknown():
    assert make_engine().current is Context.UNKNOWN


def test_registered_signal_sets_context():
    engine = make_engine()
    engine.apply_sensor("wifi_network", "home-net")
    assert engine.current is Context.HOME


def test_unregistered_signal_changes_nothing():
    engine = make_engine()
    engine.apply_sensor("wifi_network", "home-net")
    engine.apply_sensor("wifi_network", "stray-net")
    assert engine.current is Context.HOME
    engine.apply_sensor("accessory", "home-net")
    assert engine.current is Context.HOME


def test_user_input_wins_and_pins():
    engine = make_engine()
    engine.apply_sensor("wifi_network", "home-net")
    engine.apply_user(Context.WORKSPACE)
    assert engine.current is Context.WORKSPACE
    engine.apply_sensor("wifi_network", "home-net")
    assert engine.current is Context.WORKSPACE
    engine.apply_sensor("audio_device", "car-bt")
    assert engine.current is Context.WORKSPACE


def test_next_user_input_replaces_the_pin():
    engine = make_engine()
    engine.apply_user(Context.WORKSPACE)
    engine.apply_user(Context.OUTDOOR)
    assert engine.current is Context.OUTDOOR


def test_pinning_over_random_interleavings():
    registry = {
        signal_key("wifi_network", "home-net"): Context.HOME,
        signal_key("audio_device", "car-bt"): Context.DRIVING,
    }
    signals = [("wifi_network", "home-net"), ("audio_device", "car-bt"), ("accessory", "x")]
    rng = random.Random(4242)
    for _ in range(300):
        engine = ContextEngine(registry)
        expected = Context.UNKNOWN
        pinned = False
        for _ in range(rng.randrange(0, 30)):
            if rng.random() < 0.25:
                target = rng.choice(list(Context))
                engine.apply_user(target)
                expected = target
                pinned = True
            else:
                kind, value = rng.choice(signals)
                engine.apply_sensor(kind, value)
                if not pinned:
                    expected = registry.get(signal_key(kind, value), expected)
            assert engine.current is expected
