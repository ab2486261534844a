"""Seeded input fuzz: a malformed input exits 1, never 2.

Each trial takes one input of the worked example in ``sample/`` (the KB, the
config, one scenario line, or one line of the log the example produces). It
replaces one value anywhere in it with one from a small pool, deletes a key,
or adds one, and then runs the CLI on the result: ``run`` for the three
inputs of a run, ``report`` for the log. The exit code must be 0 or 1, and
nothing may print ``internal error`` or a traceback. A ``run`` that exits 0
must write a log that ``report`` reads with exit 0.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path
from typing import Any

from alertagent.cli import main

from helpers import ROOT

SEED = 20_131_004
TRIALS = 600

# Values of every JSON type, edge cases of each, and names the inputs use.
POOL: list[Any] = [
    None, True, False, 0, 1, -1, 101, 2**63, int("9" * 4300), 0.5, -2.5, 5e-324, "", "x",
    [], ["x"], [1], [[]], {}, {"a": 1}, {"caller": "x"},
    "A", "E", "Home", "Moon", "ring", "call", "message", "yes", "dropped",
    "inform_caller", "send_status_sms", "wifi_network", "call_start", "snapshot_request",
]
KEYS = ["x", "t", "seq", "kind", "type", "caller", "callee", "entries", "score", "alert"]


def _slots(value: Any) -> list[tuple[Any, Any]]:
    """(container, key or index) of every value nested in ``value``."""
    found: list[tuple[Any, Any]] = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        found.append((value, key))
        if isinstance(item, (dict, list)):
            found.extend(_slots(item))
    return found


def _mutate(rng: random.Random, doc: Any) -> None:
    """Change ``doc`` in place: replace one value, delete a key or add one."""
    slots = _slots(doc)
    objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
    operation = rng.randrange(4)
    if operation == 2:
        rng.choice(objects)[rng.choice(KEYS)] = rng.choice(POOL)
    elif operation == 3 and any(objects):
        target = rng.choice([obj for obj in objects if obj])
        del target[rng.choice(sorted(target))]
    else:
        container, key = rng.choice(slots)
        container[key] = copy.deepcopy(rng.choice(POOL))


def _sample_log(path: Path) -> None:
    sample = ROOT / "sample"
    assert main(["run", "--scenario", str(sample / "scenario.jsonl"),
                 "--kb", str(sample / "kb.json"), "--config", str(sample / "config.json"),
                 "--out", str(path)]) == 0


def test_mutated_inputs_exit_0_or_1(tmp_path, capsys):
    sample = ROOT / "sample"
    _sample_log(tmp_path / "log.jsonl")
    paths = {
        "kb": sample / "kb.json",
        "config": sample / "config.json",
        "scenario": sample / "scenario.jsonl",
        "log": tmp_path / "log.jsonl",
    }
    # Whole documents are one item; the JSON-lines files are one item per line.
    texts = {name: path.read_text(encoding="utf-8") for name, path in paths.items()}
    items = {name: text.splitlines() if name in ("scenario", "log") else [text]
             for name, text in texts.items()}
    rng = random.Random(SEED)
    failures: list[str] = []
    for trial in range(TRIALS):
        target = rng.choice(sorted(paths))
        lines = list(items[target])
        index = rng.randrange(len(lines))
        doc = json.loads(lines[index])
        _mutate(rng, doc)
        lines[index] = json.dumps(doc)
        mutated = tmp_path / f"mutated-{target}"
        mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs = {**paths, target: mutated}
        if target == "log":
            argv = ["report", "--log", str(mutated)]
        else:
            argv = ["run", "--scenario", str(inputs["scenario"]), "--kb", str(inputs["kb"]),
                    "--config", str(inputs["config"]), "--out", str(tmp_path / "out.jsonl")]
        code = main(argv)
        err = capsys.readouterr().err
        if code not in (0, 1) or "internal error" in err or "Traceback" in err:
            failures.append(f"trial {trial} ({target}): exit {code}: {err.strip()}")
        elif code == 0 and target != "log":
            code = main(["report", "--log", str(tmp_path / "out.jsonl")])
            if code != 0:
                err = capsys.readouterr().err.strip()
                failures.append(f"trial {trial} ({target}): report on its log: exit {code}: {err}")
    assert not failures, f"{len(failures)} of {TRIALS} trials failed; first: {failures[:3]}"
