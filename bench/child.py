"""One replay in a fresh process, the way ``alertagent run`` does it.

Usage: ``python3 child.py SPAWN_T INPUT_DIR OUTPUT_DIR [SPANS_PATH]``

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to an engine ready to replay (import,
config and KB load, ``Engine(...)``). The timed work is parse, run, log write
and KB save. Peak RSS is read before anything else is done: VmHWM, the
high-water mark of this process's own address space. Not ``ru_maxrss``,
which exec raises to the parent's high-water mark. With SPANS_PATH
the replay is traced (see spans.py) and the spans are written there. Prints
one JSON object.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        for block in iter(lambda: src.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spawn_t = float(sys.argv[1])
    inputs, outputs = Path(sys.argv[2]), Path(sys.argv[3])
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    sys.path.insert(0, str(ROOT / "src"))

    import alertagent
    from alertagent import config as config_mod, engine as engine_mod, kb as kb_mod

    package = Path(alertagent.__file__).resolve().parent
    if package != ROOT / "src" / "alertagent":
        sys.exit(f"alertagent imported from {package}, not from this checkout")
    recorder = None
    if spans_path:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    config = config_mod.load_config(inputs / "config.json")
    kb = kb_mod.load_kb(inputs / "kb.json")
    engine = engine_mod.Engine(config, kb)
    ready = time.monotonic()

    t0 = time.perf_counter()
    scenario = engine_mod.parse_scenario(inputs / "scenario.jsonl")
    t1 = time.perf_counter()
    log = engine.run(scenario)
    t2 = time.perf_counter()
    engine_mod.write_alert_log(log, outputs / "log.jsonl")
    t3 = time.perf_counter()
    kb_mod.save_kb(engine.kb, outputs / "kb.json")
    t4 = time.perf_counter()
    peak_mb = peak_rss_mb()

    result = {
        "setup_s": ready - spawn_t,
        "work_s": t4 - t0,
        "stages_s": {"parse": t1 - t0, "run": t2 - t1, "write": t3 - t2, "save": t4 - t3},
        "peak_rss_mb": peak_mb,
        "events": len(scenario.events),
        "log_sha256": sha256_file(outputs / "log.jsonl"),
        "kb_sha256": sha256_file(outputs / "kb.json"),
    }
    if recorder is not None:
        tracker = getattr(engine, "tracker", None)
        recorder.write(spans_path, {
            "log_bytes": (outputs / "log.jsonl").stat().st_size,
            "alerts": len(log.entries),
            "tracker_tasks": len(getattr(tracker, "tasks", ())),
            "kb_contacts": len(kb.contacts),
        })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
