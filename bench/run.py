"""Seeded replay benchmark for alertagent.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload it generates inputs from the seed (gen.py), then for S
seconds replays them in fresh child processes, one after another (child.py),
each the way ``alertagent run`` does it. One untimed warm-up replay runs
first so byte-compiled modules and the file cache are in place. Every
replay's log and KB-out sha256 must equal that of a log that passed every
output check (checks.py), and for the default seed the pinned values in
pinned.json.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the replays: ``events_per_s`` (scenario events over parse + run + log write +
KB save), ``setup_s`` (child start to an engine ready to replay) and
``peak_rss_mb``. With ``--trace 1`` it alternates untraced and traced
replays and reports the per-layer metrics of spans.py (medians over the
traced replays) and ``trace.overhead_ratio``, traced over untraced
events_per_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs, outputs and
spans go to ``.bench_work/`` under the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_outputs  # noqa: E402
from child import sha256_file  # noqa: E402
from gen import WORKLOADS, generate  # noqa: E402
from spans import layer_metrics, read_spans  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
CHILD_TIMEOUT_S = 150
END_TO_END = (("events_per_s", "events/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def describe(values: list[float], higher_better: bool) -> str:
    """Median and the worst-side percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    text = f"median={statistics.median(values):.6g}"
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        tail = ordered[10] if higher_better else ordered[n - 11]
        text += f" p{100 - q if higher_better else q}={tail:.6g}"
    else:
        text += f" min={ordered[0]:.6g} max={ordered[-1]:.6g}"
    return text + f" n={n}"


def replay(inputs: Path, outputs: Path, spans_path: Path | None) -> dict | None:
    """One child replay; None when it fails to run or to report."""
    extra = [str(spans_path)] if spans_path is not None else []
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), str(inputs),
             str(outputs), *extra],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"replay timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"replay exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"replay printed no result: {proc.stdout[-500:]!r}", file=sys.stderr)
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 scale: float = 1.0) -> dict:
    """Generate, replay for ``seconds``, check; returns the result object."""
    inputs, outputs = work / "inputs", work / "outputs"
    outputs.mkdir(parents=True)
    generate(workload, seed, inputs, scale)
    spans_path = work / "spans.jsonl"

    results = [replay(inputs, outputs, None)]  # warm-up, untimed
    timed: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    absent: list[str] = []
    deadline = time.monotonic() + seconds
    # Past the deadline, keep going only to get one sample of each kind, and
    # give up on that after a few failed replays.
    while time.monotonic() < deadline or (
        (not timed or (trace and not traced)) and results.count(None) < 3
    ):
        with_trace = trace and len(traced) < len(timed)
        result = replay(inputs, outputs, spans_path if with_trace else None)
        results.append(result)
        if result is None:
            continue
        if with_trace:
            header, spans = read_spans(spans_path)
            absent = header["absent"]
            traced.append((result, layer_metrics(header, spans)))
        else:
            timed.append(result)

    # The last replay's outputs stand for all: every replay must match them.
    log_path = outputs / "log.jsonl"
    problems: list[str] = []
    if log_path.exists():
        problems = check_outputs(inputs, log_path.read_text(encoding="utf-8"))
        log_sha, kb_sha = sha256_file(log_path), sha256_file(outputs / "kb.json")
    else:
        problems.append("no log was written")
        log_sha = kb_sha = ""
    if seed == DEFAULT_SEED and scale == 1.0:
        pinned = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))[workload]
        if (log_sha, kb_sha) != (pinned["log_sha256"], pinned["kb_sha256"]):
            problems.append(f"sha256 differs from pinned.json for seed {seed}")
    failed = sum(1 for r in results if problems or r is None
                 or (r["log_sha256"], r["kb_sha256"]) != (log_sha, kb_sha))

    print(f"workload={workload} seed={seed} events={timed[0]['events'] if timed else '?'} "
          f"seconds={seconds} trace={int(trace)}")
    print(f"  failed_ratio {failed}/{len(results)} = {failed / len(results):.6g} "
          "failed/attempted")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(f"  log_sha256={log_sha} kb_sha256={kb_sha}")
    samples = {
        "events_per_s": [r["events"] / r["work_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    for name, unit in END_TO_END:
        if samples[name]:
            print(f"  {name} {describe(samples[name], name == 'events_per_s')} {unit}")
    if timed:
        stages = {stage: statistics.median(r["stages_s"][stage] for r in timed)
                  for stage in timed[0]["stages_s"]}
        print("  stages_s " + " ".join(f"{k}={v:.6g}" for k, v in stages.items()))

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if trace and traced and timed:
        traced_eps = statistics.median(r["events"] / r["work_s"] for r, _ in traced)
        for name in traced[0][1]:
            metrics[name] = statistics.median(m[name] for _, m in traced)
        metrics["trace.overhead_ratio"] = traced_eps / statistics.median(samples["events_per_s"])
        if absent:
            print("  absent hooks: " + ", ".join(absent))
        print(f"  per-layer (median of {len(traced)} traced replays):")
        for name, value in metrics.items():
            print(f"    {name} {value:.6g}")
        units = {name: _layer_unit(name) for name in metrics}
    elif timed:
        metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
    return {
        "correct": not problems and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "alertagent" / "__init__.py").is_file():
        print(f"error: no alertagent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for workload in workloads:
        work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{time.time_ns()}"
        try:
            summaries[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if len(workloads) > 1:
            print(json.dumps(summaries[workload]))
    if len(workloads) == 1:
        summary = summaries[workloads[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{name}": metric for w, s in summaries.items()
                        for name, metric in s["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
