"""Golden corpus: the sha256 of every output byte for a fixed set of inputs.

Every refactor must leave these hashes unchanged. The corpus is the worked
example in ``sample/`` plus the benchmark generator's three workloads at
seeds 1-3 and scale 0.2. The generated scenario's own hash is pinned too, so
that a change in the generator shows apart from a change in the engine (the
generator replays the scenario once with this engine to name attendance ids).
So is the stdout of ``alertagent report`` over each case's log.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alertagent.cli import main
from alertagent.config import load_config
from alertagent.kb import load_kb

from helpers import ROOT, load_bench_gen, replay

SCALE = 0.2

# case -> (scenario.jsonl, log, kb-out) sha256; the sample's scenario is a
# committed file, so only its outputs are pinned.
GOLDEN = {
    "sample": (
        None,
        "91dfa490feebe7bd9e117c326ba8c2278e5e068c57d401ef0ad3f691fb677edb",
        "0a08f444ab9a14e081e41e53596fc6f102dcd29032d79ae7f593a3b84531b848",
    ),
    "busy_day-1": (
        "ac1fc325aa3dc740c389328f7607d5f077026e01a1f576cdc3fc9d2ed4da36d3",
        "8f16ca0b9d7c99d2b582eb647867d823a908aac25ecd06a958e785fda2ee563a",
        "97b4f858bcfbce01151eda2c349cf9b42b27d4d3947e2d3407a3eb775f91fe47",
    ),
    "busy_day-2": (
        "3da235457dc650f9676eedca6a4b96a37f4960d9b48281345747be0fde75e4aa",
        "b1659ee1fd9c6d85d72ed127c6448e6912dfd16c8c73c6deb58ccaecabe8132d",
        "02b987a097fe224458371317b201e463a3bdd20cf57799b8fc1bba8881822132",
    ),
    "busy_day-3": (
        "e6b0f040d5f5b6d7c1689697f00b21f586f958b94acf7891a2486dc86d7efeca",
        "284c569e5cb087de3e8f743baadfe97b8eb424c179113e6d816bad1177311276",
        "e611a0c6897f1064110270a8038fdc644e104c52f27313d0f47e7958b8a6e463",
    ),
    "callback_snapshots-1": (
        "d3749ee6e96a2a228df062c67d3c8d4023f6c5a9369222ae07ac9ea5e704c9ce",
        "360e74f40cf15a503f42fcabcb8895999d2104b2bc591a99290948e941ec98bf",
        "e0008a30b5b1390b7b1705e81c75df914a6512a3b1f3be529927d8fce444c774",
    ),
    "callback_snapshots-2": (
        "cfe054e90c2c9d076d04d566028a20769fc7d4e8c66a5f972569ded93bc4ace1",
        "86174323abb002033972054e883582f95cfd24e7e8bbbaf3133bbfd3d3754866",
        "ad94fb40f2b1e23afb2f134600095fe7b653392cb47216e192c2489487a863b7",
    ),
    "callback_snapshots-3": (
        "426d1d264743992c3fd5f5ca9c532594ef9c4eef19e0d9ee397b70f4abdd4f11",
        "3f03b7a064f5e7d8c83cd07a45ce37eafbd9b220721f7d0ee843c5066885c0e7",
        "c937e0182c4cf920824878d7b61dc521df12f275aa892ee2065a8df08c201ee3",
    ),
    "unreachable_callees-1": (
        "946f4ba12a14aa46f2d89a9dcc2e08dfd8d5ab725534a88135b7b72d37586883",
        "e1c247919a070911c260a280f02ee64dc9ab6809e2da8d015994b1c0e0a51d81",
        "b643bc0572135606afcc80e4269d7b9d218531b2e198a9f053795f0a70447e5f",
    ),
    "unreachable_callees-2": (
        "c0819a2a7a1aea1feae0ba2b263f086c95db7cdb1262102907e6048d586b94b6",
        "c9d209189fffcdc7a0ae74c45c489b22c599cde3a7bc3daa664e4e6d5a14d12c",
        "f03137b09d3922949adc7de8a8bef9432034209da4cfb03f2949724e20d3f958",
    ),
    "unreachable_callees-3": (
        "11b6ff4754f92baec17ee789866c50063f9ad93005bf1068462f9b5fa68468b0",
        "fe5fbdbd23d1d3c2d75e8e433190a1cb988084f083bf6a495f4658593952ea02",
        "71199a8ead9d023438f0224315c03131fddab1e66d077a5841688ffda1ace6ce",
    ),
}


# case -> sha256 of ``alertagent report``'s stdout over the case's log.
REPORT = {
    "sample": "28ba53233eeccfc32db309c75cbd618611036964ad3569ca192928c1e1a40204",
    "busy_day-1": "423ed83c76114eb70fc7149ba6e607d9ed1829e6fdb99d2e6de028fc84a5afc1",
    "busy_day-2": "db53c13b0f5443f26d52931b9235f2246e5c3599f58953fd69973b996994efcf",
    "busy_day-3": "9ad4c44f57ac7e3c7a77f439c54db046dea2783fc859cfdeeb0f69908df0cef7",
    "callback_snapshots-1": "23059bb5fba6061a3b03b542e87d4fd603134494a94fbe36382931ae3fa9bfd3",
    "callback_snapshots-2": "ca6a783aa3a6cc23095f4b4d69aba39f1733f80939d603f212e3dacf5d7a2379",
    "callback_snapshots-3": "085198fecad0d6fb7cd8355361f13a68dfe8dfe242f3254749670d1d4c2bef8c",
    "unreachable_callees-1": "f9accaa0ee400297b2b457cc681245276dd3f696260340e005f62e0f363bbe53",
    "unreachable_callees-2": "329d70d42f5552fed227d8cfe21ffa400711a158020d2d23cb556c983ab98693",
    "unreachable_callees-3": "6b447e6385828f577595032c2f57f79df4c9a0f59099b2f1ffe8c58c5388ec99",
}


def _sha256(of: str | Path) -> str:
    """The sha256 of a text, as UTF-8, or of a file's bytes."""
    return hashlib.sha256(of.read_bytes() if isinstance(of, Path) else of.encode()).hexdigest()


def _inputs(case: str, tmp_path: Path) -> Path:
    """The input directory of a case: ``sample/``, or a generated workload."""
    if case == "sample":
        return ROOT / "sample"
    workload, seed = case.rsplit("-", 1)
    inputs = tmp_path / "in"
    load_bench_gen().generate(workload, int(seed), inputs, SCALE)
    return inputs


def _run_argv(inputs: Path, out: Path) -> list[str]:
    """``alertagent run`` over ``inputs``, writing log.jsonl and kb.json to ``out``."""
    return [
        "run",
        "--scenario", str(inputs / "scenario.jsonl"),
        "--kb", str(inputs / "kb.json"),
        "--config", str(inputs / "config.json"),
        "--out", str(out / "log.jsonl"),
        "--kb-out", str(out / "kb.json"),
    ]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(case, tmp_path):
    scenario_sha, log_sha, kb_sha = GOLDEN[case]
    inputs = _inputs(case, tmp_path)
    if scenario_sha is not None:
        assert _sha256(inputs / "scenario.jsonl") == scenario_sha, "generator drift"
    scenario = (inputs / "scenario.jsonl").read_text(encoding="utf-8")
    run = replay(scenario, load_kb(inputs / "kb.json"), load_config(inputs / "config.json"))
    assert (_sha256(run.log), _sha256(run.kb_out)) == (log_sha, kb_sha)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_stdout(case, tmp_path, capsys):
    inputs, out = _inputs(case, tmp_path), tmp_path / "out"
    out.mkdir()
    assert main(_run_argv(inputs, out)) == 0
    capsys.readouterr()
    assert main(["report", "--log", str(out / "log.jsonl")]) == 0
    assert _sha256(capsys.readouterr().out) == REPORT[case]


# alertagent's CLI with json's C accelerator blocked, so that json scans and
# encodes in pure Python.
_WITHOUT_C_JSON = """
import sys
sys.modules["_json"] = None
sys.path.insert(0, sys.argv[1])
import json.encoder, json.scanner
if json.encoder.c_make_encoder or json.scanner.c_make_scanner:
    sys.exit("json's C accelerator is still loaded")
from alertagent.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("case", ["sample", "busy_day-1"])
def test_outputs_are_the_same_without_json_c_accelerator(case, tmp_path):
    inputs = _inputs(case, tmp_path)
    outputs = {}
    for side in ("c", "python"):
        out = tmp_path / side
        out.mkdir()
        argv = _run_argv(inputs, out)
        if side == "c":
            assert main(argv) == 0
        else:
            proc = subprocess.run(
                [sys.executable, "-c", _WITHOUT_C_JSON, str(ROOT / "src"), *argv],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        outputs[side] = (_sha256(out / "log.jsonl"), _sha256(out / "kb.json"))
    assert outputs["python"] == outputs["c"]


@pytest.mark.parametrize("case", ["sample", "busy_day-1"])
@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_outputs_do_not_depend_on_the_hash_seed(case, hash_seed, tmp_path):
    """String hashing is salted per process; no output byte may depend on it."""
    inputs, out = _inputs(case, tmp_path), tmp_path / "out"
    out.mkdir()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "alertagent", *_run_argv(inputs, out)],
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (_sha256(out / "log.jsonl"), _sha256(out / "kb.json")) == GOLDEN[case][1:]
