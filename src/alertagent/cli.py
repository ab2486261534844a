"""Command-line entry point: run scenarios, validate inputs, summarize logs. README.md
explains each exit code: 0, 1 invalid input, 2 internal error, 141 stdout closed early."""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter
from pathlib import Path

from .config import load_config
from .engine import Engine, parse_scenario, write_alert_log
from .errors import AlertLogError, InputError
from .kb import load_kb, save_kb
from .model import ALERT_FIELDS, MISSED_ITEM_KIND, AgentConfig, read_records

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INTERNAL = 2
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as the shell reports


def _load_input(path: str, loader):
    """Load an input file; an InputError, which an unreadable file raises too, names it."""
    try:
        return loader(path)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    kb = _load_input(args.kb, load_kb)
    config = _load_input(args.config, load_config) if args.config else AgentConfig()
    engine = Engine(config, kb)
    scenario = parse_scenario(args.scenario)  # read as the run consumes it
    log = _load_input(args.scenario, lambda _: engine.run(scenario))
    write_alert_log(log, args.out)
    if args.kb_out:
        save_kb(engine.kb, args.kb_out)
    print(
        f"scenario={Path(args.scenario).stem} events={scenario.count} "
        f"alerts={len(log.entries)} diagnostics={len(engine.diagnostics)}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.scenario:
        count = _load_input(args.scenario, lambda path: sum(1 for _ in parse_scenario(path)))
        print(f"ok: scenario with {count} events")
    elif args.kb:
        kb = _load_input(args.kb, load_kb)
        print(
            f"ok: knowledge base with {len(kb.contacts)} contacts, "
            f"{len(kb.safety_records)} safety records, {len(kb.devices)} devices"
        )
    else:
        _load_input(args.config, load_config)
        print("ok: config")
    return EXIT_OK


def _summarize(path: str) -> tuple[Counter[str], dict[str, dict[str, int]], tuple | None]:
    """One pass that reads and checks the whole log: each alert kind's count, each
    caller's missed items by kind, and the last snapshot's (t, entries)."""
    kinds: Counter[str] = Counter()
    missed: dict[str, dict[str, int]] = {}
    snapshot = None
    for _, t, kind, rest in read_records(path, ALERT_FIELDS, AlertLogError):
        kinds[kind] += 1
        if (item := MISSED_ITEM_KIND.get(kind)) is not None:
            missed.setdefault(rest["caller"], {"call": 0, "message": 0})[item] += 1
        elif kind == "sorted_list_snapshot":
            snapshot = t, rest["entries"]
    return kinds, missed, snapshot


def cmd_report(args: argparse.Namespace) -> int:
    kinds, missed, snapshot = _load_input(args.log, _summarize)
    print(f"alerts: {kinds.total()}")
    for kind in sorted(kinds):
        print(f"  {kind}: {kinds[kind]}")
    if missed:
        print("per-caller missed items:")
        for caller, items in sorted(missed.items()):
            print(f"  {caller}: calls={items['call']} messages={items['message']}")
    if snapshot is None:
        print("callback list: no snapshot")
    else:
        print(f"callback list (snapshot at t={snapshot[0]}):")
        for rank, entry in enumerate(snapshot[1], start=1):
            print(f"  {rank}. {entry['caller']} ({entry['kind']}) score={entry['score']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alertagent",
        description="Deterministic smartphone alert agent: replay scenarios into alert logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write the alert log")
    run_p.add_argument("--scenario", required=True, help="scenario file (JSON lines)")
    run_p.add_argument("--kb", required=True, help="knowledge-base file (JSON)")
    run_p.add_argument("--config", help="agent config file (JSON); defaults apply if omitted")
    run_p.add_argument("--out", required=True, help="alert log output path")
    run_p.add_argument("--kb-out", help="write the updated knowledge base here")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check an input file without running")
    target = val_p.add_mutually_exclusive_group(required=True)
    target.add_argument("--scenario", help="scenario file to check")
    target.add_argument("--kb", help="knowledge-base file to check")
    target.add_argument("--config", help="config file to check")
    val_p.set_defaults(func=cmd_validate)

    rep_p = sub.add_parser("report", help="summarize a written alert log")
    rep_p.add_argument("--log", required=True, help="alert log file to summarize")
    rep_p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A string the engine accepted may hold characters stdout's encoding cannot
    # show (or a lone surrogate); escape them as Python already does on stderr.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed stdout is met below
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly. What is still
        # buffered goes to os.devnull, so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit 2
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
