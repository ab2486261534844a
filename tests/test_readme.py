"""README.md's format tables, checked against the code's own: the scenario table
against the scenario's field tables, the alert-log table against ``ALERT_FIELDS``,
and the config paragraph against ``AgentConfig``'s fields and defaults. A reader,
or a second implementation, written from README then sees what the code checks."""

from __future__ import annotations

import ast
import re

from alertagent.engine import _EVENT_FIELDS
from alertagent.model import ALERT_FIELDS, AgentConfig

from helpers import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def _table(header: str) -> dict[str, str]:
    """The table under ``header`` as each tag it names, mapped to its fields cell."""
    rows = README.split(header + "\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        tags, cell = row.strip("|").split("|")
        table |= {tag: cell.strip() for tag in re.findall(r"`(\w+)`", tags)}
    return table


def _fields(cell: str) -> dict[str, tuple[bool, str]]:
    """Each field a cell names, with whether it is required and its note in parentheses.
    Every field after the word "optional" is optional."""
    notes = dict(re.findall(r"`(\w+)`\s+\(([^)]*)\)", cell))
    bare = re.sub(r"\([^)]*\)", "", cell)
    optional_from = bare.find("optional") if "optional" in bare else len(bare)
    return {m[1]: (m.start() < optional_from, notes.get(m[1], ""))
            for m in re.finditer(r"`(\w+)`", bare)}


def _check_note(name: str, check, note: str) -> None:
    """A field's note agrees with its check: its choices, or its type or range."""
    if re.fullmatch(r"`\w+`(/`\w+`)+", note):
        problem = check("\x00")
        assert problem.startswith("must be one of "), name
        assert ast.literal_eval(problem.removeprefix("must be one of ")) == sorted(
            re.findall(r"`(\w+)`", note)), name
    elif note.startswith("bool"):
        assert check(True) is None and check(1) is not None, name
    elif note == "int":
        assert check(7) is None and check(7.5) is not None, name
    elif note == "number":
        assert check(7.5) is None and check("7") is not None, name
    elif m := re.fullmatch(r"(\d+)-(\d+)", note):
        lo, hi = int(m[1]), int(m[2])
        assert check(lo) is None and check(hi) is None, name
        assert check(lo - 1) is not None and check(hi + 1) is not None, name


def _assert_table_matches(readme: dict[str, str], tables, common: set[str]) -> None:
    assert sorted(readme) == sorted(tables)
    for tag, cell in readme.items():
        fields = _fields(cell)
        own = {name: spec for name, spec in tables[tag].items() if name not in common}
        assert sorted(fields) == sorted(own), tag
        for name, (required, note) in fields.items():
            check, table_required = own[name]
            assert required == table_required, (tag, name)
            _check_note(f"{tag}.{name}", check, note)


def test_readme_scenario_table_matches_the_event_fields():
    _assert_table_matches(_table("| type | extra fields |"), _EVENT_FIELDS, {"t", "type"})


def test_readme_alert_log_table_matches_the_alert_fields():
    _assert_table_matches(_table("| kind | payload fields |"), ALERT_FIELDS, {"t", "seq", "kind"})


def test_readme_config_fields_and_defaults_match_agent_config():
    paragraph = README.split("Any subset of: ", 1)[1].split("Absent fields take", 1)[0]
    documented = re.findall(r"`(\w+)`\s+\(([^)]*)\)", paragraph)
    assert [name for name, _ in documented] == list(AgentConfig._fields)
    for name, note in documented:
        field_default = AgentConfig._field_defaults[name]
        if note.startswith("ordered array"):
            assert field_default == (), name
        else:
            default = ast.literal_eval(note)
            assert (default, type(default)) == (field_default, type(field_default)), name
