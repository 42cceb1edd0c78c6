"""Every ``python -m repro`` command the docs show parses.

A concrete command line (README, EXPERIMENTS.md, ``docs/*.md``) must be
accepted by :func:`repro.cli.build_parser` as written, once its shell
tail (``>``, ``|`` or ``#`` onward) is stripped.  A synopsis line, one
with ``[...]`` groups, names placeholders rather than values, so for it
each ``--flag`` must exist on its subcommand and take a value exactly
when the synopsis gives it one.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_COMMAND = re.compile(r"python -m repro\b")
#: A flag and, when the synopsis gives one, its value placeholder.
_FLAG = re.compile(r"(--[\w-]+)(\s+[^\s\[\]|.-][^\s\[\]|]*)?")


def documented_commands() -> list[tuple[str, str]]:
    """``(where, text after "python -m repro")`` for each documented
    command; an inline code span ends at its closing backtick, and a
    synopsis keeps its indented ``[...]`` continuation lines."""
    found = []
    for path in DOCS:
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines):
            for match in _COMMAND.finditer(line):
                text = line[match.end():]
                rest = lines[number + 1:]
                if line[:match.start()].count("`") % 2:
                    while "`" not in text and rest:
                        text += " " + rest.pop(0)
                    text = text.split("`")[0]
                else:
                    while rest and re.match(r"\s+\[", rest[0]):
                        text += " " + rest.pop(0)
                found.append(
                    (f"{path.relative_to(ROOT)}:{number + 1}", text.strip())
                )
    return found


def _subcommand(parser: argparse.ArgumentParser, words: list[str]):
    """The (sub)parser that ``words`` select."""
    for word in words:
        choices = next(
            (action.choices for action in parser._actions
             if isinstance(action, argparse._SubParsersAction)),
            {},
        )
        if word not in choices:
            break
        parser = choices[word]
    return parser


def synopsis_errors(text: str) -> list[str]:
    words = re.split(r"\s+(?=\[|-)", text, maxsplit=1)[0].split()
    parser = _subcommand(build_parser(), words)
    errors = []
    for flag, value in _FLAG.findall(text.split("#")[0]):
        action = parser._option_string_actions.get(flag)
        if action is None:
            errors.append(f"{flag} is not an option of {' '.join(words)}")
        elif (action.nargs != 0) != bool(value):
            need = "needs a value" if action.nargs != 0 else "takes no value"
            errors.append(f"{flag} {need}")
    return errors


COMMANDS = documented_commands()


def test_docs_show_commands():
    assert len(COMMANDS) > 20


@pytest.mark.parametrize(
    "text", [text for _, text in COMMANDS],
    ids=[where for where, _ in COMMANDS],
)
def test_documented_command_parses(text, capsys):
    if "[" in text:
        assert synopsis_errors(text) == []
        return
    argv = shlex.split(re.split(r"\s[>|#]", text)[0])
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(capsys.readouterr().err)
