"""The docs may only advertise commands and flags the CLI still has.

Every ``python -m repro …`` / ``repro …`` snippet in ``README.md`` and
``docs/*.md`` — a line of a fenced block or an inline code span — must
name a real subcommand and only options that subcommand defines. A
complete command line in a fenced block (no ``[``, ``|``, ``<`` synopsis
markers) must also parse under ``cli.build_parser()``.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"```.*?\n(.*?)```", re.S)
_REPRO = re.compile(r"(?:\$ )?(?:\w+=\S+ )*(?:python3? -m )?repro (.+)")


def _commands(text: str):
    """``(words after 'repro', from a fenced block?)`` per advertised command."""
    fenced = [line.split("#")[0]
              for block in _FENCE.findall(text)
              for line in block.replace("\\\n", " ").splitlines()]
    spans = re.findall(r"`([^`]+)`", _FENCE.sub("", text))
    for is_fenced, snippets in ((True, fenced), (False, spans)):
        for snippet in snippets:
            for part in snippet.split("&&"):
                match = _REPRO.fullmatch(" ".join(part.split()))
                if match:
                    yield match.group(1), is_fenced


def _subparser(words: list[str]) -> argparse.ArgumentParser | None:
    """The parser the leading subcommand words select; None if unknown."""
    parser = build_parser()
    for word in words:
        choices = next((action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)),
                       None)
        if choices is None:
            break
        if word not in choices:
            return None
        parser = choices[word]
    return parser


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_docs_name_only_real_commands_and_flags(doc):
    problems = []
    for command, fenced in _commands(doc.read_text(encoding="utf-8")):
        words = re.sub(r"[\[\]{}|,]", " ", command).split()
        parser = _subparser([w for w in words if not w.startswith("-")][:2])
        if parser is None:
            problems.append(f"unknown subcommand: repro {command}")
            continue
        problems += [f"unknown option {word}: repro {command}"
                     for word in words
                     if re.fullmatch(r"--?[a-z][\w-]*", word)
                     and word not in parser._option_string_actions]
        if fenced and not any(mark in command for mark in "[|<"):
            try:
                build_parser().parse_args(shlex.split(command))
            except SystemExit:
                problems.append(f"does not parse: repro {command}")
    assert not problems, "\n".join(problems)
