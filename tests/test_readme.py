"""The README's command-line text against the parser: no flag outlives its option."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from simplotope.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def subcommand_options() -> dict[str, set[str]]:
    """Long option strings of every subcommand, --help left out."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
            for name, p in sub.choices.items()}


def command_line_block() -> str:
    section = README.split("## Command line", 1)[1]
    return FENCED.search(section).group(1)


def test_readme_command_lines_parse():
    parser = build_parser()
    lines = [line for line in command_line_block().splitlines() if line.startswith("simplotope ")]
    assert len(lines) >= 8
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:  # the parser exits 2 on an unknown option or value
            pytest.fail(f"README command line does not parse: {line}")


def test_readme_inline_options_exist():
    known = set().union(*subcommand_options().values())
    prose = FENCED.sub("", README)
    tokens = [token.split("=", 1)[0]
              for span in re.findall(r"`([^`\n]+)`", prose)
              for token in span.split() if token.startswith("--")]
    assert tokens
    assert sorted(set(tokens) - known) == []


def test_every_option_is_documented():
    undocumented = sorted(f"{name} {option}"
                          for name, options in subcommand_options().items()
                          for option in options
                          if not re.search(re.escape(option) + r"(?![\w-])", README))
    assert undocumented == []
