"""The command-line surface, pinned: every subcommand's arguments and help screen.

``cli_surface.json`` holds, for each subcommand, its positional arguments
and each option's strings, default, type and choices, and the ``--help``
text of the program and of every subcommand at a fixed 80-column width.
A change to any of them is a change to the CLI and must show up here.
"""

import argparse
import json
from pathlib import Path

import pytest

from gkgrowth.cli import build_parser, main

PINNED = json.loads((Path(__file__).resolve().parent / "cli_surface.json").read_text(encoding="utf-8"))
SUBCOMMANDS = ("growth", "gkdim", "compare", "charclosure", "cayley", "pipeline", "exbig")


def surface() -> dict:
    """subcommand -> {"positionals": [...], "options": [...]} of the parser as built."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, subparser in sub.choices.items():
        positionals, options = [], []
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            record = {"dest": action.dest, "type": getattr(action.type, "__name__", None)}
            if action.option_strings:
                record.update(strings=list(action.option_strings), default=action.default,
                              choices=list(action.choices) if action.choices else None)
                options.append(record)
            else:
                positionals.append(record)
        out[name] = {"positionals": positionals, "options": options}
    return out


def help_screen(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_the_subcommands_and_their_arguments_are_pinned():
    built = surface()
    assert list(built) == list(SUBCOMMANDS)
    assert built == PINNED["surface"]


@pytest.mark.parametrize("command", ("",) + SUBCOMMANDS)
def test_every_help_screen_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command] if command else []
    assert help_screen(capsys, *argv) == PINNED["help"][command]
