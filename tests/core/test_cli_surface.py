"""The command-line surface, pinned: every command's options as parsed.

``golden/cli_surface.json`` records, for ``repro`` and each of its
subcommands, every argument's option strings, destination, default,
type, choices, arity and help text.  A change to any of them changes
what ``--help`` prints and what scripts may pass, so it has to show up
here as a golden update.  The parser's structure is compared rather
than the rendered ``--help`` text, whose wrapping varies between
Python versions.

Regenerate the golden after a deliberate change with::

    PYTHONPATH=src python tests/core/test_cli_surface.py
"""

import argparse
import json
import pathlib

import pytest

from repro.cli import build_parser

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_surface.json"


def _describe_action(action):
    if isinstance(action, argparse._SubParsersAction):
        return {"subcommands": {choice.dest: choice.help
                                for choice in action._choices_actions}}
    kind = action.type
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "const": action.const,
        "default": action.default,
        "type": None if kind is None else getattr(kind, "__name__",
                                                  repr(kind)),
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def surface():
    """``{"repro <command> ...": [argument, ...]}`` for every parser."""
    found = {}

    def walk(name, parser):
        found[name] = {
            "description": parser.description,
            "arguments": [_describe_action(a) for a in parser._actions],
        }
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command, sub in action.choices.items():
                    walk(f"{name} {command}", sub)

    walk("repro", build_parser())
    return found


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", sorted(surface()))
def test_command_surface_unchanged(command):
    assert surface()[command] == _golden().get(command)


def test_no_command_added_or_removed():
    assert sorted(surface()) == sorted(_golden())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(surface(), indent=1, sort_keys=True)
                      + "\n")
