"""README's examples run as written: the Python API block, and every
``thetaq`` line of the command-line block through ``cli.main`` in process,
with the values their comments state."""

import json
import re
import shlex
from pathlib import Path

import pytest

from thetaq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str = "") -> str:
    match = re.search(rf"^## {heading}\n+```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no code block under {heading!r}"
    return match.group(1)


def _commands() -> list[tuple[list[str], str]]:
    """(argv, comment) for each ``thetaq`` line, continuations joined."""
    text = _block("Command line").replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "thetaq", line
        commands.append((argv[1:], comment.strip()))
    return commands


COMMANDS = _commands()


def test_python_api_block_runs():
    exec(compile(_block("Python API", "python"), "README.md", "exec"), {})


def test_every_command_line_is_read():
    assert len(COMMANDS) == 13
    assert sum(argv[:2] == ["verify", "thm1"] for argv, _ in COMMANDS) == 2
    # the count values the comments state, which the test below checks
    assert [c for argv, c in COMMANDS if argv[0] == "count" and c[:1].isdigit()] == [
        "8", "0 0 0 1 6: no N < 0 is represented"]


@pytest.mark.parametrize("argv,comment", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_line_example(capsys, argv, comment):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] not in ("expand", "count"):
        return
    header, payload = out.splitlines()[:2]
    assert header.startswith("[pass]")
    payload = json.loads(payload)
    if argv[0] == "count":
        stated = re.match(r"[\d ]*", comment).group().split()
        if stated:
            assert [row["value"] for row in payload["values"]] == [int(x) for x in stated]
    elif "psi" in argv:  # 1's at the triangular numbers
        assert payload["coefficients"] == [[str(e), 1] for e in (0, 1, 3, 6, 10)]
    else:  # the zero series
        assert payload["coefficients"] == []
