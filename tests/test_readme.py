"""The README's library tour and CLI examples run as written, so deleting
or renaming a documented name or flag fails the suite."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from urnlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def urnlab_commands():
    """Every `urnlab ...` line of the sh blocks, continuation lines joined."""
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("urnlab "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_library_tour_runs():
    tour = blocks("python")
    assert tour, "README.md has no python block"
    for block in tour:
        exec(compile(block, str(README), "exec"), {})


def test_cli_examples_exit_0():
    commands = urnlab_commands()
    assert len(commands) >= 10, "README.md lost its CLI examples"
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, argv
