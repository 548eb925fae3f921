"""The Python examples and the command lines in README.md run and print what they say."""

import re
import shlex
from pathlib import Path

import pytest

from polydissect import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def readme_commands():
    """Each ``polydissect`` line of the README's sh blocks as an argv, with
    the ``# `` lines right below it: the output the README shows for it."""
    commands, shown = [], None
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            if line.startswith("polydissect "):
                shown = []
                commands.append((shlex.split(line)[1:], shown))
            elif line.startswith("# ") and shown is not None:
                shown.append(line[2:])
            else:
                shown = None
    return commands


def run_block(index):
    namespace = {}
    exec(compile(python_blocks()[index], f"README.md python block {index}", "exec"), namespace)
    return namespace


def test_the_readme_has_two_python_examples():
    assert len(python_blocks()) == 2


def test_the_counts_example_gives_the_20_gon(capsys):
    s = run_block(0)["s"]
    assert (s.V, s.E, s.F) == (1220, 2500, 1281)
    assert capsys.readouterr().out == "1220 2500 1281\n64 1\n"


def test_the_full_route_example_gives_the_20_gon():
    namespace = run_block(1)
    assert (namespace["V"], namespace["E"]) == (1220, 2500)


@pytest.mark.parametrize("argv", [argv for argv, _ in readme_commands()], ids=" ".join)
def test_each_readme_command_line_exits_0(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # render writes its figure to the working directory
    assert cli.main(argv) == 0


def test_the_readme_shows_what_count_prints(capsys):
    # the summary line's F, per_ray and central are derived from V and E
    (shown,) = [shown for argv, shown in readme_commands() if argv == ["count", "--n", "8"]]
    assert shown == ["960 edges 464 vertices 497 tiles", "31 tiles per ray, 1 central"]
    assert cli.main(["count", "--n", "8"]) == 0
    assert capsys.readouterr().out.splitlines() == shown
