"""The Python examples in README.md run and print what they say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


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
