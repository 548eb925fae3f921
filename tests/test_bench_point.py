"""tools/bench_point.py on a fresh copy of the package: the bytecode it writes first."""

import importlib.util
import json
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_point", REPO / "tools" / "bench_point.py")
bench_point = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_point)


def test_a_checkout_without_bytecode_is_compiled_before_the_first_run(tmp_path, monkeypatch):
    # a copy of src/ with no __pycache__, and children that write no bytecode
    # themselves: every .pyc the copy ends up with comes from the tool
    root = tmp_path / "checkout"
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_point, "REPO", tmp_path)
    monkeypatch.setattr(bench_point, "RUNS", 1)
    monkeypatch.setattr(bench_point, "COMMANDS", {"count-n4": ["count", "--n", "4"]})
    assert bench_point.main(["--label", "fresh", "--root", str(root)]) == 0
    point = json.loads((tmp_path / "BENCH_fresh.json").read_text(encoding="utf-8"))
    assert point["bytecode"] is True and point["runs"] == 1
    assert list(point["commands"]) == ["count-n4"]
    assert point["commands"]["count-n4"]["failed"] == []
    package = root / "src" / "polydissect"
    compiled = {p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc")}
    assert compiled == {p.stem for p in package.glob("*.py")}
