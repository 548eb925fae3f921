"""tools/bench_point.py on a fresh copy of the package: the bytecode it writes first,
and the paired mode on a throwaway two-commit repository."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

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


def git(root, *argv):
    """Run git in ``root`` with a fixed identity; its stdout, stripped."""
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=bench", "-c",
                           "user.email=bench@example.invalid", "-c", "commit.gpgsign=false",
                           *argv], capture_output=True, text=True, check=True).stdout.strip()


def test_the_paired_mode_alternates_the_two_trees_run_for_run(tmp_path, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("the paired mode needs git")
    # two commits of a copy of src/, the second only adding a comment, and
    # an uncommitted comment on top
    root = tmp_path / "checkout"
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    git(tmp_path, "init", "-q", str(root))
    git(root, "add", "src")
    git(root, "commit", "-q", "-m", "first")
    first = git(root, "rev-parse", "HEAD")
    init = root / "src" / "polydissect" / "__init__.py"
    init.write_text(init.read_text(encoding="utf-8") + "# second\n", encoding="utf-8")
    git(root, "commit", "-q", "-am", "second")
    second = git(root, "rev-parse", "HEAD")
    init.write_text(init.read_text(encoding="utf-8") + "# uncommitted\n", encoding="utf-8")

    timed = []  # the src/ of every run, and whether it holds the uncommitted line
    registered = []  # whether .git/worktrees exists while each run goes
    run_once = bench_point.run_once

    def recording(src, argv):
        text = (src / "polydissect" / "__init__.py").read_text(encoding="utf-8")
        timed.append((src, text.endswith("# uncommitted\n")))
        registered.append((root / ".git" / "worktrees").exists())
        return run_once(src, argv)

    monkeypatch.setattr(bench_point, "run_once", recording)
    monkeypatch.setattr(bench_point, "REPO", tmp_path)
    monkeypatch.setattr(bench_point, "RUNS", 2)
    monkeypatch.setattr(bench_point, "COMMANDS", {"count-n4": ["count", "--n", "4"]})
    assert bench_point.main(["--label", "pair", "--root", str(root), "--against", "HEAD~1"]) == 0
    point = json.loads((tmp_path / "BENCH_pair.json").read_text(encoding="utf-8"))
    assert list(point) == ["label", "python", "numpy", "nproc", "runs",
                           "head", "against", "order", "compare"]
    assert point["head"]["commit"] == f"{second}-dirty" and point["head"]["bytecode"] is True
    assert point["against"] == {**point["against"], "ref": "HEAD~1", "commit": first,
                                "bytecode": True}
    for side in ("head", "against"):
        entry = point[side]["commands"]["count-n4"]
        assert len(entry["wall_s"]) == len(entry["maxrss_mb"]) == 2 and entry["failed"] == []
    # each round runs the command once on each tree, the first tree swapping
    assert [(o["round"], o["command"], o["side"]) for o in point["order"]] == [
        (0, "count-n4", "head"), (0, "count-n4", "against"),
        (1, "count-n4", "against"), (1, "count-n4", "head")]
    pair = point["compare"]["count-n4"]
    assert list(pair) == ["min_ratio", "median_ratio", "head_faster_rounds"]
    assert 0 <= pair["head_faster_rounds"] <= 2 and pair["min_ratio"] > 0
    # the head's runs import a copy of its src/ with the uncommitted change;
    # both trees come from src/ paths of one length in one temporary
    # directory, which is gone again; REF was exported, so no worktree is
    # registered under .git, not even while the runs go
    sides = [o["side"] for o in point["order"]]
    assert [dirty for _, dirty in timed] == [side == "head" for side in sides]
    (head,), (base,) = ({src for (src, _), s in zip(timed, sides) if s == side}
                        for side in ("head", "against"))
    assert head != base and len(str(head)) == len(str(base))
    assert head.parent.parent == base.parent.parent and not head.parent.parent.exists()
    assert len(git(root, "worktree", "list").splitlines()) == 1
    assert not any(registered) and not (root / ".git" / "worktrees").exists()
