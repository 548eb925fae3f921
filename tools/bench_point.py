"""Record one point of the benchmark trajectory: raw wall times and peak RSS.

    python3 tools/bench_point.py --label head
    python3 tools/bench_point.py --label base --root ../other-checkout
    python3 tools/bench_point.py --label head --against HEAD~1

Times six commands of the checkout at ``--root`` (by default the one
holding this file), each in a fresh interpreter that imports the package
from that checkout's ``src/``:

    count --n 39
    count --n 64
    verify --max-n 30
    verify --max-n 39
    render --n 24 --faces
    render --n 39 --faces

Before the first run the tool compiles every module of that ``src/`` to
bytecode once (``compileall``, which writes it even where
``PYTHONDONTWRITEBYTECODE`` is set), so that no child compiles a module
and a fresh clone is timed like a checkout that has its ``__pycache__``;
the point records whether that succeeded as ``"bytecode"``.
Each command runs ``RUNS`` (11) times, interleaved: one run of every
command per round, so slow stretches of a shared host spread over all of
them. Eleven, since on a shared 2-vCPU host five runs a side let two trees
whose code was level read up to x1.26 of each other's minimum.
For each command the point records every run's wall time
(from start to exit of the child, interpreter start-up included), the
minimum and the median, and the child's own ``ru_maxrss`` (from
``os.wait4``), with the exit status of any run that failed. The times are
raw: nothing is scaled to a reference speed. The point also records the
commit (``-dirty`` when the tree has changes), Python, numpy and the
number of CPUs, and is written as JSON to ``BENCH_<label>.json`` at the
root of the checkout holding this file. The exit status is 1 when any run
failed, else 0.

With ``--against REF`` the point is a pair. In one temporary directory
(removed afterwards), the ``src/`` of REF of the repository at ``--root``
is exported to ``base/src`` with ``git archive`` (so nothing is written
under ``.git``, and a killed run leaves no checkout registered there) and
the root's ``src/``, uncommitted changes included, is copied to
``head/src``: a fresh interpreter's time follows the length of the path it
imports from, so both trees are timed from paths of one length. Both
trees' ``src/`` are compiled, and each run of a command on one tree is
followed by the same run on the other, the tree that goes first swapping
from round to round. The point then holds a ``"head"`` and an
``"against"`` side, each with its commit, ``"bytecode"`` and the
``"commands"`` entries above, the ``"order"`` in which the runs went, and
per command (``"compare"``) the ratio head / against of the minimums and
of the medians and the number of rounds in which the head was faster.
Two trees timed in one session this way can be compared; points from
different sessions cannot. The exit status is 1 when a run of the head
failed; the failures of the other side are only recorded.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

RUNS = 11  # runs of each command

COMMANDS = {
    "count-n39": ["count", "--n", "39"],
    "count-n64": ["count", "--n", "64"],
    "verify-30": ["verify", "--max-n", "30"],
    "verify-39": ["verify", "--max-n", "39"],
    "render-faces-n24": ["render", "--n", "24", "--faces"],
    "render-faces-n39": ["render", "--n", "39", "--faces"],
}

# the child: import the CLI from the given src/ and exit with its status
CHILD = ("import sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "from polydissect.cli import main\n"
         "sys.exit(main(sys.argv[2:]))\n")


def run_once(src: Path, argv: list[str]) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit status of one fresh interpreter."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD, str(src), *argv],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def git_commit(root: Path) -> str | None:
    """The checked-out commit, with "-dirty" appended when the tree has changes."""
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def numpy_version() -> str | None:
    """The numpy of this interpreter, which the children run with."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def compile_bytecode(src: Path) -> bool:
    """Write the bytecode of every module under ``src``; whether every one compiled."""
    return bool(compileall.compile_dir(str(src), quiet=1))


def measure(roots: dict[str, Path]) -> tuple[dict, list]:
    """Each command's runs on each tree, and the order of the runs.

    Round after round, every command runs once on each tree in turn; the
    tree that goes first swaps from round to round.
    """
    results = {side: {name: {"argv": argv, "wall_s": [], "maxrss_mb": [], "failed": []}
                      for name, argv in COMMANDS.items()} for side in roots}
    order = []
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(RUNS):
            for name, argv in COMMANDS.items():
                if argv[0] == "render":
                    argv = [*argv, "--out", str(Path(tmp) / f"{name}.svg")]
                for side in list(roots)[::1 if round_ % 2 == 0 else -1]:
                    wall, rss, code = run_once(roots[side] / "src", argv)
                    entry = results[side][name]
                    entry["wall_s"].append(wall)
                    entry["maxrss_mb"].append(rss)
                    if code != 0:
                        entry["failed"].append({"run": round_, "exit": code})
                    order.append({"round": round_, "command": name, "side": side})
    for entry in (e for side in results.values() for e in side.values()):
        entry["wall_min_s"] = min(entry["wall_s"])
        entry["wall_median_s"] = statistics.median(entry["wall_s"])
        entry["maxrss_mb_max"] = max(entry["maxrss_mb"])
    return results, order


def compare(head: dict, against: dict) -> dict:
    """Per command: head / against of the minimum and median wall times, and the
    number of rounds in which the head's run was the faster one."""
    return {name: {"min_ratio": h["wall_min_s"] / against[name]["wall_min_s"],
                   "median_ratio": h["wall_median_s"] / against[name]["wall_median_s"],
                   "head_faster_rounds": sum(a > b for a, b in
                                             zip(against[name]["wall_s"], h["wall_s"]))}
            for name, h in head.items()}


def export_src(root: Path, ref: str, dest: Path) -> str:
    """Write the ``src/`` of ``ref`` of the repository at ``root`` to ``dest/src``;
    the commit of ``ref``."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(root), *argv], capture_output=True, text=True,
                              check=True).stdout.strip()

    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    dest.mkdir()
    archive = dest / "src.tar"
    git("archive", "--format=tar", f"--output={archive}", commit, "src")
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def paired_point(root: Path, ref: str) -> dict:
    """Time ``root`` against ``ref`` of its repository, from paths of one length."""
    with tempfile.TemporaryDirectory() as tmp:
        head, other = Path(tmp) / "head", Path(tmp) / "base"
        shutil.copytree(root / "src", head / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        sides = {"head": {"commit": git_commit(root)},
                 "against": {"ref": ref, "commit": export_src(root, ref, other)}}
        for side, path in (("head", head), ("against", other)):
            sides[side]["bytecode"] = compile_bytecode(path / "src")
        results, order = measure({"head": head, "against": other})
    for side in sides:
        sides[side]["commands"] = results[side]
    return {**sides, "order": order,
            "compare": compare(results["head"], results["against"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ is timed (default: this one)")
    parser.add_argument("--against", metavar="REF",
                        help="also time REF of the root's repository, run for run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "polydissect").is_dir():
        parser.error(f"{root} has no src/polydissect")

    env = {"python": platform.python_version(), "numpy": numpy_version(),
           "nproc": os.cpu_count(), "runs": RUNS}
    if args.against is None:
        point = {"label": args.label, "commit": git_commit(root), **env,
                 "bytecode": compile_bytecode(root / "src"),
                 "commands": measure({"head": root})[0]["head"]}
        head = point["commands"]
    else:
        try:
            point = {"label": args.label, **env, **paired_point(root, args.against)}
        except subprocess.CalledProcessError as err:
            parser.error(f"cannot export {args.against}: {err.stderr.strip()}")
        head = point["head"]["commands"]
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    for name, entry in head.items():
        print(f"{name:18s} min {entry['wall_min_s']:7.3f} s"
              f"  median {entry['wall_median_s']:7.3f} s  rss {entry['maxrss_mb_max']:7.1f} MB"
              f"  failed {len(entry['failed'])}", end="")
        if args.against is not None:
            pair = point["compare"][name]
            print(f"  vs {args.against}: min x{pair['min_ratio']:.3f}"
                  f"  median x{pair['median_ratio']:.3f}"
                  f"  faster {pair['head_faster_rounds']}/{RUNS}", end="")
        print()
    print(f"-> {out}")
    return 1 if any(entry["failed"] for entry in head.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
