"""Record one point of the benchmark trajectory: raw wall times and peak RSS.

    python3 tools/bench_point.py --label head
    python3 tools/bench_point.py --label base --root ../other-checkout

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
Each command runs ``RUNS`` times, interleaved: one run of every command
per round, so slow stretches of a shared host spread over all of them.
For each command the point records every run's wall time
(from start to exit of the child, interpreter start-up included), the
minimum and the median, and the child's own ``ru_maxrss`` (from
``os.wait4``), with the exit status of any run that failed. The times are
raw: nothing is scaled to a reference speed. The point also records the
commit (``-dirty`` when the tree has changes), Python, numpy and the
number of CPUs, and is written as JSON to ``BENCH_<label>.json`` at the
root of the checkout holding this file. The exit status is 1 when any run
failed, else 0.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

RUNS = 5  # runs of each command

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


def measure(root: Path) -> dict:
    src = root / "src"
    results = {name: {"argv": argv, "wall_s": [], "maxrss_mb": [], "failed": []}
               for name, argv in COMMANDS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(RUNS):
            for name, argv in COMMANDS.items():
                if argv[0] == "render":
                    argv = [*argv, "--out", str(Path(tmp) / f"{name}.svg")]
                wall, rss, code = run_once(src, argv)
                entry = results[name]
                entry["wall_s"].append(wall)
                entry["maxrss_mb"].append(rss)
                if code != 0:
                    entry["failed"].append({"run": round_, "exit": code})
    for entry in results.values():
        entry["wall_min_s"] = min(entry["wall_s"])
        entry["wall_median_s"] = statistics.median(entry["wall_s"])
        entry["maxrss_mb_max"] = max(entry["maxrss_mb"])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ is timed (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "polydissect").is_dir():
        parser.error(f"{root} has no src/polydissect")

    point = {
        "label": args.label,
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "runs": RUNS,
        "bytecode": compile_bytecode(root / "src"),
        "commands": measure(root),
    }
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    for name, entry in point["commands"].items():
        print(f"{name:18s} min {entry['wall_min_s']:7.3f} s"
              f"  median {entry['wall_median_s']:7.3f} s  rss {entry['maxrss_mb_max']:7.1f} MB"
              f"  failed {len(entry['failed'])}")
    print(f"-> {out}")
    return 1 if any(entry["failed"] for entry in point["commands"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
