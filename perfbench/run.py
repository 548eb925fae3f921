"""Benchmark of polydissect: one workload per call, in a fresh interpreter.

    python3 perfbench/run.py --workload count-n39 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is loaded from the
checkout's ``src/`` and nowhere else. The command

1. times ``import polydissect.cli`` in several fresh interpreters
   (``setup_s``, the median, scaled to the reference host speed of
   ``hostspeed.py``),
2. starts ``workloads.py`` in a fresh interpreter, which runs the
   workload's rounds for ``--seconds`` and checks every output,
3. prints the environment, one line per round and, as the last line, a
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
   its ``per_layer`` metrics with ``--trace 1``.

The workloads' inputs are fixed; ``--seed`` is recorded and selects nothing.
Exits 2 without a result when the checkout has no ``src/polydissect``, and
1 when the workload process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch space for SVGs and spilled spans, inside the checkout; removed on exit.
SCRATCH = ROOT / ".perfbench_run"

SETUP_SAMPLES = 11
# CPU seconds between two samples of the host's speed during an import.
IMPORT_SPEED_PERIOD_S = 0.01
# A run must end within 180 s; leave room for set-up and clean-up.
DEADLINE_S = 170.0

IMPORT_PROBE = ("import sys, time\n"
                f"sys.path.insert(0, {str(HERE)!r})\n"
                "import hostspeed\n"
                f"meter = hostspeed.Speedometer({IMPORT_SPEED_PERIOD_S})\n"
                "with meter.running():\n"
                "    t0 = time.perf_counter()\n"
                "    import polydissect.cli\n"
                "    t1 = time.perf_counter()\n"
                "print(t1 - t0, meter.scaled(t0, t1), polydissect.cli.__file__)\n")


def child_env() -> dict:
    env = dict(os.environ)
    # Imports use bytecode caches, as an installed package's would, whatever the caller sets.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(env: dict) -> tuple[float, float]:
    """Seconds a fresh interpreter spends in ``import polydissect.cli``, as
    measured and scaled to the reference host speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    wall, scaled, path = proc.stdout.split(maxsplit=2)
    if SRC.resolve() not in Path(path.strip()).resolve().parents:
        raise RuntimeError(f"polydissect loaded from {path.strip()}, not from {SRC}")
    return float(wall), float(scaled)


def setup_seconds(env: dict) -> tuple[float, float]:
    """Medians of SETUP_SAMPLES fresh imports' measured and scaled times,
    after one import that may write bytecode caches."""
    import_seconds(env)
    walls, scaled = zip(*(import_seconds(env) for _ in range(SETUP_SAMPLES)))
    return statistics.median(walls), statistics.median(scaled)


def run_workload(args, env: dict, out_dir: Path, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    # Own session, so that on timeout the workload's pool workers die with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {budget:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "polydissect" / "cli.py").is_file():
        print(f"error: no polydissect sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = child_env()
    out_dir = SCRATCH / str(os.getpid())
    out_dir.mkdir(parents=True)
    try:
        setup_wall, setup_s = setup_seconds(env)
        result = run_workload(args, env, out_dir, DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = setup_s
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps({**result["env"], "workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace}))
    for i, (wall, scaled, traced) in enumerate(zip(result["walls"], result["scaled"],
                                                     result["traced"])):
        print(f"round {i}: {wall:.4f} s, {scaled:.4f} s at reference speed"
              f"{' traced' if traced else ''}")
    print(f"setup_s {setup_s:.4f} at reference speed, {setup_wall:.4f} measured"
          f" (medians of {SETUP_SAMPLES} fresh imports)")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for note in result["notes"]:
        print(f"note: {note}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
