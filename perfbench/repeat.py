"""Repeat the benchmark over seeds and summarise each metric per workload.

    python3 perfbench/repeat.py --runs 10 --label seed --out perfbench/baseline.json

``--runs`` untraced runs of each workload with seeds 1, 2, ..., the
workloads taking turns, then one traced run of each. Each end-to-end
metric gets its median, its quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the distance between the quartiles as a share of
the median (``spread``), which is what a metric's bound in
BENCHMARK.json is compared against. The same summary of each run's
``slowdown`` (how much slower than the reference speed of
``hostspeed.py`` the host ran; times are scaled by it) shows how busy the
host was during the set. Use it to record a
before-and-after pair: the same command on the parent and on the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object and the recorded environment of one benchmark run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    results: dict[str, list[dict]] = {w: [] for w in names}
    slowdown: dict[str, list[float]] = {w: [] for w in names}
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    # Workloads take turns run by run, so that every workload's set samples
    # the same stretch of the host's speed.
    for seed in seeds:
        for workload in names:
            result, report["env"] = one_run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            results[workload].append(result)
            slowdown[workload].append(report["env"]["slowdown"])
    del report["env"]["slowdown"], report["env"]["workload"], report["env"]["seed"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in names:
        runs = results[workload]
        values = {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]}
        traced, _ = one_run(workload, seeds[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "slowdown": summary(slowdown[workload]),
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, v in [("slowdown", slowdown[workload]), *values.items()]:
            s = summary(v)
            print(f"{workload:13s} {name:15s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds.get(name, '-')}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
