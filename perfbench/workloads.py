"""Workloads, output checks and the round loop of the polydissect benchmark.

Run as a script, this file is the workload process: a fresh interpreter
that imports ``polydissect.cli``, runs one workload through
``polydissect.cli.main(argv)`` and prints one JSON object on its last line.
``run.py`` starts it; see that file for the command line.

Every operation's output is checked against ``polydissect.cli.reference_table()``:
the printed counts, and for ``render --faces`` the SVG's ``<polygon>`` (F)
and ``<line>`` (E) element totals. An operation that raises, exits nonzero
or prints something that differs from the reference is failed; one that
prints a differing result is also wrong, which makes the run incorrect.

Each call's wall time is also scaled to a reference host speed by a
``hostspeed.Speedometer`` that samples the host's speed during the calls;
``ops_per_s`` is computed from the scaled times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import tracing

COUNT_KEYS = ("N", "n", "F", "E", "V", "per_ray", "central")
VERIFY_LINE = re.compile(
    r"^n=\s*(\d+) N=\s*(\d+)\s+E=\s*(\d+)\s+V=\s*(\d+)\s+F=\s*(\d+)\s+(ok|MISMATCH)\b", re.M)
RENDER_LINE = re.compile(r"^(\d+) edges (\d+) vertices (\d+) tiles -> ", re.M)


@dataclass
class Tally:
    """Operations attempted, verified against the reference, and wrong."""

    attempted: int = 0
    verified: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.verified += other.verified
        self.wrong += other.wrong
        self.notes.extend(other.notes)

    @property
    def failed(self) -> int:
        return self.attempted - self.verified


def _failed(size: int, note: str) -> Tally:
    return Tally(attempted=size, notes=[note])


@dataclass(frozen=True)
class CountOp:
    """``count --n N --json``: one operation."""

    n: int
    size = 1

    def argv(self, out_dir: Path) -> list[str]:
        return ["count", "--n", str(self.n), "--json"]

    def judge(self, code: int, stdout: str, out_dir: Path, ref: dict) -> Tally:
        if code != 0:
            return _failed(1, f"{self}: exit {code}")
        try:
            got = json.loads(stdout)
        except ValueError:
            return _failed(1, f"{self}: output is not JSON")
        want = ref[self.n]
        if any(got.get(k) != getattr(want, k) for k in COUNT_KEYS):
            return Tally(attempted=1, wrong=1, notes=[f"{self}: printed {got}, expected {want}"])
        return Tally(attempted=1, verified=1)


@dataclass(frozen=True)
class VerifyOp:
    """``verify --max-n M --jobs J``: one operation per reference row n = 2..M."""

    max_n: int
    jobs: int

    @property
    def size(self) -> int:
        return self.max_n - 1

    def argv(self, out_dir: Path) -> list[str]:
        return ["verify", "--max-n", str(self.max_n), "--jobs", str(self.jobs)]

    def judge(self, code: int, stdout: str, out_dir: Path, ref: dict) -> Tally:
        # 5 is the CLI's own mismatch status: rows are still judged one by one.
        if code not in (0, 5):
            return _failed(self.size, f"{self}: exit {code}")
        printed = {int(m[1]): m for m in VERIFY_LINE.finditer(stdout)}
        tally = Tally()
        for n in range(2, self.max_n + 1):
            tally.attempted += 1
            m = printed.get(n)
            if m is None:
                tally.notes.append(f"{self}: no row for n={n}")
                continue
            want = ref[n]
            got = tuple(int(m[i]) for i in (2, 3, 4, 5))
            if got != (want.N, want.E, want.V, want.F):
                tally.wrong += 1
                tally.notes.append(f"{self}: n={n} printed N,E,V,F={got}")
            elif m[6] != "ok":
                tally.notes.append(f"{self}: n={n} matches but is marked {m[6]}")
            else:
                tally.verified += 1
        return tally


@dataclass(frozen=True)
class RenderOp:
    """``render --n N --faces``: one operation, checked by its SVG element totals."""

    n: int
    size = 1

    def path(self, out_dir: Path) -> Path:
        return out_dir / f"faces-{self.n}.svg"

    def argv(self, out_dir: Path) -> list[str]:
        return ["render", "--n", str(self.n), "--faces", "--out", str(self.path(out_dir))]

    def judge(self, code: int, stdout: str, out_dir: Path, ref: dict) -> Tally:
        path = self.path(out_dir)
        try:
            if code != 0:
                return _failed(1, f"{self}: exit {code}")
            m = RENDER_LINE.search(stdout)
            if m is None or not path.exists():
                return _failed(1, f"{self}: no summary line or no SVG written")
            svg = path.read_text(encoding="utf-8")
        finally:
            path.unlink(missing_ok=True)
        want = ref[self.n]
        got = (int(m[1]), int(m[2]), int(m[3]), svg.count("<line "), svg.count("<polygon "))
        if got != (want.E, want.V, want.F, want.E, want.F):
            return Tally(attempted=1, wrong=1,
                         notes=[f"{self}: E,V,F,lines,polygons={got}, expected E={want.E}"
                                f" V={want.V} F={want.F}"])
        return Tally(attempted=1, verified=1)


@dataclass(frozen=True)
class Workload:
    """Operations of one round, and a small round that runs first, untimed."""

    ops: tuple
    warmup: tuple


# Inputs are fixed: the seed is recorded but selects nothing. Why each
# workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "count-n39": Workload(ops=(CountOp(39),), warmup=(CountOp(5),)),
    "verify-sweep": Workload(ops=(VerifyOp(30, jobs=2),), warmup=(VerifyOp(5, jobs=2),)),
    "figure-faces": Workload(ops=(RenderOp(20), RenderOp(24)), warmup=(RenderOp(5),)),
}


# CPU seconds of a process between two samples of the host's speed.
SPEED_PERIOD_S = 0.05


@dataclass
class Round:
    wall: float
    scaled: float
    tally: Tally


def run_op(op, main, out_dir: Path, ref: dict,
           meter: hostspeed.Speedometer) -> tuple[float, float, Tally]:
    """Call ``main(argv)`` once; return its wall time, that time scaled to the
    reference speed by ``meter``, and the checked outcome.

    A full collection first, untimed, so that each call starts from the same
    garbage-collector state whatever ran before it."""
    out = io.StringIO()
    err = io.StringIO()
    tally = None
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv(out_dir))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any failure of the program is a failed operation
        tally = _failed(op.size, f"{op}: raised {exc!r}")
    end = time.perf_counter()
    if tally is None:
        tally = op.judge(code, out.getvalue(), out_dir, ref)
        if tally.failed and err.getvalue().strip():
            tally.notes.append(f"{op}: stderr {err.getvalue().strip()[:200]}")
    return end - start, meter.scaled(start, end), tally


def run_round(ops, main, out_dir: Path, ref: dict, meter: hostspeed.Speedometer) -> Round:
    """Run each op once. The times are sums over the ``main`` calls, checks excluded."""
    rnd = Round(wall=0.0, scaled=0.0, tally=Tally())
    for op in ops:
        wall, scaled, tally = run_op(op, main, out_dir, ref, meter)
        rnd.wall += wall
        rnd.scaled += scaled
        rnd.tally.add(tally)
    return rnd


def peak_rss_mb() -> float:
    """The larger RSS high-water mark of this process and of its waited-for children."""
    return max(tracing.maxrss_mb(resource.RUSAGE_SELF),
               tracing.maxrss_mb(resource.RUSAGE_CHILDREN))


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """ops_per_s (median over rounds of verified ops per scaled second),
    verified_ratio and peak_rss_mb."""
    attempted = sum(r.tally.attempted for r in rounds)
    verified = sum(r.tally.verified for r in rounds)
    return {
        "ops_per_s": statistics.median(r.tally.verified / r.scaled for r in rounds),
        "verified_ratio": verified / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_rounds(workload: Workload, cli, seconds: float, out_dir: Path, ref: dict,
               tracer: tracing.Tracer | None = None):
    """The warm-up round, then as many rounds as are expected to end within
    ``seconds`` (judged by the last round's length), at least one.

    With a tracer, rounds alternate traced and untraced, traced first, and
    there are at least three, so that traced and untraced walls compare.
    Returns the warm-up round, ``(round, layer figures or None)`` in run
    order, and the host's slowdown against the reference speed over the run.
    """
    meter = hostspeed.Speedometer(SPEED_PERIOD_S, out_dir)
    rounds: list[tuple[Round, dict | None]] = []
    minimum = 3 if tracer else 1
    with meter.running():
        warm = run_round(workload.warmup, cli.main, out_dir, ref, meter)
        start = time.perf_counter()
        while (len(rounds) < minimum
               or time.perf_counter() - start + rounds[-1][0].wall <= seconds):
            if tracer and len(rounds) % 2 == 0:
                with tracer.installed():
                    rnd = run_round(workload.ops, cli.main, out_dir, ref, meter)
                rounds.append((rnd, tracing.layer_metrics(tracer.collect())))
            else:
                rounds.append((run_round(workload.ops, cli.main, out_dir, ref, meter), None))
    return warm, rounds, meter.mean_slowdown()


def per_layer(rounds: list[tuple[Round, dict | None]]) -> dict[str, float]:
    """Median over traced rounds of each layer figure; RSS growth takes the max,
    because the high-water mark grows only in the first round of a process.

    Tracing overhead is the median traced minus the median untraced round
    time, both scaled to the reference speed. The first round, which also
    grows the heap, is left out of it."""
    layers = [m for _, m in rounds if m is not None]
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        out[name] = max(values) if name.endswith("_rss_mb") else statistics.median(values)
    traced_wall = statistics.median(r.scaled for r, m in rounds[1:] if m is not None)
    plain_wall = statistics.median(r.scaled for r, m in rounds[1:] if m is None)
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    keys = ("arrangement.edges", "arrangement.vertices", "planar.faces", "planar.orbits")
    out["trace.counts_repeat"] = float(len({tuple(m[k] for k in keys) for m in layers}) == 1)
    return out


def environment() -> dict:
    """Machine and interpreter facts recorded with each result set."""
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "platform": sys.platform,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True, help="scratch directory for SVGs and spans")
    args = parser.parse_args(argv)

    from polydissect import cli

    ref = {r.n: r for r in cli.reference_table()}
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    tracer = tracing.Tracer(out_dir) if args.trace else None
    warm, labelled, slowdown = run_rounds(workload, cli, args.seconds, out_dir, ref, tracer)
    rounds = [r for r, _ in labelled]
    result = {
        "env": {**environment(), "slowdown": slowdown},
        "metrics": per_layer(labelled) if tracer else end_to_end(rounds),
        "traced": [m is not None for _, m in labelled],
    }
    total = Tally()
    for r in rounds:
        total.add(r.tally)
    result.update(
        walls=[r.wall for r in rounds],
        scaled=[r.scaled for r in rounds],
        attempted=total.attempted,
        failed=total.failed,
        wrong=total.wrong + warm.tally.wrong,
        notes=sorted(set(total.notes + warm.tally.notes)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
