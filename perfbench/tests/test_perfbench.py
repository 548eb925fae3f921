"""Tests of the benchmark itself, on tiny n.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polydissect import cli  # noqa: E402

REF = {r.n: r for r in cli.reference_table()}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def meter():
    """A speedometer with one sample, enough to scale any interval."""
    m = hostspeed.Speedometer(period=1.0)
    m.sample()
    return m


def fake_main(argv):
    """Wrong counts for n=5, a raise for n=6, exit 3 for n=7, the real CLI otherwise."""
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    if argv[0] == "count" and n == 5:
        row = dict(vars(REF[5]), E=REF[5].E + 1)
        print(json.dumps(row))
        return 0
    if n == 6:
        raise RuntimeError("boom")
    if n == 7:
        return 3
    if argv[0] == "render" and n == 8:
        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1])
        svg = path.read_text()
        path.write_text(svg.replace("<polygon ", "<polyline ", 1))
        return code
    return cli.main(argv)


def test_failed_and_wrong_operations_land_in_failed_ratio(tmp_path):
    ops = (workloads.CountOp(5), workloads.CountOp(6), workloads.CountOp(7),
           workloads.CountOp(4), workloads.RenderOp(8), workloads.RenderOp(4),
           workloads.VerifyOp(4, jobs=1))
    rnd = workloads.run_round(ops, fake_main, tmp_path, REF, meter())
    tally = rnd.tally
    # 6 single operations plus 3 verify rows; n=5, 6, 7 and the render of n=8 fail
    assert tally.attempted == 9
    assert tally.verified == 5
    assert tally.failed == 4
    assert tally.wrong == 2  # the wrong count and the wrong SVG polygon total
    assert workloads.end_to_end([rnd])["verified_ratio"] == pytest.approx(5 / 9)
    assert not list(tmp_path.iterdir()), "SVGs are removed after they are checked"


def test_verify_rows_are_judged_one_by_one(tmp_path):
    op = workloads.VerifyOp(4, jobs=1)
    good = "".join(f"n={n:2d} N={2 * n:2d}  E={REF[n].E:7d}  V={REF[n].V:7d}  F={REF[n].F:7d}"
                   f"  ok  (0.01s)\n" for n in (2, 3))
    bad = f"n= 4 N= 8  E={REF[4].E + 1:7d}  V={REF[4].V:7d}  F={REF[4].F:7d}  ok  (0.01s)\n"
    tally = op.judge(0, good + bad, tmp_path, REF)
    assert (tally.attempted, tally.verified, tally.wrong) == (3, 2, 1)
    assert op.judge(3, good, tmp_path, REF).failed == 3


def test_self_time_is_span_minus_children():
    spans = [
        {"id": "p", "parent": None, "name": "cli.main", "t0": 0.0, "t1": 10.0},
        # two overlapping children from parallel workers cover [1, 5]
        {"id": "a", "parent": "p", "name": "x", "t0": 1.0, "t1": 3.0},
        {"id": "b", "parent": "p", "name": "x", "t0": 2.0, "t1": 5.0},
        {"id": "c", "parent": "p", "name": "x", "t0": 8.0, "t1": 9.0},
        {"id": "d", "parent": "c", "name": "y", "t0": 8.5, "t1": 9.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["c"] == pytest.approx(0.5)
    assert selfs["a"] == pytest.approx(2.0)


def test_traced_self_time_matches_recorded_spans(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    with tracer.installed():
        assert cli.main(["render", "--n", "5", "--faces", "--out", str(tmp_path / "x.svg")]) == 0
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    spans = tracer.collect()
    selfs = tracing.self_times(spans)
    for s in spans:
        kids = [c for c in spans if c["parent"] == s["id"]]
        # in one process children run one after another, so they do not overlap
        want = (s["t1"] - s["t0"]) - sum(c["t1"] - c["t0"] for c in kids)
        assert selfs[s["id"]] == pytest.approx(want, abs=1e-12)
    names = {s["name"] for s in spans}
    assert {"cli.main", "arrangement.split", "arrangement.cluster", "planar.build_graph",
            "planar.faces", "planar.census", "render.svg"} <= names


def test_traced_rounds_report_every_layer_metric_and_repeat(tmp_path):
    workload = workloads.Workload(ops=(workloads.RenderOp(5), workloads.VerifyOp(4, jobs=2)),
                                  warmup=(workloads.CountOp(3),))
    warm, rounds, slowdown = workloads.run_rounds(workload, cli, 0.0, tmp_path, REF,
                                                   tracing.Tracer(tmp_path))
    assert [m is not None for _, m in rounds] == [True, False, True]
    assert all(r.tally.failed == 0 for r, _ in rounds)
    assert slowdown > 0.0 and all(r.scaled > 0.0 for r, _ in rounds)
    metrics = workloads.per_layer(rounds)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.counts_repeat"] == 1.0
    # clustering spans of the forked verify workers were merged: three rows plus two in render
    assert metrics["arrangement.cluster_calls"] == 3 + 2
    assert metrics["planar.faces"] == REF[5].F
    assert metrics["cli.row_s_sum"] > 0.0
    assert not list(tmp_path.glob("spans-*.jsonl"))


def test_scaled_time_weighs_each_stretch_by_the_sample_that_ends_it():
    m = hostspeed.Speedometer(period=1.0)
    ref = hostspeed.REF_PROBE_S
    # the host ran at the reference speed until t=2, then half as fast
    m.samples = [(1.0, ref), (2.0, ref), (3.0, 2 * ref), (4.0, 2 * ref)]
    assert m.scaled(0.0, 2.0) == pytest.approx(2.0)
    assert m.scaled(1.5, 3.5) == pytest.approx(0.5 + 0.5 + 0.25)
    # after the last sample, its speed holds
    assert m.scaled(3.0, 6.0) == pytest.approx(1.5)
    assert m.mean_slowdown() == pytest.approx(1.5)


def test_speedometer_samples_while_running_and_leaves_no_timer():
    m = hostspeed.Speedometer(period=0.01)
    with m.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert len(m.samples) >= 5
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert m.scaled(t0, t0 + 0.2) > 0.0


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return os.getpid()


def test_speedometer_merges_samples_of_forked_workers(tmp_path):
    m = hostspeed.Speedometer(period=0.01, spill_dir=tmp_path)
    with m.running():
        own = len(m.samples)
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=ctx) as pool:
            pids = set(pool.map(_busy, [0.2, 0.2]))
        spilled = sorted(p.name for p in tmp_path.glob("speed-*.txt"))
        m.scaled(0.0, time.perf_counter())
    assert spilled == sorted(f"speed-{pid}.txt" for pid in pids)
    assert len(m.samples) >= own + 20
    assert not list(tmp_path.glob("speed-*.txt"))


def test_peak_rss_reading_includes_children():
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_mb = int(own_mb) + 64
    subprocess.run([sys.executable, "-c", f"b = b'x' * ({child_mb} << 20)"], check=True)
    assert workloads.peak_rss_mb() >= child_mb > own_mb


def test_benchmark_json_names_what_the_workload_process_reports(tmp_path):
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    rnd = workloads.run_round((workloads.CountOp(4),), cli.main, tmp_path, REF, meter())
    # run.py adds setup_s, timed outside the workload process
    reported = set(workloads.end_to_end([rnd])) | {"setup_s"}
    assert reported == {m["name"] for m in SPEC["end_to_end"]}


def test_rss_growth_is_that_of_the_process_that_grew_most():
    def span(sid, pid, rss0, rss1):
        return {"id": sid, "parent": None, "name": "arrangement.cluster", "pid": pid,
                "t0": 0.0, "t1": 1.0, "rss0": rss0, "rss1": rss1, "counts": {}, "error": None}

    # two pool workers: one grows 30 + 20 MB over two calls, the other 40 MB
    spans = [span("1:0", 1, 100.0, 130.0), span("1:1", 1, 130.0, 150.0),
             span("2:0", 2, 100.0, 140.0)]
    assert tracing.layer_metrics(spans)["arrangement.cluster_rss_mb"] == pytest.approx(50.0)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "hostspeed.py"):
        (copy / name).write_text((BENCH / name).read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "count-n39",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
