"""Spans around the package's public functions, recorded from outside it.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the module attributes through which the CLI path reaches each
layer (``cli.split_all_fast``, ``planar.cluster_endpoints``, ...) with
wrappers that record one span per call: name, parent span, start, end,
the process's RSS high-water mark before and after, counts read off the
arguments and result, and the exception type if the call raised.

Spans of forked pool workers (``verify --jobs``) cannot be appended to the
parent's list, so a worker appends each finished span as one JSON line to
``spill_dir/spans-<pid>.jsonl``; ``collect`` merges those files. Span ids
are ``"<pid>:<serial>"``, and a forked worker inherits the open span stack,
so its spans nest under the parent's ``cli.verify`` span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import time
from pathlib import Path


def maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """RSS high-water mark of this process (or of its waited-for children) in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _segments(args, kwargs, result) -> dict:
    return {"segments": len(result)}


def _split(args, kwargs, result) -> dict:
    m = len(args[0])
    return {"segments_in": m, "pairs": m * (m - 1) // 2, "edges": len(result)}


def _cluster(args, kwargs, result) -> dict:
    labels, centroids = result
    return {"endpoints": len(labels), "vertices": len(centroids)}


def _faces(args, kwargs, result) -> dict:
    return {"faces": sum(1 for f in result if not f.is_outer)}


def _census(args, kwargs, result) -> dict:
    return {"orbits": len(result.orbit_sizes)}


def _svg(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode())}


def _verify(args, kwargs, result) -> dict:
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
    return {"row_s_sum": sum(r.elapsed for r in result.rows), "jobs": jobs}


# (module, attribute, span name, counts read off the call). Each name is
# patched in the module that looks it up at call time, which is the module
# that imported it: cli calls render_svg through cli.render_svg, render
# calls orbit_census through render.orbit_census, and so on.
PATCHES = (
    ("polydissect.cli", "main", "cli.main", None),
    ("polydissect.cli", "verify", "cli.verify", _verify),
    ("polydissect.cli", "counts", "arrangement.counts", None),
    ("polydissect.cli", "base_segments", "polygon.base_segments", _segments),
    ("polydissect.cli", "split_all_fast", "arrangement.split", _split),
    ("polydissect.cli", "count_vertices", "arrangement.count_vertices", None),
    ("polydissect.cli", "build_graph", "planar.build_graph", None),
    ("polydissect.cli", "render_svg", "render.svg", _svg),
    ("polydissect.arrangement", "base_segments", "polygon.base_segments", _segments),
    ("polydissect.arrangement", "split_all_fast", "arrangement.split", _split),
    ("polydissect.arrangement", "cluster_endpoints", "arrangement.cluster", _cluster),
    ("polydissect.planar", "cluster_endpoints", "arrangement.cluster", _cluster),
    ("polydissect.render", "enumerate_faces", "planar.faces", _faces),
    ("polydissect.render", "orbit_census", "planar.census", _census),
)

class Tracer:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._serial = 0

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span, measure in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def wrap(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)
        return traced

    def call(self, name, fn, args, kwargs, measure=None):
        pid = os.getpid()
        span = {"id": f"{pid}:{self._serial}", "parent": self._stack[-1] if self._stack else None,
                "name": name, "pid": pid, "counts": {}, "error": None}
        self._serial += 1
        self._stack.append(span["id"])
        span["rss0"] = maxrss_mb()
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        else:
            if measure is not None:
                span["counts"] = measure(args, kwargs, result)
            return result
        finally:
            span["t1"] = time.perf_counter()
            span["rss1"] = maxrss_mb()
            self._stack.pop()
            self._record(span)

    def _record(self, span: dict) -> None:
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        with open(self.spill_dir / f"spans-{span['pid']}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """All spans recorded so far, from this process and its workers; then reset."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children of one span may overlap when they run in parallel workers, so
    the covered part is the length of the union of their intervals.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - _covered(children.get(s["id"], []), s["t0"], s["t1"])
            for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced round, all but the trace.* ones."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in group(name))

    def wall(name):
        return sum(s["t1"] - s["t0"] for s in group(name))

    def self_s(name):
        return sum(selfs[s["id"]] for s in group(name))

    def rss_growth(name):
        # Each process has its own high-water mark: sum the growth per process
        # and report the process that grew most, which peak_rss_mb can bound.
        per_pid: dict[int, float] = {}
        for s in group(name):
            per_pid[s["pid"]] = per_pid.get(s["pid"], 0.0) + s["rss1"] - s["rss0"]
        return max(per_pid.values(), default=0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = total("arrangement.split", "pairs")
    edges = total("arrangement.split", "edges")
    row_s = total("cli.verify", "row_s_sum")
    pool_s = sum((s["t1"] - s["t0"]) * s["counts"].get("jobs", 1) for s in group("cli.verify"))
    return {
        "polygon.base_segments_s": wall("polygon.base_segments"),
        "polygon.segments": total("polygon.base_segments", "segments"),
        "arrangement.split_s": wall("arrangement.split"),
        "arrangement.pairs": pairs,
        "arrangement.cut_yield": ratio(edges - total("arrangement.split", "segments_in"), pairs),
        "arrangement.cluster_s": wall("arrangement.cluster"),
        "arrangement.cluster_calls": len(group("arrangement.cluster")),
        "arrangement.endpoints_per_vertex": ratio(total("arrangement.cluster", "endpoints"),
                                                  total("arrangement.cluster", "vertices")),
        "arrangement.split_rss_mb": rss_growth("arrangement.split"),
        "arrangement.cluster_rss_mb": rss_growth("arrangement.cluster"),
        "arrangement.edges": edges,
        "arrangement.vertices": total("arrangement.cluster", "vertices"),
        "planar.build_graph_self_s": self_s("planar.build_graph"),
        "planar.faces_s": wall("planar.faces"),
        "planar.census_s": wall("planar.census"),
        "planar.faces": total("planar.faces", "faces"),
        "planar.orbits": total("planar.census", "orbits"),
        "planar.failed": sum(1 for s in spans if s["name"].startswith("planar.") and s["error"]),
        "render.svg_self_s": self_s("render.svg"),
        "render.svg_bytes": total("render.svg", "bytes"),
        "cli.main_self_s": self_s("cli.main"),
        "cli.row_s_sum": row_s,
        "cli.pool_idle_s": pool_s - row_s if pool_s else 0.0,
        "cli.pool_efficiency": ratio(row_s, pool_s),
    }
