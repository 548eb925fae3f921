"""Command-line front end: count, table, verify and render subcommands."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .arrangement import CountSummary, count_vertices, counts, split_all_fast
from .errors import GeometryError
from .planar import build_graph
from .polygon import PolygonSpec, base_segments
from .reference import reference_table
from .render import RenderOptions, render_svg

MAX_N = 64
REFERENCE_MAX_N = 39

# characters of the SVG document encoded and written per call
WRITE_SLICE = 1 << 22


@dataclass(frozen=True)
class VerifyRow:
    n: int
    computed: CountSummary
    reference: CountSummary
    match: bool
    elapsed: float


@dataclass(frozen=True)
class VerifyReport:
    rows: list[VerifyRow]
    all_match: bool


def _summary_dict(s: CountSummary) -> dict:
    return {"N": s.N, "n": s.n, "F": s.F, "E": s.E, "V": s.V,
            "per_ray": s.per_ray, "central": s.central}


def verify(max_n: int) -> VerifyReport:
    """Recompute n = 2..max_n (ValueError outside 2..39) and diff against the reference."""
    if not 2 <= max_n <= REFERENCE_MAX_N:
        raise ValueError(f"max_n must be in 2..{REFERENCE_MAX_N}, got {max_n!r}")
    reference = {r.n: r for r in reference_table()}
    rows = []
    for n in range(2, max_n + 1):
        start = time.perf_counter()
        summary = counts(PolygonSpec(n))
        elapsed = time.perf_counter() - start
        rows.append(VerifyRow(n=n, computed=summary, reference=reference[n],
                              match=summary == reference[n], elapsed=elapsed))
    return VerifyReport(rows=rows, all_match=all(r.match for r in rows))


def cmd_count(n: int, as_json: bool = False) -> int:
    summary = counts(PolygonSpec(n))
    if as_json:
        json.dump(_summary_dict(summary), sys.stdout)
        print()
    else:
        suffix = "" if n <= REFERENCE_MAX_N else " (unverified)"
        print(f"{summary.E} edges {summary.V} vertices {summary.F} tiles{suffix}")
        print(f"{summary.per_ray} tiles per ray, {summary.central} central")
    return 0


def cmd_verify(max_n: int) -> int:
    report = verify(max_n)
    for row in report.rows:
        status = "ok" if row.match else "MISMATCH"
        c = row.computed
        print(f"n={row.n:2d} N={2 * row.n:2d}  E={c.E:7d}  V={c.V:7d}  F={c.F:7d}"
              f"  {status}  ({row.elapsed:.2f}s)")
        if not row.match:
            r = row.reference
            print(f"    expected E={r.E} V={r.V} F={r.F}")
    if report.all_match:
        print(f"all {len(report.rows)} rows match the reference tables")
        return 0
    bad = sum(1 for r in report.rows if not r.match)
    print(f"{bad} of {len(report.rows)} rows MISMATCH")
    return 5


def cmd_table(max_n: int, fmt: str) -> int:
    summaries = [counts(PolygonSpec(n)) for n in range(2, max_n + 1)]
    if fmt == "csv":
        print("N,n,F,E,V,per_ray,central")
        for s in summaries:
            print(f"{s.N},{s.n},{s.F},{s.E},{s.V},{s.per_ray},{s.central}")
    elif fmt == "json":
        json.dump([_summary_dict(s) for s in summaries], sys.stdout, indent=2)
        print()
    else:
        print(f"{'N':>4} {'n':>4} {'F':>8} {'E':>8} {'V':>8} {'per_ray':>8} {'central':>8}")
        for s in summaries:
            print(f"{s.N:>4} {s.n:>4} {s.F:>8} {s.E:>8} {s.V:>8}"
                  f" {s.per_ray:>8} {s.central:>8}")
    return 0


def cmd_render(n: int, out_path: str, faces: bool, opts: RenderOptions) -> int:
    split = split_all_fast(base_segments(PolygonSpec(n)))
    graph = build_graph(split) if faces else None
    document = render_svg(split, graph, opts)
    try:
        # a slice at a time, so that the encoded copy of the document is a
        # few MB, not as large as the document
        with open(out_path, "w", encoding="utf-8") as fh:
            for at in range(0, len(document), WRITE_SLICE):
                fh.write(document[at:at + WRITE_SLICE])
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 4
    e = len(split)
    v = len(graph.vertices) if graph is not None else count_vertices(split)
    print(f"{e} edges {v} vertices {1 + e - v} tiles -> {out_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.

    ``parse_args`` returns a fresh namespace on every call, and ``error``
    writes to the ``sys.stderr`` of its call, so calls share nothing.
    """
    parser = argparse.ArgumentParser(
        prog="polydissect",
        description="Dissect the regular 2n-gon by its side-parallel diagonals "
                    "and count vertices, edges and tiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count V, E, F for one polygon")
    p_count.add_argument("--n", type=int, required=True, help="half the side count")
    p_count.add_argument("--json", action="store_true", dest="as_json",
                         help="emit a JSON object instead of text")

    p_table = sub.add_parser("table", help="tabulate counts for n = 2..max-n")
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--format", required=True, choices=("text", "csv", "json"))

    p_verify = sub.add_parser("verify", help="check counts against the reference tables")
    p_verify.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted for compatibility; rows are counted in one process")

    p_render = sub.add_parser("render", help="write an SVG figure of the dissection")
    p_render.add_argument("--n", type=int, required=True)
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--faces", action="store_true", help="fill tiles, one color per orbit")
    p_render.add_argument("--zoom", help="clip window as x0,y0,x1,y1 in unit-circle units")
    p_render.add_argument("--scale", type=float, default=400.0,
                          help="canvas units per unit-circle radius")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "count":
            if not 2 <= args.n <= MAX_N:
                parser.error(f"--n must be in 2..{MAX_N}")
            return cmd_count(args.n, as_json=args.as_json)
        if args.command == "table":
            if not 2 <= args.max_n <= REFERENCE_MAX_N:
                parser.error(f"--max-n must be in 2..{REFERENCE_MAX_N}")
            return cmd_table(args.max_n, args.format)
        if args.command == "verify":
            if not 2 <= args.max_n <= REFERENCE_MAX_N:
                parser.error(f"--max-n must be in 2..{REFERENCE_MAX_N}")
            if args.jobs < 1:
                parser.error("--jobs must be at least 1")
            return cmd_verify(args.max_n)
        if args.command == "render":
            if not 2 <= args.n <= MAX_N:
                parser.error(f"--n must be in 2..{MAX_N}")
            zoom = None
            if args.zoom:
                try:
                    parts = [float(v) for v in args.zoom.split(",")]
                except ValueError:
                    parts = []
                if len(parts) != 4:
                    parser.error("--zoom expects four numbers: x0,y0,x1,y1")
                zoom = tuple(parts)
            try:
                opts = RenderOptions(scale=args.scale, zoom=zoom)
            except ValueError as exc:
                parser.error(str(exc))
            return cmd_render(args.n, args.out, args.faces, opts)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
