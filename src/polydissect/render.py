"""Deterministic SVG output for split arrangements.

Coordinates are emitted with fixed six-decimal formatting so that two
renders of the same input are byte-identical. The optional zoom window is
applied by analytic clipping, not by viewer-side cropping, which keeps
element counts testable. The renderer reads the fragments and the
graph's vertex and edge arrays directly; each vertex's canvas coordinates
are formatted once and shared by the tiles around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGraph
from .geom import segment_array
from .arrangement import SplitSegmentSet
from .planar import PlanarGraph, enumerate_faces, orbit_census
from .polygon import PolygonSpec

FULL_WINDOW = (-1.05, -1.05, 1.05, 1.05)


@dataclass(frozen=True)
class RenderOptions:
    scale: float = 400.0
    stroke_width: float = 1.0
    color_faces: bool = False
    zoom: tuple[float, float, float, float] | None = None
    label_orbits: bool = False

    def __post_init__(self) -> None:
        for name in ("scale", "stroke_width"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:  # false for NaN as well
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if self.zoom is not None:
            x0, y0, x1, y1 = self.zoom
            if not (all(map(math.isfinite, self.zoom)) and x0 < x1 and y0 < y1):
                raise ValueError(
                    f"zoom window {self.zoom!r} is not finite and ordered as x0,y0,x1,y1")
            nx = max(x0, min(0.0, x1))
            ny = max(y0, min(0.0, y1))
            if math.hypot(nx, ny) > 1.0:
                raise ValueError(f"zoom window {self.zoom!r} does not intersect the unit disk")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _clip_lines(frags: np.ndarray, win) -> np.ndarray:
    """Liang-Barsky clip of every (x0, y0, x1, y1) row; rows that miss the window are dropped."""
    x0, y0, x1, y1 = frags.T
    dx, dy = x1 - x0, y1 - y0
    wx0, wy0, wx1, wy1 = win
    p = np.stack((-dx, dx, -dy, dy))
    q = np.stack((x0 - wx0, wx1 - x0, y0 - wy0, wy1 - y0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = q / p
    t0 = np.where(p < 0.0, r, 0.0).max(axis=0)
    t1 = np.where(p > 0.0, r, 1.0).min(axis=0)
    keep = (t0 <= t1) & ~np.any((p == 0.0) & (q < 0.0), axis=0)
    x0, y0, dx, dy, t0, t1 = (a[keep] for a in (x0, y0, dx, dy, t0, t1))
    return np.column_stack((x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy))


def _clip_polygon(pts, win):
    """Sutherland-Hodgman clip of a polygon against the window."""
    wx0, wy0, wx1, wy1 = win

    def one_side(poly, axis, bound, keep_greater):
        out = []
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            va = ax if axis == 0 else ay
            vb = bx if axis == 0 else by
            ina = va >= bound if keep_greater else va <= bound
            inb = vb >= bound if keep_greater else vb <= bound
            if ina:
                out.append((ax, ay))
            if ina != inb:
                t = (bound - va) / (vb - va)
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        return out

    poly = list(pts)
    for axis, bound, keep in ((0, wx0, True), (0, wx1, False), (1, wy0, True), (1, wy1, False)):
        if not poly:
            return []
        poly = one_side(poly, axis, bound, keep)
    return poly


def _orbit_fill(orbit: int, total: int) -> str:
    hue = (orbit * 360) // max(1, total)
    return f"hsl({hue},70%,55%)"


def _tiles(graph: PlanarGraph, opts: RenderOptions, win, to_canvas):
    """The <polygon> elements of the inner faces (with color_faces) and the
    (x, y, orbit) of each face centroid inside the window (with label_orbits).

    Reads the face arrays, all faces at once, and n from the outer face's
    2n sides. A function of its own so that the face arrays are freed
    before the lines are formatted and the document is joined, which
    lowers the peak memory of a large render.
    """
    faces = enumerate_faces(graph)
    start = faces.start
    outer = int(np.argmin(faces.signed_area))
    census = orbit_census(faces, PolygonSpec(int(np.diff(start)[outer]) // 2))
    orbit = census.face_orbits
    inner = np.flatnonzero(orbit >= 0)
    polygons: list[str] = []
    if opts.color_faces:
        total = len(census.orbit_sizes)
        fills = [_orbit_fill(k, total) for k in range(total)]
        ring = graph.edges.reshape(-1)[faces.cycle]
        bounds = zip(start[inner].tolist(), start[inner + 1].tolist(), orbit[inner].tolist())
        if opts.zoom is None:
            px, py = to_canvas(graph.vertices[:, 0], graph.vertices[:, 1])
            point = np.array(list(map("{:.6f},{:.6f}".format, px.tolist(), py.tolist())),
                             dtype=object)[ring].tolist()
            for lo, hi, k in bounds:
                polygons.append(f'<polygon points="{" ".join(point[lo:hi])}" fill="{fills[k]}"/>')
        else:
            xy = graph.vertices[ring].tolist()
            for lo, hi, k in bounds:
                pts = _clip_polygon(xy[lo:hi], win)
                if len(pts) < 3:
                    continue
                coords = " ".join(
                    f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in (to_canvas(x, y) for x, y in pts))
                polygons.append(f'<polygon points="{coords}" fill="{fills[k]}"/>')
    labels = []
    if opts.label_orbits:
        wx0, wy0, wx1, wy1 = win
        x, y = faces.centroid[inner].T
        seen = (wx0 <= x) & (x <= wx1) & (wy0 <= y) & (y <= wy1)
        labels = list(zip(x[seen].tolist(), y[seen].tolist(), orbit[inner][seen].tolist()))
    return polygons, labels


_LINE = '<line x1="{:.6f}" y1="{:.6f}" x2="{:.6f}" y2="{:.6f}"/>'.format


def render_svg(
    split: SplitSegmentSet,
    graph: PlanarGraph | None = None,
    opts: RenderOptions | None = None,
) -> str:
    """Render the arrangement as an SVG 1.1 document.

    ``split`` is a Segment list or an (E, 4) fragment array. One <line>
    element per (possibly clipped) split segment; with color_faces one
    <polygon> per inner face, filled by rotation orbit; with label_orbits
    one <text> with the orbit id at each face centroid. Both face options
    require the graph.
    """
    opts = opts or RenderOptions()
    if (opts.color_faces or opts.label_orbits) and graph is None:
        raise MissingGraph("color_faces/label_orbits need the planar graph")

    win = opts.zoom if opts.zoom is not None else FULL_WINDOW
    wx0, wy0, wx1, wy1 = win
    width = (wx1 - wx0) * opts.scale
    height = (wy1 - wy0) * opts.scale

    def to_canvas(x, y):
        """Canvas position of plane coordinates, floats or arrays."""
        return (x - wx0) * opts.scale, (wy1 - y) * opts.scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    labels = []
    if opts.color_faces or opts.label_orbits:
        polygons, labels = _tiles(graph, opts, win, to_canvas)
        if opts.color_faces:
            parts.append('<g stroke="none">')
            parts.extend(polygons)
            parts.append("</g>")

    parts.append(f'<g fill="none" stroke="#000000" '
                 f'stroke-width="{_fmt(opts.stroke_width)}" stroke-linecap="round">')
    frags = segment_array(split) if opts.zoom is None else _clip_lines(segment_array(split), win)
    ax, ay = to_canvas(frags[:, 0], frags[:, 1])
    bx, by = to_canvas(frags[:, 2], frags[:, 3])
    parts.extend(map(_LINE, ax.tolist(), ay.tolist(), bx.tolist(), by.tolist()))
    parts.append("</g>")

    if labels:
        size = 0.03 * opts.scale
        parts.append(f'<g font-family="sans-serif" font-size="{_fmt(size)}" '
                     f'text-anchor="middle" fill="#000000">')
        for x, y, k in labels:
            cx, cy = to_canvas(x, y)
            parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}">{k}</text>')
        parts.append("</g>")

    # the closing tag carries the final newline, so the document is joined once
    parts.append("</svg>\n")
    return "\n".join(parts)
