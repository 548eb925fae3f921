"""Deterministic SVG output for split arrangements.

Coordinates are emitted with fixed six-decimal formatting so that two
renders of the same input are byte-identical. The optional zoom window is
applied by analytic clipping, not by viewer-side cropping, which keeps
element counts testable. The renderer reads the fragments and the graph's
vertices as arrays; each vertex's canvas coordinates are formatted once
and shared by the tiles around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGraph
from .geom import DEFAULT_TOL, Tolerance, segment_array
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
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if self.stroke_width <= 0.0:
            raise ValueError(f"stroke_width must be positive, got {self.stroke_width!r}")
        if self.zoom is not None:
            x0, y0, x1, y1 = self.zoom
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"zoom window {self.zoom!r} is not ordered as x0,y0,x1,y1")
            nx = max(x0, min(0.0, x1))
            ny = max(y0, min(0.0, y1))
            if math.hypot(nx, ny) > 1.0:
                raise ValueError(f"zoom window {self.zoom!r} does not intersect the unit disk")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _clip_segment(x0, y0, x1, y1, win):
    """Liang-Barsky clip; None when the segment misses the window."""
    wx0, wy0, wx1, wy1 = win
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x0 - wx0), (dx, wx1 - x0), (-dy, y0 - wy0), (dy, wy1 - y0)):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                if r > t0:
                    t0 = r
            else:
                if r < t0:
                    return None
                if r < t1:
                    t1 = r
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


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


def _tiles(graph: PlanarGraph, opts: RenderOptions, tol: Tolerance, win, to_canvas):
    """The <polygon> elements of the inner faces (with color_faces) and the
    (x, y, orbit) of each face centroid inside the window (with label_orbits).

    A function of its own so that the face records are freed before the
    lines are formatted and the document is joined, which lowers the peak
    memory of a large render.
    """
    faces = enumerate_faces(graph)
    outer = next(f for f in faces if f.is_outer)
    census = orbit_census(faces, PolygonSpec(len(outer.boundary) // 2), tol)
    orbit = census.face_orbits
    inner = [i for i, f in enumerate(faces) if not f.is_outer]
    polygons: list[str] = []
    if opts.color_faces:
        total = len(census.orbit_sizes)
        fills = [_orbit_fill(k, total) for k in range(total)]
        arrays = graph.arrays()
        origin = arrays.origin.tolist()
        if opts.zoom is None:
            px, py = to_canvas(arrays.xy[:, 0], arrays.xy[:, 1])
            point = list(map("{:.6f},{:.6f}".format, px.tolist(), py.tolist()))
            for i in inner:
                coords = " ".join([point[origin[h]] for h in faces[i].boundary])
                polygons.append(f'<polygon points="{coords}" fill="{fills[orbit[i]]}"/>')
        else:
            xy = arrays.xy.tolist()
            for i in inner:
                pts = _clip_polygon([xy[origin[h]] for h in faces[i].boundary], win)
                if len(pts) < 3:
                    continue
                coords = " ".join(
                    f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in (to_canvas(x, y) for x, y in pts))
                polygons.append(f'<polygon points="{coords}" fill="{fills[orbit[i]]}"/>')
    labels = []
    if opts.label_orbits:
        wx0, wy0, wx1, wy1 = win
        for i in inner:
            x, y = faces[i].centroid
            if wx0 <= x <= wx1 and wy0 <= y <= wy1:
                labels.append((x, y, orbit[i]))
    return polygons, labels


_LINE = '<line x1="{:.6f}" y1="{:.6f}" x2="{:.6f}" y2="{:.6f}"/>'.format


def render_svg(
    split: SplitSegmentSet,
    graph: PlanarGraph | None = None,
    opts: RenderOptions | None = None,
    tol: Tolerance = DEFAULT_TOL,
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
        polygons, labels = _tiles(graph, opts, tol, win, to_canvas)
        if opts.color_faces:
            parts.append('<g stroke="none">')
            parts.extend(polygons)
            parts.append("</g>")

    parts.append(f'<g fill="none" stroke="#000000" '
                 f'stroke-width="{_fmt(opts.stroke_width)}" stroke-linecap="round">')
    frags = segment_array(split)
    if opts.zoom is not None:
        clipped = [c for c in (_clip_segment(*row, win) for row in frags.tolist())
                   if c is not None]
        frags = np.array(clipped, dtype=float).reshape(-1, 4)
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
