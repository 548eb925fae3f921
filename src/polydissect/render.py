"""Deterministic SVG output for split arrangements.

Every number in the document is written by one vectorized kernel,
`_fixed6`, which gives the text of Python's correctly rounded ``'%.6f'``,
so two renders of the same input are byte-identical. Elements are built
as numpy byte-string arrays, a block at a time, and joined once. The
optional zoom window is applied by analytic clipping, not by viewer-side
cropping, which keeps element counts testable. The renderer reads the
fragments and the graph's vertex and edge arrays directly; each vertex's
canvas position is written once and shared by the tiles around it.
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

# lines, or faces, formatted per numpy pass
BLOCK = 1 << 14

# _fixed6 is exact below this magnitude, where |x|*1e6 and the half-units
# around it are floats
_EXACT = 2.0 ** 52 / 1e6
# the canvas keeps a factor two of headroom: a clipped point may land a few
# ulps outside the window
MAX_CANVAS = _EXACT / 2


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
        x0, y0, x1, y1 = self.zoom if self.zoom is not None else FULL_WINDOW
        largest = max((x1 - x0) * self.scale, (y1 - y0) * self.scale,
                      0.03 * self.scale, self.stroke_width)
        if not largest < MAX_CANVAS:
            raise ValueError(f"canvas size {largest!r} is beyond {MAX_CANVAS!r}, "
                             f"where six decimals are no longer written exactly")


def _fixed6(values) -> np.ndarray:
    """``'%.6f' % v`` of every value, as a bytes ('S') array of the same shape.

    p = |x|*1e6 rounds to the integer that the exact product rounds to,
    unless p is exactly halfway between two integers. Only there is the
    rounding error of p found, exactly, by Dekker's product: a true tie
    goes to even, otherwise the error decides. That is CPython's correctly
    rounded '%.6f'. The digits are cut by integer division into a uint8
    buffer, one column per character; a '-' goes where np.signbit is set,
    so -0.0 writes '-0.000000' as Python does. Exact for |x| < _EXACT only.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x).reshape(-1)
    if not a.size:
        return np.empty(x.shape, dtype="S1")
    if not a.max() < _EXACT:  # false for NaN as well
        raise ValueError(f"cannot write {a.max()!r} exactly with six decimals")
    p = a * 1e6
    r = np.rint(p)
    half = np.flatnonzero(np.abs(p - r) == 0.5)
    if half.size:
        ah, ph = a[half], p[half]
        # Dekker split of ah (constant 2**27 + 1); 1e6 has a 14-bit
        # significand, so err = ah*1e6 - ph exactly
        c = ah * 134217729.0
        hi = c - (c - ah)
        err = (hi * 1e6 - ph) + (ah - hi) * 1e6
        r[half] = np.where(err > 0.0, ph + 0.5, np.where(err < 0.0, ph - 0.5, r[half]))
    r = r.astype(np.int64)
    whole = r // 1_000_000
    frac = (r - whole * 1_000_000).astype(np.uint32)
    top = int(whole.max())
    whole = whole.astype(np.min_scalar_type(top))
    units = len(str(top))  # column of the units digit; column 0 is for a '-'
    cols = np.empty((a.size, units + 8), dtype=np.uint8)
    for j in range(units + 7, units + 1, -1):
        q = frac // 10
        cols[:, j] = frac - q * 10 + 48
        frac = q
    cols[:, units + 1] = ord(".")
    sign = np.where(np.signbit(x).reshape(-1), np.uint8(ord("-")), np.uint8(ord(" ")))
    right = True  # the column right of j shows a digit
    for j in range(units, -1, -1):
        shown = (whole > 0) | (j == units)
        q = whole // 10
        cols[:, j] = np.where(shown, (whole - q * 10 + 48).astype(np.uint8),
                              np.where(right, sign, np.uint8(ord(" "))))
        whole, right = q, shown
    return np.char.lstrip(cols.view(f"S{units + 8}")).reshape(x.shape)


def _rows(*parts) -> bytes:
    """Literals and equal-length bytes columns, side by side in one
    fixed-width byte array, row after row; the NUL padding is dropped."""
    parts = [np.asarray(p) for p in parts]
    (n,) = np.broadcast_shapes(*(p.shape for p in parts))
    row = np.zeros((n, sum(p.itemsize for p in parts)), dtype=np.uint8)
    at = 0
    for p in parts:
        row[:, at:at + p.itemsize] = p.reshape(-1, 1).view(np.uint8)
        at += p.itemsize
    return row[row != 0].tobytes()


def _clip_lines(frags: np.ndarray, win) -> np.ndarray:
    """Liang-Barsky clip of every (x0, y0, x1, y1) row; rows that miss the window are dropped.

    An end the window does not cut is returned as it came, bit for bit.
    """
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
    x0, y0, x1, y1, dx, dy, t0, t1 = (
        a[keep] for a in (x0, y0, x1, y1, dx, dy, t0, t1))
    head, tail = t0 == 0.0, t1 == 1.0
    return np.column_stack((np.where(head, x0, x0 + t0 * dx), np.where(head, y0, y0 + t0 * dy),
                            np.where(tail, x1, x0 + t1 * dx), np.where(tail, y1, y0 + t1 * dy)))


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


def _polygon_blocks(point, ring, start, tail) -> list[bytes]:
    """The <polygon> elements, BLOCK faces at a time: face i lists the
    points point[ring[start[i]:start[i + 1]]] and ends with tail[i]."""
    blocks = []
    for f in range(0, len(start) - 1, BLOCK):
        bounds = start[f:f + BLOCK + 1]
        lo, hi = bounds[0], bounds[-1]
        first = np.zeros(hi - lo, dtype=bool)
        first[bounds[:-1] - lo] = True
        sep = np.full(hi - lo, b" ", dtype=tail.dtype)
        sep[bounds[1:] - lo - 1] = tail[f:f + BLOCK]
        blocks.append(_rows(np.where(first, b'<polygon points="', b""), point[ring[lo:hi]], sep))
    return blocks


def _points(cx, cy):
    """The "x,y" text of each canvas point."""
    x, y = _fixed6(np.stack((cx, cy)))
    return np.char.add(np.char.add(x, b","), y)


def _tiles(graph: PlanarGraph, opts: RenderOptions, win, to_canvas):
    """The <polygon> elements of the inner faces (with color_faces) and the
    <text> orbit label at each face centroid inside the window (with
    label_orbits), as blocks of bytes.

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
    polygons: list[bytes] = []
    if opts.color_faces:
        total = len(census.orbit_sizes)
        hue = np.arange(total) * 360 // max(1, total)  # below 360: three digits
        fill = np.char.add(np.char.add(b'" fill="hsl(', hue.astype("S3")), b',70%,55%)"/>\n')
        ring = graph.edges.reshape(-1)[faces.cycle]
        if opts.zoom is None:
            size = np.diff(start)[inner]
            bounds = np.concatenate(([0], np.cumsum(size)))
            slots = np.repeat(start[inner] - bounds[:-1], size) + np.arange(bounds[-1])
            point = _points(*to_canvas(graph.vertices[:, 0], graph.vertices[:, 1]))
            polygons = _polygon_blocks(point, ring[slots], bounds, fill[orbit[inner]])
        else:
            # a face wholly beyond one side of the window clips to nothing
            wx0, wy0, wx1, wy1 = win
            xy = graph.vertices[ring]
            lo = np.minimum.reduceat(xy, start[:-1])
            hi = np.maximum.reduceat(xy, start[:-1])
            meets = (hi[:, 0] >= wx0) & (lo[:, 0] <= wx1) & (hi[:, 1] >= wy0) & (lo[:, 1] <= wy1)
            pts, size, kept = [], [0], []
            for f in np.flatnonzero(meets & (orbit >= 0)).tolist():
                clipped = _clip_polygon(xy[start[f]:start[f + 1]].tolist(), win)
                if len(clipped) >= 3:
                    pts += clipped
                    size.append(len(clipped))
                    kept.append(f)
            x, y = np.array(pts, dtype=np.float64).reshape(-1, 2).T
            point = _points(*to_canvas(x, y))
            polygons = _polygon_blocks(point, np.arange(len(point)), np.cumsum(size),
                                       fill[orbit[kept]])
    labels = b""
    if opts.label_orbits:
        wx0, wy0, wx1, wy1 = win
        x, y = faces.centroid[inner].T
        seen = (wx0 <= x) & (x <= wx1) & (wy0 <= y) & (y <= wy1)
        cx, cy = _fixed6(np.stack(to_canvas(x[seen], y[seen])))
        labels = _rows(b'<text x="', cx, b'" y="', cy, b'">', orbit[inner][seen].astype("S"),
                       b"</text>\n")
    return polygons, labels


def _line_blocks(frags: np.ndarray, to_canvas) -> list[bytes]:
    """One <line> element per (x0, y0, x1, y1) row, BLOCK rows at a time."""
    blocks = []
    for lo in range(0, len(frags), BLOCK):
        f = frags[lo:lo + BLOCK]
        ends = to_canvas(f[:, 0], f[:, 1]) + to_canvas(f[:, 2], f[:, 3])
        x1, y1, x2, y2 = _fixed6(np.stack(ends))
        blocks.append(_rows(b'<line x1="', x1, b'" y1="', y1, b'" x2="', x2, b'" y2="', y2,
                            b'"/>\n'))
    return blocks


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

    w, h, stroke, font = (v.decode() for v in _fixed6(
        [width, height, opts.stroke_width, 0.03 * opts.scale]).tolist())
    blocks = ['<?xml version="1.0" encoding="UTF-8"?>\n'
              f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'.encode()]

    labels = b""
    if opts.color_faces or opts.label_orbits:
        polygons, labels = _tiles(graph, opts, win, to_canvas)
        if opts.color_faces:
            blocks += [b'<g stroke="none">\n', *polygons, b"</g>\n"]

    blocks.append(f'<g fill="none" stroke="#000000" '
                  f'stroke-width="{stroke}" stroke-linecap="round">\n'.encode())
    frags = segment_array(split) if opts.zoom is None else _clip_lines(segment_array(split), win)
    blocks += _line_blocks(frags, to_canvas)
    blocks.append(b"</g>\n")

    if labels:
        blocks += [f'<g font-family="sans-serif" font-size="{font}" '
                   f'text-anchor="middle" fill="#000000">\n'.encode(), labels, b"</g>\n"]

    blocks.append(b"</svg>\n")
    document = b"".join(blocks)
    blocks.clear()  # free the blocks before the str copy is made
    return document.decode("ascii")
