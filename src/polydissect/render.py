"""Deterministic SVG output for split arrangements.

Every number in the document is written by one vectorized kernel,
`_fixed6`, which gives the text of Python's correctly rounded ``'%.6f'``,
so two renders of the same input are byte-identical. Each number is
written once: a line's end shares the text of the next line's start when
the two points are the same floats, and a tile corner's text is shared by
the tiles around it. Lines are laid out as rows of a fixed-width byte
array, a block at a time; tiles are taken, a block at a time, from one
table per render of "x,y " point rows and fill-and-head rows. The NUL
padding is dropped from each block, which is read into a str, and the
blocks are joined once. The optional zoom window is applied by analytic
clipping, not by viewer-side cropping, which keeps element counts testable. The
renderer reads the split's fragments and the graph's vertex and edge
arrays directly. Tiles take one path, zoomed or not: all face rings are
clipped at once, and a vertex that no side cuts keeps its index, so its
canvas position is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Split
from .planar import PlanarGraph, _ring_next, enumerate_faces, orbit_census

FULL_WINDOW = (-1.05, -1.05, 1.05, 1.05)

# lines, or polygon ring slots (about four a face), formatted per numpy pass
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
    zoom: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:  # false for NaN as well
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
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
        largest = max((x1 - x0) * self.scale, (y1 - y0) * self.scale)
        if not largest < MAX_CANVAS:
            raise ValueError(f"canvas size {largest!r} is beyond {MAX_CANVAS!r}, "
                             f"where six decimals are no longer written exactly")


def _fixed6(values) -> np.ndarray:
    """``'%.6f' % v`` of every value, as a bytes ('S') array of the same shape.

    The texts are right-aligned in one width: NUL bytes pad the shorter ones
    on the left, and the writers drop them.

    p = |x|*1e6 rounds to the integer that the exact product rounds to,
    unless p is exactly halfway between two integers; those rare values
    are settled by Python's own correctly rounded '%.6f'. The digits are
    cut by integer division into a uint8 buffer, one column per character;
    a '-' goes where np.signbit is set, so -0.0 writes '-0.000000' as
    Python does. Exact for |x| < _EXACT only.
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
    r[half] = [float(("%.6f" % v).replace(".", "")) for v in a[half].tolist()]
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
    sign = np.where(np.signbit(x).reshape(-1), np.uint8(ord("-")), np.uint8(0))
    right = True  # the column right of j shows a digit
    for j in range(units, -1, -1):
        shown = (whole > 0) | (j == units)
        q = whole // 10
        cols[:, j] = np.where(shown, (whole - q * 10 + 48).astype(np.uint8),
                              np.where(right, sign, np.uint8(0)))
        whole, right = q, shown
    return cols.view(f"S{units + 8}").reshape(x.shape)


def _column(rows: np.ndarray, at: int, col: np.ndarray) -> None:
    """Copy the bytes column ``col`` into ``rows[:, at:at + col.itemsize]``,
    one item per row, through a ``V{itemsize}`` view of the row bytes."""
    void = f"V{col.itemsize}"
    rows[:, at:at + col.itemsize].view(void)[:, 0] = col.reshape(-1).view(void)


def _rows(*parts) -> str:
    """Literals and equal-length bytes columns, side by side in one
    fixed-width byte array, row after row; the NUL padding is dropped, and
    the ASCII bytes left are read into a str without a bytes copy.

    Every row starts as a copy of one template row that holds the literals;
    the columns are copied in over it.
    """
    parts = [np.asarray(p) for p in parts]
    (n,) = np.broadcast_shapes(*(p.shape for p in parts))
    template = b"".join(p.tobytes() if p.ndim == 0 else bytes(p.itemsize) for p in parts)
    row = np.empty((n, len(template)), dtype=np.uint8)
    row[:] = np.frombuffer(template, dtype=np.uint8)
    at = 0
    for p in parts:
        if p.ndim:
            _column(row, at, p)
        at += p.itemsize
    return str(row[row != 0].data, "ascii")


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


def _clip_rings(x, y, ring, start, win):
    """Sutherland-Hodgman clip of every ring against the window, all rings at once.

    Ring i lists the points ring[start[i]:start[i + 1]] of the table (x, y).
    One pass per window side, skipped when every point is inside it. Each
    crossing is appended to the table, so a point that no side cuts keeps
    its index. Returns the clipped (x, y, ring, start); a ring wholly
    outside comes back empty.
    """
    wx0, wy0, wx1, wy1 = win
    for axis, bound, keep_greater in ((0, wx0, True), (0, wx1, False),
                                      (1, wy0, True), (1, wy1, False)):
        va = (x, y)[axis][ring]
        ina = va >= bound if keep_greater else va <= bound
        if ina.all():
            continue
        # each slot's edge a -> b runs to the next slot of its ring
        nxt = _ring_next(start)
        cut = ina != ina[nxt]
        # an edge emits a when a is inside, then the crossing when it cuts the side
        count = ina.astype(np.int64) + cut
        at = np.concatenate(([0], np.cumsum(count)))
        out = np.empty(at[-1], dtype=np.int64)
        out[at[:-1][ina]] = ring[ina]
        k = np.flatnonzero(cut)
        a, b = ring[k], ring[nxt[k]]
        t = (bound - va[k]) / (va[nxt[k]] - va[k])
        out[at[k] + ina[k]] = np.arange(len(x), len(x) + len(k))
        x = np.concatenate((x, x[a] + t * (x[b] - x[a])))
        y = np.concatenate((y, y[a] + t * (y[b] - y[a])))
        ring, start = out, at[start]
    return x, y, ring, start


def _polygon_blocks(px, py, ring, start, faces, orbit, fill) -> list[str]:
    """The <polygon> elements, BLOCK // 4 faces at a time: faces[i] lists the
    points (px, py)[ring[start[f]:start[f + 1]]], f = faces[i], as "x,y"
    text, and ends with fill[orbit[i]].

    Every element is taken from one table of rows R = 2 * px.itemsize + 2
    bytes wide: one row per point, "x,y" and a space; then, per orbit, k =
    ceil((fill.itemsize + 17) / R) rows holding its fill followed by the
    '<polygon points="' head of the next face; then k rows holding the head
    alone, for the first face. A face takes the k rows of the fill before
    it and its point rows, the separator after its last point cleared. The
    fill carried into a block is the last fill of the block before; the
    last face's fill follows the last block.
    """
    if not len(faces):
        return []
    w, r = px.itemsize, 2 * px.itemsize + 2
    gaps = np.append(np.char.add(fill, b'<polygon points="'), b'<polygon points="')
    k = -(-gaps.itemsize // r)
    table = np.zeros((len(px) + k * len(gaps), r), dtype=np.uint8)
    points = table[:len(px)]
    _column(points, 0, px)
    points[:, w] = ord(",")
    _column(points, w + 1, py)
    points[:, -1] = ord(" ")
    _column(table[len(px):].reshape(len(gaps), k * r), 0, gaps)
    table = table.reshape(-1).view(f"V{r}")
    blocks = []
    carry = len(fill)  # the head alone, before the first face
    for lo in range(0, len(faces), BLOCK // 4):
        f, o = faces[lo:lo + BLOCK // 4], orbit[lo:lo + BLOCK // 4]
        size = start[f + 1] - start[f] + k
        bounds = np.concatenate(([0], np.cumsum(size)))
        gap = bounds[:-1, None] + np.arange(k)
        slots = np.repeat(start[f] - bounds[:-1] - k, size) + np.arange(bounds[-1])
        slots[gap] = 0
        row = ring[slots]
        row[gap] = (len(px) + k * np.concatenate(([carry], o[:-1])))[:, None] + np.arange(k)
        text = table[row].view(np.uint8).reshape(-1, r)
        text[bounds[1:] - 1, -1] = 0
        blocks.append(str(text[text != 0].data, "ascii"))
        carry = o[-1]
    blocks.append(fill[carry].decode())
    return blocks


def _tiles(graph: PlanarGraph, win, to_canvas) -> list[str]:
    """The <polygon> elements of the inner faces, as blocks of text, each
    filled by its rotation orbit.

    Reads the face arrays, all faces at once; the census reads n from the
    outer face. Draws the inner faces left with three points or more after
    _clip_rings; each point's text is written once. A function of its own
    so that the face arrays are freed before the lines are formatted and
    the document is joined, which lowers the peak memory of a large render.
    """
    faces = enumerate_faces(graph)
    census = orbit_census(faces)
    orbit = census.face_orbits
    total = len(census.orbit_sizes)
    hue = np.arange(total) * 360 // max(1, total)  # below 360: three digits
    fill = np.char.add(np.char.add(b'" fill="hsl(', hue.astype("S3")), b',70%,55%)"/>\n')
    x, y, ring, start = _clip_rings(*graph.vertices.T, graph.edges.reshape(-1)[faces.cycle],
                                    faces.start, win)
    kept = np.flatnonzero((orbit >= 0) & (np.diff(start) >= 3))
    # clipped rings hold only points inside the window; write the text of those alone
    used = np.zeros(len(x), dtype=bool)
    used[ring] = True
    px, py = _fixed6(np.stack(to_canvas(x[used], y[used])))
    return _polygon_blocks(px, py, (np.cumsum(used) - 1)[ring], start, kept, orbit[kept], fill)


def _line_blocks(frags: np.ndarray, to_canvas) -> list[str]:
    """One <line> element per (x0, y0, x1, y1) row, BLOCK rows at a time.

    Along a base segment each fragment ends where the next one starts, bit
    for bit, so the text of that point is written once, for the start:
    (x1, y1) of row k takes the text of (x0, y0) of row k + 1 when their
    canvas floats are equal bit for bit, and its own text otherwise.
    """
    blocks = []
    for lo in range(0, len(frags), BLOCK):
        f = frags[lo:lo + BLOCK]
        x0, y0 = to_canvas(f[:, 0], f[:, 1])
        x1, y1 = to_canvas(f[:, 2], f[:, 3])
        own = np.ones(len(f), dtype=bool)
        own[:-1] = ((x1[:-1].view(np.int64) != x0[1:].view(np.int64))
                    | (y1[:-1].view(np.int64) != y0[1:].view(np.int64)))
        # text k is the start of row k; the ends of their own follow the starts
        end = np.arange(1, len(f) + 1)
        end[own] = len(f) + np.arange(np.count_nonzero(own))
        x, y = _fixed6(np.stack((np.concatenate((x0, x1[own])), np.concatenate((y0, y1[own])))))
        blocks.append(_rows(b'<line x1="', x[:len(f)], b'" y1="', y[:len(f)],
                            b'" x2="', x[end], b'" y2="', y[end], b'"/>\n'))
    return blocks


def render_svg(
    split: Split,
    graph: PlanarGraph | None = None,
    opts: RenderOptions | None = None,
) -> str:
    """Render the arrangement as an SVG 1.1 document.

    ``split`` is the ``Split`` from ``split_all_fast`` (anything else
    raises TypeError), and ``graph`` its ``build_graph``. One <line>
    element per (possibly clipped) fragment of ``split.frags``; given the
    graph, one <polygon> per inner face beneath the lines, filled by
    rotation orbit. A graph with another number of edges than the split
    raises ValueError.
    """
    if not isinstance(split, Split):
        raise TypeError(f"render_svg takes a Split, not {type(split).__name__}:"
                        f" pass the Split from split_all_fast")
    opts = opts or RenderOptions()
    if graph is not None and len(graph.edges) != len(split):
        raise ValueError(f"the graph has {len(graph.edges)} edges, the split {len(split)}")

    win = opts.zoom if opts.zoom is not None else FULL_WINDOW
    wx0, wy0, wx1, wy1 = win
    width = (wx1 - wx0) * opts.scale
    height = (wy1 - wy0) * opts.scale

    def to_canvas(x, y):
        """Canvas position of plane coordinates, floats or arrays."""
        return (x - wx0) * opts.scale, (wy1 - y) * opts.scale

    w, h = (v.lstrip(b"\0").decode() for v in _fixed6([width, height]).tolist())
    blocks = ['<?xml version="1.0" encoding="UTF-8"?>\n'
              f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n']

    if graph is not None:
        blocks += ['<g stroke="none">\n', *_tiles(graph, win, to_canvas), "</g>\n"]

    blocks.append('<g fill="none" stroke="#000000" '
                  'stroke-width="1.000000" stroke-linecap="round">\n')
    frags = split.frags if opts.zoom is None else _clip_lines(split.frags, win)
    blocks += _line_blocks(frags, to_canvas)
    blocks += ["</g>\n", "</svg>\n"]
    return "".join(blocks)
