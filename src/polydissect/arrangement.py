"""Segment splitting and Euler counting for the dissected polygon.

There are two routes from the base segments to the counts:

* ``counts`` (the orbit route) finds the base segments that meet one
  base segment per rotation orbit, merges the cut parameters along each
  representative, and weighs every point by its orbit size and by the
  number of segments through it. The reflection that swaps a
  representative's ends is a symmetry too, so only the cuts up to its
  axis are solved and merged, and each point below the axis stands for
  itself and its mirror. It never builds the full arrangement.
* ``split_all_fast`` (the full route) cuts every base segment at its
  pairwise intersections and reads the vertex of every fragment end off
  the same hits. Figures need it, and the tests use it as the oracle for
  ``counts``.

The two routes share no hit code, so the full route is an independent
oracle for the orbit route. ``split_all_fast``'s kernel, ``_hits``, solves
each pair of base segments once, in cache-sized blocks, and returns every
pair that meets from both sides: each side is one segment and the line
parameter on it, classified as interior or end within ``fuzz``; the other
segment is the partner side's, half the output away. Only the pairs whose
two parameters lie near [0, 1] are classified, and parallel pairs are
checked for collinear overlap (``_parallel_overlap``) and meet where their
ends touch. The full route keeps the interior hits, so each cut is found
once, on the segment it cuts.
``counts`` reads which chords meet off their corners (``_corner_hits``):
integers decide every hit and which of each mirror pair is kept, and the
float solve only places it. One kernel merges the cuts along a segment
for both routes: each segment's ends and cuts fill one padded row
(``_rows_along``), and the runs merge on the rows once they are sorted
(``_runs``). Only the row sort differs. ``counts`` needs the merged
values alone and sorts in place; the full route needs the point each hit
merged into, so it sorts by index and sends each run back (``_points_along``).

Vertices of the full route are exact: a hit (r, c) links the point of r
it merged into with the point of c that the other side of the pair,
(c, r), merged into, and a vertex is a clique of these links (Poonen and
Rubinstein: the segments through a point, not distances, define it); a
link between two vertices raises. No 2-D distance decides a vertex; ``close_pairs``
only guards that no two vertices come closer than 3*fuzz.

A segment is one x0, y0, x1, y1 row of a (k, 4) float array:
``base_segments`` feeds the pair kernel, and ``split_all_fast`` turns a
base array into a ``Split``: the fragment array, a vertex label and
a heading (the angular rank of its base direction) per fragment end, and
the (V, 2) vertex array. The graph stages take this ``Split`` and nothing
else, and ``cluster_endpoints`` hands out its vertices as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, NumericalDegeneracy, SymmetryViolation
from .polygon import PolygonSpec, base_corners, base_segments, orbit_representatives


@dataclass(frozen=True)
class CountSummary:
    """V and E of the 2n-gon; F = 1 + E - V inner faces make N*per_ray + central."""

    n: int
    V: int
    E: int

    @property
    def N(self) -> int:
        return 2 * self.n

    @property
    def F(self) -> int:
        return 1 + self.E - self.V

    @property
    def central(self) -> int:
        return 1 - self.n % 2

    @property
    def per_ray(self) -> int:
        return (self.F - self.central) // self.N


# All geometry lies in the closed unit disk, so one absolute distance, a float fuzz
# in (0, 1e-3), serves for point identity and for the pair kernel's parallelism test.
DEFAULT_FUZZ = 1e-10


def _check_fuzz(fuzz: float) -> None:
    """ValueError unless 0 < fuzz < 1e-3: every distance here lies within the unit disk."""
    if not (0.0 < fuzz < 1e-3):
        raise ValueError(f"fuzz must lie in (0, 1e-3), got {fuzz!r}")


def _check_rows(rows: np.ndarray, fuzz: float) -> None:
    """Refuse all but a (k, 4) array of finite rows longer than DEFAULT_FUZZ and fuzz.

    Raises ValueError for a fuzz outside (0, 1e-3) or an array of another
    shape, TypeError for anything but an ndarray of float64, float32 or
    float16 (an integer difference can wrap), and NumericalDegeneracy for
    a row that is too short or not finite.
    """
    _check_fuzz(fuzz)
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "f"
            and np.can_cast(rows.dtype, np.float64)):
        kind = f"dtype {rows.dtype}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise TypeError(f"segments must be a float64, float32 or float16 ndarray, not {kind}:"
                        f" pass an (m, 4) array of x0, y0, x1, y1 rows")
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"segments must be a (k, 4) array, got shape {rows.shape}")
    length = np.hypot(rows[:, 2] - rows[:, 0], rows[:, 3] - rows[:, 1])
    short = np.flatnonzero(~(np.isfinite(length) & (length > DEFAULT_FUZZ) & (length >= fuzz)))
    if len(short):
        ax, ay = rows[short[0], :2].tolist()
        raise NumericalDegeneracy(
            f"segment of length {length[short[0]]:.3e} near ({ax:.12g}, {ay:.12g})"
            f" is shorter than fuzz {fuzz:g} or degenerate")


def _parallel_overlap(sx0, sy0, sdx, sdy, slen, wx0, wy0, wx1, wy1, fuzz):
    """Where parallel pairs are collinear with overlapping extents; floats or arrays."""
    d0 = abs((wx0 - sx0) * sdy - (wy0 - sy0) * sdx) / slen
    d1 = abs((wx1 - sx0) * sdy - (wy1 - sy0) * sdx) / slen
    inv = 1.0 / (slen * slen)
    t0 = ((wx0 - sx0) * sdx + (wy0 - sy0) * sdy) * inv
    t1 = ((wx1 - sx0) * sdx + (wy1 - sy0) * sdy) * inv
    # min(max(t0, t1), 1) - max(min(t0, t1), 0) > fuzz, term by term
    return ((d0 <= fuzz) & (d1 <= fuzz) & (abs(t1 - t0) > fuzz)
            & ((t0 > fuzz) | (t1 > fuzz)) & ((1.0 - t0 > fuzz) | (1.0 - t1 > fuzz)))


# Classes of a line parameter, as _solve_pairs returns them.
_MISS, _END, _INTERIOR = 0, 1, 2

# pairs per _hits block, rows times the columns from the first row on:
# 0.5 MB per float64 temporary
_BLOCK_PAIRS = 1 << 16


def _segment_arrays(base: np.ndarray) -> tuple[np.ndarray, ...]:
    """Start x, start y, direction x, direction y and length per segment."""
    x0, y0, x1, y1 = base.T
    dx = x1 - x0
    dy = y1 - y0
    return x0, y0, dx, dy, np.hypot(dx, dy)


def _param_class(p: np.ndarray, fuzz: float) -> np.ndarray:
    """_INTERIOR strictly between the fuzz bands, _END within fuzz of 0 or 1, else _MISS."""
    interior = (p > fuzz) & (p < 1.0 - fuzz)
    end = (np.abs(p) < fuzz) | (np.abs(p - 1.0) < fuzz)
    return interior * np.int8(_INTERIOR) + end * np.int8(_END)


def _solve_pairs(arrays: tuple[np.ndarray, ...], rows: np.ndarray, cols: np.ndarray,
                 fuzz: float):
    """Intersect the segments ``rows`` with the segments ``cols``, vectorized.

    A pair meets when it is not parallel and neither ``t`` (on the row
    segment) nor ``u`` (on the column) is _MISS. Only the pairs with both in
    (-2*fuzz, 1 + 2*fuzz), a superset of those, are classified. A parallel
    pair meets only where an end of one lies within fuzz of an end of the
    other, as collinear pieces laid end to end do; there ``t`` and ``u`` are
    exactly 0 or 1, of class _END. Returns the flat index into the
    (len(rows), len(cols)) block, ``t`` with its class and ``u`` with its
    class of each pair that meets; a segment never meets itself. ``u`` of
    (r, c) is ``t`` of (c, r) bit for bit, so (r, c) meets exactly when
    (c, r) does: both the right-hand side and the determinant only change
    sign, and a zero, whose sign can differ, is solved again as (c, r).
    Raises ValueError when two distinct parallel segments overlap by the
    ``_parallel_overlap`` rule, in either order.
    """
    x0, y0, dx, dy, seglen = arrays
    rdx = dx[rows, None]
    rdy = dy[rows, None]
    cdx = dx[cols]
    cdy = dy[cols]
    det = rdy * cdx - rdx * cdy
    live = np.abs(det) >= fuzz * (seglen[rows, None] * seglen[cols])
    rhsx = x0[cols] - x0[rows, None]
    rhsy = y0[cols] - y0[rows, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cdx * rhsy - rhsx * cdy) / det
        u = (rdx * rhsy - rhsx * rdy) / det
        # u of (r, c) is t of (c, r) up to the sign of a zero: solve a zero as (c, r)
        z = np.flatnonzero(u == 0.0)
        r, c = rows[z // len(cols)], cols[z % len(cols)]
        u.flat[z] = ((dx[r] * (y0[r] - y0[c]) - (x0[r] - x0[c]) * dy[r])
                     / (dy[c] * dx[r] - dx[c] * dy[r]))
    # A parallel pair can overlap or touch only where one starts within
    # fuzz * (1 + |other|) of the other's line, since the two turn by less
    # than fuzz rad; d0 is the distance _parallel_overlap tests against
    # fuzz, and the bound keeps a factor 2 to spare. Either order's bound
    # makes the pair a candidate, and both orders are checked.
    k = np.flatnonzero(~live)
    r, c = rows[k // len(cols)], cols[k % len(cols)]

    def near_line(a, b):
        d0 = np.abs((x0[b] - x0[a]) * dy[a] - (y0[b] - y0[a]) * dx[a]) / seglen[a]
        return d0 <= 2.0 * fuzz * (1.0 + seglen[b])

    near = np.flatnonzero((r != c) & (near_line(r, c) | near_line(c, r)))
    if len(near):
        k, r, c = k[near], r[near], c[near]
        for a, b in ((r, c), (c, r)):
            if _parallel_overlap(x0[a], y0[a], dx[a], dy[a], seglen[a], x0[b], y0[b],
                                 x0[b] + dx[b], y0[b] + dy[b], fuzz).any():
                raise ValueError("collinear overlapping segments in the base set")
        # touch[i, j]: end i of r (0 the start, 1 the end) lies within fuzz of
        # end j of c, which gives t (end 1 of r touches) and u (end 1 of c)
        ends = ((x0, y0), (x0 + dx, y0 + dy))
        touch = np.array([[np.hypot(ex[r] - fx[c], ey[r] - fy[c]) <= fuzz
                           for fx, fy in ends] for ex, ey in ends])
        meet = touch.any(axis=(0, 1))
        k = k[meet]
        t.flat[k] = touch[1].any(axis=0)[meet]
        u.flat[k] = touch[:, 1].any(axis=0)[meet]
        live.flat[k] = True
    lo, hi = -2.0 * fuzz, 1.0 + 2.0 * fuzz
    k = np.flatnonzero(live & (t > lo) & (t < hi) & (u > lo) & (u < hi))
    t = t.reshape(-1)[k]
    u = u.reshape(-1)[k]
    t_cls = _param_class(t, fuzz)
    u_cls = _param_class(u, fuzz)
    meet = (t_cls != _MISS) & (u_cls != _MISS)
    return k[meet], t[meet], t_cls[meet], u[meet], u_cls[meet]


def _hits(arrays: tuple[np.ndarray, ...], fuzz: float):
    """Every pair of segments that meet, from both sides: the full route's pair kernel.

    Solves each unordered pair once with ``_solve_pairs``: the rows [lo, hi)
    against the columns [lo, m), in blocks of about ``_BLOCK_PAIRS`` pairs,
    keeping the pairs (r, c) with c > r. Returns the row, the parameter on
    the row and its class of every side of a pair whose two parameters are
    both not _MISS, in two halves of length H: first each pair (r, c) with
    ``t`` in row-major order, then each (c, r) with ``u`` in the same order.
    The partner of side i, the same pair seen from the other segment, is
    side i + H or i - H, so the column of side i is ``np.roll(row, H)[i]``.
    """
    m = len(arrays[0])
    pairs = []
    lo = 0
    while lo < m:
        hi = min(m, lo + max(1, _BLOCK_PAIRS // (m - lo)))
        cols = np.arange(lo, m)
        k, t, t_cls, u, u_cls = _solve_pairs(arrays, np.arange(lo, hi), cols, fuzz)
        r, c = np.divmod(k, len(cols))  # segments lo + r and lo + c
        keep = c > r
        pairs.append((lo + r[keep], lo + c[keep], t[keep], t_cls[keep], u[keep], u_cls[keep]))
        lo = hi
    row, col, t, t_cls, u, u_cls = (np.concatenate(a) for a in zip(*pairs))
    return np.concatenate((row, col)), np.concatenate((t, u)), np.concatenate((t_cls, u_cls))


# the padding of the merge grid's rows: finite, so that padding minus padding is 0, not NaN
_PAD = np.finfo(np.float64).max


def _rows_along(owner: np.ndarray, ts: np.ndarray, k: int):
    """The merge grid of k segments: each one's ends 0 and 1, then its hits, in one row.

    The hits must come grouped by ``owner`` in increasing order. Returns the (k,
    most hits + 3) float array, each row padded with at least one largest float,
    and each row's length.
    """
    length = np.bincount(owner, minlength=k) + 2
    grid = np.full((k, int(length.max(initial=2)) + 1), _PAD)
    grid[:, 0] = 0.0
    grid[:, 1] = 1.0
    grid[:, 2:][np.arange(2, grid.shape[1]) < length[:, None]] = ts  # each row's hits, in order
    return grid, length


def _runs(grid: np.ndarray, length: np.ndarray, fuzz: float):
    """Merge the runs of a grid sorted along its rows: the one merge rule of every route.

    Row r holds ``length[r]`` values, then padding. A row's first run holds
    the values less than ``fuzz`` above its first value, and every later run
    goes on while consecutive values are closer than ``fuzz``. A first run
    keeps its first value and a later run its last, so the rule is not
    mirror-symmetric: merging 1 - t instead of t can keep the other end of
    a run wider than ``fuzz``, and with a fuzz too coarse for the margins
    the orbit route's folded merge and an unfolded one can refuse it with
    different errors. Returns the mask of the cells that open a run, and
    the row, kept value and size of every run, in row-major order.
    """
    # a run opens at column 0, and past it where a step is >= fuzz or the
    # first run ends (a step >= fuzz is never inside the first run)
    first = grid - grid[:, :1] < fuzz
    opens = np.empty_like(first)
    opens[:, 0] = True
    np.greater_equal(grid[:, 1:] - grid[:, :-1], fuzz, out=opens[:, 1:])
    opens[:, 1:] |= first[:, :-1] > first[:, 1:]
    opens[np.arange(len(grid)), length] = False  # padding opens a run only there
    at = np.flatnonzero(opens)
    row, col = np.divmod(at, grid.shape[1])
    # a run stops where the next opens, or at its row's length before column 0
    stop = np.concatenate((col[1:], [0]))
    stop[stop == 0] = length
    sizes = stop - col
    return opens, row, grid.reshape(-1)[at + (sizes - 1) * (col != 0)], sizes


def _points_along(owner: np.ndarray, ts: np.ndarray, k: int, fuzz: float):
    """The points along k segments, from the hit parameters ``ts`` on segment ``owner``.

    A point is one run of ``_runs`` on its segment's row of ``_rows_along``.
    The hits may come in any order: a stable argsort of the owner, cast to
    the smallest unsigned type that holds k - 1 (uint16 for every size the
    CLI accepts, which numpy sorts by radix), groups them, and an argsort
    sorts each row. Returns the owner, parameter and run size of every
    point, by owner and then along it, the point each hit merged into, and
    the (k, 2) points of each segment's ends 0 and 1: the run of each
    sorted cell, sent back through the row order.
    """
    by_owner = np.argsort(owner.astype(np.min_scalar_type(k - 1)), kind="stable")
    grid, length = _rows_along(owner[by_owner], ts[by_owner], k)
    order = np.argsort(grid, axis=1)
    grid = np.take_along_axis(grid, order, axis=1)
    opens, row, along, sizes = _runs(grid, length, fuzz)
    ids = np.cumsum(opens).reshape(grid.shape)
    run = np.empty_like(ids)
    np.put_along_axis(run, order, np.subtract(ids, 1, out=ids), axis=1)
    point = np.empty(len(owner), dtype=np.int64)
    point[by_owner] = run[:, 2:][np.arange(2, grid.shape[1]) < length[:, None]]
    return row, along, sizes, point, run[:, :2]


def _hit_points(base: np.ndarray, fuzz: float):
    """The points along the m base segments, and the links the hits make between them.

    A point is one merged run on one segment (``_points_along`` of the
    interior hits). Returns the owner and parameter of every point, by
    owner and then along it, and for each side (r, c) of a hit the point of
    r it merged into (for a hit at an end of r, the point at that end) with
    the point of c that the other side, (c, r), merged into; ``_hits``
    emits the two sides of a pair H apart.
    """
    row, t, t_cls = _hits(_segment_arrays(base), fuzz)
    cut = t_cls == _INTERIOR
    at_end = t > 0.5
    t = t[cut]
    del t_cls  # hit-sized arrays are dropped as soon as they are used
    owner, along, _, cut_point, ends = _points_along(row[cut], t, len(base), fuzz)
    del t
    point = ends.reshape(-1)[2 * row + at_end]
    point[cut] = cut_point
    del cut, at_end, cut_point, ends

    # the hits come in two halves, (r, c) and then (c, r) in the same order
    return owner, along, point, np.roll(point, len(point) // 2)


@dataclass(frozen=True, eq=False)
class Split:
    """The fragments of a split arrangement with the vertex of each fragment end.

    Fragment k runs from vertex ``labels[2k]`` to vertex ``labels[2k + 1]``;
    ``points`` holds each vertex's position, and ``heading`` the angular
    rank of the base direction that leaves each end (forward at p0, back at
    p1), a small integer. Its length is the number of fragments.
    """

    frags: np.ndarray    # (E, 4) x0, y0, x1, y1 rows
    labels: np.ndarray   # (2E,) vertex of each fragment end, p0 then p1
    points: np.ndarray   # (V, 2) vertex coordinates
    heading: np.ndarray  # (2E,) direction rank of the half-edge leaving each end

    def __len__(self) -> int:
        return len(self.frags)


def split_all_fast(base: np.ndarray, fuzz: float = DEFAULT_FUZZ) -> Split:
    """The ``Split`` of an (m, 4) base array, via pairwise base intersections.

    Every cut on a fragment corresponds to a cut on its base segment, so
    it suffices to solve all base-segment pairs (in blocks, vectorized)
    and split each base segment once at its accumulated parameters. The
    fragments come grouped by base segment, in base order, and ordered
    along each. The vertices are the cliques of the links ``_hit_points``
    reads off the hits: the segments through a point, not a distance,
    decide which points are one vertex. Vertices are numbered in the order
    of their first fragment end, and each is placed at the mean of its
    fragment ends. The 2m base directions, forward and back, are ranked by
    ``arctan2`` once; an end's heading is the rank of the one leaving it.

    The base rows are checked before the pair solve. Raises TypeError or
    ValueError for a base that is not an (m, 4) float array,
    NumericalDegeneracy for a base row or fragment shorter than fuzz or not
    finite, AmbiguousClustering for a hit that joins two vertices (after
    the fragment lengths are checked) or when two vertices come closer
    than 3*fuzz, and ValueError for collinear overlapping segments.
    """
    _check_rows(base, fuzz)
    if len(base) == 0:  # _hits needs at least one block to concatenate
        return Split(base, np.empty(0, dtype=np.int64), np.empty((0, 2)),
                     np.empty(0, dtype=np.uint8))
    owner, along, point, far = _hit_points(base, fuzz)
    # the segments through a vertex meet pairwise there, so one minimum over
    # the links gives every point the smallest point of its vertex
    root = np.arange(len(owner))
    np.minimum.at(root, point, far)
    bad = np.flatnonzero(root[point] != root[far])[:1]
    broken = owner[point[bad]].tolist() + owner[far[bad]].tolist()
    del point, far, bad

    x0, y0, x1, y1 = base[owner].T
    px = along * x1 + (1.0 - along) * x0
    py = along * y1 + (1.0 - along) * y0
    inner = np.flatnonzero(owner[1:] == owner[:-1])
    frags = np.column_stack((px[inner], py[inner], px[inner + 1], py[inner + 1]))
    dx, dy = base[:, 2] - base[:, 0], base[:, 3] - base[:, 1]
    angle = np.arctan2(np.column_stack((dy, -dy)), np.column_stack((dx, -dx))).reshape(-1)
    rank = np.empty(len(angle), dtype=np.min_scalar_type(len(angle) - 1))
    rank[np.argsort(angle)] = np.arange(len(angle))
    heading = rank.reshape(-1, 2)[owner[inner]].reshape(-1)  # forward at p0, back at p1
    del x0, y0, x1, y1, px, py, owner, along, dx, dy, angle, rank
    _check_rows(frags, fuzz)
    if broken:
        raise AmbiguousClustering(f"the hit of segments {broken[0]} and {broken[1]} joins"
                                  f" two vertices: their points are not one clique")
    # a root is the smallest point of its vertex, and points come in the
    # order of their first fragment end: number the roots in order
    vertex = (np.cumsum(root == np.arange(len(root))) - 1)[root]
    labels = np.column_stack((vertex[inner], vertex[inner + 1])).reshape(-1)
    del vertex, root, inner
    ends = frags.reshape(-1, 2)
    size = np.bincount(labels)
    points = np.column_stack((np.bincount(labels, weights=ends[:, 0]) / size,
                              np.bincount(labels, weights=ends[:, 1]) / size))
    _check_separation(points, fuzz)
    return Split(frags, labels, points, heading)


def close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair of points with |points[i] - points[j]| <= radius.

    ``points`` is a (k, 2) array of x, y. Each unordered pair comes back
    once, as (i, j) or (j, i), and no point is paired with itself. The
    points are bucketed into square cells of side ``radius``, or of side
    max|coordinate| / 2**30 where that is larger, so that each cell
    coordinate fits in 31 bits; a cell never smaller than ``radius`` keeps
    every close pair in neighbouring cells. The points are sorted once by
    the int64 cell key gx * 2**32 + gy, which sorts by gx and then by gy.
    So the points after a point in its own cell, with the cell above, form
    one run of the sorted keys that starts right after it, and the three
    cells of the next column form a second run; its other neighbour cells
    find it from their side (the half-neighbourhood self-join of Bentley,
    Stanat and Williams, 1977).
    """
    side = max(radius, float(np.abs(points).max(initial=0.0)) / 2**30)
    grid = np.floor(points / side).astype(np.int64)
    keys = (grid[:, 0] << 32) + grid[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    at = np.arange(len(keys))
    column = 1 << 32
    lo = np.concatenate((at + 1, np.searchsorted(keys, keys + (column - 1), "left")))
    hits = np.concatenate((np.searchsorted(keys, keys + 1, "right"),
                           np.searchsorted(keys, keys + (column + 1), "right"))) - lo
    # sorted position of each candidate: lo of its run plus its rank in the run
    j = order[np.arange(hits.sum()) + np.repeat(lo - (np.cumsum(hits) - hits), hits)]
    i = order[np.repeat(np.tile(at, 2), hits)]
    dx = points[i, 0] - points[j, 0]
    dy = points[i, 1] - points[j, 1]
    keep = dx * dx + dy * dy <= radius * radius
    return i[keep], j[keep]


def _check_separation(points: np.ndarray, fuzz: float) -> None:
    """AmbiguousClustering when two vertices are closer than 3*fuzz."""
    pitch = 3.0 * fuzz
    i, j = close_pairs(points, pitch)
    dx = points[i, 0] - points[j, 0]
    dy = points[i, 1] - points[j, 1]
    gap2 = dx * dx + dy * dy
    near = np.flatnonzero(gap2 < pitch * pitch)
    if len(near):
        k = near[0]
        raise AmbiguousClustering(
            f"vertices {i[k]} and {j[k]} are {math.sqrt(gap2[k]):.3e}"
            f" apart, closer than 3*fuzz = {pitch:g}")


def _check_split(split: object) -> None:
    """TypeError unless ``split`` is a ``Split``: the graph stages and render_svg read no other."""
    if not isinstance(split, Split):
        raise TypeError(f"the graph stages and render_svg take a Split, not"
                        f" {type(split).__name__}: pass the Split from split_all_fast")


def cluster_endpoints(split: Split) -> tuple[np.ndarray, np.ndarray]:
    """The vertex of each fragment end, and the (V, 2) vertex coordinates.

    Labels come p0 then p1 of each fragment. The ``Split`` from
    ``split_all_fast`` holds both, and they are returned as they are. This
    is the one door of ``count_vertices`` and ``planar.build_graph``:
    anything else raises TypeError.
    """
    _check_split(split)
    return split.labels, split.points


def count_vertices(split: Split) -> int:
    """Number of distinct vertices among the fragment endpoints."""
    _, points = cluster_endpoints(split)
    return len(points)


# A corner's code against a row with corners lo < hi, by its place and by
# whether it has the parity of lo ("same") or of hi ("other"). Every chord
# joins a same corner to an other one, and it is a canonical hit exactly when
# its two codes sum to at most _CANONICAL_SUM in uint8 (-2 wraps high):
#                 lo  lower  upper  outside  hi
#     same         0     -2      3        2   -
#     other        -      0      1        2   5
_CANONICAL_SUM = 2


def _corner_hits(corners: np.ndarray, arrays: tuple[np.ndarray, ...], rows: np.ndarray):
    """The canonical half of the chords that meet each chord in ``rows``, read off their corners.

    ``corners`` holds the two corner indices of every chord, as
    ``polygon.base_corners`` does: each joins an even corner to an odd one.
    ``arrays`` holds the chords' ``_segment_arrays``. Against a row with
    corners lo < hi, each corner is on the row, strictly inside the arc
    (lo, hi) or strictly outside it. A column meets the row exactly when its
    two corners are of different kinds: with one shared corner the two
    chords touch there, and with none they cross exactly when the corners
    interleave on the circle, one inside and one outside. The mirror
    sigma(j) = lo + hi - j swaps the row's ends and maps the chords onto
    themselves, and since lo + hi is odd it fixes no corner; it takes a hit
    at t to one at 1 - t. Of each pair {c, sigma(c)} only the canonical hit
    is kept: a crossing whose inside corner j lies below the axis,
    2*j <= lo + hi, or a touch at lo. No float decides a hit. Returns the
    row's index in ``rows``, the column and ``t`` on the row of each
    canonical pair, in row-major order; ``t`` comes from ``_solve_pairs``'
    expressions in the same order, so it is that kernel's value bit for bit
    (at a touch, 0 or 1 to within a few ulps).
    """
    lo, hi = np.sort(corners[rows], axis=1).T[:, :, None]
    x = np.arange(corners.max() + 1)
    other = 2 * ((x ^ lo) & 1)  # 2 where x has hi's parity
    code = np.where((lo < x) & (x < hi), np.where(2 * x <= lo + hi, other - 2, 3 - other),
                    2).astype(np.uint8)
    code[x == lo] = 0
    code[x == hi] = 5
    total = code.take(corners[:, 0], axis=1)
    total += code.take(corners[:, 1], axis=1)
    at, col = np.divmod(np.flatnonzero(total <= _CANONICAL_SUM), len(corners))
    x0, y0, dx, dy, _ = arrays
    r = rows[at]
    cdx, cdy = dx[col], dy[col]
    det = dy[r] * cdx - dx[r] * cdy
    rhsx = x0[col] - x0[r]
    rhsy = y0[col] - y0[r]
    return at, col, (cdx * rhsy - rhsx * cdy) / det


def _tally(spec: PolygonSpec, fuzz: float):
    """The points ``counts`` weighs: E, and per point its segments, weight and corner flag.

    Returns E, then for each merged point up to a representative's axis the
    number of base segments through it, its weight (orbit size times the
    points it stands for, 0 for an axis that is no point) and whether it is
    the representative's first point, both of its corners. The incidences
    c_k are the weights summed by segments. Raises as ``counts`` does for
    two points on one segment closer than fuzz or 3*fuzz.
    """
    x0, y0, x1, y1 = base_segments(spec).T
    dx, dy = x1 - x0, y1 - y0
    reps = np.array(orbit_representatives(spec))
    rows, orbit = reps[:, 0], reps[:, 1]
    rep, _, t = _corner_hits(base_corners(spec), (x0, y0, dx, dy, None), rows)  # reads no lengths
    seglen = np.hypot(dx[rows], dy[rows])

    # fold each cut to u = min(t, 1 - t) (exact for t >= 1/2) and merge 2u,
    # so that the first point is both ends of a representative and the last
    # its axis
    grid, length = _rows_along(rep, 2.0 * np.minimum(t, 1.0 - t), len(reps))
    grid.sort(axis=1)  # in place: the orbit route needs no point map
    _, owner, points, sizes = _runs(grid, length, 2.0 * fuzz)
    rim = np.ones(len(owner) + 1, dtype=bool)  # rim[i]: point i starts a representative
    np.not_equal(owner[1:], owner[:-1], out=rim[1:-1])  # and point i - 1 ends one
    first, axis = rim[:-1], rim[1:]
    cuts = sizes - first - axis  # the ends 0 and 1 that _rows_along adds are no cuts
    # an axis no cut merged into is no point: the gap before it spans the axis
    spans = axis & (cuts == 0)
    # twice each gap in length: (2u' - 2u) * length, and from u across an
    # axis with no point to its mirror 1 - u, (1 - 2u) * length doubled
    gaps = (points[1:] - points[:-1]) * seglen[owner[1:]]
    np.multiply(gaps, 2.0, out=gaps, where=spans[1:])
    gaps[rim[1:-1]] = math.inf
    j = int(np.argmin(gaps))
    gap, ta = float(gaps[j]) / 2.0, float(points[j]) / 2.0
    tb = 1.0 - ta if spans[j + 1] else float(points[j + 1]) / 2.0
    if gap < fuzz:
        raise NumericalDegeneracy(
            f"fragment between parameters {ta:.12g} and {tb:.12g} has length {gap:.3e},"
            f" shorter than fuzz {fuzz:g}")
    if gap < 3.0 * fuzz:
        raise AmbiguousClustering(
            f"points at parameters {ta:.12g} and {tb:.12g} of one segment are {gap:.3e}"
            f" apart, closer than 3*fuzz = {3.0 * fuzz:g}")

    # a point below the axis stands for itself and its mirror, and lies on
    # the representative and on its cuts; the axis point is one point, on
    # the representative, its cuts and their mirrors
    weight = orbit[owner] * (2 - axis - spans)
    e = int(weight.sum()) - len(x0)  # orbit * (points - 1), summed; the orbits sum to m
    return e, 1 + cuts * (1 + axis), weight, first


def counts(spec: PolygonSpec, fuzz: float = DEFAULT_FUZZ) -> CountSummary:
    """Count V, E and F for the dissected polygon from one segment per orbit.

    The chords that meet each orbit representative are read off the corner
    table (``_corner_hits``), with no tolerance: ``fuzz`` governs only the
    merge and the gap checks. The reflection that swaps a representative's
    ends maps the base set onto itself, so only the canonical half of its
    cuts is solved: each cut folds to u = min(t, 1 - t), and the folded
    values and the ends fill one padded row each, sorted in place, where
    the one merge kernel (``_runs``, on 2u with 2*fuzz) makes them the
    points up to the axis u = 1/2; no point map is built. A point below
    the axis stands for two points and lies on 1 + (cuts merged into it)
    base segments; a point at the axis is one point on 1 + 2*(cuts merged
    into it) segments, and without cuts it is no point. Rotation carries
    every count to the rest of the orbit: E is the sum of orbit * (points -
    1), and the incidences c_k, the sum of orbit over the points on k
    segments, give V as the sum of c_k / k (Poonen and Rubinstein's
    bookkeeping for concurrent diagonals).

    Raises ValueError for a fuzz outside (0, 1e-3), NumericalDegeneracy
    for a fragment shorter than fuzz, AmbiguousClustering for two distinct
    points on one segment closer than 3*fuzz or for incidences c_k that k
    does not divide, and SymmetryViolation unless N divides F - central.
    """
    _check_fuzz(fuzz)
    e, segments, weight, _ = _tally(spec, fuzz)
    incidences = np.bincount(segments, weights=weight)  # c_k at index k, exact in float64
    ks = np.flatnonzero(incidences)
    v = 0
    for k, c in zip(ks.tolist(), incidences[ks].astype(np.int64).tolist()):
        if c % k:
            raise AmbiguousClustering(
                f"points on {k} segments have {c} incidences, not a multiple of {k}:"
                f" one point was resolved differently on different segments")
        v += c // k

    summary = CountSummary(n=spec.n, V=v, E=e)
    if (summary.F - summary.central) % summary.N != 0:
        raise SymmetryViolation(f"face count {summary.F} minus central {summary.central}"
                                f" is not a multiple of N={summary.N}")
    return summary
