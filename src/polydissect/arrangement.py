"""Segment splitting and Euler counting for the dissected polygon.

There are three routes from the base segments to the counts:

* ``counts`` (the orbit route) intersects one base segment per rotation
  orbit with all base segments, merges the cut parameters along each
  representative, and weighs every point by its orbit size and by the
  number of segments through it. It never builds the full arrangement.
* ``split_all_fast`` (the full route) cuts every base segment at its
  pairwise intersections and reads the vertex of every fragment end off
  the same hits. Figures need it, and the tests use it as the oracle for
  ``counts``.
* ``split_all`` is the reference splitter: a working set is rescanned for
  every base segment, crossings cut both sides, endpoint touches cut only
  the touched side, and the incoming segment joins the set as its
  fragments. The tests use it as the oracle for ``split_all_fast``.

``split_all_fast`` and ``counts`` share one hit kernel, ``_hits``: it
solves some base segments against all of them in cache-sized blocks and
returns every pair that meets, with the other segment and the line
parameter on the first segment classified as interior or end within
``point_fuzzy``; only the pairs whose two parameters lie near [0, 1] are
classified, and parallel pairs are checked for collinear overlap as in
``split_all`` and meet where their ends touch. ``counts`` asks for the
representatives, ``split_all_fast`` for every segment and keeps the
interior hits; each cut is found once, on the segment it cuts, and
``geom.group_order`` sorts the cuts along each segment.

Vertices of the full route are exact: a hit (r, c) links the point of r
it merged into with the point of c that its partner (c, r) merged into,
and a vertex is a clique of these links (Poonen and Rubinstein: the
segments through a point, not distances, define it); a link between two
vertices raises. No 2-D distance decides a vertex; ``geom.close_pairs``
only guards that no two vertices come closer than 3*fuzz.

A segment is one x0, y0, x1, y1 row of a (k, 4) float array:
``base_segments`` feeds the pair kernel, ``split_all`` returns its
fragments as such an array, and ``split_all_fast`` turns a base array
into a ``geom.Split``: the fragment array, a vertex label and a heading
(the angular rank of its base direction) per fragment end, and the (V, 2)
vertex array. The graph stages take this ``Split`` and nothing else, and
``cluster_endpoints`` hands out its vertices as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, NumericalDegeneracy, SymmetryViolation
from .geom import (
    DEFAULT_FUZZ, DEFAULT_TOL, Split, Tolerance, close_pairs, group_order, merge_sorted_runs,
)
from .polygon import PolygonSpec, base_segments, orbit_representatives


@dataclass(frozen=True)
class CountSummary:
    """Vertex/edge/face counts plus the rotational decomposition of F."""

    n: int
    V: int
    E: int
    F: int
    per_ray: int
    central: int

    @property
    def N(self) -> int:
        return 2 * self.n


def _cut_tuple(wx0, wy0, wx1, wy1, u, fuzz):
    """Split a working-set entry at parameter u into its two fragments."""
    cx = u * wx1 + (1.0 - u) * wx0
    cy = u * wy1 + (1.0 - u) * wy0
    l0 = math.hypot(cx - wx0, cy - wy0)
    l1 = math.hypot(wx1 - cx, wy1 - cy)
    if l0 < fuzz or l1 < fuzz:
        raise NumericalDegeneracy(
            f"fragment shorter than fuzz {fuzz:g} near ({cx:.12g}, {cy:.12g})")
    return (wx0, wy0, cx, cy, l0), (cx, cy, wx1, wy1, l1)


def _split_tuple(x0, y0, x1, y1, params, fuzz):
    """Cut one segment (as coordinates) at merged interior parameters."""
    ts = np.sort(params + [0.0, 1.0])
    merged = ts[merge_sorted_runs(np.zeros(len(ts), dtype=np.int64), ts, fuzz)[0]]
    pts = [(t * x1 + (1.0 - t) * x0, t * y1 + (1.0 - t) * y0) for t in merged.tolist()]
    out = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        ln = math.hypot(bx - ax, by - ay)
        if ln < fuzz:
            raise NumericalDegeneracy(
                f"fragment shorter than fuzz {fuzz:g} near ({ax:.12g}, {ay:.12g})")
        out.append((ax, ay, bx, by, ln))
    return out


def _check_rows(rows: np.ndarray, fuzz: float) -> None:
    """Refuse all but a (k, 4) array of finite rows longer than DEFAULT_FUZZ and fuzz.

    Raises TypeError for anything but an ndarray, ValueError for an array of
    another shape, and NumericalDegeneracy for a row that is too short or
    not finite.
    """
    if not isinstance(rows, np.ndarray):
        raise TypeError(f"segments must be an ndarray, not {type(rows).__name__}:"
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


def split_all(base: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fragment every base segment at every crossing or touch.

    Working-set rescan: each base segment is intersected against all
    fragments accumulated so far. An interior-interior hit cuts both
    sides; a hit at a fragment endpoint cuts only the side whose interior
    was met. Raises ValueError for collinear overlapping base segments, and
    NumericalDegeneracy for a base row or fragment shorter than fuzz or not
    finite, and TypeError or ValueError for a base that is not an (m, 4)
    array. The fragments come back as an (E, 4) array.
    """
    fuzz = tol.point_fuzzy
    _check_rows(base, fuzz)
    working: list[tuple] = []
    for sx0, sy0, sx1, sy1 in base.tolist():
        sdx = sx1 - sx0
        sdy = sy1 - sy0
        slen = math.hypot(sdx, sdy)
        if not working:
            working.append((sx0, sy0, sx1, sy1, slen))
            continue

        cut_params: list[float] = []
        removed: set[int] = set()
        chaff: list[tuple] = []
        for idx, (wx0, wy0, wx1, wy1, wlen) in enumerate(working):
            a01 = wx0 - wx1
            a11 = wy0 - wy1
            det = sdx * a11 - a01 * sdy
            if abs(det) < fuzz * slen * wlen:
                if _parallel_overlap(sx0, sy0, sdx, sdy, slen, wx0, wy0, wx1, wy1, fuzz):
                    raise ValueError("collinear overlapping segments in the base set")
                continue
            rhs0 = wx0 - sx0
            rhs1 = wy0 - sy0
            t = (rhs0 * a11 - a01 * rhs1) / det
            u = (sdx * rhs1 - rhs0 * sdy) / det
            if fuzz < t < 1.0 - fuzz:
                if fuzz < u < 1.0 - fuzz:
                    # true crossing: cut the working entry now, the incoming later
                    cut_params.append(t)
                    chaff.extend(_cut_tuple(wx0, wy0, wx1, wy1, u, fuzz))
                    removed.add(idx)
                elif abs(u) < fuzz or abs(u - 1.0) < fuzz:
                    # fragment endpoint touches the incoming interior
                    cut_params.append(t)
            elif abs(t) < fuzz or abs(t - 1.0) < fuzz:
                if fuzz < u < 1.0 - fuzz:
                    # incoming endpoint touches the fragment interior
                    chaff.extend(_cut_tuple(wx0, wy0, wx1, wy1, u, fuzz))
                    removed.add(idx)

        if removed:
            working = [w for i, w in enumerate(working) if i not in removed]
        working.extend(chaff)
        if cut_params:
            working.extend(_split_tuple(sx0, sy0, sx1, sy1, cut_params, fuzz))
        else:
            working.append((sx0, sy0, sx1, sy1, slen))

    return np.array([w[:4] for w in working], dtype=float).reshape(-1, 4)


# Classes of a line parameter, as _solve_pairs returns them.
_MISS, _END, _INTERIOR = 0, 1, 2

_BLOCK_PAIRS = 1 << 16  # pairs per _hits block: 0.5 MB per float64 temporary


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


def _solve_pairs(arrays: tuple[np.ndarray, ...], rows: np.ndarray, fuzz: float):
    """Intersect the segments ``rows`` with every segment, vectorized.

    A pair meets when it is not parallel and neither ``t`` (on the row
    segment) nor ``u`` (on the column) is _MISS. Only the pairs with both in
    (-2*fuzz, 1 + 2*fuzz), a superset of those, are classified. A parallel
    pair meets only where an end of one lies within fuzz of an end of the
    other, as collinear pieces laid end to end do; there ``t`` is exactly 0
    or 1, of class _END. Returns the flat index into the (len(rows), m)
    block, ``t`` and the class of ``t`` of each pair that meets. Raises
    ValueError when two distinct parallel segments overlap by the
    ``_parallel_overlap`` rule.
    """
    x0, y0, dx, dy, seglen = arrays
    rdx = dx[rows, None]
    rdy = dy[rows, None]
    det = rdy * dx[None, :] - rdx * dy[None, :]
    live = np.abs(det) >= fuzz * (seglen[rows, None] * seglen[None, :])
    rhsx = x0[None, :] - x0[rows, None]
    rhsy = y0[None, :] - y0[rows, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx[None, :] * rhsy - rhsx * dy[None, :]) / det
        u = (rdx * rhsy - rhsx * rdy) / det
    # A parallel pair can overlap or touch only where c starts within
    # fuzz * (1 + |c|) of r's line, since c turns from r by less than fuzz
    # rad; d0 is the distance _parallel_overlap tests against fuzz, and the
    # bound keeps a factor 2 to spare.
    k = np.flatnonzero(~live)
    r, c = rows[k // len(x0)], k % len(x0)
    d0 = np.abs((x0[c] - x0[r]) * dy[r] - (y0[c] - y0[r]) * dx[r]) / seglen[r]
    near = np.flatnonzero((r != c) & (d0 <= 2.0 * fuzz * (1.0 + seglen[c])))
    if len(near):
        k, r, c = k[near], r[near], c[near]
        if _parallel_overlap(x0[r], y0[r], dx[r], dy[r], seglen[r], x0[c], y0[c],
                             x0[c] + dx[c], y0[c] + dy[c], fuzz).any():
            raise ValueError("collinear overlapping segments in the base set")
        # touch[i, j]: end i of r (0 the start, 1 the end) lies within fuzz of
        # end j of c; (c, r) measures each distance with the opposite sign
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
    t_cls = _param_class(t, fuzz)
    meet = (t_cls != _MISS) & (_param_class(u.reshape(-1)[k], fuzz) != _MISS)
    return k[meet], t[meet], t_cls[meet]


def _hits(arrays: tuple[np.ndarray, ...], rows: np.ndarray, fuzz: float):
    """Every pair of a segment in ``rows`` and any segment that meets it.

    Solves the rows against all m segments with ``_solve_pairs``, in blocks
    of about ``_BLOCK_PAIRS`` pairs. Returns, for each pair whose two
    parameters are both not _MISS, the row's index in ``rows``, the other
    segment (the column), ``t`` on the row segment and the class of ``t``,
    in row-major order. The other side of a pair needs no second
    extraction: ``u`` of (r, c) is ``t`` of (c, r) bit for bit, since both
    the right-hand side and the determinant only change sign, so over all
    rows (r, c) meets exactly when (c, r) does.
    """
    m = len(arrays[0])
    at, col, ts, classes = [], [], [], []
    block = max(1, _BLOCK_PAIRS // m)
    for lo in range(0, len(rows), block):
        k, t, t_cls = _solve_pairs(arrays, rows[lo:lo + block], fuzz)
        r, c = np.divmod(k, m)
        at.append(lo + r)
        col.append(c)
        ts.append(t)
        classes.append(t_cls)
    return tuple(np.concatenate(a) for a in (at, col, ts, classes))


def split_all_fast(base: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Split:
    """Same fragment multiset as split_all, via pairwise base intersections.

    Every cut on a fragment corresponds to a cut on its base segment, so
    it suffices to solve all base-segment pairs (in blocks, vectorized)
    and split each base segment once at its accumulated parameters. The
    fragments come grouped by base segment, in base order, and ordered
    along each. ``base`` is an (m, 4) array, and the result is a ``Split``:
    the (E, 4) fragments with the vertex and heading of each end (see
    ``_split``). The base rows take ``split_all``'s check before the pair
    solve. Raises NumericalDegeneracy for a base row or fragment shorter
    than fuzz or not finite, AmbiguousClustering for a hit that joins two
    vertices or when two vertices come closer than 3*fuzz, and ValueError
    for collinear overlapping segments.
    """
    _check_rows(base, tol.point_fuzzy)
    return _split(base, tol)


def _points_along(owner: np.ndarray, ts: np.ndarray, k: int, fuzz: float):
    """The points along k segments, from the hit parameters ``ts`` on segment ``owner``.

    Each segment's ends 0 and 1 join its hits, and the sorted parameters
    along each segment merge into runs (``merge_sorted_runs``): the values
    less than ``fuzz`` above the smallest become that smallest one, and each
    later run of values closer than ``fuzz`` apart becomes its last value.
    Returns the owner, parameter and run size of every point, by owner and
    then along it, and the point each hit merged into; these are values
    only, so the order ``group_order`` leaves among equal (owner, parameter)
    pairs cannot change them.
    """
    hits = len(owner)
    owner = np.concatenate((owner, np.arange(k), np.arange(k)))
    ts = np.concatenate((ts, np.zeros(k), np.ones(k)))
    order = group_order(owner, ts)
    keep, sizes = merge_sorted_runs(owner[order], ts[order], fuzz)
    point = np.empty(len(order), dtype=np.int64)
    point[order] = np.repeat(np.arange(len(keep)), sizes)
    return owner[order[keep]], ts[order[keep]], sizes, point[:hits]


def _hit_points(base: np.ndarray, fuzz: float):
    """The points along the m base segments, and the links the hits make between them.

    A point is one merged run on one segment (``_points_along`` of the
    interior hits). Returns the owner and parameter of every point, by
    owner and then along it, and for each hit (r, c) the point of r it
    merged into (for a hit at an end of r, the point at that end) with the
    point of c that its partner (c, r) merged into.
    """
    m = len(base)
    row, col, t, t_cls = _hits(_segment_arrays(base), np.arange(m), fuzz)
    cut = t_cls == _INTERIOR
    at_end = t > 0.5
    t = t[cut]
    del t_cls  # hit-sized arrays are dropped as soon as they are used
    owner, along, _, cut_point = _points_along(row[cut], t, m, fuzz)
    del t
    head = np.flatnonzero(np.diff(owner, prepend=-1))  # each segment's first point
    tail = np.append(head[1:], len(owner)) - 1
    point = np.where(at_end, tail[row], head[row])
    point[cut] = cut_point
    del cut, at_end, cut_point, head, tail

    # in row-major order, hit i is (row[i], col[i]); sorted stably by column
    # the hits come as (col, row), so the i-th of them is hit i's partner
    partner = np.argsort(col, kind="stable")
    if not (np.array_equal(row[partner], col) and np.array_equal(col[partner], row)):
        raise AmbiguousClustering("a pair of segments meets on one of its sides only")
    return owner, along, point, point[partner]


def _split(base: np.ndarray, tol: Tolerance) -> Split:
    """The ``Split`` of an (m, 4) base array.

    The vertices are the cliques of the links ``_hit_points`` reads off the
    hits: the segments through a point, not a distance, decide which points
    are one vertex. A link between two vertices raises AmbiguousClustering,
    after the fragment lengths are checked. Vertices are numbered in the order
    of their first fragment end, and each is placed at the mean of its
    fragment ends. The 2m base directions, forward and back, are ranked by
    ``arctan2`` once; an end's heading is the rank of the one leaving it.
    """
    if len(base) == 0:  # _hits divides its block size by m
        return Split(base, np.empty(0, dtype=np.int64), np.empty((0, 2)),
                     np.empty(0, dtype=np.uint8))
    fuzz = tol.point_fuzzy
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


def cluster_endpoints(split: Split) -> tuple[np.ndarray, np.ndarray]:
    """The vertex of each fragment end, and the (V, 2) vertex coordinates.

    Labels come p0 then p1 of each fragment. The ``Split`` from
    ``split_all_fast`` holds both, and they are returned as they are. This
    is the one door of ``count_vertices`` and ``planar.build_graph``:
    anything else raises TypeError.
    """
    if not isinstance(split, Split):
        raise TypeError(f"the graph stages take a Split, not {type(split).__name__}:"
                        f" pass the Split from split_all_fast")
    return split.labels, split.points


def count_vertices(split: Split) -> int:
    """Number of distinct vertices among the fragment endpoints."""
    _, points = cluster_endpoints(split)
    return len(points)


def counts(spec: PolygonSpec, tol: Tolerance = DEFAULT_TOL) -> CountSummary:
    """Count V, E and F for the dissected polygon from one segment per orbit.

    Each orbit representative is solved against all base segments. Its hit
    parameters and its ends 0 and 1 merge into the points on it, so it has
    points - 1 fragments, and each point lies on 1 + (hits merged into it)
    base segments. Rotation carries every count to the rest of the orbit:
    E is the sum of orbit * (points - 1), and the incidences c_k, the sum of
    orbit over the points on k segments, give V as the sum of c_k / k
    (Poonen and Rubinstein's bookkeeping for concurrent diagonals).

    F = 1 + E - V counts only the faces inside the polygon. Raises
    NumericalDegeneracy for a fragment shorter than fuzz, and
    AmbiguousClustering for two distinct points on one segment closer than
    3*fuzz or for incidences c_k that k does not divide. The face total must
    decompose as N*per_ray + central (central = 1 for even n); otherwise
    SymmetryViolation is raised.
    """
    fuzz = tol.point_fuzzy
    arrays = _segment_arrays(base_segments(spec))
    seglen = arrays[4]
    reps = np.array(orbit_representatives(spec))
    rows, orbit = reps[:, 0], reps[:, 1]
    rep, _, t, _ = _hits(arrays, rows, fuzz)

    owner, points, sizes, _ = _points_along(rep, t, len(reps), fuzz)
    same = owner[1:] == owner[:-1]

    gaps = np.where(same, np.diff(points) * seglen[rows[owner[1:]]], math.inf)
    j = int(np.argmin(gaps))
    gap, ta, tb = float(gaps[j]), float(points[j]), float(points[j + 1])
    e = int((orbit * (np.bincount(owner, minlength=len(reps)) - 1)).sum())
    # a point lies on the representative and on every hit merged into it;
    # the 0 and 1 added above (each representative's first and last point)
    # stand for the representative itself
    first = np.insert(~same, 0, True)
    last = np.append(~same, True)
    multiplicity = sizes + 1 - first - last
    incidences = np.zeros(len(seglen) + 1, dtype=np.int64)  # c_k at index k
    np.add.at(incidences, multiplicity, orbit[owner])

    if gap < fuzz:
        raise NumericalDegeneracy(
            f"fragment between parameters {ta:.12g} and {tb:.12g} has length {gap:.3e},"
            f" shorter than fuzz {fuzz:g}")
    if gap < 3.0 * fuzz:
        raise AmbiguousClustering(
            f"points at parameters {ta:.12g} and {tb:.12g} of one segment are {gap:.3e}"
            f" apart, closer than 3*fuzz = {3.0 * fuzz:g}")
    ks = np.flatnonzero(incidences)
    for k, c in zip(ks.tolist(), incidences[ks].tolist()):
        if c % k:
            raise AmbiguousClustering(
                f"points on {k} segments have {c} incidences, not a multiple of {k}:"
                f" one point was resolved differently on different segments")
    v = int((incidences[ks] // ks).sum())

    f = 1 + e - v
    central = 1 if spec.n % 2 == 0 else 0
    if (f - central) % spec.N != 0:
        raise SymmetryViolation(
            f"face count {f} minus central {central} is not a multiple of N={spec.N}")
    return CountSummary(n=spec.n, V=v, E=e, F=f,
                        per_ray=(f - central) // spec.N, central=central)
