"""Segment splitting and Euler counting for the dissected polygon.

There are three routes from the base segments to the counts:

* ``counts`` (the orbit route) intersects one base segment per rotation
  orbit with all base segments, merges the cut parameters along each
  representative, and weighs every point by its orbit size and by the
  number of segments through it. It never builds the full arrangement.
* ``split_all_fast`` + ``count_vertices`` (the full route) cuts every base
  segment at its pairwise intersections and clusters the fragment
  endpoints. Figures need it, and the tests use it as the oracle for
  ``counts``.
* ``split_all`` is the reference splitter: a working set is rescanned for
  every base segment, crossings cut both sides, endpoint touches cut only
  the touched side, and the incoming segment joins the set as its
  fragments. The tests use it as the oracle for ``split_all_fast``.

``split_all_fast`` and ``counts`` share one vectorized kernel that solves
base-segment pairs and classifies each line parameter as interior, end or
miss within ``point_fuzzy``.

Vertices of the full route are the connected components of the fragment
endpoints under the distance <= ``point_fuzzy`` relation, found with the
shared neighbour search ``geom.close_pairs``; the result is deterministic
and independent of segment order.

The stages pass (k, 4) float arrays of x0, y0, x1, y1 rows: ``base_array``
feeds the pair kernel, ``split_all_fast`` turns a base array into a
fragment array, and ``cluster_endpoints`` reads it. Segment objects are
built only where a public function is given or returns a Segment list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, NumericalDegeneracy, SymmetryViolation
from .geom import (
    DEFAULT_FUZZ, DEFAULT_TOL, Point2, Segment, Tolerance, close_pairs, merge_runs,
    merge_sorted_runs, segment_array,
)
# base_segments is not called here; perfbench/tracing.py wraps it under
# this module's name, so it stays importable from it
from .polygon import PolygonSpec, base_array, base_segments, orbit_representatives  # noqa: F401

# Segment lists, or (k, 4) arrays of x0, y0, x1, y1 rows; a SplitSegmentSet
# additionally satisfies the crossing-free invariant (no Interior x Interior
# intersection remains).
SegmentSet = list[Segment] | np.ndarray
SplitSegmentSet = list[Segment] | np.ndarray


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
    merged = merge_runs(params + [0.0, 1.0], fuzz)[0]
    pts = [(t * x1 + (1.0 - t) * x0, t * y1 + (1.0 - t) * y0) for t in merged]
    out = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        ln = math.hypot(bx - ax, by - ay)
        if ln < fuzz:
            raise NumericalDegeneracy(
                f"fragment shorter than fuzz {fuzz:g} near ({ax:.12g}, {ay:.12g})")
        out.append((ax, ay, bx, by, ln))
    return out


def _parallel_overlap(sx0, sy0, sdx, sdy, slen, wx0, wy0, wx1, wy1, fuzz):
    """True if a parallel pair is collinear with overlapping extents."""
    d0 = abs((wx0 - sx0) * sdy - (wy0 - sy0) * sdx) / slen
    d1 = abs((wx1 - sx0) * sdy - (wy1 - sy0) * sdx) / slen
    if d0 > fuzz or d1 > fuzz:
        return False
    inv = 1.0 / (slen * slen)
    t0 = ((wx0 - sx0) * sdx + (wy0 - sy0) * sdy) * inv
    t1 = ((wx1 - sx0) * sdx + (wy1 - sy0) * sdy) * inv
    lo, hi = min(t0, t1), max(t0, t1)
    return min(hi, 1.0) - max(lo, 0.0) > fuzz


def split_all(base: SegmentSet, tol: Tolerance = DEFAULT_TOL) -> SplitSegmentSet:
    """Fragment every base segment at every crossing or touch.

    Working-set rescan: each base segment is intersected against all
    fragments accumulated so far. An interior-interior hit cuts both
    sides; a hit at a fragment endpoint cuts only the side whose interior
    was met. The base set must not contain collinear overlapping segments.
    """
    fuzz = tol.point_fuzzy
    working: list[tuple] = []
    for seg in base:
        sx0, sy0 = seg.p0
        sx1, sy1 = seg.p1
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
                assert not _parallel_overlap(
                    sx0, sy0, sdx, sdy, slen, wx0, wy0, wx1, wy1, fuzz), \
                    "collinear overlapping segments in the base set"
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

    return [Segment(Point2(x0, y0), Point2(x1, y1)) for x0, y0, x1, y1, _ in working]


# Classes of a line parameter, as _solve_pairs returns them.
_MISS, _END, _INTERIOR = 0, 1, 2


def _segment_arrays(base: np.ndarray) -> tuple[np.ndarray, ...]:
    """Start x, start y, direction x, direction y and length per segment."""
    x0, y0, x1, y1 = base.T
    dx = x1 - x0
    dy = y1 - y0
    return x0, y0, dx, dy, np.hypot(dx, dy)


def _param_class(p: np.ndarray, live: np.ndarray, fuzz: float) -> np.ndarray:
    """The class of each parameter of a live (non-parallel) pair; _MISS elsewhere."""
    interior = live & (p > fuzz) & (p < 1.0 - fuzz)
    end = live & ((np.abs(p) < fuzz) | (np.abs(p - 1.0) < fuzz))
    return interior * np.int8(_INTERIOR) + end * np.int8(_END)


def _solve_pairs(arrays: tuple[np.ndarray, ...], rows: np.ndarray, fuzz: float):
    """Intersect the segments ``rows`` with every segment, vectorized.

    Returns ``t`` (on the row segment), ``u`` (on the column segment), both
    of shape (len(rows), m), and their classes: _INTERIOR strictly between
    the fuzz bands, _END within fuzz of 0 or 1, _MISS outside the segment.
    Parallel pairs, a segment paired with itself among them, are _MISS on
    both sides.
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
    return t, u, _param_class(t, live, fuzz), _param_class(u, live, fuzz)


def split_all_fast(base: SegmentSet, tol: Tolerance = DEFAULT_TOL) -> SplitSegmentSet:
    """Same fragment multiset as split_all, via pairwise base intersections.

    Every cut on a fragment corresponds to a cut on its base segment, so
    it suffices to solve all base-segment pairs (in blocks, vectorized)
    and split each base segment once at its accumulated parameters. The
    fragments come grouped by base segment, in base order, and ordered
    along each. Given an (m, 4) array the result is an (E, 4) array; given
    a Segment list it is a Segment list.
    """
    frags = _fragments(segment_array(base), tol)
    if isinstance(base, np.ndarray):
        return frags
    return [Segment(Point2(x0, y0), Point2(x1, y1)) for x0, y0, x1, y1 in frags.tolist()]


def _fragments(base: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The (E, 4) fragments of an (m, 4) base array; see split_all_fast."""
    m = len(base)
    if m < 2:
        return base
    fuzz = tol.point_fuzzy
    arrays = _segment_arrays(base)

    owners, params = [], []
    cols = np.arange(m)
    block = max(1, 1_000_000 // m)
    for lo in range(0, m, block):
        rows = cols[lo:lo + block]
        t, u, t_cls, u_cls = _solve_pairs(arrays, rows, fuzz)
        upper = cols[None, :] > rows[:, None]

        rr, cc = np.nonzero(upper & (t_cls == _INTERIOR) & (u_cls != _MISS))
        owners.append(rows[rr])
        params.append(t[rr, cc])
        rr, cc = np.nonzero(upper & (u_cls == _INTERIOR) & (t_cls != _MISS))
        owners.append(cc)
        params.append(u[rr, cc])
    cuts = np.concatenate(params)
    assert np.all((cuts > fuzz) & (cuts < 1.0 - fuzz)), \
        "split parameter outside the interior range"

    # merge each segment's cuts together with its ends 0 and 1
    owner = np.concatenate(owners + [cols, cols])
    ts = np.concatenate((cuts, np.zeros(m), np.ones(m)))
    order = np.lexsort((ts, owner))
    keep, _ = merge_sorted_runs(owner[order], ts[order], fuzz)
    owner = owner[order[keep]]
    t = ts[order[keep]]
    x0, y0, x1, y1 = base[owner].T
    px = t * x1 + (1.0 - t) * x0
    py = t * y1 + (1.0 - t) * y0
    frags = np.column_stack((px[:-1], py[:-1], px[1:], py[1:]))[owner[1:] == owner[:-1]]

    length = np.hypot(frags[:, 2] - frags[:, 0], frags[:, 3] - frags[:, 1])
    short = np.flatnonzero(~(np.isfinite(length) & (length > DEFAULT_FUZZ) & (length >= fuzz)))
    if len(short):
        ax, ay = frags[short[0], :2].tolist()
        raise NumericalDegeneracy(
            f"fragment of length {length[short[0]]:.3e} near ({ax:.12g}, {ay:.12g})"
            f" is shorter than fuzz {fuzz:g} or degenerate")
    return frags


def cluster_endpoints(
    split: SplitSegmentSet, tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, list[Point2]]:
    """Group the 2E fragment endpoints into vertex clusters.

    ``split`` is a Segment list or an (E, 4) fragment array. Returns a label
    per endpoint (p0 then p1 of each segment, in order) and the cluster
    centroids. Exactly equal points are collapsed first; the clusters are
    the connected components of the distance <= fuzz relation among the
    rest, found with ``close_pairs``, and are numbered in the order of
    their first point in sorted (x, y) order. Raises
    AmbiguousClustering when two centroids come closer than 3*fuzz.
    """
    ends = segment_array(split).reshape(-1, 2)
    xs = ends[:, 0]
    ys = ends[:, 1]
    uniq, inverse = np.unique(xs + 1j * ys, return_inverse=True)
    fuzz = tol.point_fuzzy

    # every point takes the smallest index in its component: min over the
    # neighbours, then pointer jumping, until nothing changes
    points = np.column_stack((uniq.real, uniq.imag))
    i, j = close_pairs(points, points, fuzz)
    root = np.arange(len(uniq))
    while True:
        nxt = root.copy()
        np.minimum.at(nxt, i, root[j])
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            break
        root = nxt
    roots, labels_u = np.unique(root, return_inverse=True)
    labels = labels_u[inverse]

    nv = len(roots)
    counts_per = np.bincount(labels, minlength=nv)
    cxs = np.bincount(labels, weights=xs, minlength=nv) / counts_per
    cys = np.bincount(labels, weights=ys, minlength=nv) / counts_per

    pitch = 3.0 * fuzz
    centres = np.column_stack((cxs, cys))
    i, j = close_pairs(centres, centres, pitch)
    dx = cxs[i] - cxs[j]
    dy = cys[i] - cys[j]
    gap2 = dx * dx + dy * dy
    near = np.flatnonzero((i < j) & (gap2 < pitch * pitch))
    if len(near):
        k = near[0]
        raise AmbiguousClustering(
            f"vertex clusters {i[k]} and {j[k]} are {math.sqrt(gap2[k]):.3e}"
            f" apart, closer than 3*fuzz = {pitch:g}")
    centroids = [Point2(a, b) for a, b in zip(cxs.tolist(), cys.tolist())]
    return labels, centroids


def count_vertices(split: SplitSegmentSet, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of distinct vertices among the fragment endpoints."""
    _, centroids = cluster_endpoints(split, tol)
    return len(centroids)


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
    arrays = _segment_arrays(base_array(spec))
    seglen = arrays[4]
    reps = np.array(orbit_representatives(spec))
    rows, orbit = reps[:, 0], reps[:, 1]
    t, _, t_cls, u_cls = _solve_pairs(arrays, rows, fuzz)
    rep, col = np.nonzero((t_cls != _MISS) & (u_cls != _MISS))

    # each representative's hit parameters, merged with its ends 0 and 1
    r = np.arange(len(reps))
    group = np.concatenate((rep, r, r))
    ts = np.concatenate((t[rep, col], np.zeros(len(reps)), np.ones(len(reps))))
    order = np.lexsort((ts, group))
    keep, sizes = merge_sorted_runs(group[order], ts[order], fuzz)
    owner = group[order[keep]]
    points = ts[order[keep]]
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
