"""Tolerance-aware points, segments and parametric segment intersection.

All geometry in this package lives in the closed unit disk, so a single
absolute distance threshold (``point_fuzzy``) serves both for point
identity and for the parallelism test of the intersection solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

DEFAULT_FUZZ = 1e-10


class Point2(NamedTuple):
    """A position in the plane."""

    x: float
    y: float

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Tolerance:
    """Absolute distance threshold under which two points are the same."""

    point_fuzzy: float = DEFAULT_FUZZ

    def __post_init__(self) -> None:
        if not (0.0 < self.point_fuzzy < 1e-3):
            raise ValueError(f"point_fuzzy must lie in (0, 1e-3), got {self.point_fuzzy!r}")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, slots=True)
class Segment:
    """A straight line segment between two points.

    Degenerate (near-zero-length or non-finite) segments are rejected at
    construction: they would poison the determinant scale test used for
    parallelism detection.
    """

    p0: Point2
    p1: Point2

    def __post_init__(self) -> None:
        length = self.p0.dist(self.p1)
        if not (math.isfinite(length) and length > DEFAULT_FUZZ):
            raise ValueError(f"degenerate segment {self.p0} -> {self.p1} (length {length!r})")

    def length(self) -> float:
        return self.p0.dist(self.p1)


def segment_array(segs: "list[Segment] | np.ndarray") -> np.ndarray:
    """Segments as a (k, 4) float array of x0, y0, x1, y1 rows.

    An array passes through unchanged, so pipeline stages accept either a
    Segment list or the arrays the previous stage produced.
    """
    if isinstance(segs, np.ndarray):
        return segs
    return np.array([(*s.p0, *s.p1) for s in segs], dtype=float).reshape(-1, 4)


class ParamClass(Enum):
    """Where a line parameter sits relative to the segment [0, 1]."""

    INTERIOR = "interior"
    END = "end"
    OUTSIDE = "outside"


class Params(NamedTuple):
    """Intersection parameters: ``t`` on the receiver, ``u`` on the argument."""

    t: float
    u: float


def point_at(s: Segment, t: float) -> Point2:
    """Point at parameter t, in units of the segment length.

    t=0 and t=1 reproduce the endpoints bit-exactly; values outside [0, 1]
    are on the supporting line beyond the segment.
    """
    return Point2(t * s.p1.x + (1.0 - t) * s.p0.x, t * s.p1.y + (1.0 - t) * s.p0.y)


def intersect(a: Segment, b: Segment, tol: Tolerance = DEFAULT_TOL) -> Params | None:
    """Solve for the crossing of the two supporting lines by Cramer's rule.

    Returns None when the determinant is below ``point_fuzzy`` scaled by
    both segment lengths (parallel lines), otherwise the pair of line
    parameters. Whether the crossing lies on either segment is up to the
    caller (see classify_param).
    """
    a00 = a.p1.x - a.p0.x
    a01 = b.p0.x - b.p1.x
    a10 = a.p1.y - a.p0.y
    a11 = b.p0.y - b.p1.y
    rhs0 = b.p0.x - a.p0.x
    rhs1 = b.p0.y - a.p0.y

    det = a00 * a11 - a01 * a10
    if abs(det) < tol.point_fuzzy * abs(a.length() * b.length()):
        return None
    t = (rhs0 * a11 - a01 * rhs1) / det
    u = (a00 * rhs1 - rhs0 * a10) / det
    return Params(t, u)


def classify_param(t: float, tol: Tolerance = DEFAULT_TOL) -> ParamClass:
    """Classify a line parameter as interior, endpoint, or outside.

    The three classes partition the reals: END within ``point_fuzzy`` of 0
    or 1, INTERIOR strictly between the fuzz bands, OUTSIDE otherwise.
    """
    fuzz = tol.point_fuzzy
    if abs(t) < fuzz or abs(t - 1.0) < fuzz:
        return ParamClass.END
    if fuzz < t < 1.0 - fuzz:
        return ParamClass.INTERIOR
    return ParamClass.OUTSIDE


def merge_runs(params: list[float], fuzz: float) -> tuple[list[float], list[int]]:
    """Sort split parameters and collapse runs closer than ``fuzz``.

    Returns the surviving value of each run and the number of parameters
    in it. The first element of the sorted list always survives; within
    any later run of near-equal values the last one survives.
    """
    ts = np.sort(np.asarray(params, dtype=float), kind="stable")
    keep, sizes = merge_sorted_runs(np.zeros(len(ts), dtype=np.int64), ts, fuzz)
    return ts[keep].tolist(), sizes.tolist()


def merge_sorted_runs(
    group: np.ndarray, ts: np.ndarray, fuzz: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``merge_runs`` rule applied to many sorted lists at once.

    ``group`` labels each value with its list; the lists are contiguous and
    ``ts`` is sorted within each. A list's first run holds the values less
    than ``fuzz`` above its first value, and that first value survives;
    every later run continues while consecutive values are closer than
    ``fuzz``, and its last value survives. Returns the index of each run's
    survivor, in order, and the size of each run.
    """
    k = len(ts)
    idx = np.arange(k)
    head = np.ones(k, dtype=bool)
    head[1:] = group[1:] != group[:-1]
    first = np.maximum.accumulate(np.where(head, idx, 0))
    in_first_run = ts - ts[first] < fuzz
    opens = head.copy()
    opens[1:] |= ~in_first_run[1:] & (in_first_run[:-1] | ~(np.diff(ts) < fuzz))
    starts = np.flatnonzero(opens)
    sizes = np.diff(np.append(starts, k))
    return np.where(head[starts], starts, starts + sizes - 1), sizes


def split_at_params(s: Segment, ts: list[float], tol: Tolerance = DEFAULT_TOL) -> list[Segment]:
    """Cut a segment at the given interior parameters.

    Parameters closer than ``point_fuzzy`` merge into a single cut. The
    fragments cover the segment exactly; an empty parameter list returns
    the segment unchanged. Callers guarantee every parameter is INTERIOR.
    """
    assert all(classify_param(t, tol) is ParamClass.INTERIOR for t in ts), \
        "split parameter outside the interior range"
    merged = merge_runs(list(ts) + [0.0, 1.0], tol.point_fuzzy)[0]
    pts = [point_at(s, t) for t in merged]
    return [Segment(p, q) for p, q in zip(pts, pts[1:])]


def close_pairs(a: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair of points with |a[i] - b[j]| <= radius.

    ``a`` and ``b`` are (k, 2) arrays of x, y. The points of ``b`` are
    bucketed into square cells of side ``radius`` and sorted by cell; each
    point of ``a`` looks up its own cell and the eight around it with one
    binary search per offset into the occupied cells. Cell keys are complex
    numbers gx + 1j*gy of float-valued cell coordinates, which stay exact
    where an int64 key would overflow for a small radius.
    """
    bg = np.floor(b / radius)
    bkeys = bg[:, 0] + 1j * bg[:, 1]
    order = np.argsort(bkeys, kind="stable")
    cells, cell_start, cell_size = np.unique(bkeys[order], return_index=True, return_counts=True)
    ag = np.floor(a / radius)
    limit2 = radius * radius
    found_i, found_j = [], []
    for ox in (-1.0, 0.0, 1.0):
        for oy in (-1.0, 0.0, 1.0):
            keys = (ag[:, 0] + ox) + 1j * (ag[:, 1] + oy)
            c = np.searchsorted(cells, keys)
            occupied = c < len(cells)
            occupied[occupied] = cells[c[occupied]] == keys[occupied]
            q = np.flatnonzero(occupied)
            lo = cell_start[c[q]]
            hits = cell_size[c[q]]
            i = np.repeat(q, hits)
            # position of each candidate in the sorted b: lo of its a-point
            # plus its rank among that point's candidates
            j = order[np.arange(len(i)) + np.repeat(lo - (np.cumsum(hits) - hits), hits)]
            dx = a[i, 0] - b[j, 0]
            dy = a[i, 1] - b[j, 1]
            keep = dx * dx + dy * dy <= limit2
            found_i.append(i[keep])
            found_j.append(j[keep])
    return np.concatenate(found_i), np.concatenate(found_j)
