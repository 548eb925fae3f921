"""Half-edge face oracle for the split arrangement.

Builds a rotation system (angularly sorted incidence lists) on the
deduplicated vertices and enumerates the faces by the standard
most-clockwise-turn traversal. The inner face count provides a check on
the Euler formula that shares nothing with it beyond the vertex dedup,
and the face centroids let the rotational orbit structure be verified
geometrically.

The stages pass numpy arrays: the vertex coordinates, the origin of each
half-edge and the rings as one half-edge array sorted by (origin, angle)
with per-vertex offsets. ``PlanarGraph``'s lists and the ``FaceRecord``
objects are built only because the public functions return them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousClustering, OrbitMismatch, TraversalIncomplete
from .geom import DEFAULT_TOL, Point2, Tolerance, close_pairs
from .arrangement import SplitSegmentSet, cluster_endpoints
from .polygon import PolygonSpec


class GraphArrays(NamedTuple):
    """A PlanarGraph as arrays; the ring of vertex v is
    ring_half[ring_start[v]:ring_start[v + 1]]."""

    xy: np.ndarray          # (V, 2) vertex coordinates
    origin: np.ndarray      # (2E,) origin vertex of each half-edge
    ring_start: np.ndarray  # (V + 1,) offsets into ring_half
    ring_half: np.ndarray   # (2E,) half-edges sorted by (origin, angle)


def _point_array(points: list[Point2]) -> np.ndarray:
    """A (k, 2) array of the points' x, y."""
    flat = itertools.chain.from_iterable(points)
    return np.fromiter(flat, dtype=float, count=2 * len(points)).reshape(-1, 2)


@dataclass(frozen=True)
class PlanarGraph:
    """Vertices, edges and per-vertex rings of outgoing half-edges.

    Half-edge 2k runs along edge k from its first endpoint, 2k+1 back.
    Each ring lists the outgoing half-edges of one vertex in increasing
    angular order. ``build_graph`` also stores the same data as arrays.
    """

    vertices: list[Point2]
    edges: list[tuple[int, int]]
    rings: list[list[int]]
    _arrays: GraphArrays | None = field(default=None, repr=False, compare=False)

    def origin(self, h: int) -> int:
        a, b = self.edges[h >> 1]
        return a if h & 1 == 0 else b

    def dest(self, h: int) -> int:
        a, b = self.edges[h >> 1]
        return b if h & 1 == 0 else a

    def degree(self, v: int) -> int:
        return len(self.rings[v])

    def arrays(self) -> GraphArrays:
        """The graph as arrays, read off the lists if it was built from them."""
        if self._arrays is not None:
            return self._arrays
        lengths = np.array([len(r) for r in self.rings], dtype=np.int64)
        return GraphArrays(
            xy=_point_array(self.vertices),
            origin=np.array(self.edges, dtype=np.int64).reshape(-1),
            ring_start=np.concatenate(([0], np.cumsum(lengths))),
            ring_half=np.fromiter(itertools.chain.from_iterable(self.rings),
                                  dtype=np.int64, count=int(lengths.sum())),
        )


@dataclass(frozen=True)
class FaceRecord:
    """One face cycle: its half-edges, area centroid and orientation."""

    boundary: tuple[int, ...]
    centroid: Point2
    signed_area: float
    is_outer: bool


@dataclass(frozen=True)
class OrbitCensus:
    """Partition of the inner faces into orbits under rotation by 2pi/N."""

    per_ray: int
    central: int
    orbit_sizes: tuple[int, ...]
    face_orbits: tuple[int, ...]  # orbit id per input face, -1 for the outer face


def build_graph(split: SplitSegmentSet, tol: Tolerance = DEFAULT_TOL) -> PlanarGraph:
    """Assemble the incidence structure from a crossing-free split set.

    ``split`` is a Segment list or an (E, 4) fragment array. Vertices are
    the same endpoint clusters the vertex count uses, so the two agree by
    construction. Incident edges closer than 1e-9 rad in angle indicate a
    dedup failure and raise AmbiguousClustering.
    """
    labels, centroids = cluster_endpoints(split, tol)
    xy = _point_array(centroids)
    merged = np.flatnonzero(labels[0::2] == labels[1::2])
    if len(merged):
        k = merged[0]
        raise AmbiguousClustering(
            f"both endpoints of segment {k} merged into vertex {labels[2 * k]}")

    # half-edge h runs from endpoint h to endpoint h ^ 1 of its segment
    origin = labels
    d = xy[labels.reshape(-1, 2)[:, ::-1].reshape(-1)] - xy[origin]
    angle = np.arctan2(d[:, 1], d[:, 0])
    half = np.lexsort((angle, origin))
    ring_start = np.concatenate(([0], np.cumsum(np.bincount(origin, minlength=len(xy)))))

    # neighbours in one ring, then each ring's last edge against its first
    # one turn later
    sorted_angle = angle[half]
    owner = origin[half]
    gap = np.diff(sorted_angle)
    pair = np.flatnonzero((owner[1:] == owner[:-1]) & (gap < 1e-9))
    if len(pair):
        k = pair[0]
        raise AmbiguousClustering(f"two edges at vertex {owner[k]} are {gap[k]:.3e} rad apart")
    first = ring_start[:-1]
    last = ring_start[1:] - 1
    wrap = np.flatnonzero((last > first)
                          & ((sorted_angle[first] + 2.0 * math.pi) - sorted_angle[last] < 1e-9))
    if len(wrap):
        raise AmbiguousClustering(f"two edges at vertex {wrap[0]} nearly coincide across the cut")

    ring_list = half.tolist()
    bounds = ring_start.tolist()
    return PlanarGraph(
        vertices=centroids,
        edges=list(zip(labels[0::2].tolist(), labels[1::2].tolist())),
        rings=[ring_list[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        _arrays=GraphArrays(xy=xy, origin=origin, ring_start=ring_start, ring_half=half),
    )


def enumerate_faces(g: PlanarGraph) -> list[FaceRecord]:
    """Trace every face cycle of the embedding.

    From an incoming half-edge, the walk continues with the ring
    predecessor of its twin, which traverses inner faces counterclockwise
    (positive signed area) and the single outer face clockwise. Cycles
    start at their smallest half-edge and come in the order of it.
    """
    xy, origin, ring_start, half = g.arrays()
    nh = 2 * len(g.edges)
    if len(half) and (half.min() < 0 or half.max() >= nh):
        raise TraversalIncomplete(f"rings hold half-edges outside 0..{nh - 1}")
    repeated = np.flatnonzero(np.bincount(half, minlength=nh) > 1)
    if len(repeated):
        raise TraversalIncomplete(
            f"half-edge {repeated[0]} appears in more than one ring slot")
    if len(half) != nh:
        raise TraversalIncomplete(f"rings hold {len(half)} half-edges, expected {nh}")

    # slot of each half-edge's twin, and the slot before it in its ring
    slot = np.empty(nh, dtype=np.int64)
    slot[half] = np.arange(nh)
    twin = slot[np.arange(nh) ^ 1]
    ring = np.repeat(np.arange(len(ring_start) - 1), np.diff(ring_start))[twin]
    pred = np.where(twin > ring_start[ring], twin - 1, ring_start[ring + 1] - 1)
    nxt = half[pred].tolist()

    used = bytearray(nh)
    order: list[int] = []
    starts: list[int] = []
    for h0 in range(nh):
        if used[h0]:
            continue
        starts.append(len(order))
        h = h0
        while True:
            order.append(h)
            used[h] = 1
            h = nxt[h]
            if h == h0:
                break
            if used[h]:
                raise TraversalIncomplete(f"walk from half-edge {h0} re-entered used {h}")

    cyc = np.array(order, dtype=np.int64)
    first = np.array(starts, dtype=np.int64)
    size = np.diff(np.append(first, nh))
    # Work relative to each face's first vertex: in absolute coordinates the
    # shoelace terms of a tile far from the origin cancel, and the smallest
    # tiles' centroids lose more than the orbit match radius.
    pts = xy[origin[cyc]]
    base = np.repeat(pts[first], size, axis=0)
    ax, ay = (pts - base).T
    step = np.arange(1, nh + 1)
    step[first + size - 1] = first
    bx, by = ax[step], ay[step]
    w = ax * by - bx * ay
    area2 = np.add.reduceat(w, first)
    cx6 = np.add.reduceat((ax + bx) * w, first)
    cy6 = np.add.reduceat((ay + by) * w, first)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.where(np.abs(area2) > 1e-30, base[first, 0] + cx6 / (3.0 * area2),
                      np.add.reduceat(pts[:, 0], first) / size)
        cy = np.where(np.abs(area2) > 1e-30, base[first, 1] + cy6 / (3.0 * area2),
                      np.add.reduceat(pts[:, 1], first) / size)
    area = 0.5 * area2

    negatives = int(np.count_nonzero(area < 0.0))
    if negatives != 1:
        raise TraversalIncomplete(f"expected exactly one outer face, found {negatives}")
    outer = int(np.argmin(area))
    bounds = starts + [nh]
    return [FaceRecord(tuple(order[lo:hi]), Point2(x, y), a, i == outer)
            for i, (lo, hi, x, y, a) in enumerate(zip(
                bounds, bounds[1:], cx.tolist(), cy.tolist(), area.tolist()))]


def face_vertices(g: PlanarGraph, face: FaceRecord) -> list[int]:
    """Vertex indices around a face, in traversal order."""
    return [g.origin(h) for h in face.boundary]


def orbit_census(
    faces: list[FaceRecord], spec: PolygonSpec, tol: Tolerance = DEFAULT_TOL,
) -> OrbitCensus:
    """Partition inner faces into orbits under rotation by 2pi/N.

    Faces are matched by rotated centroid within 10*fuzz, all at once with
    ``close_pairs``; every rotated centroid must hit exactly one face. Every
    orbit must have size N except the single central face (even n), which
    is fixed by the rotation and forms an orbit of size 1.
    """
    inner = [i for i, f in enumerate(faces) if not f.is_outer]
    cx, cy = _point_array([faces[i].centroid for i in inner]).T
    angle = math.pi / spec.n
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    rx = cos_a * cx - sin_a * cy
    ry = sin_a * cx + cos_a * cy
    src, dst = close_pairs(np.column_stack((rx, ry)), np.column_stack((cx, cy)),
                           10.0 * tol.point_fuzzy)
    hits = np.bincount(src, minlength=len(inner))
    bad = np.flatnonzero(hits != 1)
    if len(bad):
        k = bad[0]
        raise OrbitMismatch(
            f"rotated centroid ({rx[k]:.12g}, {ry[k]:.12g}) matches {hits[k]} faces")
    # walk the rotation over positions in ``inner``
    successor = np.empty(len(inner), dtype=np.int64)
    successor[src] = dst
    successor = successor.tolist()

    orbit_of = [-1] * len(inner)
    sizes: list[int] = []
    for start in range(len(inner)):
        if orbit_of[start] != -1:
            continue
        oid = len(sizes)
        size = 0
        cur = start
        while True:
            orbit_of[cur] = oid
            size += 1
            nxt = successor[cur]
            if nxt == start:
                break
            if orbit_of[nxt] != -1:
                raise OrbitMismatch(
                    f"rotation walk from face {inner[start]} re-entered face {inner[nxt]}")
            cur = nxt
        sizes.append(size)

    bad = [s for s in sizes if s not in (1, spec.N)]
    if bad:
        raise OrbitMismatch(f"orbit sizes {bad} are neither 1 nor N={spec.N}")
    face_orbits = np.full(len(faces), -1, dtype=np.int64)
    face_orbits[inner] = orbit_of
    return OrbitCensus(
        per_ray=sizes.count(spec.N),
        central=sizes.count(1),
        orbit_sizes=tuple(sorted(sizes)),
        face_orbits=tuple(face_orbits.tolist()),
    )
