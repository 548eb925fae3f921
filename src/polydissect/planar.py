"""Half-edge face oracle for the split arrangement.

Builds a rotation system (angularly sorted incidence lists) on the
deduplicated vertices and enumerates the faces by the standard
most-clockwise-turn traversal. The inner face count provides a check on
the Euler formula that shares nothing with it beyond the vertex dedup,
and the face centroids let the rotational orbit structure be verified
geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, OrbitMismatch, TraversalIncomplete
from .geom import DEFAULT_TOL, Point2, Tolerance, close_pairs
from .arrangement import SplitSegmentSet, cluster_endpoints
from .polygon import PolygonSpec


@dataclass(frozen=True)
class PlanarGraph:
    """Vertices, edges and per-vertex rings of outgoing half-edges.

    Half-edge 2k runs along edge k from its first endpoint, 2k+1 back.
    Each ring lists the outgoing half-edges of one vertex in increasing
    angular order.
    """

    vertices: list[Point2]
    edges: list[tuple[int, int]]
    rings: list[list[int]]

    def origin(self, h: int) -> int:
        a, b = self.edges[h >> 1]
        return a if h & 1 == 0 else b

    def dest(self, h: int) -> int:
        a, b = self.edges[h >> 1]
        return b if h & 1 == 0 else a

    def degree(self, v: int) -> int:
        return len(self.rings[v])


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

    Vertices are the same endpoint clusters the vertex count uses, so the
    two agree by construction. Incident edges closer than 1e-9 rad in
    angle indicate a dedup failure and raise AmbiguousClustering.
    """
    labels, centroids = cluster_endpoints(split, tol)
    lab = labels.tolist()
    edges: list[tuple[int, int]] = []
    for k in range(len(split)):
        a, b = lab[2 * k], lab[2 * k + 1]
        if a == b:
            raise AmbiguousClustering(
                f"both endpoints of segment {k} merged into vertex {a}")
        edges.append((a, b))

    slots: list[list[tuple[float, int]]] = [[] for _ in centroids]
    for k, (a, b) in enumerate(edges):
        pa, pb = centroids[a], centroids[b]
        slots[a].append((math.atan2(pb.y - pa.y, pb.x - pa.x), 2 * k))
        slots[b].append((math.atan2(pa.y - pb.y, pa.x - pb.x), 2 * k + 1))

    rings: list[list[int]] = []
    for v, incident in enumerate(slots):
        incident.sort()
        for (ang0, _), (ang1, _) in zip(incident, incident[1:]):
            if ang1 - ang0 < 1e-9:
                raise AmbiguousClustering(
                    f"two edges at vertex {v} are {ang1 - ang0:.3e} rad apart")
        if len(incident) > 1 and (incident[0][0] + 2.0 * math.pi) - incident[-1][0] < 1e-9:
            raise AmbiguousClustering(f"two edges at vertex {v} nearly coincide across the cut")
        rings.append([h for _, h in incident])
    return PlanarGraph(vertices=centroids, edges=edges, rings=rings)


def enumerate_faces(g: PlanarGraph) -> list[FaceRecord]:
    """Trace every face cycle of the embedding.

    From an incoming half-edge, the walk continues with the ring
    predecessor of its twin, which traverses inner faces counterclockwise
    (positive signed area) and the single outer face clockwise.
    """
    nh = 2 * len(g.edges)
    pos: dict[int, tuple[int, int]] = {}
    for v, ring in enumerate(g.rings):
        for i, h in enumerate(ring):
            if h in pos:
                raise TraversalIncomplete(f"half-edge {h} appears in more than one ring slot")
            pos[h] = (v, i)
    if len(pos) != nh:
        raise TraversalIncomplete(f"rings hold {len(pos)} half-edges, expected {nh}")

    nxt = [0] * nh
    for h in range(nh):
        v, i = pos[h ^ 1]
        ring = g.rings[v]
        nxt[h] = ring[(i - 1) % len(ring)]

    used = bytearray(nh)
    cycles: list[list[int]] = []
    for h0 in range(nh):
        if used[h0]:
            continue
        cycle = []
        h = h0
        while True:
            cycle.append(h)
            used[h] = 1
            h = nxt[h]
            if h == h0:
                break
            if used[h]:
                raise TraversalIncomplete(f"walk from half-edge {h0} re-entered used {h}")
        cycles.append(cycle)

    faces = []
    areas = []
    for cycle in cycles:
        coords = [g.vertices[g.origin(h)] for h in cycle]
        # Work relative to the first vertex: in absolute coordinates the
        # shoelace terms of a tile far from the origin cancel, and the
        # smallest tiles' centroids lose more than the orbit match radius.
        ox, oy = coords[0]
        rel = [(x - ox, y - oy) for x, y in coords]
        area2 = 0.0
        cx6 = 0.0
        cy6 = 0.0
        for (ax, ay), (bx, by) in zip(rel, rel[1:] + rel[:1]):
            w = ax * by - bx * ay
            area2 += w
            cx6 += (ax + bx) * w
            cy6 += (ay + by) * w
        area = 0.5 * area2
        if abs(area2) > 1e-30:
            centroid = Point2(ox + cx6 / (3.0 * area2), oy + cy6 / (3.0 * area2))
        else:
            centroid = Point2(sum(p.x for p in coords) / len(coords),
                              sum(p.y for p in coords) / len(coords))
        areas.append(area)
        faces.append((tuple(cycle), centroid, area))

    negatives = sum(1 for a in areas if a < 0.0)
    if negatives != 1:
        raise TraversalIncomplete(f"expected exactly one outer face, found {negatives}")
    outer = areas.index(min(areas))
    return [FaceRecord(boundary=b, centroid=c, signed_area=a, is_outer=(i == outer))
            for i, (b, c, a) in enumerate(faces)]


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
    cx = np.array([faces[i].centroid.x for i in inner], dtype=float)
    cy = np.array([faces[i].centroid.y for i in inner], dtype=float)
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
    face = np.array(inner, dtype=np.int64)
    successor = dict(zip(face[src].tolist(), face[dst].tolist()))

    orbit_of = [-1] * len(faces)
    sizes: list[int] = []
    for start in inner:
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
                    f"rotation walk from face {start} re-entered face {nxt}")
            cur = nxt
        sizes.append(size)

    bad = [s for s in sizes if s not in (1, spec.N)]
    if bad:
        raise OrbitMismatch(f"orbit sizes {bad} are neither 1 nor N={spec.N}")
    return OrbitCensus(
        per_ray=sizes.count(spec.N),
        central=sizes.count(1),
        orbit_sizes=tuple(sorted(sizes)),
        face_orbits=tuple(orbit_of),
    )
