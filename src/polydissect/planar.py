"""Half-edge face oracle for the split arrangement.

Builds a rotation system (incidence lists sorted by the split's integer
headings) on the split's vertices; the faces are the cycles of the standard
most-clockwise-turn successor of the half-edges, labelled by pointer
doubling (``_cycle_labels``, which labels the rotation orbits too), and
their number is checked against Euler's formula. The orbit census is exact
integer work on the face cycles: the rotation is the half-edge map that
commutes with the face successor and with the twin, spread from one step
along the outer face.

A ``PlanarGraph`` is three numpy arrays: the vertex coordinates, the
endpoint labels of each edge, and the rings (one half-edge array sorted by
origin and heading). ``Faces`` is three arrays: the face cycles in CSR form
and the signed areas. A ``FaceRecord`` is built only when a caller indexes
``Faces``.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, OrbitMismatch, TraversalIncomplete
from .geom import Split
from .arrangement import cluster_endpoints


def _cycle_labels(succ: np.ndarray) -> np.ndarray:
    """The smallest member of each item's cycle under the permutation ``succ``.

    Pointer doubling: after r rounds a label is the minimum over the item
    and the 2**r - 1 after it, so a cycle of length L takes log2(L) rounds.
    On a map that is not a permutation the loop need not end.
    """
    label, ptr = np.arange(len(succ)), succ
    while not np.array_equal(label, label[succ]):
        label = np.minimum(label, label[ptr])
        ptr = ptr[ptr]
    return label


@dataclass(frozen=True, eq=False)
class PlanarGraph:
    """Vertices, edges and per-vertex rings of outgoing half-edges, as arrays.

    Half-edge 2k runs along edge k from ``edges[k, 0]`` to ``edges[k, 1]``,
    2k+1 back. The rings come vertex after vertex: the ring of vertex v is
    the next degree(v) entries of ``ring_half``, its outgoing half-edges in
    increasing angular order.
    """

    vertices: np.ndarray   # (V, 2) vertex coordinates
    edges: np.ndarray      # (E, 2) endpoint vertex of each edge
    ring_half: np.ndarray  # (2E,) half-edges sorted by (origin, heading)


@dataclass(frozen=True)
class FaceRecord:
    """One face cycle: its half-edges, signed area and orientation."""

    boundary: tuple[int, ...]
    signed_area: float
    is_outer: bool


@dataclass(frozen=True, eq=False)
class Faces(Sequence):
    """Every face cycle of an embedding, as arrays.

    Face i is ``cycle[start[i]:start[i + 1]]``, beginning at its smallest
    half-edge; the outer face is the one face of negative signed area.
    Indexing builds a ``FaceRecord`` view of one face.
    """

    cycle: np.ndarray        # (2E,) half-edges, face after face
    start: np.ndarray        # (F + 1,) offsets into cycle
    signed_area: np.ndarray  # (F,)

    def __len__(self) -> int:
        return len(self.signed_area)

    def __getitem__(self, i: int) -> FaceRecord:
        i = range(len(self))[operator.index(i)]
        area = float(self.signed_area[i])
        return FaceRecord(tuple(self.cycle[self.start[i]:self.start[i + 1]].tolist()),
                          area, area < 0.0)


@dataclass(frozen=True, eq=False)
class OrbitCensus:
    """Partition of the inner faces into orbits under rotation by 2pi/N."""

    per_ray: int
    central: int
    orbit_sizes: tuple[int, ...]
    face_orbits: np.ndarray  # orbit id per input face, -1 for the outer face


def build_graph(split: Split) -> PlanarGraph:
    """Assemble the incidence structure of the ``Split`` from ``split_all_fast``.

    Edges are the fragments and vertices are the split's own vertices, read
    through ``cluster_endpoints``, so the graph and the vertex count agree
    by construction. Rings are sorted by the split's headings, the angular
    ranks of the base directions: no angle is measured. Two exact checks
    raise AmbiguousClustering: a fragment whose two ends are one vertex,
    and two half-edges that leave one vertex with one heading.
    """
    labels, xy = cluster_endpoints(split)
    edges = labels.reshape(-1, 2)
    loop = np.flatnonzero(edges[:, 0] == edges[:, 1])
    if len(loop):
        k = loop[0]
        raise AmbiguousClustering(f"both ends of fragment {k} are vertex {edges[k, 0]}")

    # half-edge h leaves endpoint h of its fragment; one integer key sorts
    # the half-edges by origin and then by heading
    key = labels * (int(split.heading.max(initial=0)) + 1) + split.heading
    half = np.argsort(key)
    key = key[half]
    same = np.flatnonzero(key[1:] == key[:-1])
    if len(same):
        h = half[same[0]]
        raise AmbiguousClustering(f"half-edges {h} and {half[same[0] + 1]} leave vertex"
                                  f" {labels[h]} with one heading")
    return PlanarGraph(vertices=xy, edges=edges, ring_half=half)


def enumerate_faces(g: PlanarGraph) -> Faces:
    """Every face cycle of the embedding, as ``Faces`` arrays.

    The successor of a half-edge is the ring predecessor of its twin, which
    traverses inner faces counterclockwise (positive signed area) and the
    single outer face clockwise. Each half-edge is labelled with the
    smallest half-edge of its cycle; cycles start there and come in the
    order of it, and all of them are read off in lockstep into ``cycle``;
    the shoelace areas are summed per face over it. Raises
    TraversalIncomplete unless the edges join vertex ids in 0..V-1, the
    rings hold integer half-edge ids, every half-edge once, in the ring of
    its origin, there is exactly one outer face, and the faces satisfy
    Euler's formula F = E - V + 2 over the vertices with edges. Valid rings
    make the successor a permutation: slot, twin and ring predecessor
    composed.
    """
    xy, half = g.vertices, g.ring_half
    origin = g.edges.reshape(-1)
    nh, nv = len(origin), len(xy)
    if not np.issubdtype(origin.dtype, np.integer) or (
            nh and (origin.min() < 0 or origin.max() >= nv)):
        raise TraversalIncomplete(f"the edges do not join integer vertex ids in 0..{nv - 1}")
    if not np.issubdtype(half.dtype, np.integer) or (
            len(half) and (half.min() < 0 or half.max() >= nh)):
        raise TraversalIncomplete(f"rings hold half-edges outside the integers 0..{nh - 1}")
    repeated = np.flatnonzero(np.bincount(half, minlength=nh) > 1)
    if len(repeated):
        raise TraversalIncomplete(
            f"half-edge {repeated[0]} appears in more than one ring slot")
    if len(half) != nh:
        raise TraversalIncomplete(f"rings hold {len(half)} half-edges, expected {nh}")
    ring_size = np.bincount(origin, minlength=nv)
    ring_start = np.concatenate(([0], np.cumsum(ring_size)))
    ring_of = np.repeat(np.arange(nv), ring_size)
    stray = np.flatnonzero(ring_of != origin[half])
    if len(stray):
        raise TraversalIncomplete(
            f"half-edge {half[stray[0]]} sits in the ring of vertex {ring_of[stray[0]]}")

    # slot of each half-edge's twin, and the slot before it in its ring; the
    # half-edge-sized temporaries here and below are dropped once used, since
    # they, not the result, set the walk's peak memory
    slot = np.empty(nh, dtype=np.int64)
    slot[half] = np.arange(nh)
    twin = slot[np.arange(nh) ^ 1]
    del slot
    ring = ring_of[twin]
    del ring_of
    pred = np.where(twin > ring_start[ring], twin - 1, ring_start[ring + 1] - 1)
    del twin, ring
    nxt = half[pred]
    del pred

    label = _cycle_labels(nxt)
    lead = np.flatnonzero(label == np.arange(nh))
    size = np.bincount(label, minlength=nh)[lead]
    del label
    first = np.cumsum(size) - size
    # all faces advance one half-edge a round: as many rounds as the longest face
    cyc = np.empty(nh, dtype=np.int64)
    h, at, left = lead, first, size
    while len(h):
        cyc[at] = h
        live = left > 1
        h, at, left = nxt[h[live]], at[live] + 1, left[live] - 1
    del nxt

    # Work relative to each face's first vertex: in absolute coordinates the
    # shoelace terms of a tile far from the origin cancel, and the smallest
    # tiles' areas lose their digits.
    v = origin[cyc]
    lead_v = np.repeat(v[first], size)
    ax = xy[v, 0] - xy[lead_v, 0]
    ay = xy[v, 1] - xy[lead_v, 1]
    del v, lead_v
    step = np.arange(1, nh + 1)
    step[first + size - 1] = first
    w = ax * ay[step]
    w -= ax[step] * ay
    del step
    area = 0.5 * np.add.reduceat(w, first)

    negatives = int(np.count_nonzero(area < 0.0))
    if negatives != 1:
        raise TraversalIncomplete(f"expected exactly one outer face, found {negatives}")
    euler = nh // 2 - int(np.count_nonzero(ring_size)) + 2
    if len(area) != euler:
        raise TraversalIncomplete(f"the rings give {len(area)} faces, Euler's formula {euler}")
    return Faces(cyc, np.append(first, nh), area)


def orbit_census(faces: Faces) -> OrbitCensus:
    """Partition inner faces into orbits under rotation by 2pi/N, exactly.

    The rotation rho is a map on the half-edges: one step along the outer
    face there, spread by rho(nxt h) = nxt(rho h) and rho(h ^ 1) = rho(h) ^ 1,
    where nxt is the face successor read off ``cycle``. N is the number of
    sides of the outer face, the 2n of a 2n-gon. Raises OrbitMismatch
    unless every half-edge and its twin are in ``cycle`` once, each face
    cycle has one signed area, there is one outer face, N is even and at
    least 4, rho reaches every half-edge, is a permutation, commutes with
    nxt (so it maps faces to faces of the same size) and with the twin, and
    has orbits of size N or 1 (the central face, even n). Orbits are
    numbered in the order of their first face.
    """
    cycle, start = faces.cycle, faces.start
    nh, nf, size = len(cycle), len(faces), np.diff(start)
    if (nh % 2 or start[0] != 0 or start[-1] != nh or np.any(size < 1)
            or cycle.min(initial=0) < 0 or np.any(np.bincount(cycle, minlength=nh) != 1)):
        raise OrbitMismatch("the face cycles do not hold every half-edge exactly once")
    if nf != len(size):
        raise OrbitMismatch(f"{len(size)} face cycles but {nf} signed areas")
    outer = np.flatnonzero(faces.signed_area < 0.0)
    if len(outer) != 1:
        raise OrbitMismatch(f"expected one outer face, found {len(outer)}")
    N = int(size[outer[0]])
    if N < 4 or N % 2:
        raise OrbitMismatch(f"the outer face has {N} sides, not the even N >= 4 of a 2n-gon")
    step = np.arange(1, nh + 1)
    step[start[1:] - 1] = start[:-1]
    nxt = np.empty(nh, dtype=np.int64)
    nxt[cycle] = cycle[step]

    # each half-edge takes one of the images offered to it in the round it is
    # first reached, no matter which; an offer that disagrees with it fails
    # the permutation and commuting checks below
    rho = np.full(nh, -1)
    stamp = np.empty(nh, dtype=np.int64)
    new = cycle[start[outer[0]]:start[outer[0] + 1]]
    rho[new] = nxt[new]
    while len(new):
        h = np.concatenate((nxt[new], new ^ 1))
        image = np.concatenate((nxt[rho[new]], rho[new] ^ 1))
        fresh = rho[h] < 0
        h = h[fresh]
        rho[h] = image[fresh]
        # one copy of each half-edge offered twice, or the frontier grows
        slot = np.arange(len(h))
        stamp[h] = slot
        new = h[stamp[h] == slot]

    if np.any(rho < 0) or np.any(np.bincount(rho, minlength=nh) != 1):
        raise OrbitMismatch("the rotation does not map the half-edges one to one")
    if not (np.array_equal(rho[nxt], nxt[rho])
            and np.array_equal(rho[np.arange(nh) ^ 1], rho ^ 1)):
        raise OrbitMismatch("the rotation of the face cycles does not commute with the"
                            " face successor and the twin")
    face_of = np.empty(nh, dtype=np.int64)
    face_of[cycle] = np.repeat(np.arange(nf), size)
    label = _cycle_labels(face_of[rho[cycle[start[:-1]]]])
    label[outer] = -1
    face_orbits = np.unique(label, return_inverse=True)[1] - 1
    sizes = np.bincount(face_orbits[face_orbits >= 0])
    bad = sizes[(sizes != 1) & (sizes != N)]
    if len(bad):
        raise OrbitMismatch(f"orbit sizes {bad.tolist()} are neither 1 nor N={N}")
    return OrbitCensus(
        per_ray=int(np.count_nonzero(sizes == N)),
        central=int(np.count_nonzero(sizes == 1)),
        orbit_sizes=tuple(np.sort(sizes).tolist()),
        face_orbits=face_orbits,
    )
