"""Half-edge face oracle for the split arrangement.

Builds a rotation system (incidence lists sorted by the split's integer
headings) on the split's vertices; the faces are the cycles of the standard
most-clockwise-turn successor of the half-edges, and their number is
checked against Euler's formula. One kernel, ``_cycles``, finds the cycles
of a permutation, both the faces and the rotation orbits of the tiles: a
bounded leader walk, with pointer doubling for the cycles it leaves open.
The orbit census is exact integer work on the face cycles: the rotation is
the half-edge map that commutes with the face successor and with the twin,
spread from one step along the outer face.

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


# leader-walk steps per item before pointer doubling takes over in _cycles
WALK_STEPS = 8


def _cycles(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cycles of the permutation ``succ``, each led by its smallest item.

    Returns ``(lead, size, members)``: the leads in increasing order, the
    length of each cycle, and the cycles one after another, each listed
    from its lead along ``succ``.

    Every item walks its cycle, all of them in lockstep, while the items it
    meets are larger; an item that gets back to itself is a lead, and the
    round it does so gives the length of its cycle. Most items stop within
    a step or two, but on a long cycle of increasing items the walk is
    quadratic, so it ends once it has taken WALK_STEPS steps per item. The
    cycles it leaves without a lead are then labelled by pointer doubling:
    after r rounds a label is the minimum over the item and the 2**r - 1
    after it, so a cycle of length L takes log2(L) rounds. On a map that is
    not a permutation the doubling need not end.
    """
    n = len(succ)
    size_of = np.zeros(n, dtype=np.int64)  # the cycle length at a lead, else 0
    h, at, length, steps = np.arange(n), succ, 1, 0
    while len(h) and steps <= WALK_STEPS * n:
        size_of[h[at == h]] = length
        live = at > h
        h, at = h[live], succ[at[live]]
        length, steps = length + 1, steps + len(h)
    if len(h):
        # number the items of the open cycles in their own order, so that the
        # smallest number in a cycle is its lead's
        done = np.flatnonzero(size_of)
        rest = np.ones(n, dtype=bool)
        rest[_members(succ, done, size_of[done])] = False
        rest = np.flatnonzero(rest)
        sub = np.searchsorted(rest, succ[rest])
        label, ptr = np.arange(len(rest)), sub
        while not np.array_equal(label, label[sub]):
            label = np.minimum(label, label[ptr])
            ptr = ptr[ptr]
        # every label is a lead's number, so only leads count items
        size_of[rest] = np.bincount(label, minlength=len(rest))
    lead = np.flatnonzero(size_of)
    return lead, size_of[lead], _members(succ, lead, size_of[lead])


def _ring_next(start: np.ndarray) -> np.ndarray:
    """The slot after each slot of the rings ``start[i]:start[i + 1]`` (CSR
    offsets from 0), the last slot of a ring back to its first."""
    full = start[1:] > start[:-1]
    nxt = np.arange(1, start[-1] + 1)
    nxt[start[1:][full] - 1] = start[:-1][full]
    return nxt


def _members(succ: np.ndarray, lead: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The cycles of the given leads and sizes, listed from each lead along
    ``succ`` one after another; all cycles advance one item a round."""
    members = np.empty(int(size.sum()), dtype=np.int64)
    h, at, left = lead, np.cumsum(size) - size, size
    while len(h):
        members[at] = h
        live = left > 1
        h, at, left = succ[h[live]], at[live] + 1, left[live] - 1
    return members


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
    single outer face clockwise. ``_cycles`` lists each cycle from its
    smallest half-edge, in the order of it, into ``cycle``; the shoelace
    areas are summed per face over it. Raises
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

    _, size, cyc = _cycles(nxt)
    del nxt
    start = np.append(0, np.cumsum(size))

    # Work relative to each face's first vertex: in absolute coordinates the
    # shoelace terms of a tile far from the origin cancel, and the smallest
    # tiles' areas lose their digits.
    v = origin[cyc]
    lead_v = np.repeat(v[start[:-1]], size)
    ax = xy[v, 0] - xy[lead_v, 0]
    ay = xy[v, 1] - xy[lead_v, 1]
    del v, lead_v
    step = _ring_next(start)
    w = ax * ay[step]
    w -= ax[step] * ay
    del step
    area = 0.5 * np.add.reduceat(w, start[:-1])

    negatives = int(np.count_nonzero(area < 0.0))
    if negatives != 1:
        raise TraversalIncomplete(f"expected exactly one outer face, found {negatives}")
    euler = nh // 2 - int(np.count_nonzero(ring_size)) + 2
    if len(area) != euler:
        raise TraversalIncomplete(f"the rings give {len(area)} faces, Euler's formula {euler}")
    return Faces(cyc, start, area)


def orbit_census(faces: Faces) -> OrbitCensus:
    """Partition inner faces into orbits under rotation by 2pi/N, exactly.

    The rotation rho is a map on the half-edges: one step along the outer
    face there, spread by rho(nxt h) = nxt(rho h) and rho(h ^ 1) = rho(h) ^ 1,
    where nxt is the face successor read off ``cycle``. N is the number of
    sides of the outer face, the 2n of a 2n-gon. Raises OrbitMismatch
    unless ``cycle`` and ``start`` are integer arrays, every half-edge and
    its twin are in ``cycle`` once, each face cycle has one signed area,
    there is one outer face, N is even and at least 4, rho reaches every
    half-edge, is a permutation, commutes with nxt (so it maps faces to
    faces of the same size) and with the twin, and has orbits of size N or 1
    (the central face, even n). Orbits are numbered in the order of their
    first face.
    """
    cycle, start = faces.cycle, faces.start
    if not all(np.issubdtype(a.dtype, np.integer) for a in (cycle, start)):
        raise OrbitMismatch("the face cycles and their offsets are not integer arrays")
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
    nxt = np.empty(nh, dtype=np.int64)
    nxt[cycle] = cycle[_ring_next(start)]

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
    # rho maps the outer face onto itself: a cycle of its own, numbered -1
    lead, sizes, members = _cycles(face_of[rho[cycle[start[:-1]]]])
    inner = lead != outer[0]
    face_orbits = np.empty(nf, dtype=np.int64)
    face_orbits[members] = np.repeat(np.where(inner, np.cumsum(inner) - 1, -1), sizes)
    sizes = sizes[inner]
    bad = sizes[(sizes != 1) & (sizes != N)]
    if len(bad):
        raise OrbitMismatch(f"orbit sizes {bad.tolist()} are neither 1 nor N={N}")
    return OrbitCensus(
        per_ray=int(np.count_nonzero(sizes == N)),
        central=int(np.count_nonzero(sizes == 1)),
        orbit_sizes=tuple(np.sort(sizes).tolist()),
        face_orbits=face_orbits,
    )
