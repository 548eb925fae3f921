"""Half-edge face oracle for the split arrangement.

Builds a rotation system (incidence lists sorted by the split's integer
headings) on the split's vertices; the faces are the cycles of the standard
most-clockwise-turn successor of the half-edges, and their number is
checked against Euler's formula. One kernel, ``_cycles``, finds the cycles
of a permutation, both the faces and the rotation orbits of the tiles: a
leader walk that hands the whole permutation to pointer doubling once it has
done doubling's work.
The orbit census is exact integer work on the face cycles: the rotation is
read off the edge layout of ``split_all_fast`` (base row after base row, each
from corner to corner) and checked to be the half-edge map that commutes with
the face successor and with the twin and moves the outer face one step.

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


def _min_labels(succ: np.ndarray) -> np.ndarray:
    """The smallest item of the cycle of each item of the permutation
    ``succ``, by pointer doubling: after r rounds a label is the minimum over
    the item and the 2**r - 1 after it, so a cycle of length L takes log2(L)
    rounds. On a map that is not a permutation the doubling need not end."""
    label, ptr = np.arange(len(succ)), succ
    while not np.array_equal(label, label[succ]):
        label = np.minimum(label, label[ptr])
        ptr = ptr[ptr]
    return label


def _cycles(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cycles of the permutation ``succ``, each led by its smallest item.

    Returns ``(lead, size, members)``: the leads in increasing order, the
    length of each cycle, and the cycles one after another, each listed
    from its lead along ``succ``, all cycles advancing one item a round.

    Every item walks its cycle, all of them in lockstep, while the items it
    meets are larger; an item that gets back to itself is a lead, and the
    round it does so gives the length of its cycle. Most items stop within
    a step or two, but on a long cycle of increasing items the walk is
    quadratic, so once it has taken n * log2(n) steps, the work of pointer
    doubling, it hands the whole permutation to ``_min_labels``.
    """
    n = len(succ)
    size_of = np.zeros(n, dtype=np.int64)  # the cycle length at a lead, else 0
    h, at, length, steps = np.arange(n), succ, 1, 0
    while len(h) and steps <= n * n.bit_length():
        size_of[h[at == h]] = length
        live = at > h
        h, at = h[live], succ[at[live]]
        length, steps = length + 1, steps + len(h)
    if len(h):
        # every label is a lead, so only leads count items
        size_of = np.bincount(_min_labels(succ), minlength=n)
    lead = np.flatnonzero(size_of)
    size = size_of[lead]
    members = np.empty(int(size.sum()), dtype=np.int64)
    h, at, left = lead, np.cumsum(size) - size, size
    while len(h):
        members[at] = h
        live = left > 1
        h, at, left = succ[h[live]], at[live] + 1, left[live] - 1
    return lead, size, members


def _ring_next(start: np.ndarray) -> np.ndarray:
    """The slot after each slot of the rings ``start[i]:start[i + 1]`` (CSR
    offsets from 0), the last slot of a ring back to its first."""
    full = start[1:] > start[:-1]
    nxt = np.arange(1, start[-1] + 1)
    nxt[start[1:][full] - 1] = start[:-1][full]
    return nxt


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

    del ring_of
    # the successor is the half-edge in the ring slot before its twin's slot;
    # the half-edge-sized temporaries here and below are dropped once used,
    # since they, not the result, set the walk's peak memory
    full = ring_size > 0
    prev = np.arange(-1, nh - 1)  # the first slot of a ring goes back to its last
    prev[ring_start[:-1][full]] = ring_start[1:][full] - 1
    slot = np.empty(nh, dtype=np.int64)
    slot[half] = np.arange(nh)
    nxt = half[prev[slot[np.arange(nh) ^ 1]]]
    del full, prev, slot

    _, size, cyc = _cycles(nxt)
    del nxt
    start = np.append(0, np.cumsum(size))

    # Work relative to each face's first vertex: in absolute coordinates the
    # shoelace terms of a tile far from the origin cancel, and the smallest
    # tiles' areas lose their digits.
    v = origin[cyc]
    ax = xy[:, 0][v]
    ay = xy[:, 1][v]
    del v
    ax -= np.repeat(ax[start[:-1]], size)
    ay -= np.repeat(ay[start[:-1]], size)
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

    N is the number of sides of the outer face, the 2n of a 2n-gon. The
    rotation rho is a half-edge map read off the edge layout of
    ``split_all_fast``: base row after base row, each from one corner to
    another through no corner. Corners are numbered by their slots on the
    outer face, the half-edges leaving each by a walk round its ring (g ->
    nxt[g ^ 1], nxt the face successor read off ``cycle``), and rho takes
    the row from corner p to q onto row (p+1, q+1), or (q+1, p+1) run back,
    fragment j from p to fragment j from p+1. Raises OrbitMismatch unless
    ``cycle`` and ``start`` are integer arrays, every half-edge and its twin
    are in ``cycle`` once, each face cycle has one signed area, there is one
    outer face, N is even and at least 4, the rows map onto rows of their
    length, and rho is a permutation, commutes with nxt (so it maps faces
    to faces of the same size) and with the twin, is nxt on the outer face,
    and has orbits of size N or 1 (the central face, even n). On a connected
    map one half-edge's image fixes such a map, so a rho that passes is the
    rotation itself, however it was read. Orbits are numbered in the order
    of their first face.
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

    # number each corner by its slot on the outer face, then mark every
    # half-edge leaving it, walking its ring backwards by g -> nxt[g ^ 1]
    rim = cycle[start[outer[0]]:start[outer[0] + 1]]
    corner = np.full(nh, -1)
    corner[rim] = np.arange(N)
    g = rim
    while len(g):
        at = nxt[g ^ 1]
        fresh = corner[at] < 0
        corner[at[fresh]] = corner[g[fresh]]
        g = at[fresh]
    # a base row runs from corner p to corner q and ends at the edge whose back
    # half-edge leaves a corner; rho takes it to the row (p+1, q+1) or (q+1, p+1)
    ends = corner.reshape(-1, 2)
    last = np.flatnonzero(ends[:, 1] >= 0)
    first = np.append(0, last[:-1] + 1)
    if not len(last) or last[-1] != nh // 2 - 1 or np.any(ends[first, 0] < 0):
        raise OrbitMismatch("the edges do not run in base rows from corner to corner")
    p, q, length = ends[first, 0], ends[last, 1], last - first + 1
    del corner, ends  # half-edge-sized: dropped before rho and its checks
    row = np.full((N, N), -1)
    row[p, q] = np.arange(len(p))
    p1, q1 = (p + 1) % N, (q + 1) % N
    back = row[p1, q1] < 0
    image = np.where(back, row[q1, p1], row[p1, q1])
    if (np.any(row[p, q] != np.arange(len(p))) or np.any(image < 0)
            or np.any(length[image] != length)):
        raise OrbitMismatch("the base rows do not map onto base rows of one length")
    # fragment j from p goes to fragment j from p+1: the half-edges shift, or
    # onto a row that runs back, 2k + s goes to 2(last - j) + 1 - s
    shift = np.where(back, 2 * (first + last[image]) + 1, 2 * (first[image] - first))
    rho = np.repeat(shift, 2 * length) + np.arange(nh) * np.repeat(1 - 2 * back, 2 * length)

    if np.any(np.bincount(rho, minlength=nh) != 1):
        raise OrbitMismatch("the rotation does not map the half-edges one to one")
    if not (np.array_equal(rho[nxt], nxt[rho])
            and np.array_equal(rho[0::2] ^ 1, rho[1::2])):
        raise OrbitMismatch("the rotation of the face cycles does not commute with the"
                            " face successor and the twin")
    if not np.array_equal(rho[rim], nxt[rim]):
        raise OrbitMismatch("the rotation does not move the outer face one step along it")
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
