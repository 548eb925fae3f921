import math

import numpy as np
import pytest

from polydissect import (
    Faces,
    OrbitMismatch,
    PlanarGraph,
    PolygonSpec,
    TraversalIncomplete,
    base_segments,
    build_graph,
    counts,
    enumerate_faces,
    orbit_census,
    split_all_fast,
)
from polydissect import planar
from polydissect.planar import _cycles
from polydissect.reference import reference_table

from conftest import spread_face_orbits


def graph_for(n):
    return build_graph(split_all_fast(base_segments(PolygonSpec(n))))


def pick(faces, idx):
    """The faces listed by ``idx``, in that order, as ``Faces`` arrays."""
    idx = np.asarray(idx, dtype=np.int64)
    lo, hi = faces.start[idx], faces.start[idx + 1]
    return Faces(cycle=np.concatenate([faces.cycle[a:b] for a, b in zip(lo, hi)]),
                 start=np.concatenate(([0], np.cumsum(hi - lo))),
                 signed_area=faces.signed_area[idx])


def degrees(g):
    """The number of edges at each vertex."""
    return np.bincount(g.edges.reshape(-1), minlength=len(g.vertices))


def vertex_means(g, faces):
    """The mean of each face's vertices, as an (F, 2) array."""
    pts = g.vertices[g.edges.reshape(-1)[faces.cycle]]
    return np.add.reduceat(pts, faces.start[:-1]) / np.diff(faces.start)[:, None]


class TestBuildGraph:
    def test_hexagon_structure(self):
        g = graph_for(3)
        assert len(g.vertices) == 7
        assert len(g.edges) == 12
        center = min(range(7), key=lambda v: math.hypot(*g.vertices[v]))
        assert math.hypot(*g.vertices[center]) < 1e-9
        assert degrees(g)[center] == 6

    def test_square_structure(self):
        g = graph_for(2)
        assert len(g.vertices) == 4
        assert degrees(g).tolist() == [2] * 4

    def test_octagon_structure(self):
        g = graph_for(4)
        assert len(g.vertices) == 24
        assert len(g.edges) == 48

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_minimum_degree_is_two(self, n):
        g = graph_for(n)
        assert degrees(g).min() >= 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_center_degree_for_odd_n(self, n):
        g = graph_for(n)
        center = min(range(len(g.vertices)), key=lambda v: math.hypot(*g.vertices[v]))
        assert degrees(g)[center] == 2 * n

    def test_coincident_edges_raise(self):
        # duplicate segments overlap along their whole length, which the
        # split that build_graph reads its vertices from refuses
        with pytest.raises(ValueError, match="collinear overlapping"):
            build_graph(split_all_fast(np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]])))


class TestEnumerateFaces:
    def test_hexagon_faces_are_triangles(self):
        g = graph_for(3)
        faces = enumerate_faces(g)
        inner = [f for f in faces if not f.is_outer]
        assert len(inner) == 6
        assert all(len(f.boundary) == 3 for f in inner)

    def test_octagon_has_a_central_octagonal_tile(self):
        g = graph_for(4)
        faces = enumerate_faces(g)
        inner = [f for f in faces if not f.is_outer]
        assert len(inner) == 25
        octagons = [f for f in inner if len(f.boundary) == 8]
        assert len(octagons) == 1
        corners = g.vertices[g.edges.reshape(-1)[list(octagons[0].boundary)]]
        assert math.hypot(*corners.mean(axis=0)) < 1e-9

    def test_square_has_one_inner_face(self):
        faces = enumerate_faces(graph_for(2))
        assert sum(1 for f in faces if not f.is_outer) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_inner_face_count_equals_euler(self, n):
        split = split_all_fast(base_segments(PolygonSpec(n)))
        g = build_graph(split)
        faces = enumerate_faces(g)
        inner = [f for f in faces if not f.is_outer]
        assert len(inner) == 1 + len(split) - len(g.vertices)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_signed_areas(self, n):
        faces = enumerate_faces(graph_for(n))
        polygon_area = n * math.sin(math.pi / n)
        outer = [f for f in faces if f.is_outer]
        inner = [f for f in faces if not f.is_outer]
        assert len(outer) == 1
        assert outer[0].signed_area == pytest.approx(-polygon_area, abs=1e-6)
        assert all(f.signed_area > 0 for f in inner)
        assert sum(f.signed_area for f in inner) == pytest.approx(polygon_area, abs=1e-6)

    def test_every_half_edge_is_used_once(self):
        g = graph_for(4)
        faces = enumerate_faces(g)
        seen = [h for f in faces for h in f.boundary]
        assert sorted(seen) == list(range(2 * len(g.edges)))

    def test_a_ring_order_that_is_not_planar_raises(self):
        # two half-edges swapped at a vertex of degree 3: the walk finds 5
        # faces where Euler's formula asks for 7
        g = graph_for(3)
        assert degrees(g)[0] == 3
        half = g.ring_half.copy()
        half[[0, 1]] = half[[1, 0]]
        with pytest.raises(TraversalIncomplete, match="5 faces, Euler's formula 7"):
            enumerate_faces(PlanarGraph(g.vertices, g.edges, half))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_rings_give_faces_or_a_typed_error(self, n, seed):
        # the successor is a permutation for any order inside the rings, so
        # the walk ends; it either covers every half-edge once or is refused
        # by the outer-face or Euler check
        g = graph_for(n)
        origin = g.edges.reshape(-1)
        rng = np.random.default_rng(seed)
        half = g.ring_half[np.lexsort((rng.random(len(origin)), origin[g.ring_half]))]
        try:
            faces = enumerate_faces(PlanarGraph(g.vertices, g.edges, half))
        except TraversalIncomplete as exc:
            assert "outer face" in str(exc) or "Euler" in str(exc), exc
        else:
            assert sorted(faces.cycle.tolist()) == list(range(len(origin)))

    def test_edges_that_are_not_integer_vertex_ids_raise(self):
        g = graph_for(3)
        with pytest.raises(TraversalIncomplete, match="integer vertex ids"):
            enumerate_faces(PlanarGraph(g.vertices, g.edges.astype(float), g.ring_half))

    def test_inconsistent_rings_raise(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0]])
        e = np.array([[0, 1]])
        with pytest.raises(TraversalIncomplete):
            enumerate_faces(PlanarGraph(v, e, ring_half=np.array([0])))
        with pytest.raises(TraversalIncomplete):
            enumerate_faces(PlanarGraph(v, e, ring_half=np.array([0, 1, 1])))

    def test_a_face_too_thin_for_the_shoelace_has_zero_area(self):
        # a unit square with a triangle hung inside corner 0 whose shoelace
        # terms underflow to zero
        v = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2e-170, 1e-170], [1e-170, 2e-170]])
        e = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 4], [4, 5], [5, 0]])
        origin, toward = e.reshape(-1), e[:, ::-1].reshape(-1)
        d = v[toward] - v[origin]
        half = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), origin))
        faces = enumerate_faces(PlanarGraph(v.astype(float), e, half))
        assert faces.signed_area.tolist() == [1.0, -1.0, 0.0]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_face_is_a_closed_walk_from_its_smallest_half_edge(self, n):
        g = graph_for(n)
        faces = enumerate_faces(g)
        leads = [f.boundary[0] for f in faces]
        assert leads == sorted(set(leads))
        origin = g.edges.reshape(-1)
        for f in faces:
            assert f.boundary[0] == min(f.boundary)
            for h, following in zip(f.boundary, f.boundary[1:] + f.boundary[:1]):
                assert origin[following] == origin[h ^ 1]
        assert sorted(h for f in faces for h in f.boundary) == list(range(2 * len(g.edges)))


class TestFaces:
    def test_views_are_the_array_slices(self):
        faces = enumerate_faces(graph_for(5))
        assert len(faces) == len(faces.signed_area) == len(faces.start) - 1
        views = list(faces)
        assert len(views) == len(faces)
        for i, f in enumerate(views):
            lo, hi = faces.start[i], faces.start[i + 1]
            assert f.boundary == tuple(faces.cycle[lo:hi].tolist())
            assert f.signed_area == faces.signed_area[i]
            assert f.is_outer == (faces.signed_area[i] < 0)
        assert sum(f.is_outer for f in views) == 1

    def test_indexing_follows_the_sequence_rules(self):
        faces = enumerate_faces(graph_for(4))
        assert faces[-1] == faces[len(faces) - 1]
        assert faces[-len(faces)] == faces[0]
        with pytest.raises(IndexError):
            faces[len(faces)]
        with pytest.raises(IndexError):
            faces[-len(faces) - 1]
        assert faces[np.int64(2)] == faces[2]

    @pytest.mark.parametrize("index", [slice(1, 3), 1.0, None])
    def test_a_face_index_that_is_not_an_integer_raises(self, index):
        faces = enumerate_faces(graph_for(3))
        with pytest.raises(TypeError, match="integer"):
            faces[index]


def cycles_oracle(succ):
    """(lead, size, members) of the permutation, by walking every cycle once
    from its smallest item."""
    seen = [False] * len(succ)
    lead, size, members = [], [], []
    for i in range(len(succ)):
        if seen[i]:
            continue
        lead.append(i)
        j = i
        while not seen[j]:
            seen[j] = True
            members.append(j)
            j = succ[j]
        size.append(len(members) - sum(size))
    return lead, size, members


def assert_cycles_like_the_oracle(succ):
    got = tuple(a.tolist() for a in _cycles(succ))
    assert got == cycles_oracle(succ.tolist())


def cycle_through(order):
    """The permutation with one cycle visiting ``order`` in turn."""
    succ = np.empty(len(order), dtype=np.int64)
    succ[order] = np.roll(order, -1)
    return succ


def short_cycles(rng, items, n):
    """A permutation of 0..n-1: cycles of 1 to 5 of ``items`` each, the rest fixed."""
    succ = np.arange(n)
    cuts = np.cumsum(rng.integers(1, 6, size=len(items)))
    for chunk in np.split(items, cuts[cuts < len(items)]):
        succ[chunk] = np.roll(chunk, -1)
    return succ


class TestCycleLabels:
    @pytest.mark.parametrize("seed", range(5))
    def test_many_short_cycles(self, seed):
        rng = np.random.default_rng(seed)
        assert_cycles_like_the_oracle(short_cycles(rng, rng.permutation(20_000), 20_000))

    @pytest.mark.parametrize("kind", ["increasing", "decreasing", "random"])
    def test_one_long_cycle(self, kind, monkeypatch):
        # an increasing cycle makes every item walk to the end: the walk
        # must hand it to pointer doubling, or it is quadratic
        order = {"increasing": np.arange(100_000),
                 "decreasing": np.arange(100_000)[::-1],
                 "random": np.random.default_rng(7).permutation(100_000)}[kind]
        succ = cycle_through(order)
        calls, min_labels = [], planar._min_labels

        def counted(succ):
            calls.append(len(succ))
            return min_labels(succ)

        monkeypatch.setattr(planar, "_min_labels", counted)
        assert_cycles_like_the_oracle(succ)
        if kind == "increasing":
            assert calls == [100_000]

    @pytest.mark.parametrize("seed", range(3))
    def test_long_cycles_among_short_ones(self, seed):
        # the walk closes the short cycles and leaves the long ones open
        rng = np.random.default_rng(seed)
        items = rng.permutation(30_000)
        succ = short_cycles(rng, items[:20_000], 30_000)
        for part in np.split(np.sort(items[20_000:]), [3_000, 7_000]):
            succ[part] = np.roll(part, -1)
        assert_cycles_like_the_oracle(succ)

    def test_identity(self):
        succ = np.arange(1000)
        lead, size, members = _cycles(succ)
        assert np.array_equal(lead, succ) and np.array_equal(members, succ)
        assert not np.any(size - 1)
        assert all(len(a) == 0 for a in _cycles(np.arange(0)))


@pytest.mark.parametrize("n", [*range(2, 14), 20, 24, 39])
def test_the_figure_route_never_falls_back_to_pointer_doubling(n, monkeypatch):
    # face cycles and rotation orbits are short: the walk closes them all
    # well inside its budget
    def refuse(succ):
        raise AssertionError("the walk handed a permutation to pointer doubling")

    g = graph_for(n)
    monkeypatch.setattr(planar, "_min_labels", refuse)
    faces = enumerate_faces(g)
    census = orbit_census(faces)
    reference = {r.n: r for r in reference_table()}[n]
    assert len(faces) - 1 == reference.F
    assert (census.per_ray, census.central) == (reference.per_ray, reference.central)


class TestOrbitCensus:
    @pytest.mark.parametrize("n,per_ray", [(3, 1), (4, 3), (5, 5), (6, 12), (7, 16), (8, 31)])
    def test_caption_counts(self, n, per_ray):
        faces = enumerate_faces(graph_for(n))
        census = orbit_census(faces)
        assert census.per_ray == per_ray
        assert census.central == (1 if n % 2 == 0 else 0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_orbit_partition(self, n):
        spec = PolygonSpec(n)
        faces = enumerate_faces(graph_for(n))
        census = orbit_census(faces)
        inner_count = sum(1 for f in faces if not f.is_outer)
        assert sum(census.orbit_sizes) == inner_count
        assert set(census.orbit_sizes) <= {1, spec.N}
        assert census.orbit_sizes.count(1) == census.central
        assert census.per_ray * spec.N + census.central == inner_count

    @pytest.mark.parametrize("n", range(15, 40))
    def test_census_of_large_polygons_matches_the_reference(self, n):
        # tiles down to area ~2e-10: the rotation is read off the edge layout,
        # and its checks hold on up to 1.3 million half-edges at n = 39
        spec = PolygonSpec(n)
        census = orbit_census(enumerate_faces(graph_for(n)))
        reference = {r.n: r for r in reference_table()}[n]
        assert census.per_ray * spec.N + census.central == reference.F

    def test_face_orbit_assignment_covers_inner_faces(self):
        faces = enumerate_faces(graph_for(4))
        census = orbit_census(faces)
        assert census.face_orbits.dtype == np.int64
        for face, orbit in zip(faces, census.face_orbits):
            assert (orbit == -1) == face.is_outer
        assert len(set(census.face_orbits) - {-1}) == len(census.orbit_sizes)

    def test_wrong_rotation_order_raises(self):
        # N is read off the outer face: an odd number of sides, or fewer than 4
        for corners in (3, 5):
            z = np.exp(2j * np.pi * np.arange(corners) / corners)
            sides = np.column_stack((z.real, z.imag, np.roll(z.real, -1), np.roll(z.imag, -1)))
            with pytest.raises(OrbitMismatch, match=f"outer face has {corners} sides"):
                orbit_census(enumerate_faces(build_graph(split_all_fast(sides))))
        # two edges between the same two vertices, bounding one inner face
        faces = Faces(np.array([0, 3, 1, 2]), np.array([0, 2, 4]), np.array([-1.0, 1.0]))
        with pytest.raises(OrbitMismatch, match="outer face has 2 sides"):
            orbit_census(faces)

    def test_a_repeated_face_or_half_edge_raises(self):
        faces = enumerate_faces(graph_for(4))
        k = next(i for i, f in enumerate(faces) if not f.is_outer)
        with pytest.raises(OrbitMismatch, match="every half-edge exactly once"):
            orbit_census(pick(faces, [*range(len(faces)), k]))
        cycle = faces.cycle.copy()
        cycle[1] = cycle[0]
        with pytest.raises(OrbitMismatch, match="every half-edge exactly once"):
            orbit_census(Faces(cycle, faces.start, faces.signed_area))

    def test_an_odd_number_of_half_edges_raises(self):
        # the last half-edge would have no twin
        faces = Faces(np.array([0, 1, 2, 4, 3]), np.array([0, 4, 5]), np.array([-1.0, 1.0]))
        with pytest.raises(OrbitMismatch):
            orbit_census(faces)

    def test_a_half_edge_swapped_between_two_faces_raises(self):
        # the cycles still hold every half-edge once, but not as the faces do
        faces = enumerate_faces(graph_for(4))
        size = np.diff(faces.start)
        inner = np.flatnonzero(faces.signed_area > 0.0)
        a, b = inner[size[inner] == size[inner[0]]][:2]
        cycle = faces.cycle.copy()
        i, j = faces.start[a], faces.start[b]
        cycle[[i, j]] = cycle[[j, i]]
        with pytest.raises(OrbitMismatch):
            orbit_census(Faces(cycle, faces.start, faces.signed_area))

    def test_fewer_signed_areas_than_face_cycles_raise(self):
        faces = enumerate_faces(graph_for(4))
        short = Faces(faces.cycle, faces.start, faces.signed_area[:-1])
        with pytest.raises(OrbitMismatch, match="signed areas"):
            orbit_census(short)

    def test_faces_without_an_outer_face_raise(self):
        faces = enumerate_faces(graph_for(4))
        flipped = Faces(faces.cycle, faces.start, np.abs(faces.signed_area))
        with pytest.raises(OrbitMismatch, match="one outer face"):
            orbit_census(flipped)

    @pytest.mark.parametrize("name", ["cycle", "start"])
    def test_float_face_arrays_raise(self, name):
        # whole-number floats still are not half-edge ids or offsets
        faces = enumerate_faces(graph_for(3))
        arrays = {"cycle": faces.cycle, "start": faces.start}
        arrays[name] = arrays[name].astype(float)
        with pytest.raises(OrbitMismatch, match="not integer arrays"):
            orbit_census(Faces(arrays["cycle"], arrays["start"], faces.signed_area))

    def test_an_asymmetric_arrangement_raises(self):
        # one diagonal missing: the rotation of the face cycles cannot close
        spec = PolygonSpec(6)
        split = split_all_fast(np.delete(base_segments(spec), 2 * 6, axis=0))
        with pytest.raises(OrbitMismatch):
            orbit_census(enumerate_faces(build_graph(split)))

    @pytest.mark.parametrize("n", range(2, 25))
    def test_census_matches_the_spread_rotation(self, n):
        faces = enumerate_faces(graph_for(n))
        assert np.array_equal(orbit_census(faces).face_orbits, spread_face_orbits(faces))

    @pytest.mark.parametrize("pick", ["middles", "first and middle", "last and first",
                                      "side and middle"])
    def test_edges_numbered_out_of_row_order_raise(self, pick):
        # a valid graph whose edges 'a' and 'b', of two different rows, trade
        # numbers: the layout no longer holds the rotation
        n = 6
        g = graph_for(n)
        last = np.flatnonzero(np.isin(g.edges[:, 1], g.edges[:2 * n, 0]))
        first = np.append(0, last[:-1] + 1)
        length = last - first + 1
        r = np.argmax(length)
        s = np.flatnonzero((length >= 3) & (length < length[r]))[-1]
        a, b = {"middles": (first[r] + 1, first[s] + 1),
                "first and middle": (first[r], first[s] + 1),
                "last and first": (last[r], first[s]),
                "side and middle": (0, first[s] + 1)}[pick]
        swap = np.arange(2 * len(g.edges))
        swap[[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]] = [2 * b, 2 * b + 1, 2 * a, 2 * a + 1]
        faces = enumerate_faces(g)
        with pytest.raises(OrbitMismatch):
            orbit_census(Faces(swap[faces.cycle], faces.start, faces.signed_area))

    @pytest.mark.parametrize("n,row", [(5, 10), (5, 14), (6, 20), (7, 14), (7, 48)])
    def test_a_missing_diagonal_breaks_the_row_map(self, n, row):
        # the row whose image is the missing diagonal has nowhere to go
        split = split_all_fast(np.delete(base_segments(PolygonSpec(n)), row, axis=0))
        with pytest.raises(OrbitMismatch, match="do not map onto base rows"):
            orbit_census(enumerate_faces(build_graph(split)))

    @pytest.mark.slow
    def test_census_at_n_64_matches_the_orbit_route(self):
        spec = PolygonSpec(64)
        faces = enumerate_faces(build_graph(split_all_fast(base_segments(spec))))
        census = orbit_census(faces)
        orbit = counts(spec)
        assert (census.per_ray, census.central) == (orbit.per_ray, orbit.central)
        assert np.array_equal(census.face_orbits, spread_face_orbits(faces))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_orbits_are_rotations_of_the_centroids(self, n):
        # the census never looks at coordinates: check it against them; a
        # face's vertex mean rotates with the face
        spec = PolygonSpec(n)
        g = graph_for(n)
        faces = enumerate_faces(g)
        orbit = orbit_census(faces).face_orbits
        inner = np.flatnonzero(orbit >= 0)
        size = np.bincount(orbit[inner])[orbit[inner]]
        central, ray = inner[size == 1], inner[size == spec.N]
        assert len(central) == 1 - n % 2
        mean = vertex_means(g, faces)
        assert np.all(np.hypot(*mean[central].T) < 1e-9)
        x, y = mean[ray].T
        angle = np.arctan2(y, x)
        order = np.lexsort((angle, orbit[ray]))
        radius = np.hypot(x, y)[order].reshape(-1, spec.N)
        assert np.all(radius.max(axis=1) - radius.min(axis=1) < 1e-9)
        angle = angle[order].reshape(-1, spec.N)
        gaps = np.diff(np.column_stack((angle, angle[:, 0] + 2.0 * math.pi)), axis=1)
        assert np.all(np.abs(gaps - 2.0 * math.pi / spec.N) < 1e-9)
