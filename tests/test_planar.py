import math

import pytest

from polydissect import (
    AmbiguousClustering,
    OrbitMismatch,
    PlanarGraph,
    Point2,
    PolygonSpec,
    Segment,
    TraversalIncomplete,
    base_segments,
    build_graph,
    enumerate_faces,
    face_vertices,
    orbit_census,
    split_all_fast,
)
from polydissect.reference import reference_table


def graph_for(n):
    return build_graph(split_all_fast(base_segments(PolygonSpec(n))))


class TestBuildGraph:
    def test_hexagon_structure(self):
        g = graph_for(3)
        assert len(g.vertices) == 7
        assert len(g.edges) == 12
        center = min(range(7), key=lambda v: math.hypot(*g.vertices[v]))
        assert math.hypot(*g.vertices[center]) < 1e-9
        assert g.degree(center) == 6

    def test_square_structure(self):
        g = graph_for(2)
        assert len(g.vertices) == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_octagon_structure(self):
        g = graph_for(4)
        assert len(g.vertices) == 24
        assert len(g.edges) == 48

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_minimum_degree_is_two(self, n):
        g = graph_for(n)
        assert min(g.degree(v) for v in range(len(g.vertices))) >= 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_center_degree_for_odd_n(self, n):
        g = graph_for(n)
        center = min(range(len(g.vertices)), key=lambda v: math.hypot(*g.vertices[v]))
        assert g.degree(center) == 2 * n

    def test_coincident_edges_raise(self):
        # duplicate segments collapse onto the same vertices and angles
        s = Segment(Point2(0.0, 0.0), Point2(1.0, 0.0))
        with pytest.raises(AmbiguousClustering):
            build_graph([s, Segment(Point2(0.0, 0.0), Point2(1.0, 0.0))])


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
        assert math.hypot(*octagons[0].centroid) < 1e-9

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

    def test_inconsistent_rings_raise(self):
        v = [Point2(0.0, 0.0), Point2(1.0, 0.0)]
        with pytest.raises(TraversalIncomplete):
            enumerate_faces(PlanarGraph(vertices=v, edges=[(0, 1)], rings=[[0], []]))
        with pytest.raises(TraversalIncomplete):
            enumerate_faces(PlanarGraph(vertices=v, edges=[(0, 1)], rings=[[0, 1], [1]]))


class TestOrbitCensus:
    @pytest.mark.parametrize("n,per_ray", [(3, 1), (4, 3), (5, 5), (6, 12), (7, 16), (8, 31)])
    def test_caption_counts(self, n, per_ray):
        spec = PolygonSpec(n)
        faces = enumerate_faces(graph_for(n))
        census = orbit_census(faces, spec)
        assert census.per_ray == per_ray
        assert census.central == (1 if n % 2 == 0 else 0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_orbit_partition(self, n):
        spec = PolygonSpec(n)
        faces = enumerate_faces(graph_for(n))
        census = orbit_census(faces, spec)
        inner_count = sum(1 for f in faces if not f.is_outer)
        assert sum(census.orbit_sizes) == inner_count
        assert set(census.orbit_sizes) <= {1, spec.N}
        assert census.orbit_sizes.count(1) == census.central
        assert census.per_ray * spec.N + census.central == inner_count

    @pytest.mark.parametrize("n", [20, 22, 23, 25, 26, 30])
    def test_census_of_large_polygons_matches_the_reference(self, n):
        # the smallest tiles here have area ~2e-10: their centroids must not
        # lose the 10*fuzz match radius to cancellation
        spec = PolygonSpec(n)
        census = orbit_census(enumerate_faces(graph_for(n)), spec)
        reference = {r.n: r for r in reference_table()}[n]
        assert census.per_ray * spec.N + census.central == reference.F

    def test_face_orbit_assignment_covers_inner_faces(self):
        spec = PolygonSpec(4)
        faces = enumerate_faces(graph_for(4))
        census = orbit_census(faces, spec)
        for face, orbit in zip(faces, census.face_orbits):
            assert (orbit == -1) == face.is_outer
        assert len(set(census.face_orbits) - {-1}) == len(census.orbit_sizes)

    def test_wrong_rotation_order_raises(self):
        faces = enumerate_faces(graph_for(4))
        with pytest.raises(OrbitMismatch):
            orbit_census(faces, PolygonSpec(5))

    def test_a_centroid_hitting_two_faces_raises(self):
        # a repeated inner face: the rotated centroid of its predecessor in
        # the orbit now matches two faces
        faces = enumerate_faces(graph_for(4))
        k = next(i for i, f in enumerate(faces) if not f.is_outer)
        with pytest.raises(OrbitMismatch, match="matches 2 faces"):
            orbit_census(faces + [faces[k]], PolygonSpec(4))

    def test_accepts_prefiltered_inner_faces(self):
        spec = PolygonSpec(4)
        faces = enumerate_faces(graph_for(4))
        inner_only = [f for f in faces if not f.is_outer]
        census = orbit_census(inner_only, spec)
        assert census.per_ray == 3
        assert census.central == 1


def test_face_vertices_walks_the_boundary():
    g = graph_for(2)
    faces = enumerate_faces(g)
    inner = next(f for f in faces if not f.is_outer)
    verts = face_vertices(g, inner)
    assert sorted(verts) == [0, 1, 2, 3]
