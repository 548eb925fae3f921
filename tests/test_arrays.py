"""The array form of the full route agrees with the Segment-list form."""

import numpy as np
import pytest

from polydissect import (
    AmbiguousClustering,
    PlanarGraph,
    Point2,
    PolygonSpec,
    Segment,
    TraversalIncomplete,
    base_segments,
    build_graph,
    cluster_endpoints,
    enumerate_faces,
    split_all_fast,
)
from polydissect.geom import merge_runs, merge_sorted_runs, segment_array
from polydissect.polygon import base_array


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
def test_base_segments_wrap_the_base_array(n):
    spec = PolygonSpec(n)
    rows = [[*s.p0, *s.p1] for s in base_segments(spec)]
    assert rows == base_array(spec).tolist()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_array_split_matches_the_segment_split(n):
    spec = PolygonSpec(n)
    frags = split_all_fast(base_array(spec))
    assert isinstance(frags, np.ndarray) and frags.shape[1] == 4
    assert np.array_equal(frags, segment_array(split_all_fast(base_segments(spec))))
    labels, centroids = cluster_endpoints(frags)
    same_labels, same_centroids = cluster_endpoints(split_all_fast(base_segments(spec)))
    assert np.array_equal(labels, same_labels) and centroids == same_centroids


@pytest.mark.parametrize("n", [3, 6, 9])
def test_graph_from_arrays_equals_graph_from_segments(n):
    spec = PolygonSpec(n)
    from_array = build_graph(split_all_fast(base_array(spec)))
    from_list = build_graph(split_all_fast(base_segments(spec)))
    assert from_array == from_list
    assert enumerate_faces(from_array) == enumerate_faces(from_list)


def test_graph_arrays_match_its_lists():
    g = build_graph(split_all_fast(base_array(PolygonSpec(5))))
    built = g.arrays()
    read = PlanarGraph(g.vertices, g.edges, g.rings).arrays()
    for a, b in zip(built, read):
        assert np.array_equal(a, b)


def test_edges_coinciding_across_the_cut_raise():
    # at the origin the two edges point at angles just below +pi and just
    # above -pi: 8e-10 rad apart through the cut, while their far ends stay
    # more than 3*fuzz apart
    a = Segment(Point2(0.0, 0.0), Point2(-1.0, 4e-10))
    b = Segment(Point2(0.0, 0.0), Point2(-1.0, -4e-10))
    with pytest.raises(AmbiguousClustering, match="across the cut"):
        build_graph([a, b])


def test_ring_half_edges_out_of_range_raise():
    v = [Point2(0.0, 0.0), Point2(1.0, 0.0)]
    with pytest.raises(TraversalIncomplete):
        enumerate_faces(PlanarGraph(vertices=v, edges=[(0, 1)], rings=[[0], [5]]))


def merge_runs_loop(params, fuzz):
    """The run rule as a plain loop over the sorted values."""
    ts = sorted(params)
    out, sizes = [ts[0]], [1]
    for t in ts[1:]:
        if t - out[-1] < fuzz:
            if len(out) > 1:
                out[-1] = t
            sizes[-1] += 1
        else:
            out.append(t)
            sizes.append(1)
    return out, sizes


@pytest.mark.parametrize("seed", range(5))
def test_vectorized_runs_follow_the_loop_in_every_group(seed):
    # values on a 0.4 grid with fuzz 1: runs of every length, ties, and
    # first runs that a chained rule would extend
    rng = np.random.default_rng(seed)
    lists = [(rng.integers(-4, 30, size=rng.integers(1, 12)) * 0.4).tolist() for _ in range(20)]
    expected = [merge_runs_loop(v, 1.0) for v in lists]
    assert [merge_runs(v, 1.0) for v in lists] == expected
    group = np.repeat(np.arange(len(lists)), [len(v) for v in lists])
    ts = np.concatenate([np.sort(v) for v in lists])
    keep, sizes = merge_sorted_runs(group, ts, 1.0)
    assert ts[keep].tolist() == [x for values, _ in expected for x in values]
    assert sizes.tolist() == [k for _, counts in expected for k in counts]


@pytest.mark.parametrize("n", [5, 8])
def test_face_areas_and_centroids_follow_the_loop(n):
    # the vectorized sums run in another order, so they may differ from the
    # loop in the last bits only
    g = build_graph(split_all_fast(base_array(PolygonSpec(n))))
    for face in enumerate_faces(g):
        pts = [g.vertices[g.origin(h)] for h in face.boundary]
        ox, oy = pts[0]
        rel = [(x - ox, y - oy) for x, y in pts]
        area2 = cx6 = cy6 = 0.0
        for (ax, ay), (bx, by) in zip(rel, rel[1:] + rel[:1]):
            w = ax * by - bx * ay
            area2 += w
            cx6 += (ax + bx) * w
            cy6 += (ay + by) * w
        assert face.signed_area == pytest.approx(0.5 * area2, rel=1e-12, abs=1e-15)
        assert face.centroid.x == pytest.approx(ox + cx6 / (3.0 * area2), abs=1e-14)
        assert face.centroid.y == pytest.approx(oy + cy6 / (3.0 * area2), abs=1e-14)
