"""The arrays of the full route: pinned bytes, the checks at each stage's door,
and the vectorized kernels against plain loops."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from polydissect import (
    AmbiguousClustering,
    PlanarGraph,
    PolygonSpec,
    TraversalIncomplete,
    base_segments,
    build_graph,
    cluster_endpoints,
    count_vertices,
    counts,
    enumerate_faces,
    render_svg,
    split_all,
    split_all_fast,
)
from polydissect import arrangement
from polydissect.geom import Split, merge_sorted_runs


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_splitting_the_fragments_again_changes_nothing(n):
    split = split_all_fast(base_segments(PolygonSpec(n)))
    assert isinstance(split, Split) and split.frags.shape[1] == 4
    assert len(split) == len(split.frags)
    # the fragments and vertices come back as they are
    again = split_all_fast(split.frags)
    for name in ("frags", "labels", "points"):
        assert np.array_equal(getattr(again, name), getattr(split, name))


# SHA-256 of the fragment array's bytes: the golden SVGs round to six
# decimals, so only this pins every float bit of the split
FRAGMENT_DIGESTS = {
    5: "31fb62fddc7276d101428720f849435cde740d248bf6decf23c2aa45c6074e80",
    12: "91d65ee26573b1ddb952b9e2690d9b8594fcc2e308724423ce261fd07b0d6742",
    24: "9bbb99b02a48b5cf22efd1c1258106b85af3e6cfcc639be9521d32ad60b2725a",
    39: "cff856cf256229915c3a23b9b0a544077c3389bc9c831446865df298f1a45f77",
}


@pytest.mark.parametrize("n", sorted(FRAGMENT_DIGESTS))
def test_fragment_bytes_are_pinned(n):
    frags = split_all_fast(base_segments(PolygonSpec(n))).frags
    assert hashlib.sha256(frags.tobytes()).hexdigest() == FRAGMENT_DIGESTS[n]


# SHA-256 of the rings' half-edge order, which the SVGs do not show; the
# rings come in the order of the vertex numbers (first fragment end), each
# in the order of its headings. For odd n the sides parallel to side
# (n - 1)/2 are horizontal, and a leftward direction ranks first or last by
# the sign of its base row's dy, so only there a ring may start elsewhere
RING_DIGESTS = {
    5: "7937a96f0f93a433df17dd3e1bf10e39871829a141adf0a820a4d581a710abd0",
    12: "3ce65868c9f9be3350c0660198e9aeb87f8202e66bfbc6ea49c89b0f34724c8f",
    24: "0b9a69f458a1485a3c4d188f6b58438ce36a63688abcc937e2dd882bfe1b4224",
}


@pytest.mark.parametrize("n", sorted(RING_DIGESTS))
def test_ring_order_is_pinned(n):
    g = build_graph(split_all_fast(base_segments(PolygonSpec(n))))
    assert hashlib.sha256(g.ring_half.tobytes()).hexdigest() == RING_DIGESTS[n]


# SHA-256 of the face cycles, offsets and signed areas, in that order: the
# faces the census and the tile fills are read from
FACE_DIGESTS = {
    5: "377fd5f12c3dfaad57bdb4be9fc4b87d1db99f87e395ff6e1032ed1e0bc2903e",
    12: "d203e24128f370c03d282a9e5cc4a493033ded225cc8d71c899a1200d05b6ad7",
    24: "249d0eb3f7a9d49f6cf49133edde870bb9a9dd939fa3f4a93ff5c0a91c92ec3e",
}


@pytest.mark.parametrize("n", sorted(FACE_DIGESTS))
def test_faces_are_pinned(n):
    f = enumerate_faces(build_graph(split_all_fast(base_segments(PolygonSpec(n)))))
    data = f.cycle.tobytes() + f.start.tobytes() + f.signed_area.tobytes()
    assert hashlib.sha256(data).hexdigest() == FACE_DIGESTS[n]


def test_the_face_walk_frees_its_temporaries():
    # the walk's own peak above its input; 33 MB when it kept every
    # half-edge-sized temporary alive to the end
    g = build_graph(split_all_fast(base_segments(PolygonSpec(24))))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        enumerate_faces(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 16 * 2**20


# SHA-256 of the vertex labels' bytes followed by the vertex coordinates'
# bytes: the vertex identity the graph, the faces and the SVGs are built on
CLUSTER_DIGESTS = {
    5: "8655e9bb532bff90a4ffa929083b390d712f59dd5104df5ef87830df836fc518",
    12: "0c51e1426ddb225c9786243468b8c050b63f5f562cb25ae7a31c9c926d47e607",
    24: "bf20dabfa7fa927006a07481feeef0be8e57c12cfc467a1895e4dcb9712b6d1f",
}


@pytest.mark.parametrize("n", sorted(CLUSTER_DIGESTS))
def test_vertex_clusters_are_pinned(n):
    labels, points = cluster_endpoints(split_all_fast(base_segments(PolygonSpec(n))))
    assert labels.dtype == np.int64
    digest = hashlib.sha256(labels.tobytes() + points.tobytes()).hexdigest()
    assert digest == CLUSTER_DIGESTS[n]


GRAPH_STAGES = (cluster_endpoints, count_vertices, build_graph, render_svg)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,)])
@pytest.mark.parametrize("stage", [split_all, split_all_fast, cluster_endpoints,
                                   count_vertices, build_graph, render_svg])
def test_a_segment_array_that_is_not_k_by_4_raises(stage, shape):
    # rows of three or two numbers, or one flat row, are not segments; the
    # graph stages and the renderer take only a Split
    error, match = ((TypeError, "pass the Split") if stage in GRAPH_STAGES
                    else (ValueError, r"\(k, 4\) array"))
    with pytest.raises(error, match=match):
        stage(np.arange(np.prod(shape), dtype=float).reshape(shape) / 10.0)


ROWS = [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]]


@pytest.mark.parametrize("form", ["rows", "split"])
@pytest.mark.parametrize("splitter", [split_all, split_all_fast])
def test_segments_that_are_not_an_array_raise(splitter, form):
    # a plain list of rows, or a Split, is not the (m, 4) array the splitters
    # take; split.frags is
    segments = ROWS if form == "rows" else split_all_fast(np.array(ROWS))
    with pytest.raises(TypeError, match=r"pass an \(m, 4\) array"):
        splitter(segments)


def test_a_split_is_read_not_split_again(monkeypatch):
    # what split_all_fast returns reaches the vertex count, the graph and
    # the SVG without a second pair solve
    split = split_all_fast(base_segments(PolygonSpec(6)))

    def refuse(*args, **kwargs):
        raise AssertionError("a Split was split again")

    monkeypatch.setattr(arrangement, "_split", refuse)
    assert count_vertices(split) == counts(PolygonSpec(6)).V
    render_svg(split, build_graph(split))


def test_an_empty_segment_array_is_accepted():
    assert split_all(np.empty((0, 4))).shape == (0, 4)
    assert count_vertices(split_all_fast(np.empty((0, 4)))) == 0


def test_counts_beyond_the_reference_table_are_pinned():
    # SHA-256 of "n V E F per_ray central" lines for n = 40..64, which no
    # published table covers
    rows = "".join(f"{n} {c.V} {c.E} {c.F} {c.per_ray} {c.central}\n"
                   for n in range(40, 65) for c in [counts(PolygonSpec(n))])
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "162546c2556f7768f0d051c8bdee78e5695f9a64ad480213483a01b60582d8fd")


def test_edges_close_across_the_cut_are_ordered_by_heading():
    # at the origin the two edges point at angles just below +pi and just
    # above -pi, 8e-10 rad apart through the cut; their directions are not
    # parallel, so they have two headings, and the ring runs b, a
    g = build_graph(split_all_fast(np.array([[0.0, 0.0, -1.0, 4e-10],
                                             [0.0, 0.0, -1.0, -4e-10]])))
    assert g.edges.tolist() == [[0, 1], [0, 2]]
    assert g.ring_half.tolist() == [2, 0, 1, 3]


def test_a_fragment_whose_ends_merged_raises():
    # s = (0, 0)-(1, 0) meets the vertical c at x = 0.5 and the long line d
    # 2e-10 further on: the two hits on s stay apart, but the hits of s and
    # of each other merge on c and on d, so the hit of c and d joins s's two
    # points; a closure of the links would give the piece of s between them
    # both ends at one vertex
    p, d = np.array([0.5 + 2e-10, 0.0]), 1.2 * np.array([-4.0, 1.0]) / np.sqrt(17.0)
    base = np.array([[0.0, 0.0, 1.0, 0.0], [0.5, -1.0, 0.5, 1.0], [*(p - d), *(p + d)]])
    with pytest.raises(AmbiguousClustering, match="hit of segments 1 and 2 joins two vertices"):
        split_all_fast(base)


def test_a_single_fragment_whose_ends_merged_raises():
    # a base row 1.06e-10 long from one line of a crossing to the other is
    # one fragment; its hits with both lines link its two ends to the
    # crossing, which a closure of the links would merge into one vertex
    base = np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0],
                     [-0.75e-10, 0.0, 0.0, 0.75e-10]])
    with pytest.raises(AmbiguousClustering, match="hit of segments 1 and 2 joins two vertices"):
        split_all_fast(base)


def test_a_fragment_with_both_ends_at_one_vertex_raises():
    # fragment 1 runs from vertex 1 back to vertex 1
    split = Split(frags=np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1e-12]]),
                  labels=np.array([0, 1, 1, 1]),
                  points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                  heading=np.array([0, 2, 1, 3], dtype=np.uint8))
    with pytest.raises(AmbiguousClustering, match="both ends of fragment 1 are vertex 1"):
        build_graph(split)


def test_two_half_edges_with_one_heading_at_a_vertex_raise():
    # both fragments leave vertex 0 along heading 0
    split = Split(frags=np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 2.0, 0.0]]),
                  labels=np.array([0, 1, 0, 2]),
                  points=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                  heading=np.array([0, 1, 0, 1], dtype=np.uint8))
    with pytest.raises(AmbiguousClustering, match="leave vertex 0 with one heading"):
        build_graph(split)


def test_headings_are_small_integers_ranking_the_base_directions():
    # forward at p0 and backward at p1 of each fragment, ranked among the 2m
    # base directions by angle; the ranks fit the smallest unsigned dtype
    base = base_segments(PolygonSpec(6))
    split = split_all_fast(base)
    assert split.heading.dtype == np.min_scalar_type(2 * len(base) - 1)
    f = split.frags
    ends = np.column_stack((f[:, 2] - f[:, 0], f[:, 3] - f[:, 1],
                            f[:, 0] - f[:, 2], f[:, 1] - f[:, 3])).reshape(-1, 2)
    angle = np.arctan2(ends[:, 1], ends[:, 0])
    order = np.argsort(split.heading, kind="stable")
    assert np.all(np.diff(angle[order]) > -1e-12)


def one_edge_graph(ring_half):
    """The edge from (0, 0) to (1, 0) with the given rings."""
    return PlanarGraph(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), edges=np.array([[0, 1]]),
                       ring_half=np.array(ring_half))


def test_ring_half_edges_out_of_range_raise():
    with pytest.raises(TraversalIncomplete, match="outside"):
        enumerate_faces(one_edge_graph([0, 5]))


def test_fewer_vertices_than_rings_raise():
    # the edge names vertex 1, which has a ring but no coordinates
    g = one_edge_graph([0, 1])
    with pytest.raises(TraversalIncomplete, match=r"vertex ids in 0\.\.0"):
        enumerate_faces(PlanarGraph(g.vertices[:1], g.edges, g.ring_half))


def test_rings_of_float_half_edges_raise():
    g = build_graph(split_all_fast(base_segments(PolygonSpec(3))))
    with pytest.raises(TraversalIncomplete, match="outside the integers"):
        enumerate_faces(PlanarGraph(g.vertices, g.edges, g.ring_half.astype(float)))


def test_a_half_edge_in_another_vertex_ring_raises():
    # the walk alone accepts these rings: it finds cycles with exactly one
    # of negative area, which do not follow the geometry
    g = build_graph(split_all_fast(base_segments(PolygonSpec(2))))
    half = g.ring_half.copy()
    half[[0, 2]] = half[[2, 0]]
    with pytest.raises(TraversalIncomplete, match="sits in the ring"):
        enumerate_faces(PlanarGraph(g.vertices, g.edges, half))


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
    group = np.repeat(np.arange(len(lists)), [len(v) for v in lists])
    ts = np.concatenate([np.sort(v) for v in lists])
    keep, sizes = merge_sorted_runs(group, ts, 1.0)
    assert ts[keep].tolist() == [x for values, _ in expected for x in values]
    assert sizes.tolist() == [k for _, counts in expected for k in counts]


@pytest.mark.parametrize("n", [5, 8])
def test_face_areas_follow_the_loop(n):
    # the vectorized sums run in another order, so they may differ from the
    # loop in the last bits only
    g = build_graph(split_all_fast(base_segments(PolygonSpec(n))))
    origin = g.edges.reshape(-1)
    for face in enumerate_faces(g):
        pts = g.vertices[origin[list(face.boundary)]].tolist()
        ox, oy = pts[0]
        rel = [(x - ox, y - oy) for x, y in pts]
        area2 = sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(rel, rel[1:] + rel[:1]))
        assert face.signed_area == pytest.approx(0.5 * area2, rel=1e-12, abs=1e-15)
