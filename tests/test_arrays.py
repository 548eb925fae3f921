"""The arrays of the full route: pinned bytes, the checks at each stage's door,
and the vectorized kernels against plain loops."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import assert_merge_follows_the_loop, split_all
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
    split_all_fast,
)
from polydissect import arrangement
from polydissect.geom import Split


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


# SHA-256 of a Split's four arrays, frags, labels, points and heading, in
# that order, for every n = 2..64: every bit of the split
SPLIT_DIGESTS = {
    2: "29e021fda3de425ad4479a2982f0eaf3b71ea3fca4c974be802f31de960fdce3",
    3: "7ed52814447739d27132d6107a7aa1441a65b529208cfbfd18fe5bb52a13f096",
    4: "d0c6977ed752e208c9e44acf4c7c41cf6689dda43fb7ea95223b961d01a264f1",
    5: "5c6839a014241802eb3a04bd2ee476b47238d389e214f20ec6b2fe8ff28b8734",
    6: "8a51d022841ea60d67bf1d96a7d86b012a3347c69b46a894735cc9cd9c3fef94",
    7: "44b719789c409bde9543e24cf11c5b573000e1e00720a6321459d64f012bba90",
    8: "7316f3701514228604fdd148d34af051517bf7b90fb154875779fcfc47c52122",
    9: "403d8fe36c5ed48152f48731851d4dbbb551bbdfc482e60caa7d22c8c7991020",
    10: "6832947f3b274caab61f1e97d2311365a721f38b0bf0806128a5e597d0904a8e",
    11: "41166e315e9047515101414f239e2300d1c4caff1a49dea52654b0fac5489642",
    12: "78a4597c0b0d1f620b2ad6604f9bfe72f2d096cbdcfde27cd852d90b91768a31",
    13: "7d9b672ae5b7b1947755b6383ac4ed945e0859e3cd984a54b8d97bd53a516cd2",
    14: "90ffa2b50e741a2a213b8e2a73113c505a440c842e0ea1acc4f2a967e8fa24ff",
    15: "3bb673257721a9e9f6bbaed6039ee486a57bc352f07381071dac498c22054d66",
    16: "821b0eeb03c9db40e0ca35710344cb7906ec37826397867e2d062c032e3b4bbf",
    17: "1b62941f984de8f4099605d8dccb1d9a935316f644ed132d684565a857e13a60",
    18: "de9dcc6ecc2f6e7dfcf5473ce2f2d245625033428a6764dc6541339f60433b58",
    19: "c979682c8bbf088644e6c704adc71854392844396941aabae2d5cbdf7dee0551",
    20: "da728b6f43b3b5c73935641d69b6cd455441ba46a1f5967c8a1a41daccaf2538",
    21: "c056292dbba9e5a68cc8718efd1b4c1c9ca2fcf70986fa35b60d640b17304d17",
    22: "fb57d31d1f80f9d85696be423d1f839c7cf31c02c87fd32f508b5083d74b9df9",
    23: "a00951658a8b0d9b969a5610c0807c4dea623e61a31b8442ae1341cbce375a00",
    24: "8fdfb0d2e7d12b8d2dc46d537b363b4c50cfab7411965815432eb47200049d1a",
    25: "7986c1e9bcb4345bdde306bbb8a1fbcc7166d20c4e77fbe5f1196d3ad3305616",
    26: "2c829d84629b58d130482842d3456ca6ba0ad318ddf47ae703e007572cbc8d49",
    27: "dfb250b6f82a9d04d0492dc09565c40c5d9ee0a835943f016b3f7f0857898a52",
    28: "11d6e640600dfb59e63d35056dc2fe5e9d57fe063720ec088f34f9446969bdba",
    29: "cca4afe6153102149b82924fd8e64537deab7a56d5855f9e2b58cdf939e12382",
    30: "558f892625406fcdb6e4d1b761375d4338cb0090cee22fe769f3b3b4df3f0b14",
    31: "029cbd83571b505b6cdfe4f74b2e4713375e5fa4abcadc0a22af4efedcdc3823",
    32: "8581240545825e3e29860375e90a0173a3d72d8e5ae345b6908ea39fe1be9622",
    33: "9e7f09337cfda23dad1e7743299ee681b6e9d06e73b92fa8a8ff587d9d68a47e",
    34: "905cb7493e314bdd9e67fee7af311e98d1483a0177001c531aa108d9aef1367a",
    35: "d31c5c2f2cf96236f9725a9083a8f57d747aa42e0b77c742944e45899c1474e2",
    36: "f6a7c49a7b5df21544f6d117dff85dfba506bab17b37d40d220cf251d8d2e2db",
    37: "1cc9bcfb6ac8dbc3400ba86d3618a065e9fd03cd49ba09071726e6c46f54ce40",
    38: "9c65c405d7f1e164497f7dd14001febfc57939d4411ddc5113e1b426bea2f412",
    39: "77671c56c69084f99574aed7312d55f1d16aefdfdbf494304d911c579f19c4ec",
    40: "cd860dd1f17314915e90889304ef320dc234dbebb33daaca241cec0384133061",
    41: "2e0d8156cf75500577d3de2b541e352d326a507b3f13d6641a9ed2429a912b7b",
    42: "72c34778023d308a0f43ca362320dc9259e08fce08d3ba61a541a165369047bc",
    43: "f4ae314f3c4cbc193fb49e1b5527ef821f8c979ee3670a4d7553a8075faead3a",
    44: "86d984ae274549fbeab22c3b700c825309abb9a1fb0d974cfd25b1c939664801",
    45: "7afb1c41543e6b088b8c11f37f45c0d13068a0c07fd4a77d526d93ca88e5638a",
    46: "3cdfc4efb9970f9f075402b283132e4a3ad983d6cf95a0cc2ab8423c40121203",
    47: "75b4ef38a3b1f85da0cf97193815dfac0d801245757c65c3b26f3ac28d7658f1",
    48: "2edd6733929260ce547fd040954baa7ef47ace70be718d61f5611df68953da7e",
    49: "77b0fd7127046c2b2cc168339795f83cddaab12cbff222d9b4fc32bab9857ce8",
    50: "683024f721f33730d27429d9bc127c60c49ac66848ca52f15ca9c98e91dc3f2f",
    51: "b47052cd4d1cea9d704ae907e08197ab2b81b1530777e25683551ea055dac972",
    52: "2c8f259cdef871244fbd7c08009e48117767c6df0ae8da937ebb6f13ba80520f",
    53: "cc789d29966b6be3e332806d22db9a8bb174d85a11974f8ff9bd7c248f85e419",
    54: "d2f9b221ec56164cb2f143adac2ef574e48988dad350910b1c48ee9d2bd988a1",
    55: "0274ed899897defbdd1c5512a1a7d519659e5cea71a01e93c839109f13319ff1",
    56: "258878c2d6b091b917292efa90888e8245d9ab2fea3d727b617d02ca6083a24b",
    57: "ec6768e6c735e2b1f41f3d681b052c5ad13aac9ce5cff7a8349fc9d27809b7ec",
    58: "5e41daeb8f04c03adb5b263009bd9a9c2ac50908ad1593a5a8a867289641a92e",
    59: "ac7911a19386ebdfbd441ec1d94cfb5937d8aa6ea894b0d96d22df207fe71f69",
    60: "195cb5ac3ed329ef6685e4a99a3abd741e1dbd39f314b0c06d375d778f2c5d3d",
    61: "48d57fd49e1f0abf6c60168afcad465fbe265a8eab94cbc887350cca029c2f54",
    62: "cc32eadd77c4210967e3a428dae793a3633d9d7f8135460e246c116f1e0946db",
    63: "12801fa5de3a4ce9ecb2024df421d055c59884114364bccd9921da12e6dda9c5",
    64: "fc3084eed5525b79269b8775d3afc4b8ed64d8aa82f7188cf845c216cc43d6ea",
}


def assert_split_bytes_are_pinned(n):
    s = split_all_fast(base_segments(PolygonSpec(n)))
    data = s.frags.tobytes() + s.labels.tobytes() + s.points.tobytes() + s.heading.tobytes()
    assert hashlib.sha256(data).hexdigest() == SPLIT_DIGESTS[n], n


@pytest.mark.parametrize("n", range(2, 31))
def test_split_bytes_are_pinned(n):
    assert_split_bytes_are_pinned(n)


@pytest.mark.slow
def test_split_bytes_are_pinned_beyond_n_30():
    for n in range(31, 65):
        assert_split_bytes_are_pinned(n)


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
# an unsigned difference wraps (uint64 rows once split into too few
# fragments), an object or complex array failed inside numpy, and a long
# double, where the platform has one wider than float64, is a float that
# float64 does not hold
NOT_FLOAT64 = ["uint64", "int64", "bool", "object", "complex128", "str",
               *(["longdouble"] if np.finfo(np.longdouble).bits > 64 else [])]


@pytest.mark.parametrize("form", ["rows", "split", *NOT_FLOAT64])
@pytest.mark.parametrize("splitter", [split_all, split_all_fast])
def test_segments_that_are_not_an_array_raise(splitter, form):
    # a plain list of rows, a Split or an array of another dtype is not the
    # (m, 4) float array the splitters take; split.frags is
    segments = (ROWS if form == "rows" else split_all_fast(np.array(ROWS)) if form == "split"
                else np.array(ROWS).astype(form))
    with pytest.raises(TypeError, match=r"pass an \(m, 4\) array"):
        splitter(segments)


@pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
def test_rows_of_any_float_that_float64_holds_are_split(dtype):
    # three segments through (1, 1), each cut once
    rows = np.array([[2, 0, 0, 2], [0, 0, 2, 2], [0, 1, 2, 1]], dtype=dtype)
    for splitter in (split_all, split_all_fast):
        assert len(splitter(rows)) == 6


def test_a_split_is_read_not_split_again(monkeypatch):
    # what split_all_fast returns reaches the vertex count, the graph and
    # the SVG without a second pair solve
    split = split_all_fast(base_segments(PolygonSpec(6)))

    def refuse(*args, **kwargs):
        raise AssertionError("a Split was split again")

    monkeypatch.setattr(arrangement, "_hits", refuse)
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


@pytest.mark.parametrize("seed", range(5))
def test_vectorized_runs_follow_the_loop_in_every_group(seed):
    # values on a 0.4 grid with fuzz 1, shuffled across the first 20 of 22
    # segments: runs of every length, ties, first runs that a chained rule
    # would extend, and two segments with no value of their own
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, 20, size=120)
    ts = rng.integers(-4, 30, size=120) * 0.4
    assert_merge_follows_the_loop(owner, ts, 22, 1.0)


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
