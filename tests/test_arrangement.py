import math
import random

import numpy as np
import pytest

from conftest import (
    crossing_free, dense_classes, float_clusters, frags_of, lengths, lies_on, rotate_segments,
    shuffled_rows,
)
from polydissect import (
    DEFAULT_TOL,
    AmbiguousClustering,
    NumericalDegeneracy,
    PolygonSpec,
    Tolerance,
    base_segments,
    build_graph,
    cluster_endpoints,
    count_vertices,
    counts,
    split_all,
    split_all_fast,
)
from polydissect import arrangement
from polydissect.arrangement import _hits, _segment_arrays
from polydissect.geom import Split
from polydissect.polygon import orbit_representatives


def segs(*rows):
    """Segments as a (k, 4) array, one x0, y0, x1, y1 row each."""
    return np.array(rows, dtype=float)


def full_route(spec, tol=DEFAULT_TOL, splitter=split_all_fast):
    """(V, E, F) from the whole arrangement: split every segment, count its vertices.

    ``split_all``'s fragments go through ``split_all_fast``, which leaves
    a crossing-free set as it is and reads its vertices.
    """
    frags = splitter(base_segments(spec), tol)
    split = frags if isinstance(frags, Split) else split_all_fast(frags, tol)
    v = count_vertices(split)
    return v, len(frags), 1 + len(frags) - v


@pytest.mark.parametrize("splitter", [split_all, split_all_fast])
class TestSplitting:
    def test_square_stays_whole(self, splitter):
        split = splitter(base_segments(PolygonSpec(2)))
        assert len(split) == 4

    def test_hexagon_with_diameters(self, splitter):
        split = splitter(base_segments(PolygonSpec(3)))
        assert len(split) == 12

    def test_two_crossing_diagonals(self, splitter):
        frags = frags_of(splitter(segs([0, 0, 1, 1], [0, 1, 1, 0])))
        assert len(frags) == 4
        # one end of each fragment is the center
        gap = np.hypot(frags[:, 0::2] - 0.5, frags[:, 1::2] - 0.5)
        assert np.all(gap.min(axis=1) < 1e-12)

    def test_endpoint_touch_cuts_only_the_touched_segment(self, splitter):
        # vertical reaches the horizontal's interior with its endpoint
        frags = frags_of(splitter(segs([0, 0, 1, 0], [0.5, 0, 0.5, 1])))
        assert np.count_nonzero(np.abs(frags[:, 1] - frags[:, 3]) < 1e-12) == 2
        assert np.count_nonzero(np.abs(frags[:, 0] - frags[:, 2]) < 1e-12) == 1

    def test_degenerate_fragment_raises(self, splitter):
        # the crossing sits 8e-11 from an endpoint: below fuzz once scaled
        with pytest.raises(NumericalDegeneracy):
            splitter(segs([0.0, 0.0, 0.2, 0.0], [8e-11, -0.1, 8e-11, 0.1]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_output_is_crossing_free(self, splitter, n):
        split = splitter(base_segments(PolygonSpec(n)))
        assert crossing_free(split, DEFAULT_TOL)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_fragments_cover_each_base_segment(self, splitter, n):
        base = base_segments(PolygonSpec(n))
        frags = frags_of(splitter(base))
        sums = np.zeros(len(base))
        for frag, length in zip(frags.tolist(), lengths(frags)):
            owners = [i for i, b in enumerate(base.tolist()) if lies_on(frag, b)]
            assert len(owners) == 1
            sums[owners[0]] += length
        assert sums == pytest.approx(lengths(base), abs=1e-8)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_crossing_oracle_sees_the_crossings_of_the_unsplit_base(n):
    # the square has no diagonals, so nothing crosses; from the hexagon on,
    # the diagonals do, and crossing_free must say so
    assert crossing_free(base_segments(PolygonSpec(n)), DEFAULT_TOL) == (n == 2)


# each base row is checked before the pair solve, so a non-finite row raises
# no numpy warning on its way; run with warnings as errors
DEGENERATE_ROWS = [
    [0.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 1.0, 1.0], [0.0, 0.0, math.inf, 0.0],
    [0.0, 0.0, 5e-11, 0.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", DEGENERATE_ROWS)
def test_a_single_degenerate_base_row_raises(row):
    # one base row takes the same length check as many, in both splitters
    for splitter in (split_all, split_all_fast):
        with pytest.raises(NumericalDegeneracy):
            splitter(np.array([row]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("splitter", [split_all, split_all_fast])
@pytest.mark.parametrize("row", DEGENERATE_ROWS)
@pytest.mark.parametrize("first", [True, False])
def test_a_degenerate_base_row_beside_a_good_one_raises(splitter, row, first):
    # the bad row may come first or second: every base row is checked before the scan
    good = [0.0, 1.0, 1.0, 0.0]
    with pytest.raises(NumericalDegeneracy):
        splitter(np.array([row, good] if first else [good, row]))


def test_a_single_base_row_comes_back_whole():
    row = np.array([[0.1, -0.3, 0.7, 0.25]])
    split = split_all_fast(row)
    assert np.array_equal(split.frags, row) and split.labels.tolist() == [0, 1]
    assert np.array_equal(split.points, row.reshape(2, 2))
    empty = split_all_fast(np.empty((0, 4)))
    assert (empty.frags.shape, empty.labels.shape, empty.points.shape) == ((0, 4), (0,), (0, 2))


def test_split_all_refuses_collinear_overlapping_segments():
    # a raise, not an assert, so the check holds under python -O as well
    base = np.array([[0.0, 0.0, 2.0, 0.0], [1.0, 0.0, 3.0, 0.0], [1.5, -1.0, 1.5, 1.0]])
    with pytest.raises(ValueError, match="collinear overlapping"):
        split_all(base)


OVERLAP = [[0.0, 0.0, 2.0, 0.0], [1.0, 0.0, 3.0, 0.0], [1.5, -1.0, 1.5, 1.0]]


@pytest.mark.parametrize("reverse", [False, True])
def test_split_all_fast_refuses_collinear_overlapping_segments(reverse):
    # whichever of the overlapping rows comes first
    base = np.array(OVERLAP[::-1] if reverse else OVERLAP)
    with pytest.raises(ValueError, match="collinear overlapping"):
        split_all_fast(base)


def test_collinear_segments_that_only_touch_are_kept():
    split = split_all_fast(np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0]]))
    assert split.frags.tolist() == [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0]]
    assert split.labels.tolist() == [0, 1, 1, 2]


def dense_hits(arrays, rows, fuzz):
    """_hits by classifying every pair of the whole (rows, m) block; no
    parallel pair meets, which holds where no two segments are collinear."""
    t, t_cls, u_cls = dense_classes(arrays, rows, fuzz)
    r, c = np.nonzero((t_cls != 0) & (u_cls != 0))
    return r, c, t[r, c], t_cls[r, c]


def assert_hits_match_the_dense_reference(base, rows, fuzz=DEFAULT_TOL.point_fuzzy):
    arrays = _segment_arrays(base)
    got, expected = _hits(arrays, rows, fuzz), dense_hits(arrays, rows, fuzz)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return expected


@pytest.mark.parametrize("block", [arrangement._BLOCK_PAIRS, 1000])
@pytest.mark.parametrize("n", range(2, 17))
def test_hits_match_a_dense_classification_on_the_polygon(n, block, monkeypatch):
    monkeypatch.setattr(arrangement, "_BLOCK_PAIRS", block)
    spec = PolygonSpec(n)
    base = base_segments(spec)
    assert_hits_match_the_dense_reference(base, np.arange(len(base)))
    assert_hits_match_the_dense_reference(base, np.array(orbit_representatives(spec))[:, 0])


def test_hits_match_a_dense_classification_at_the_fuzz_bands():
    # a horizontal (0, q)-(1, q) and a vertical (p, 0)-(p, 1) meet at t = p
    # on the first and t = q on the second, exactly; random segments around
    # them add pairs of every kind
    fuzz = DEFAULT_TOL.point_fuzzy
    edges = [-2 * fuzz, -fuzz, 0.0, fuzz, 2 * fuzz, 1 - 2 * fuzz, 1 - fuzz, 1.0, 1 + fuzz,
             1 + 2 * fuzz]
    params = sorted({q for p in edges for q in (np.nextafter(p, -1), p, np.nextafter(p, 2))})
    rng = np.random.default_rng(0)
    seen = set()
    for p in params:
        for q in params:
            cross = np.array([[0.0, q, 1.0, q], [p, 0.0, p, 1.0]])
            base = np.vstack((cross, rng.uniform(-0.5, 1.5, size=(6, 4))))
            row, _, t, _ = assert_hits_match_the_dense_reference(base, np.arange(len(base)))
            seen.update(t[row < 2].tolist())
    # hits just inside the outer edges of the end bands, none beyond them
    assert {np.nextafter(-fuzz, 1), 0.0, 1.0, np.nextafter(1 + fuzz, 0)} <= seen
    assert not {-2 * fuzz, -fuzz, 1 + 2 * fuzz} & seen


class TestCountVertices:
    # split_all's fragments are crossing-free: split_all_fast reads their vertices
    def test_hexagon_has_six_corners_and_a_center(self):
        split = split_all_fast(split_all(base_segments(PolygonSpec(3))))
        assert count_vertices(split) == 7

    def test_square(self):
        split = split_all_fast(split_all(base_segments(PolygonSpec(2))))
        assert count_vertices(split) == 4

    def test_octagon(self):
        # V = E - F + 1 = 48 - 25 + 1
        split = split_all_fast(split_all(base_segments(PolygonSpec(4))))
        assert count_vertices(split) == 24

    def test_nearby_clusters_raise(self):
        # two parallel segments 2e-10 apart: distinct clusters, centroids
        # within the 3*fuzz guard band
        with pytest.raises(AmbiguousClustering):
            split_all_fast(segs([0, 0, 1, 0], [0, 2e-10, 1, 2e-10]))

    def test_ends_chained_under_fuzz_apart_are_refused(self):
        # six starts 0.9*fuzz apart in a chain: by distance alone they were one
        # vertex, but the segments cross each other between them, and the
        # split refuses the pieces shorter than fuzz that this leaves
        step = 0.9 * DEFAULT_TOL.point_fuzzy
        base = segs(*([0.3 + k * step, 0.2, -0.5, -0.5 + 0.1 * k] for k in (3, 0, 5, 1, 4, 2)))
        with pytest.raises(NumericalDegeneracy, match="shorter than fuzz"):
            split_all_fast(base)

    def test_independent_of_segment_order(self):
        split = split_all(base_segments(PolygonSpec(5)))
        rng = random.Random(3)
        for _ in range(5):
            assert count_vertices(split_all_fast(shuffled_rows(split, rng))) == 31

    def test_vertices_are_numbered_in_the_order_of_their_first_end(self):
        split = split_all_fast(base_segments(PolygonSpec(5)))
        shuffled = split_all_fast(split.frags[np.random.default_rng(5).permutation(len(split))])
        for labels, points in (cluster_endpoints(split), cluster_endpoints(shuffled)):
            values, first = np.unique(labels, return_index=True)
            assert np.array_equal(values, np.arange(len(points)))
            assert np.all(np.diff(first) > 0)

    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("caller", [count_vertices, build_graph])
    def test_segments_that_are_not_a_split_raise(self, caller, form):
        # the graph stages read the splitter's vertices; they split nothing themselves
        segments = [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
        with pytest.raises(TypeError, match="pass the Split from split_all_fast"):
            caller(segments if form == "list" else np.array(segments))


def same_partition(labels, other):
    """Assert that two labellings of the same items are one partition; return
    the map from the first's labels to the second's."""
    to_other = np.zeros(labels.max(initial=-1) + 1, dtype=np.int64)
    to_other[labels] = other
    assert np.array_equal(to_other[labels], other)
    assert np.array_equal(np.sort(to_other), np.arange(other.max(initial=-1) + 1))
    return to_other


class TestVertexIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 24])
    def test_a_pair_meets_exactly_when_its_partner_does(self, n):
        base = base_segments(PolygonSpec(n))
        m = len(base)
        row, col, t, _ = _hits(_segment_arrays(base), np.arange(m), DEFAULT_TOL.point_fuzzy)
        key = row * m + col
        assert np.all(np.diff(key) > 0)  # row-major, each ordered pair once
        partner = np.searchsorted(key, col * m + row)
        assert np.array_equal(key[np.minimum(partner, len(key) - 1)], col * m + row)
        # t of the partner is the parameter of the same point on the column
        x0, y0, x1, y1 = base.T
        tp = t[partner]
        gap = np.hypot(t * x1[row] + (1.0 - t) * x0[row] - tp * x1[col] - (1.0 - tp) * x0[col],
                       t * y1[row] + (1.0 - t) * y0[row] - tp * y1[col] - (1.0 - tp) * y0[col])
        assert gap.max() < 1e-14

    @pytest.mark.parametrize("n", range(2, 21))
    def test_a_point_on_k_segments_has_k_minus_1_partners(self, n):
        base = base_segments(PolygonSpec(n))
        owner, _, point, far = arrangement._hit_points(base, DEFAULT_TOL.point_fuzzy)
        split = split_all_fast(base)
        # the vertex of each point, from the fragments between consecutive points
        vertex = np.empty(len(owner), dtype=np.int64)
        inner = np.flatnonzero(owner[1:] == owner[:-1])
        vertex[inner], vertex[inner + 1] = split.labels[0::2], split.labels[1::2]
        # a vertex holds one point per segment through it, and every link stays inside it
        assert len(np.unique(vertex * len(base) + owner)) == len(owner)
        assert np.array_equal(vertex[point], vertex[far])
        k = np.bincount(vertex)[vertex]
        assert k.min() >= 2 and np.array_equal(np.bincount(point, minlength=len(owner)), k - 1)

    @pytest.mark.parametrize("n", range(2, 40))
    def test_the_split_vertices_are_the_float_clusters(self, n):
        # the same partition, and coordinates equal to the last bit
        split = split_all_fast(base_segments(PolygonSpec(n)))
        labels, points = float_clusters(split.frags, DEFAULT_TOL.point_fuzzy)
        to_split = same_partition(labels, split.labels)
        assert np.array_equal(split.points[to_split], points)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_split_without_crossings_keeps_its_fragments_and_vertices(self, n):
        # split_all's fragments meet only at their ends, and no single segment
        # runs through a crossing; the links still join every end there
        slow = split_all(base_segments(PolygonSpec(n)))
        split = split_all_fast(slow)
        assert np.array_equal(split.frags, slow)
        same_partition(float_clusters(slow, DEFAULT_TOL.point_fuzzy)[0], split.labels)
        assert len(split.points) == counts(PolygonSpec(n)).V

    @pytest.mark.parametrize("rows,labels", [
        ([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [0, 1, 1, 2, 0, 3]),
        # each way two pieces can touch: end to start, end to end, start to start
        ([[0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 1.0, 0.0], [2.0, 0.0, 3.0, 0.0]], [0, 1, 2, 1, 2, 3]),
        # turned by 7.5e-11 rad, parallel within fuzz: the far start is 1.5*fuzz off the line
        ([[0.0, 0.0, 1.0, 0.0], [-2.0, 1.5e-10, 0.0, 0.0]], [0, 1, 2, 0]),
    ])
    def test_a_collinear_chain_meets_at_one_vertex(self, rows, labels):
        # collinear pieces laid end to end are parallel, so only their
        # touching ends link them: the contact is a hit on both sides
        base = np.array(rows)
        split = split_all_fast(base)
        assert split.labels.tolist() == labels
        row, col, t, t_cls = _hits(_segment_arrays(base), np.arange(len(base)),
                                   DEFAULT_TOL.point_fuzzy)
        assert sorted(zip(row.tolist(), col.tolist())) == sorted(zip(col.tolist(), row.tolist()))
        assert set(t.tolist()) <= {0.0, 1.0} and np.all(t_cls == arrangement._END)

    @pytest.mark.slow
    def test_vertex_counts_beyond_the_reference_table(self):
        for n in range(40, 65):
            spec = PolygonSpec(n)
            assert count_vertices(split_all_fast(base_segments(spec))) == counts(spec).V, n


class TestCounts:
    def test_octagon_summary(self):
        s = counts(PolygonSpec(4))
        assert (s.V, s.E, s.F) == (24, 48, 25)
        assert (s.per_ray, s.central) == (3, 1)

    def test_icosagon_summary(self):
        s = counts(PolygonSpec(10))
        assert (s.E, s.F) == (2500, 1281)
        assert s.per_ray == 64
        assert s.central == 1

    def test_twentysixgon_summary(self):
        s = counts(PolygonSpec(13))
        assert (s.E, s.V, s.F) == (5980, 2679, 3302)

    def test_slow_path_gives_the_same_counts(self):
        for n in (2, 3, 4, 5, 6, 7):
            spec = PolygonSpec(n)
            orbit = counts(spec)
            assert full_route(spec, splitter=split_all) == (orbit.V, orbit.E, orbit.F)
            assert full_route(spec) == (orbit.V, orbit.E, orbit.F)

    @pytest.mark.parametrize("n", range(2, 40))
    def test_orbit_route_matches_the_full_route(self, n):
        spec = PolygonSpec(n)
        s = counts(spec)
        assert full_route(spec) == (s.V, s.E, s.F)

    @pytest.mark.parametrize("n,fuzz,error", [
        # smallest gap between distinct points on one segment: 1.47e-5 < 3*fuzz
        (20, 1e-5, AmbiguousClustering),
        (17, 9e-4, NumericalDegeneracy),
    ])
    def test_both_routes_refuse_a_too_coarse_fuzz(self, n, fuzz, error):
        spec = PolygonSpec(n)
        with pytest.raises(error):
            counts(spec, Tolerance(fuzz))
        with pytest.raises(error):
            full_route(spec, Tolerance(fuzz))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_divisibility(self, n):
        s = counts(PolygonSpec(n))
        N = 2 * n
        assert s.E % N == 0
        assert s.F % N == (1 if n % 2 == 0 else 0)
        assert s.V % N == (1 if n % 2 == 1 else 0)
        assert s.F == 1 + s.E - s.V
        assert s.F == N * s.per_ray + s.central

    def test_shuffle_invariance(self):
        rng = random.Random(11)
        spec = PolygonSpec(6)
        base = base_segments(spec)
        reference = counts(spec)
        for _ in range(5):
            split = split_all_fast(shuffled_rows(base, rng))
            v = count_vertices(split)
            assert (v, len(split)) == (reference.V, reference.E)

    def test_rotation_invariance(self):
        spec = PolygonSpec(6)
        base = base_segments(spec)
        reference = counts(spec)
        rotated = rotate_segments(base, math.pi / 6)
        split = split_all_fast(rotated)
        assert len(split) == reference.E
        assert count_vertices(split) == reference.V


@pytest.mark.parametrize("n", [2, 5, 8])
def test_all_produced_points_stay_in_the_unit_disk(n):
    frags = split_all_fast(base_segments(PolygonSpec(n))).frags
    assert np.abs(frags).max() <= 1 + 1e-9
