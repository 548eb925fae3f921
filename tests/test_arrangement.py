import math
import random

import numpy as np
import pytest

from conftest import (
    assert_merge_follows_the_loop, crossing_free, dense_classes, float_clusters, frags_of, lengths,
    lies_on, rotate_segments, shuffled_rows, split_all, values_along,
)
from polydissect import (
    DEFAULT_FUZZ,
    AmbiguousClustering,
    GeometryError,
    NumericalDegeneracy,
    PolygonSpec,
    SymmetryViolation,
    base_segments,
    build_graph,
    cluster_endpoints,
    count_vertices,
    counts,
    split_all_fast,
)
from polydissect import arrangement, cli, polygon
from polydissect.arrangement import (
    _INTERIOR, _PAD, _corner_hits, _hits, _rows_along, _segment_arrays, _solve_pairs,
)
from polydissect.geom import Split
from polydissect.polygon import orbit_representatives


def segs(*rows):
    """Segments as a (k, 4) array, one x0, y0, x1, y1 row each."""
    return np.array(rows, dtype=float)


def full_route(spec, fuzz=DEFAULT_FUZZ, splitter=split_all_fast):
    """(V, E, F) from the whole arrangement: split every segment, count its vertices.

    ``split_all``'s fragments go through ``split_all_fast``, which leaves
    a crossing-free set as it is and reads its vertices.
    """
    frags = splitter(base_segments(spec), fuzz)
    split = frags if isinstance(frags, Split) else split_all_fast(frags, fuzz)
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
        assert crossing_free(split)

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
    assert crossing_free(base_segments(PolygonSpec(n))) == (n == 2)


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


def test_a_fragment_shorter_than_fuzz_between_two_cuts_raises():
    # the tilted row crosses the horizontal 6e-11 right of the vertical, so
    # the horizontal's two cuts, not merged, leave a piece shorter than fuzz
    a = 1e-3
    base = segs([0.25, -1, 0.25, 1],
                [0.25 + 6e-11 - math.sin(a), -math.cos(a), 0.25 + 6e-11 + math.sin(a), math.cos(a)],
                [0, 0, 0.5, 0])
    with pytest.raises(NumericalDegeneracy, match="fragment shorter than fuzz") as err:
        split_all(base)
    assert err.traceback[-1].name == "_split_tuple"
    with pytest.raises(NumericalDegeneracy, match="segment of length 6.000e-11"):
        split_all_fast(base)


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


# turned by 7.5e-11 rad, parallel within fuzz: the second ends where the first starts
NEAR_PARALLEL_TOUCH = [[0.0, 0.0, 1.0, 0.0], [-2.0, 1.5e-10, 0.0, 0.0]]
# turned by 1e-11 rad and overlapping over [1, 2]
NEAR_PARALLEL_OVERLAP = [[0.0, 0.0, 2.0, 0.0], [1.0, 1e-11, 3.0, -1e-11]]


@pytest.mark.parametrize("reverse", [False, True])
def test_a_near_parallel_touch_meets_at_the_ends_from_both_sides(reverse):
    # the parallel test sees the pair in both row orders; it meets at t = 0
    # on the first row and t = 1 on the second, whichever comes first
    base = np.array(NEAR_PARALLEL_TOUCH[::-1] if reverse else NEAR_PARALLEL_TOUCH)
    row, col, t, t_cls = _hits(_segment_arrays(base), DEFAULT_FUZZ)
    first = 1 if reverse else 0
    assert sorted(zip(row.tolist(), col.tolist(), t.tolist())) == sorted(
        [(first, 1 - first, 0.0), (1 - first, first, 1.0)])
    assert np.all(t_cls == arrangement._END)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_near_parallel_overlap_raises_in_either_row_order(reverse):
    base = np.array(NEAR_PARALLEL_OVERLAP[::-1] if reverse else NEAR_PARALLEL_OVERLAP)
    with pytest.raises(ValueError, match="collinear overlapping"):
        _hits(_segment_arrays(base), DEFAULT_FUZZ)
    with pytest.raises(ValueError, match="collinear overlapping"):
        split_all_fast(base)


def dense_hits(arrays, rows, fuzz):
    """_hits by classifying every pair of the whole (rows, m) block; no
    parallel pair meets, which holds where no two segments are collinear."""
    t, t_cls, u_cls = dense_classes(arrays, rows, fuzz)
    r, c = np.nonzero((t_cls != 0) & (u_cls != 0))
    return r, c, t[r, c], t_cls[r, c]


def row_major(hits):
    """The (row, col, t, class) arrays of ``_hits`` sorted by row and then by column."""
    row, col = hits[:2]
    order = np.lexsort((col, row))
    return tuple(a[order] for a in hits)


def assert_hits_match_the_dense_reference(base, fuzz=DEFAULT_FUZZ):
    # _hits emits each pair from both sides in two halves; in row-major
    # order its sides are the dense block's hits, bit for bit
    arrays = _segment_arrays(base)
    got = row_major(_hits(arrays, fuzz))
    expected = dense_hits(arrays, np.arange(len(base)), fuzz)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return expected


@pytest.mark.parametrize("block", [arrangement._BLOCK_PAIRS, 1000])
@pytest.mark.parametrize("n", range(2, 17))
def test_hits_match_a_dense_classification_on_the_polygon(n, block, monkeypatch):
    monkeypatch.setattr(arrangement, "_BLOCK_PAIRS", block)
    assert_hits_match_the_dense_reference(base_segments(PolygonSpec(n)))


def test_hits_match_a_dense_classification_at_the_fuzz_bands():
    # a horizontal (0, q)-(1, q) and a vertical (p, 0)-(p, 1) meet at t = p
    # on the first and t = q on the second, exactly; random segments around
    # them add pairs of every kind
    fuzz = DEFAULT_FUZZ
    edges = [-2 * fuzz, -fuzz, 0.0, fuzz, 2 * fuzz, 1 - 2 * fuzz, 1 - fuzz, 1.0, 1 + fuzz,
             1 + 2 * fuzz]
    params = sorted({q for p in edges for q in (np.nextafter(p, -1), p, np.nextafter(p, 2))})
    rng = np.random.default_rng(0)
    seen = set()
    for p in params:
        for q in params:
            cross = np.array([[0.0, q, 1.0, q], [p, 0.0, p, 1.0]])
            base = np.vstack((cross, rng.uniform(-0.5, 1.5, size=(6, 4))))
            row, _, t, _ = assert_hits_match_the_dense_reference(base)
            seen.update(t[row < 2].tolist())
    # hits just inside the outer edges of the end bands, none beyond them
    assert {np.nextafter(-fuzz, 1), 0.0, 1.0, np.nextafter(1 + fuzz, 0)} <= seen
    assert not {-2 * fuzz, -fuzz, 1 + 2 * fuzz} & seen


def mirror_columns(corners, rows, cols):
    """The chord sigma(c) for each column c, sigma(j) = lo + hi - j for its row's corners."""
    n2 = corners.max() + 1
    index = np.full((n2, n2), -1)  # the chord joining two corners, in either order
    index[corners[:, 0], corners[:, 1]] = np.arange(len(corners))
    index[corners[:, 1], corners[:, 0]] = np.arange(len(corners))
    image = (corners[rows].sum(axis=1)[:, None] - corners[cols]) % n2
    return index[image[:, 0], image[:, 1]]


# the largest |t(sigma c) - (1 - t(c))| over the representatives, in units of
# 2**-52: 15 for n <= 30 and 46.5 (at n = 60) for n <= 64
MIRROR_ULPS = 64


def assert_corner_hits_match_the_pair_solve(n):
    # the orbit route's hits, read off the corners, are the canonical half of
    # the full route's hits on the representatives: with their mirror images
    # they are the same (row, column) pairs, each once; t is the pair solve's
    # bit for bit, and the mirror's t is 1 - t to within MIRROR_ULPS
    spec = PolygonSpec(n)
    corners = polygon.base_corners(spec)
    m = len(corners)
    arrays = _segment_arrays(base_segments(spec))
    rows = np.array(orbit_representatives(spec))[:, 0]
    row, col, t, _ = row_major(_hits(arrays, DEFAULT_FUZZ))
    on_rep = np.flatnonzero(np.isin(row, rows))
    key, t = row[on_rep] * m + col[on_rep], t[on_rep]
    at, got_col, got_t = _corner_hits(corners, arrays, rows)
    assert np.all(np.diff(at * m + got_col) > 0)  # row-major
    got_row = rows[at]
    mirror = mirror_columns(corners, got_row, got_col)
    assert np.all(mirror >= 0)
    both = np.concatenate((got_row * m + got_col, got_row * m + mirror))
    assert np.array_equal(np.sort(both), key)
    canonical = np.searchsorted(key, got_row * m + got_col)
    assert got_t.dtype == t.dtype and got_t.tobytes() == t[canonical].tobytes()
    image = t[np.searchsorted(key, got_row * m + mirror)]
    assert np.abs(image - (1.0 - got_t)).max(initial=0.0) <= MIRROR_ULPS * 2.0**-52


@pytest.mark.parametrize("n", range(2, 31))
def test_corner_hits_are_the_pair_solve_on_the_representatives(n):
    assert_corner_hits_match_the_pair_solve(n)


@pytest.mark.slow
def test_corner_hits_are_the_pair_solve_beyond_n_30():
    for n in range(31, 65):
        assert_corner_hits_match_the_pair_solve(n)


def assert_merge_follows_the_loop_on_the_representatives(n):
    # on every hit of the representatives, as the full route finds them, and
    # on the canonical half that counts merges, unfolded and folded
    spec = PolygonSpec(n)
    arrays = _segment_arrays(base_segments(spec))
    reps = np.array(orbit_representatives(spec))
    row, _, t, _ = _hits(arrays, DEFAULT_FUZZ)
    on_rep = np.isin(row, reps[:, 0])
    assert_merge_follows_the_loop(np.searchsorted(reps[:, 0], row[on_rep]), t[on_rep], len(reps))
    rep, _, t = _corner_hits(polygon.base_corners(spec), arrays, reps[:, 0])
    assert_merge_follows_the_loop(rep, t, len(reps))
    assert_merge_follows_the_loop(rep, 2.0 * np.minimum(t, 1.0 - t), len(reps),
                                  2.0 * DEFAULT_FUZZ)


@pytest.mark.parametrize("n", range(2, 31))
def test_values_along_are_the_points_along_on_the_representatives(n):
    assert_merge_follows_the_loop_on_the_representatives(n)


@pytest.mark.slow
def test_values_along_are_the_points_along_beyond_n_30():
    for n in range(31, 65):
        assert_merge_follows_the_loop_on_the_representatives(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_points_along_follow_the_loop_on_the_full_route(n):
    # the full route's interior hits in _hits' order, both halves, and the
    # point each one merged into
    base = base_segments(PolygonSpec(n))
    row, _, t, t_cls = _hits(_segment_arrays(base), DEFAULT_FUZZ)
    cut = t_cls == _INTERIOR
    assert_merge_follows_the_loop(row[cut], t[cut], len(base))


@pytest.mark.parametrize("n", [3, 20, 39])
def test_the_orbit_route_builds_no_point_map(n, monkeypatch):
    # counts sorts its rows in place and never asks for the point of a hit
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit route asked for a point map")

    want = counts(PolygonSpec(n))
    monkeypatch.setattr(arrangement, "_points_along", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    assert counts(PolygonSpec(n)) == want


def tally_of(e, segments, weight):
    """A stand-in for ``_tally``: E, and one point on ``segments`` of ``weight``."""
    return lambda spec, fuzz: (e, np.array(segments), np.array(weight), np.array([True]))


def test_incidences_that_k_does_not_divide_raise(monkeypatch):
    # four incidences of a point on three segments: one point was resolved
    # differently on different segments
    monkeypatch.setattr(arrangement, "_tally", tally_of(10, [3], [4.0]))
    with pytest.raises(AmbiguousClustering, match="4 incidences, not a multiple of 3"):
        counts(PolygonSpec(3))


def test_a_face_total_off_the_rotation_raises(monkeypatch, capsys):
    # E = 10 and two points on two segments give F = 9, no multiple of N = 6
    monkeypatch.setattr(arrangement, "_tally", tally_of(10, [2], [4.0]))
    with pytest.raises(SymmetryViolation, match="face count 9 .* multiple of N=6"):
        counts(PolygonSpec(3))
    assert cli.main(["count", "--n", "3"]) == 3
    assert "error:" in capsys.readouterr().err


def test_values_along_a_segment_without_hits_are_its_ends():
    # segment 1 meets nothing: its row holds only 0 and 1, then padding, and
    # every row ends in padding, the longest too
    grid, length = _rows_along(np.array([0, 0, 2]), np.array([0.5, 0.25, 0.75]), 3)
    assert length.tolist() == [4, 2, 3]
    assert grid.tolist() == [[0.0, 1.0, 0.5, 0.25, _PAD], [0.0, 1.0, _PAD, _PAD, _PAD],
                             [0.0, 1.0, 0.75, _PAD, _PAD]]
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0, 2]), np.array([0.5, 0.25, 0.75]), 3)
    assert owner.tolist() == [0, 0, 0, 0, 1, 1, 2, 2, 2]
    assert points.tolist() == [0.0, 0.25, 0.5, 1.0, 0.0, 1.0, 0.0, 0.75, 1.0]
    assert sizes.tolist() == [1] * 9


def test_values_along_merge_touches_into_the_ends():
    # touches at -0.0 and at 1 - 2**-52 (where two chords end at one corner
    # t can miss 1 by an ulp) join the runs of the ends 0 and 1
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0, 0]), np.array([1.0 - 2.0**-52, -0.0, 0.5]), 1)
    assert owner.tolist() == [0, 0, 0]
    assert points.tolist() == [0.0, 0.5, 1.0] and sizes.tolist() == [2, 1, 2]


def test_values_along_merge_close_cuts_into_the_later_one():
    fuzz = DEFAULT_FUZZ
    a, b = 0.3, 0.3 + 0.5 * fuzz
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0, 0]), np.array([b, 0.6, a]), 1)
    assert points.tolist() == [0.0, b, 0.6, 1.0] and sizes.tolist() == [1, 2, 1, 1]


def test_values_along_split_a_first_run_at_fuzz_above_its_first_value():
    # steps of 0.6*fuzz chain 0, 0.6*fuzz and 1.2*fuzz, but the first run is
    # anchored at its first value: 1.2*fuzz opens a run of its own
    fuzz = DEFAULT_FUZZ
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0]), np.array([1.2 * fuzz, 0.6 * fuzz]), 1)
    assert points.tolist() == [0.0, 1.2 * fuzz, 1.0] and sizes.tolist() == [2, 1, 1]


def test_values_along_chain_a_later_run_past_fuzz_into_its_last_value():
    # a later run goes on while each step is under fuzz, however far it reaches
    fuzz = DEFAULT_FUZZ
    chain = [0.5, 0.5 + 0.6 * fuzz, 0.5 + 1.2 * fuzz]
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0, 0]), np.array(chain[::-1]), 1)
    assert chain[2] - chain[0] > fuzz
    assert points.tolist() == [0.0, chain[2], 1.0] and sizes.tolist() == [1, 3, 1]


def test_values_along_rows_of_different_lengths_end_at_their_own_one():
    # row 0 is the longest; rows 1 and 2 end in 1.0 followed by padding,
    # and row 2's touch an ulp under 1 merges into that 1.0, not the padding
    fuzz = DEFAULT_FUZZ
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0, 0, 0, 2]), np.array([0.7, 0.2, 1.0 - 0.5 * fuzz, 0.4, 1.0 - 2.0**-52]), 3)
    assert owner.tolist() == [0, 0, 0, 0, 0, 1, 1, 2, 2]
    assert points.tolist() == [0.0, 0.2, 0.4, 0.7, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert sizes.tolist() == [1, 1, 1, 1, 2, 1, 1, 1, 2]


def test_values_along_keep_a_negative_touch_as_the_first_value():
    # a touch a little below 0 sorts before the end 0 and is the value the
    # first run keeps
    owner, points, sizes = assert_merge_follows_the_loop(
        np.array([0, 0]), np.array([0.5, -2e-17]), 1)
    assert points.tolist() == [-2e-17, 0.5, 1.0] and sizes.tolist() == [2, 1, 1]


def test_two_octagon_chords_that_the_mirror_swaps_cross():
    # the chords 0-3 and 1-6, which the mirror 0 <-> 1 maps onto each other,
    # cross on its axis: each is a canonical hit of the other, and every hit
    # is the pair solve's, t bit for bit; of a hit and its mirror image,
    # which the pair solve both finds, one is kept
    spec = PolygonSpec(4)
    corners = polygon.base_corners(spec)
    assert np.all(corners.sum(axis=1) % 2 == 1)  # each row joins an even corner to an odd one
    chord = {frozenset(c): i for i, c in enumerate(corners.tolist())}
    rows = np.array([chord[frozenset((0, 3))], chord[frozenset((1, 6))]])
    arrays = _segment_arrays(base_segments(spec))
    at, col, t = _corner_hits(corners, arrays, rows)
    k, solved_t, *_ = _solve_pairs(arrays, rows, np.arange(len(corners)), DEFAULT_FUZZ)
    solved = dict(zip(zip(*np.divmod(k, len(corners))), solved_t))
    assert {(0, rows[1]), (1, rows[0])} <= set(zip(at.tolist(), col.tolist()))
    assert [solved[a, c].tobytes() for a, c in zip(at, col)] == [x.tobytes() for x in t]
    assert 2 * len(at) == len(k)


def test_hexagon_chords_that_share_a_corner_touch_there():
    # the diameter 0-3 (row 7) touches the sides 0-1, 2-3, 3-4 and 5-0 at
    # its ends, crosses the diameters 5-2 and 1-4 at the center and misses
    # the sides 1-2 and 4-5, which are parallel to it. Its mirror
    # sigma(j) = 3 - j swaps 0-1 with 3-2, 5-0 with 4-3 and 1-4 with 2-5, and
    # the canonical hit of each pair is the touch at corner 0 or the crossing
    # from the inside corner 1: here each touch lands on t = 0 exactly
    spec = PolygonSpec(3)
    corners = polygon.base_corners(spec)
    assert corners[[7, 0, 2, 3, 5]].tolist() == [[0, 3], [0, 1], [2, 3], [3, 4], [5, 0]]
    at, col, t = _corner_hits(corners, _segment_arrays(base_segments(spec)), np.array([7]))
    assert at.tolist() == [0, 0, 0] and col.tolist() == [0, 5, 8]
    assert t[:2].tolist() == [0.0, 0.0]
    assert t[2] == pytest.approx(0.5, abs=1e-15)


def folded_runs(n, fuzz=DEFAULT_FUZZ):
    """The folded cuts of each representative, by representative and then by u,
    with its length and whether the cut merged into the representative's axis."""
    spec = PolygonSpec(n)
    base = base_segments(spec)
    reps = np.array(orbit_representatives(spec))
    rep, _, t = _corner_hits(polygon.base_corners(spec), _segment_arrays(base), reps[:, 0])
    u = np.minimum(t, 1.0 - t)
    owner, _, sizes = values_along(rep, 2.0 * u, len(reps), 2.0 * fuzz)
    # the axis run is the last of each row: its size less the end 1 are the
    # largest cuts of that row
    last = np.flatnonzero(np.append(owner[1:] != owner[:-1], True))
    at_axis = (sizes[last] - 1)[rep]
    order = np.lexsort((u, rep))
    rep, u = rep[order], u[order]
    from_top = np.cumsum(np.bincount(rep, minlength=len(reps)))[rep] - 1 - np.arange(len(rep))
    x0, y0, x1, y1 = base[reps[:, 0]].T
    return rep, u, np.hypot(x1 - x0, y1 - y0)[rep], from_top < at_axis[order]


def assert_the_axis_has_a_margin(n, fuzz=DEFAULT_FUZZ):
    # in length: a cut merged into an axis point lies within 1e-3*fuzz of
    # it, and every other cut at least 1,000*fuzz from the axis (measured
    # for n <= 64: at most 6.7e-5*fuzz, and at least 58,000*fuzz)
    _, u, length, merged = folded_runs(n, fuzz)
    away = (0.5 - u) * length
    assert away[merged].max(initial=0.0) <= 1e-3 * fuzz
    assert away[~merged].min() >= 1e3 * fuzz


@pytest.mark.parametrize("n", range(2, 31))
def test_the_axis_decision_has_a_margin(n):
    assert_the_axis_has_a_margin(n)


@pytest.mark.slow
def test_the_axis_decision_has_a_margin_beyond_n_30():
    for n in range(31, 65):
        assert_the_axis_has_a_margin(n)


def test_only_odd_n_has_cuts_at_the_axis():
    # the diameters of odd n meet at the center, the diameter
    # representative's axis, and no three chords meet off the corners for
    # even n
    for n in (5, 8, 9, 13, 20):
        rep, _, _, merged = folded_runs(n)
        assert merged.any() == (n % 2 == 1)
        # for odd n the last representative is a diameter: the other n - 1 pair up at its axis
        assert n % 2 == 0 or merged[rep == rep.max()].sum() == (n - 1) // 2


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
        step = 0.9 * DEFAULT_FUZZ
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
        row, col, t, _ = _hits(_segment_arrays(base), DEFAULT_FUZZ)
        half = len(row) // 2
        # two halves: each pair (r, c) with r < c in row-major order, then
        # the same pairs as (c, r); side i's partner is side i + H or i - H
        assert len(row) == 2 * half and half > 0
        key = row * m + col
        assert np.all(np.diff(key[:half]) > 0) and np.all(row[:half] < col[:half])
        assert np.array_equal(row[half:], col[:half]) and np.array_equal(col[half:], row[:half])
        assert len(np.unique(key)) == len(key)  # each ordered pair once
        partner = np.roll(np.arange(len(row)), half)
        # t of the partner is the parameter of the same point on the column
        x0, y0, x1, y1 = base.T
        tp = t[partner]
        gap = np.hypot(t * x1[row] + (1.0 - t) * x0[row] - tp * x1[col] - (1.0 - tp) * x0[col],
                       t * y1[row] + (1.0 - t) * y0[row] - tp * y1[col] - (1.0 - tp) * y0[col])
        assert gap.max() < 1e-14

    @pytest.mark.parametrize("n", range(2, 21))
    def test_a_point_on_k_segments_has_k_minus_1_partners(self, n):
        base = base_segments(PolygonSpec(n))
        owner, _, point, far = arrangement._hit_points(base, DEFAULT_FUZZ)
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
        labels, points = float_clusters(split.frags, DEFAULT_FUZZ)
        to_split = same_partition(labels, split.labels)
        assert np.array_equal(split.points[to_split], points)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_split_without_crossings_keeps_its_fragments_and_vertices(self, n):
        # split_all's fragments meet only at their ends, and no single segment
        # runs through a crossing; the links still join every end there
        slow = split_all(base_segments(PolygonSpec(n)))
        split = split_all_fast(slow)
        assert np.array_equal(split.frags, slow)
        same_partition(float_clusters(slow, DEFAULT_FUZZ)[0], split.labels)
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
        row, col, t, t_cls = _hits(_segment_arrays(base), DEFAULT_FUZZ)
        assert sorted(zip(row.tolist(), col.tolist())) == sorted(zip(col.tolist(), row.tolist()))
        assert set(t.tolist()) <= {0.0, 1.0} and np.all(t_cls == arrangement._END)

    @pytest.mark.slow
    def test_vertex_counts_beyond_the_reference_table(self):
        # V, E and F: the fold tallies E from half of each representative
        for n in range(40, 65):
            spec = PolygonSpec(n)
            s = counts(spec)
            assert full_route(spec) == (s.V, s.E, s.F), n


def vertices_by_segments_of_the_split(split):
    """V_k of the full route: the vertices that are no base segment's end, by
    the number k of base segments through them (half their degree)."""
    labels = split.labels.reshape(-1, 2)
    forward = split.heading[0::2]  # the rank of each fragment's base direction, one per base row
    start = np.flatnonzero(np.append(True, forward[1:] != forward[:-1]))
    end = np.append(start[1:], len(forward)) - 1
    ends = np.union1d(labels[start, 0], labels[end, 1])
    degree = np.bincount(split.labels, minlength=len(split.points))
    inner = np.setdiff1d(np.arange(len(split.points)), ends)
    assert np.all(degree[inner] % 2 == 0)
    return ends, np.bincount(degree[inner] // 2)


def vertices_by_segments_of_the_orbit_route(spec):
    """V_k of the orbit route: c_k / k over its interior points, and the
    corners' c_k, from the incidence table ``counts`` reads."""
    _, segments, weight, rim = arrangement._tally(spec, DEFAULT_FUZZ)
    inner = np.bincount(segments[~rim], weights=weight[~rim], minlength=2).astype(np.int64)
    corners = np.bincount(segments[rim], weights=weight[rim]).astype(np.int64)
    k = np.arange(len(inner))
    assert not inner[:2].any() and np.all(inner[2:] % k[2:] == 0)
    inner[2:] //= k[2:]
    return np.trim_zeros(inner, "b"), corners


@pytest.mark.parametrize("n", range(2, 31))
def test_vertex_multiplicities_meet_the_crossing_identity_on_both_routes(n):
    # a point on k chords absorbs C(k, 2) of the X = n^2 (n-1)(n-2)/6
    # crossing pairs of even-odd chords; the 2n corners, each on n chords,
    # are the rest of V
    spec = PolygonSpec(n)
    split = split_all_fast(base_segments(spec))
    ends, full = vertices_by_segments_of_the_split(split)
    orbit, corners = vertices_by_segments_of_the_orbit_route(spec)
    assert full.tolist() == orbit.tolist()
    k = np.arange(len(full))
    assert int((k * (k - 1) // 2 * full).sum()) == n * n * (n - 1) * (n - 2) // 6
    assert len(ends) == 2 * n and 2 * n + int(full.sum()) == len(split.points) == counts(spec).V
    assert np.flatnonzero(corners).tolist() == [n] and corners[n] == n * 2 * n


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
            counts(spec, fuzz)
        with pytest.raises(error):
            full_route(spec, fuzz)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_both_routes_agree_or_both_refuse_over_a_fuzz_sweep(self, n):
        # the folded merge keeps other run ends than the unfolded one, so
        # a too-coarse fuzz must still be refused on both routes or neither
        spec = PolygonSpec(n)
        for fuzz in (1e-9, 1e-8, 1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 9e-4):
            try:
                orbit = counts(spec, fuzz)
                orbit = (orbit.V, orbit.E)
            except GeometryError:
                orbit = None
            try:
                full = full_route(spec, fuzz)[:2]
            except GeometryError:
                full = None
            assert orbit == full, fuzz

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
