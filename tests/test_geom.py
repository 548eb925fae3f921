import inspect
import math
import random

import numpy as np
import pytest

from conftest import _split_tuple, split_all, values_along
from polydissect import (
    DEFAULT_FUZZ, PolygonSpec, arrangement, base_segments, counts, split_all_fast,
)
from polydissect.arrangement import (
    _END, _INTERIOR, _MISS, _param_class, _segment_arrays, _solve_pairs, close_pairs,
)

FUZZ = 1e-10


def seg(x0, y0, x1, y1):
    return (x0, y0, x1, y1)


def solve(a, b):
    """(t on a, t on b) when the pair kernel finds the rows a and b meeting, else None."""
    k, t, _, u, _ = _solve_pairs(_segment_arrays(np.array([a, b], dtype=float)),
                                 np.arange(1), np.arange(1, 2), FUZZ)
    # the one pair: row a against column b
    assert k.tolist() in ([], [0])
    return tuple(t.tolist() + u.tolist()) or None


class TestIntersect:
    """The pair kernel ``arrangement._solve_pairs``, the package's vectorized
    segment intersection, on one pair at a time and on whole blocks."""

    def test_symmetric_crossing(self):
        assert solve(seg(0, 0, 1, 1), seg(0, 1, 1, 0)) == pytest.approx((0.5, 0.5))

    def test_horizontal_pair_is_parallel(self):
        assert solve(seg(0, 0, 1, 0), seg(0, 1, 1, 1)) is None

    def test_endpoint_touch(self):
        assert solve(seg(0, 0, 1, 0), seg(1, 0, 1, 1)) == pytest.approx((1.0, 0.0))

    def test_parallel_detection_is_symmetric(self):
        rng = random.Random(7)
        for _ in range(200):
            a = _random_segment(rng)
            # parallel partner: translate and rescale the same direction
            x0, y0, x1, y1 = a
            dx = x1 - x0
            dy = y1 - y0
            shift = rng.uniform(-0.5, 0.5)
            scale = rng.uniform(0.3, 2.0)
            b = (x0 - dy * shift, y0 + dx * shift,
                 x0 - dy * shift + dx * scale, y0 + dx * shift + dy * scale)
            assert solve(a, b) is None
            assert solve(b, a) is None

    def test_swap_symmetry_on_crossing_pairs(self, monkeypatch):
        # _hits solves each unordered pair once and reads the cut on the
        # column segment of a pair (r, c) as its u, so u of (r, c) must equal
        # t of (c, r) bit for bit. Calling every parameter an end makes
        # _solve_pairs return every pair it classifies.
        monkeypatch.setattr(arrangement, "_param_class",
                            lambda p, fuzz: np.full(len(p), _END, dtype=np.int8))
        rng = np.random.default_rng(21)
        for base in (base_segments(PolygonSpec(13)), rng.uniform(-1, 1, size=(300, 4))):
            m = len(base)
            k, t, _, u, _ = _solve_pairs(_segment_arrays(base), np.arange(m), np.arange(m), FUZZ)
            r, c = np.divmod(k, m)
            t_of, u_of = np.full((m, m), np.nan), np.full((m, m), np.nan)
            t_of[r, c], u_of[r, c] = t, u
            assert len(k) > 5 * m
            assert u_of.tobytes() == t_of.T.copy().tobytes()  # zeros of one sign too

    def test_params_locate_a_common_point(self):
        rng = random.Random(4)
        for _ in range(300):
            a, b = _crossing_pair(rng)
            t, u = solve(a, b)
            (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a, b
            assert math.hypot(t * ax1 + (1 - t) * ax0 - u * bx1 - (1 - u) * bx0,
                              t * ay1 + (1 - t) * ay0 - u * by1 - (1 - u) * by0) <= 1e-9


class TestClassifyParam:
    """``arrangement._param_class``, the one classifier of a line parameter."""

    @pytest.mark.parametrize("t,expected", [
        (0.5, "_INTERIOR"),
        (1e-12, "_END"),
        (-0.5, "_MISS"),
        (1.0, "_END"),
        (1.0 + 5e-11, "_END"),
        (2.0, "_MISS"),
        (-5e-11, "_END"),
    ])
    def test_examples(self, t, expected):
        assert _param_class(np.array([t]), FUZZ).tolist() == [getattr(arrangement, expected)]

    def test_every_finite_value_gets_exactly_one_class(self):
        fuzz = FUZZ
        probes = [-1.0, -2 * fuzz, -fuzz, -fuzz / 2, 0.0, fuzz / 2, fuzz, 2 * fuzz, 0.3,
                  1.0 - 2 * fuzz, 1.0 - fuzz, 1.0 - fuzz / 2, 1.0, 1.0 + fuzz / 2,
                  1.0 + fuzz, 1.0 + 2 * fuzz, 5.0]
        for t, cls in zip(probes, _param_class(np.array(probes), fuzz).tolist()):
            in_end = abs(t) < fuzz or abs(t - 1.0) < fuzz
            in_interior = fuzz < t < 1.0 - fuzz
            assert cls in (_MISS, _END, _INTERIOR)
            assert (cls == _END) == in_end
            assert (cls == _INTERIOR) == in_interior
            assert (cls == _MISS) == (not in_end and not in_interior)


class TestSplitAtParams:
    """The reference splitter's cut of one segment at merged parameters
    (``conftest._split_tuple``; rows are x0, y0, x1, y1, length)."""

    def test_no_cut(self):
        assert _split_tuple(0.0, 0.0, 2.0, 0.0, [], FUZZ) == [(0.0, 0.0, 2.0, 0.0, 2.0)]

    def test_midpoint(self):
        parts = _split_tuple(0.0, 0.0, 2.0, 0.0, [0.5], FUZZ)
        assert parts == [(0.0, 0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 2.0, 0.0, 1.0)]

    def test_duplicate_parameters_merge(self):
        parts = _split_tuple(0.0, 0.0, 2.0, 0.0, [0.3, 0.3 + 1e-12, 0.7], FUZZ)
        assert len(parts) == 3
        assert parts[0][2] == pytest.approx(0.6, abs=1e-9)
        assert parts[1][2] == pytest.approx(1.4, abs=1e-9)

    def test_length_conservation(self):
        rng = random.Random(99)
        for _ in range(200):
            s = _random_segment(rng)
            ts = [rng.uniform(1e-6, 1 - 1e-6) for _ in range(rng.randrange(0, 12))]
            parts = _split_tuple(*s, ts, FUZZ)
            length = math.hypot(s[2] - s[0], s[3] - s[1])
            assert sum(p[4] for p in parts) == pytest.approx(length, abs=1e-9)

    def test_fragments_chain_without_gaps(self):
        # the ends t = 0 and t = 1 reproduce the segment's endpoints bit-exactly
        ends = (0.123456789, -0.98765, 0.31415, 0.27182)
        parts = _split_tuple(*ends, [0.25, 0.5, 0.75], FUZZ)
        assert parts[0][0:2] == ends[0:2] and parts[-1][2:4] == ends[2:4]
        for a, b in zip(parts, parts[1:]):
            assert a[2:4] == b[0:2]


def merge_one_list(values, fuzz):
    """The kept values and run sizes of one segment: its ends 0 and 1 and ``values``."""
    _, kept, sizes = values_along(np.zeros(len(values), dtype=np.intp), np.array(values), 1, fuzz)
    return kept.tolist(), sizes.tolist()


class TestMergeRuns:
    def test_runs_and_their_sizes(self):
        values, sizes = merge_one_list([0.7, 0.0, 0.3 + 1e-12, 1.0, 0.3, 0.3 + 2e-12], 1e-10)
        assert values == [0.0, 0.3 + 2e-12, 0.7, 1.0]
        assert sizes == [2, 3, 1, 2]

    def test_first_value_survives_in_the_first_run(self):
        values, sizes = merge_one_list([4e-11, -4e-11, 0.5], 1e-10)
        assert values == [-4e-11, 0.5, 1.0]
        assert sizes == [3, 1, 1]


def brute_close_pairs(points, radius):
    """Every i < j with |points[i] - points[j]| <= radius, from the distance matrix."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    i, j = np.nonzero(np.triu(d2 <= radius * radius, k=1))
    return sorted(zip(i.tolist(), j.tolist()))


def found_once(points, radius):
    """The pairs close_pairs finds, as sorted (i < j) tuples; none repeats or is (i, i)."""
    i, j = close_pairs(points, radius)
    assert not np.any(i == j)
    pairs = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert len(set(pairs)) == len(pairs)
    return pairs


class TestClosePairs:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", [1e-10, 3e-10, 0.25])
    def test_matches_brute_force(self, seed, radius):
        # quarter-cell snapping around the origin puts many points on cell
        # borders, at negative coordinates, on top of each other and at
        # exactly the radius from each other
        rng = np.random.default_rng(seed)
        points = rng.integers(-12, 12, size=(60 + 5 * seed, 2)) * (radius / 4)
        expected = brute_close_pairs(points, radius)
        assert expected
        assert found_once(points, radius) == expected

    def test_duplicates_borders_and_the_exact_radius(self):
        # cell side 0.5: (0, 0) twice and (0.5, 0), (0, 0.5), (-0.5, -0.5)
        # on cell borders at exactly the radius or sqrt(2) times it
        points = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5],
                           [-0.5, -0.5], [-0.5, 0.0], [1.0, 1.0]])
        assert found_once(points, 0.5) == [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (2, 3),
                                           (2, 5), (4, 5)]
        assert found_once(points, 0.5) == brute_close_pairs(points, 0.5)

    def test_empty_inputs(self):
        # no points, or one point, which is never paired with itself
        for points in (np.empty((0, 2)), np.array([[0.0, 0.0]]), np.array([[-3e-10, 7e-10]]),
                       np.array([[1e6, -1e6]])):
            i, j = close_pairs(points, 1e-10)
            assert len(i) == 0 and len(j) == 0
            assert found_once(points, 1e-10) == brute_close_pairs(points, 1e-10) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_clustered_points_match_brute_force(self, seed):
        # tight clusters of a few points each, some overlapping, around the unit disk
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1, 1, size=(12, 2))
        points = centers[rng.integers(0, 12, size=150)] + rng.normal(0, 2e-10, size=(150, 2))
        expected = brute_close_pairs(points, 3e-10)
        assert len(expected) > 150
        assert found_once(points, 3e-10) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_points_far_from_the_unit_disk_match_brute_force(self, seed):
        # near |x| = 1e6 the floats are 1.2e-10 apart: a radius of 1e-10 puts
        # 8.6e15 cells across the cloud, beyond an int64 key, so the cells
        # grow to max|coordinate| / 2**30
        rng = np.random.default_rng(seed)
        corner = rng.choice([-1e6, 1e6], size=(80, 2))
        points = corner + rng.integers(-6, 7, size=(80, 2)) * 1e-10
        expected = brute_close_pairs(points, 1e-10)
        assert expected
        assert found_once(points, 1e-10) == expected

    def test_a_radius_spanning_the_cloud_pairs_every_point(self):
        points = np.random.default_rng(9).uniform(-1, 1, size=(40, 2))
        assert found_once(points, 3.0) == brute_close_pairs(points, 3.0)
        assert len(found_once(points, 3.0)) == 40 * 39 // 2


@pytest.mark.parametrize("bad", [0.0, -1e-10, 1e-3, 1.0])
def test_tolerance_range_is_validated(bad):
    # the fuzz is a plain float, checked where each route starts
    base = base_segments(PolygonSpec(3))
    for route, arg in ((counts, PolygonSpec(3)), (split_all, base), (split_all_fast, base)):
        with pytest.raises(ValueError, match="fuzz must lie in"):
            route(arg, bad)


def test_tolerance_default():
    assert DEFAULT_FUZZ == 1e-10
    for route in (counts, split_all, split_all_fast):
        assert inspect.signature(route).parameters["fuzz"].default == DEFAULT_FUZZ


def _random_segment(rng):
    """A random x0, y0, x1, y1 row in the square [-1, 1]^2, longer than 1e-3."""
    while True:
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        x1, y1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if math.hypot(x1 - x0, y1 - y0) > 1e-3:
            return (x0, y0, x1, y1)


def _crossing_pair(rng):
    """Two segments through a shared interior point, angles well separated."""
    cx = rng.uniform(-0.5, 0.5)
    cy = rng.uniform(-0.5, 0.5)
    a0 = rng.uniform(0, math.pi)
    a1 = a0 + rng.uniform(0.1, math.pi - 0.1)
    out = []
    for ang in (a0, a1):
        la = rng.uniform(0.1, 0.7)
        lb = rng.uniform(0.1, 0.7)
        out.append((cx - la * math.cos(ang), cy - la * math.sin(ang),
                    cx + lb * math.cos(ang), cy + lb * math.sin(ang)))
    return out
