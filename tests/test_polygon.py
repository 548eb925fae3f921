import json
import math

import numpy as np
import pytest

from polydissect import PolygonSpec, base_segments, counts
from polydissect.cli import _summary_dict
from polydissect.polygon import orbit_representatives


def corners(spec):
    """The 2n corners as a (2n, 2) array: perimeter row e starts at corner e."""
    return base_segments(spec)[:2 * spec.n, :2]


def test_spec_requires_n_at_least_two():
    with pytest.raises(ValueError):
        PolygonSpec(1)
    assert PolygonSpec(2).N == 4


@pytest.mark.parametrize("bad", [3.0, "3", None, 2.5])
def test_spec_requires_an_integer_n(bad):
    with pytest.raises(TypeError, match="integer"):
        PolygonSpec(bad)


def test_spec_accepts_numpy_integers():
    spec = PolygonSpec(np.int64(5))
    assert type(spec.n) is int and spec.N == 10
    assert counts(PolygonSpec(np.int32(4))).F == 25
    # the summary of a numpy-typed n is plain JSON
    row = json.loads(json.dumps(_summary_dict(counts(spec))))
    assert row == {"N": 10, "n": 5, "F": 50, "E": 80, "V": 31, "per_ray": 5, "central": 0}


def test_corners_of_the_square():
    pts = corners(PolygonSpec(2))
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert len(pts) == 4
    for (px, py), (x, y) in zip(pts, expected):
        assert px == pytest.approx(x, abs=1e-12)
        assert py == pytest.approx(y, abs=1e-12)


def test_corners_of_the_hexagon():
    pts = corners(PolygonSpec(3))
    r3 = math.sqrt(3) / 2
    expected = {(1, 0), (0.5, r3), (-0.5, r3), (-1, 0), (-0.5, -r3), (0.5, -r3)}
    assert len(pts) == 6
    for px, py in pts:
        assert any(abs(px - x) < 1e-12 and abs(py - y) < 1e-12 for x, y in expected)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
def test_corners_lie_on_the_unit_circle(n):
    pts = corners(PolygonSpec(n))
    assert len(pts) == 2 * n
    assert pts[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert np.hypot(pts[:, 0], pts[:, 1]) == pytest.approx(np.ones(2 * n), abs=1e-12)


@pytest.mark.parametrize("n,total", [
    (2, 4),        # the bare square
    (4, 16),       # 8 sides + 8 diagonals
    (39, 1521),    # 2*39 + 39*37
])
def test_base_segment_counts(n, total):
    segs = base_segments(PolygonSpec(n))
    assert segs.shape == (total, 4) and segs.dtype == np.float64
    assert len(segs) == 2 * n + n * (n - 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10])
def test_base_segments_have_no_duplicates(n):
    segs = base_segments(PolygonSpec(n))
    keys = set()
    for x0, y0, x1, y1 in segs.tolist():
        a = (round(x0, 9), round(y0, 9))
        b = (round(x1, 9), round(y1, 9))
        keys.add((min(a, b), max(a, b)))
    assert len(keys) == len(segs)


@pytest.mark.parametrize("n", range(2, 30))
def test_census_invariants(n):
    # every chord joins two corners bit for bit; chords a-b and c-d are
    # parallel exactly when a + b = c + d mod 2n, and side e-(e+1) has the
    # odd sum 2e + 1, so each base segment runs along one of the n side
    # directions, and each direction carries n - 2 diagonals
    spec = PolygonSpec(n)
    base = base_segments(spec)
    corner = {p: k for k, p in enumerate(map(tuple, corners(spec).tolist()))}
    a = np.array([corner[p] for p in map(tuple, base[:, :2].tolist())])
    b = np.array([corner[p] for p in map(tuple, base[:, 2:].tolist())])
    direction = (a + b) % (2 * n)
    assert len(base) == 2 * n + n * (n - 2)
    assert (direction % 2 == 1).all()
    assert np.bincount(direction[2 * n:] // 2, minlength=n).tolist() == [n - 2] * n


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9])
def test_each_diagonal_is_parallel_to_one_side_direction(n):
    segs = base_segments(PolygonSpec(n)).tolist()
    edges = segs[:2 * n]
    diagonals = segs[2 * n:]
    # one representative direction per bundle: sides e and e+n are antiparallel
    directions = []
    for x0, y0, x1, y1 in edges[:n]:
        dx, dy = x1 - x0, y1 - y0
        ln = math.hypot(dx, dy)
        directions.append((dx / ln, dy / ln))

    per_direction = [0] * n
    for x0, y0, x1, y1 in diagonals:
        dx, dy = x1 - x0, y1 - y0
        ln = math.hypot(dx, dy)
        hits = [i for i, (ux, uy) in enumerate(directions)
                if abs(ux * dy / ln - uy * dx / ln) < 1e-9]
        assert len(hits) == 1
        per_direction[hits[0]] += 1
    assert per_direction == [n - 2] * n


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_diagonals_span_an_odd_number_of_corner_steps(n):
    spec = PolygonSpec(n)
    index_of = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(corners(spec).tolist())}
    diameters = 0
    for x0, y0, x1, y1 in base_segments(spec)[2 * n:].tolist():
        i = index_of[(round(x0, 9), round(y0, 9))]
        j = index_of[(round(x1, 9), round(y1, 9))]
        span = (j - i) % (2 * n)
        span = min(span, 2 * n - span)
        assert span % 2 == 1 and span >= 3
        if span == n:
            diameters += 1
            # a diameter passes through the center
            mid_x = (x0 + x1) / 2
            mid_y = (y0 + y1) / 2
            assert math.hypot(mid_x, mid_y) < 1e-9
    assert diameters == (n if n % 2 == 1 else 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_base_set_is_invariant_under_rotation_by_one_step(n):
    spec = PolygonSpec(n)
    segs = base_segments(spec).tolist()
    angle = math.pi / n

    def canon(x0, y0, x1, y1):
        a = (round(x0, 9), round(y0, 9))
        b = (round(x1, 9), round(y1, 9))
        return (min(a, b), max(a, b))

    original = {canon(*s) for s in segs}
    c, sn = math.cos(angle), math.sin(angle)
    rotated = {canon(c * x0 - sn * y0, sn * x0 + c * y0, c * x1 - sn * y1, sn * x1 + c * y1)
               for x0, y0, x1, y1 in segs}
    assert rotated == original


@pytest.mark.parametrize("n", range(2, 12))
def test_orbit_representatives_generate_the_base_set(n):
    # rotating each representative by multiples of pi/n hits every base
    # segment exactly once, in an orbit of the stated size
    spec = PolygonSpec(n)
    base = base_segments(spec).tolist()
    key = {}
    for i, s in enumerate(base):
        key[frozenset((round(x, 9) + 0.0, round(y, 9) + 0.0) for x, y in (s[:2], s[2:]))] = i
    seen = []
    for index, orbit in orbit_representatives(spec):
        s = base[index]
        images = set()
        for j in range(2 * n):
            c, d = math.cos(math.pi * j / n), math.sin(math.pi * j / n)
            ends = frozenset((round(c * x - d * y, 9) + 0.0, round(d * x + c * y, 9) + 0.0)
                             for x, y in (s[:2], s[2:]))
            images.add(key[ends])
        assert len(images) == orbit
        seen.extend(images)
    assert sorted(seen) == list(range(len(base)))
