import math
import re

import numpy as np
import pytest

from polydissect import (
    OrbitMismatch,
    PolygonSpec,
    RenderOptions,
    Split,
    base_segments,
    build_graph,
    enumerate_faces,
    render_svg,
    split_all_fast,
)
from polydissect import planar
from polydissect.render import _clip_lines, _clip_rings

from conftest import tile_text


def split_for(n):
    return split_all_fast(base_segments(PolygonSpec(n)))


def test_two_renders_are_byte_identical():
    split = split_for(5)
    assert render_svg(split) == render_svg(split)


@pytest.mark.parametrize("n,edges", [(2, 4), (3, 12), (5, 80)])
def test_line_element_count_equals_e(n, edges):
    doc = render_svg(split_for(n))
    assert doc.count("<line ") == edges
    assert doc.count("<polygon ") == 0


def test_face_fill_adds_one_polygon_per_inner_face():
    split = split_for(4)
    graph = build_graph(split)
    doc = render_svg(split, graph)
    assert doc.count("<line ") == 48
    assert doc.count("<polygon ") == 25


def test_orbits_share_a_single_color():
    split = split_for(4)
    graph = build_graph(split)
    doc = render_svg(split, graph)
    fills = re.findall(r'fill="(hsl[^"]*)"', doc)
    # 3 per-ray orbits plus the central tile
    assert len(fills) == 25
    assert len(set(fills)) == 4


def test_no_face_record_is_built_on_the_way_to_the_svg(monkeypatch):
    def refuse(*args):
        raise AssertionError("a FaceRecord view was built")

    split = split_for(6)
    graph = build_graph(split)
    monkeypatch.setattr(planar, "FaceRecord", refuse)
    with pytest.raises(AssertionError, match="view was built"):
        enumerate_faces(graph)[0]
    doc = render_svg(split, graph)
    assert doc.count("<polygon ") == 145


# canvases of 1 to 4 whole digits: table rows of 20 to 26 bytes, 3 or 2 of them per fill
@pytest.mark.parametrize("scale", [2.0, 40.0, 400.0, 4000.0])
@pytest.mark.parametrize("n", range(3, 11))
def test_tiles_match_a_plain_python_writer(n, scale):
    split = split_for(n)
    graph = build_graph(split)
    doc = render_svg(split, graph, RenderOptions(scale=scale))
    group = doc[doc.index('<g stroke="none">'):doc.index("</g>\n") + 5]
    # compared line by line, which keeps pytest's report of a mismatch short
    assert group.split("\n") == tile_text(graph, scale).split("\n")


def test_a_window_between_the_polygon_and_the_circle_draws_no_tiles():
    split = split_for(2)
    doc = render_svg(split, build_graph(split), RenderOptions(zoom=(0.6, 0.6, 0.75, 0.75)))
    assert '<g stroke="none">\n</g>\n' in doc
    assert doc.count("<polygon ") == doc.count("<line ") == 0


def test_a_graph_of_another_split_raises():
    with pytest.raises(ValueError, match="48 edges, the split 12"):
        render_svg(split_for(3), build_graph(split_for(4)))


def test_a_figure_whose_outer_face_is_no_2n_gon_raises():
    tri = split_all_fast(np.array([[0.0, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5],
                                   [0.0, 0.5, 0.0, 0.0]]))
    with pytest.raises(OrbitMismatch, match="3 sides"):
        render_svg(tri, build_graph(tri))


def fragments_split(frags):
    """A Split of the given fragments, each end a vertex of its own."""
    frags = np.array(frags, dtype=float)
    return Split(frags=frags, labels=np.arange(2 * len(frags)),
                 points=frags.reshape(-1, 2), heading=np.zeros(2 * len(frags), dtype=np.uint8))


@pytest.mark.parametrize("zoom", [None, (0.0, -1.0, 1.0, 1.0)])
def test_line_ends_shared_only_when_bit_equal(zoom):
    # rows 0-1 and 3-4 meet bit for bit; row 2 starts at row 1's x but not
    # its y, and row 3 at +0.0 where row 2 ends at -0.0, which the window
    # at x = 0 writes as -0.000000 and 0.000000
    frags = [[0.1, 0.2, 0.3, 0.4], [0.3, 0.4, 0.5, 0.6], [0.5, 0.65, -0.0, 0.7],
             [0.0, 0.7, 0.25, -0.5], [0.25, -0.5, 0.75, 0.125]]
    opts = RenderOptions(scale=37.5, zoom=zoom)
    doc = render_svg(fragments_split(frags), opts=opts)
    x0, _, _, y1 = zoom or (-1.05, -1.05, 1.05, 1.05)
    expected = ['<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>' % (
        (a - x0) * opts.scale, (y1 - b) * opts.scale, (c - x0) * opts.scale, (y1 - d) * opts.scale)
        for a, b, c, d in frags]
    assert re.findall(r"<line [^>]*>", doc) == expected
    assert ('x2="-0.000000"' in doc) == (zoom is not None)


def test_zoom_clips_and_reduces_element_count():
    split = split_for(10)
    window = (0.55, -0.25, 1.05, 0.25)  # around the rightmost corner
    doc = render_svg(split, opts=RenderOptions(zoom=window))
    n_lines = doc.count("<line ")
    assert 0 < n_lines < len(split)


def _coordinates_in_viewport(doc):
    width = float(re.search(r'width="([\d.]+)"', doc).group(1))
    height = float(re.search(r'height="([\d.]+)"', doc).group(1))
    xs = [float(v) for v in re.findall(r'x[12]="(-?[\d.]+)"', doc)]
    ys = [float(v) for v in re.findall(r'y[12]="(-?[\d.]+)"', doc)]
    pts = re.findall(r'points="([^"]*)"', doc)
    for blob in pts:
        for pair in blob.split():
            x, y = pair.split(",")
            xs.append(float(x))
            ys.append(float(y))
    eps = 1e-6
    return (all(-eps <= x <= width + eps for x in xs)
            and all(-eps <= y <= height + eps for y in ys))


def test_all_coordinates_live_inside_the_viewport():
    split = split_for(6)
    assert _coordinates_in_viewport(render_svg(split))
    graph = build_graph(split)
    zoomed = render_svg(split, graph, RenderOptions(zoom=(-0.3, -0.3, 0.3, 0.3)))
    assert _coordinates_in_viewport(zoomed)


def test_zoomed_faces_are_clipped_polygons():
    split = split_for(6)
    graph = build_graph(split)
    doc = render_svg(split, graph, RenderOptions(zoom=(-0.2, -0.2, 0.2, 0.2)))
    assert 0 < doc.count("<polygon ") < 145


def test_option_validation():
    with pytest.raises(ValueError):
        RenderOptions(scale=0.0)
    with pytest.raises(ValueError):
        RenderOptions(zoom=(0.5, 0.5, 0.1, 0.9))  # not ordered
    with pytest.raises(ValueError):
        RenderOptions(zoom=(5.0, 5.0, 6.0, 6.0))  # misses the unit disk


@pytest.mark.parametrize("opts", [
    {"scale": math.nan}, {"scale": math.inf},
    {"scale": -math.inf}, {"zoom": (-0.5, -0.5, 0.5, math.inf)},
    {"zoom": (-math.inf, -0.5, math.inf, 0.5)}, {"zoom": (math.nan, -0.5, 0.5, 0.5)},
])
def test_non_finite_options_are_rejected(opts):
    with pytest.raises(ValueError, match="finite"):
        RenderOptions(**opts)


def test_a_small_window_at_a_large_scale_writes_only_points_inside_it():
    # vertices outside the window map beyond the exact range of the number kernel
    split = split_for(6)
    doc = render_svg(split, build_graph(split),
                     RenderOptions(zoom=(0.99, -0.01, 1.01, 0.01), scale=5e10))
    assert doc.count("<polygon ") == 5
    assert _coordinates_in_viewport(doc)


def test_scale_controls_the_canvas():
    doc = render_svg(split_for(2), opts=RenderOptions(scale=100.0))
    assert 'width="210.000000"' in doc
    assert 'height="210.000000"' in doc


UNIT = (0.0, 0.0, 1.0, 1.0)


def test_a_fragment_parallel_to_an_edge_and_outside_is_dropped():
    # dx == 0 left of the window, dy == 0 above it
    frags = np.array([[-0.5, 0.2, -0.5, 0.8], [0.2, 1.5, 0.8, 1.5]])
    assert _clip_lines(frags, UNIT).shape == (0, 4)


def test_a_fragment_touching_a_window_corner_gives_one_zero_length_line():
    frags = np.array([[-1.0, 0.0, 1.0, 2.0], [2.0, 0.5, 3.0, 0.5]])
    assert _clip_lines(frags, UNIT).tolist() == [[0.0, 1.0, 0.0, 1.0]]


def test_a_fragment_fully_inside_comes_back_whole():
    frags = np.array([[0.1, 0.2, 0.3, 0.7], [0.25, 0.5, 0.75, 0.125]])
    assert np.array_equal(_clip_lines(frags, UNIT), frags)
    # t0 = 0 and t1 = 1 exactly: both ends come back bit for bit, not as x0 + 1*(x1 - x0)
    rows = np.random.default_rng(3).uniform(0.01, 0.99, (1000, 4))
    assert np.array_equal(_clip_lines(rows, UNIT), rows)


def rings(*polys):
    """The point table and CSR rings of a few polygons, numbered in order."""
    pts = np.array([p for poly in polys for p in poly], dtype=np.float64).reshape(-1, 2)
    start = np.concatenate(([0], np.cumsum([len(poly) for poly in polys])))
    return pts[:, 0], pts[:, 1], np.arange(len(pts)), start


def test_a_triangle_crossing_one_side_gives_the_exact_crossings():
    x, y, ring, start = _clip_rings(*rings([(0.5, 0.5), (1.5, 0.5), (0.5, 0.75)]), UNIT)
    # a, the crossing of a -> b, the crossing of b -> c, c; b stays in the table unused
    assert ring.tolist() == [0, 3, 4, 2]
    assert start.tolist() == [0, 4]
    assert x.tolist() == [0.5, 1.5, 0.5, 1.0, 1.0]
    assert y.tolist() == [0.5, 0.5, 0.75, 0.5, 0.625]


def test_a_ring_wholly_outside_comes_back_empty():
    left = [(-0.5, 0.2), (-0.1, 0.2), (-0.3, 0.6)]
    inside = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.6)]
    x, y, ring, start = _clip_rings(*rings(left, inside), UNIT)
    assert start.tolist() == [0, 0, 3]
    assert ring.tolist() == [3, 4, 5]
    assert len(x) == len(y) == 6


def test_a_ring_wholly_inside_comes_back_as_it_was():
    table = rings([(0.2, 0.2), (0.8, 0.2), (0.8, 0.9), (0.1, 0.7)])
    x, y, ring, start = _clip_rings(*table, UNIT)
    for got, given in zip((x, y, ring, start), table):
        assert np.array_equal(got, given)


def test_a_ring_emptied_by_one_side_leaves_the_next_ring_whole():
    # the first ring is emptied by the left side, the second is cut by the right one
    x, y, ring, start = _clip_rings(
        *rings([(-0.5, 0.2), (-0.1, 0.2), (-0.3, 0.6)], [(0.5, 0.5), (1.5, 0.5), (0.5, 0.75)]),
        UNIT)
    assert start.tolist() == [0, 0, 4]
    assert ring.tolist() == [3, 6, 7, 5]


def clip_one(poly, win):
    """Plain Sutherland-Hodgman clip of one polygon, one side at a time."""
    for axis, bound, keep_greater in ((0, win[0], True), (0, win[2], False),
                                      (1, win[1], True), (1, win[3], False)):
        out = []
        for a, b in zip(poly, poly[1:] + poly[:1]):
            ina = a[axis] >= bound if keep_greater else a[axis] <= bound
            inb = b[axis] >= bound if keep_greater else b[axis] <= bound
            if ina:
                out.append(a)
            if ina != inb:
                t = (bound - a[axis]) / (b[axis] - a[axis])
                out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        poly = out
    return poly


def test_rings_clip_bit_for_bit_like_one_polygon_at_a_time():
    rng = np.random.default_rng(11)
    polys = [list(map(tuple, rng.uniform(-0.5, 1.5, (int(rng.integers(3, 9)), 2)).tolist()))
             for _ in range(300)]
    for win in (UNIT, (0.25, -0.5, 0.75, 0.5), (-2.0, -2.0, 2.0, 2.0)):
        x, y, ring, start = _clip_rings(*rings(*polys), win)
        got = [list(zip(x[ring[lo:hi]].tolist(), y[ring[lo:hi]].tolist()))
               for lo, hi in zip(start[:-1], start[1:])]
        assert got == [clip_one(p, win) for p in polys]


@pytest.mark.parametrize("n", [6, 10, 24])
@pytest.mark.parametrize("win", [(-0.5, -0.4, 0.6, 0.45), (0.1, -0.62, 0.55, -0.05)])
def test_clipped_inner_tiles_cover_a_window_inside_the_polygon(n, win):
    graph = build_graph(split_for(n))
    faces = enumerate_faces(graph)
    x, y, ring, start = _clip_rings(*graph.vertices.T, graph.edges.reshape(-1)[faces.cycle],
                                    faces.start, win)
    size = np.diff(start)
    face = np.repeat(np.arange(len(size)), size)
    nxt = np.arange(1, len(ring) + 1)
    nxt[start[1:][size > 0] - 1] = start[:-1][size > 0]
    cross = x[ring] * y[ring[nxt]] - x[ring[nxt]] * y[ring]
    area = np.bincount(face, cross, minlength=len(size)) / 2.0
    inner = faces.signed_area > 0.0
    assert abs(area[inner].sum() - (win[2] - win[0]) * (win[3] - win[1])) < 1e-12
