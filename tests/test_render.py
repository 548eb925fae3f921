import math
import re

import numpy as np
import pytest

from polydissect import (
    MissingGraph,
    PolygonSpec,
    RenderOptions,
    base_segments,
    build_graph,
    enumerate_faces,
    render_svg,
    split_all_fast,
)
from polydissect import planar
from polydissect.render import _clip_lines


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
    doc = render_svg(split, graph, RenderOptions(color_faces=True))
    assert doc.count("<line ") == 48
    assert doc.count("<polygon ") == 25


def test_orbits_share_a_single_color():
    split = split_for(4)
    graph = build_graph(split)
    doc = render_svg(split, graph, RenderOptions(color_faces=True))
    fills = re.findall(r'fill="(hsl[^"]*)"', doc)
    # 3 per-ray orbits plus the central tile
    assert len(fills) == 25
    assert len(set(fills)) == 4


def test_orbit_labels():
    split = split_for(3)
    graph = build_graph(split)
    doc = render_svg(split, graph, RenderOptions(label_orbits=True))
    texts = re.findall(r"<text[^>]*>(\d+)</text>", doc)
    assert len(texts) == 6
    assert set(texts) == {"0"}


def test_no_face_record_is_built_on_the_way_to_the_svg(monkeypatch):
    def refuse(*args):
        raise AssertionError("a FaceRecord view was built")

    split = split_for(6)
    graph = build_graph(split)
    monkeypatch.setattr(planar, "FaceRecord", refuse)
    with pytest.raises(AssertionError, match="view was built"):
        enumerate_faces(graph)[0]
    doc = render_svg(split, graph, RenderOptions(color_faces=True, label_orbits=True))
    assert doc.count("<polygon ") == doc.count("<text ") == 145


def test_face_options_require_a_graph():
    with pytest.raises(MissingGraph):
        render_svg(split_for(3), None, RenderOptions(color_faces=True))
    with pytest.raises(MissingGraph):
        render_svg(split_for(3), None, RenderOptions(label_orbits=True))


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
    zoomed = render_svg(split, graph,
                        RenderOptions(color_faces=True, zoom=(-0.3, -0.3, 0.3, 0.3)))
    assert _coordinates_in_viewport(zoomed)


def test_zoomed_faces_are_clipped_polygons():
    split = split_for(6)
    graph = build_graph(split)
    doc = render_svg(split, graph, RenderOptions(color_faces=True, zoom=(-0.2, -0.2, 0.2, 0.2)))
    assert 0 < doc.count("<polygon ") < 145


def test_option_validation():
    with pytest.raises(ValueError):
        RenderOptions(scale=0.0)
    with pytest.raises(ValueError):
        RenderOptions(stroke_width=-1.0)
    with pytest.raises(ValueError):
        RenderOptions(zoom=(0.5, 0.5, 0.1, 0.9))  # not ordered
    with pytest.raises(ValueError):
        RenderOptions(zoom=(5.0, 5.0, 6.0, 6.0))  # misses the unit disk


@pytest.mark.parametrize("opts", [
    {"scale": math.nan}, {"scale": math.inf},
    {"stroke_width": math.nan}, {"stroke_width": math.inf},
    {"zoom": (-math.inf, -0.5, math.inf, 0.5)}, {"zoom": (math.nan, -0.5, 0.5, 0.5)},
])
def test_non_finite_options_are_rejected(opts):
    with pytest.raises(ValueError, match="finite"):
        RenderOptions(**opts)


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
