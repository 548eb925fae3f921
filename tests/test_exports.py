import inspect
from dataclasses import fields

import polydissect
from polydissect import Faces, PlanarGraph, geom, planar, render


def test_every_exported_name_resolves():
    for name in polydissect.__all__:
        assert getattr(polydissect, name) is not None, name


def test_removed_names_are_gone():
    for module, name in ((polydissect, "GraphArrays"), (planar, "GraphArrays"),
                         (polydissect, "split_at_params"), (geom, "split_at_params"),
                         (polydissect, "point_at"), (geom, "point_at"),
                         (planar, "_point_array"), (render, "_clip_segment"),
                         (render, "_clip_polygon"),
                         (planar, "close_pairs"),
                         (polydissect, "face_vertices"), (planar, "face_vertices")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("arrays", "dest"):
        assert not hasattr(PlanarGraph, name), name


def test_a_planar_graph_is_its_four_arrays():
    assert [f.name for f in fields(PlanarGraph)] == ["vertices", "edges", "ring_start", "ring_half"]


def test_faces_are_their_four_arrays():
    assert [f.name for f in fields(Faces)] == ["cycle", "start", "signed_area", "centroid"]


def test_the_census_and_the_renderer_take_no_tolerance():
    # the census is exact, and the renderer passed a tolerance only to it
    for fn in (polydissect.orbit_census, polydissect.render_svg, render._tiles):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
