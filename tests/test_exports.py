from dataclasses import fields

import polydissect
from polydissect import Faces, PlanarGraph, geom, planar


def test_every_exported_name_resolves():
    for name in polydissect.__all__:
        assert getattr(polydissect, name) is not None, name


def test_removed_names_are_gone():
    for module, name in ((polydissect, "GraphArrays"), (planar, "GraphArrays"),
                         (polydissect, "split_at_params"), (geom, "split_at_params"),
                         (polydissect, "point_at"), (geom, "point_at"),
                         (planar, "_point_array"),
                         (polydissect, "face_vertices"), (planar, "face_vertices")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("arrays", "dest"):
        assert not hasattr(PlanarGraph, name), name


def test_a_planar_graph_is_its_four_arrays():
    assert [f.name for f in fields(PlanarGraph)] == ["vertices", "edges", "ring_start", "ring_half"]


def test_faces_are_their_four_arrays():
    assert [f.name for f in fields(Faces)] == ["cycle", "start", "signed_area", "centroid"]
