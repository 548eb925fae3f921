import argparse
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import polydissect
from polydissect import (
    FaceRecord, Faces, PlanarGraph, RenderOptions, Split, arrangement, cli, errors, geom, planar,
    polygon, reference, render)


def test_every_exported_name_resolves():
    for name in polydissect.__all__:
        assert getattr(polydissect, name) is not None, name


def test_the_public_names_are_exactly_these():
    # adding or removing a public name is a deliberate change to this list
    assert polydissect.__all__ == [
        "AmbiguousClustering", "GeometryError", "NumericalDegeneracy", "OrbitMismatch",
        "SymmetryViolation", "TraversalIncomplete", "DEFAULT_FUZZ", "Split", "PolygonSpec",
        "base_segments", "CountSummary", "cluster_endpoints", "count_vertices", "counts",
        "split_all_fast", "FaceRecord", "Faces", "OrbitCensus", "PlanarGraph", "build_graph",
        "enumerate_faces", "orbit_census", "RenderOptions", "render_svg",
    ]


def test_removed_names_are_gone():
    for module, name in ((polydissect, "GraphArrays"), (planar, "GraphArrays"),
                         (polydissect, "split_at_params"), (geom, "split_at_params"),
                         (polydissect, "point_at"), (geom, "point_at"),
                         (planar, "_point_array"), (render, "_clip_segment"),
                         (render, "_clip_polygon"),
                         (planar, "close_pairs"), (geom, "merge_runs"),
                         (polydissect, "merge_runs"),
                         (polydissect, "face_vertices"), (planar, "face_vertices"),
                         (polydissect, "MissingGraph"), (errors, "MissingGraph"),
                         (arrangement, "_fragments"), (arrangement, "SplitSegmentSet"),
                         (planar, "_cycle_labels"), (reference, "ReferenceRow"),
                         (polygon, "base_array"), (arrangement, "SegmentSet"),
                         (geom, "segment_array"), (cli, "_count_range"),
                         (geom, "merge_sorted_runs"), (geom, "group_order"),
                         (planar, "WALK_STEPS"), (planar, "_members"),
                         (polydissect, "split_all"), (arrangement, "split_all"),
                         (arrangement, "_cut_tuple"), (arrangement, "_split_tuple"),
                         (arrangement, "_split"),
                         *((m, name) for m in (polydissect, geom)
                           for name in ("Tolerance", "DEFAULT_TOL")),
                         *((m, name) for m in (polydissect, geom)
                           for name in ("intersect", "classify_param", "ParamClass", "Params",
                                        "Point2", "Segment")),
                         *((m, name) for m in (polydissect, polygon)
                           for name in ("corners", "diagonal_census", "DiagonalCensus"))):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    # an instance, so that a dataclass field without a default counts too
    graph = PlanarGraph(None, None, None)
    for name in ("arrays", "dest", "origin", "degree", "ring_start"):
        assert not hasattr(graph, name), name
    assert not hasattr(RenderOptions(), "color_faces")
    assert list(inspect.signature(polydissect.orbit_census).parameters) == ["faces"]


def test_a_planar_graph_is_its_three_arrays():
    assert [f.name for f in fields(PlanarGraph)] == ["vertices", "edges", "ring_half"]


def test_a_split_is_its_fragments_and_their_vertices():
    assert [f.name for f in fields(Split)] == ["frags", "labels", "points", "heading"]


def test_faces_are_their_three_arrays():
    assert [f.name for f in fields(Faces)] == ["cycle", "start", "signed_area"]


def test_a_face_record_is_its_boundary_area_and_side():
    assert [f.name for f in fields(FaceRecord)] == ["boundary", "signed_area", "is_outer"]


def test_render_options_are_what_the_cli_sets():
    assert [f.name for f in fields(RenderOptions)] == ["scale", "zoom"]


def test_each_subcommand_takes_exactly_these_options():
    parser = cli._build_parser()
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in commands.items()}
    assert options == {
        "count": ["--n", "--json"],
        "table": ["--max-n", "--format"],
        "verify": ["--max-n", "--jobs"],
        "render": ["--n", "--out", "--faces", "--zoom", "--scale"],
    }


def test_the_census_and_the_renderer_take_no_tolerance():
    # the census is exact, the renderer passed a tolerance only to it, and
    # the graph stages read the split's vertices and headings as they are
    for fn in (polydissect.orbit_census, polydissect.render_svg, render._tiles,
               polydissect.build_graph, polydissect.count_vertices,
               polydissect.cluster_endpoints):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__


def load_tracing():
    """The benchmark's tracer module; it imports only the standard library,
    so it loads on its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    if not path.exists():
        pytest.skip("no perfbench/tracing.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_tracer_patches_resolves():
    tracing = load_tracing()
    assert tracing.PATCHES
    for module, name, *_ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("argv,segments", [
    (["count", "--n", "5"], 25),
    (["render", "--n", "5", "--faces"], 25),
    (["verify", "--max-n", "4"], 4 + 9 + 16),
], ids=["count", "render", "verify"])
def test_the_tracer_sees_the_base_segments_of_each_polygon(argv, segments, tmp_path):
    # the 2n-gon has n**2 base segments; each polygon the command counts or
    # draws builds them once, through the name the tracer wraps
    tracing = load_tracing()
    if argv[0] == "render":
        argv = [*argv, "--out", str(tmp_path / "figure.svg")]
    tracer = tracing.Tracer(tmp_path)
    with tracer.installed():
        assert cli.main(argv) == 0
    assert tracing.layer_metrics(tracer.collect())["polygon.segments"] == segments
