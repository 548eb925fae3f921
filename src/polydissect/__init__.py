"""Dissections of the regular 2n-gon by its side-parallel diagonals."""

from .errors import (
    AmbiguousClustering,
    GeometryError,
    NumericalDegeneracy,
    OrbitMismatch,
    SymmetryViolation,
    TraversalIncomplete,
)
from .geom import DEFAULT_FUZZ, Split
from .polygon import PolygonSpec, base_segments
from .arrangement import (
    CountSummary,
    cluster_endpoints,
    count_vertices,
    counts,
    split_all_fast,
)
from .planar import (
    FaceRecord,
    Faces,
    OrbitCensus,
    PlanarGraph,
    build_graph,
    enumerate_faces,
    orbit_census,
)
from .render import RenderOptions, render_svg

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClustering",
    "GeometryError",
    "NumericalDegeneracy",
    "OrbitMismatch",
    "SymmetryViolation",
    "TraversalIncomplete",
    "DEFAULT_FUZZ",
    "Split",
    "PolygonSpec",
    "base_segments",
    "CountSummary",
    "cluster_endpoints",
    "count_vertices",
    "counts",
    "split_all_fast",
    "FaceRecord",
    "Faces",
    "OrbitCensus",
    "PlanarGraph",
    "build_graph",
    "enumerate_faces",
    "orbit_census",
    "RenderOptions",
    "render_svg",
]
