"""Exception types raised by the counting pipeline."""


class GeometryError(Exception):
    """Base class for numeric or structural failures while counting."""


class NumericalDegeneracy(GeometryError):
    """A split produced a fragment shorter than the point tolerance."""


class AmbiguousClustering(GeometryError):
    """Vertex clusters are not cleanly separated from the fuzz radius."""


class SymmetryViolation(GeometryError):
    """A count does not decompose into whole rotational orbits."""


class TraversalIncomplete(GeometryError):
    """Face traversal could not consume every half-edge exactly once."""


class OrbitMismatch(GeometryError):
    """The face cycles are not invariant under the rotation by 2pi/N."""
