"""Base segment construction for the regular 2n-gon.

The base set holds the 2n perimeter edges plus the n(n-2) diagonals that
run parallel to a side. Every diagonal connects corners (e-k) and (e+1+k)
and is parallel to the side (e, e+1); each of the n side directions
carries n-2 such diagonals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolygonSpec:
    """Regular polygon with an even number 2n of sides; ``n`` is kept as a
    Python int, whatever integer type it is given as."""

    n: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise TypeError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")

    @property
    def N(self) -> int:
        return 2 * self.n


def base_segments(spec: PolygonSpec) -> np.ndarray:
    """The base segments as an (m, 4) array of x0, y0, x1, y1 rows.

    Perimeter edges come first, then the side-parallel diagonals. Corner k
    sits at angle pi*k/n on the unit circle; corner indices are reduced mod
    2n before the lookup, so shared endpoints are bit-identical.
    """
    n = spec.n
    pts = np.array([(math.cos(math.pi * k / n), math.sin(math.pi * k / n)) for k in range(2 * n)])
    e = np.arange(2 * n)
    side = np.repeat(np.arange(n), n - 2)
    k = np.tile(np.arange(1, n - 1), n)
    start = np.concatenate((e, (side - k) % (2 * n)))
    end = np.concatenate(((e + 1) % (2 * n), (side + 1 + k) % (2 * n)))
    return np.hstack((pts[start], pts[end]))


def orbit_representatives(spec: PolygonSpec) -> list[tuple[int, int]]:
    """One base segment per orbit under rotation by 2pi/N, with the orbit size.

    Indices are into ``base_segments(spec)``. The rotation takes corner j to
    j+1, so the 2n perimeter edges form one orbit. It takes the diagonal of
    family k on side e = n-1 to the diagonal of family n-1-k on side 0, so
    families k and n-1-k together form one orbit of size 2n, except the
    diameters (2k+1 = n), whose orbit has size n.
    """
    n = spec.n
    reps = [(0, 2 * n)]
    for k in range(1, (n - 1) // 2 + 1):
        reps.append((2 * n + k - 1, n if 2 * k + 1 == n else 2 * n))
    return reps
