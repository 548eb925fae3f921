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


def base_corners(spec: PolygonSpec) -> np.ndarray:
    """The corner table: the start and end corner of each base row, an (m, 2) int64 array.

    Rows come in ``base_segments`` order: perimeter edge e runs from corner
    e to e+1, then the diagonal of family k on side e from corner e-k to
    e+1+k, for each side e and k = 1..n-2. Corner indices lie in 0..2n-1.
    """
    n, N = spec.n, 2 * spec.n
    i = np.arange(N)
    corners = np.empty((n * n, 2), dtype=np.int64)
    corners[:N] = i[:, None] + (0, 1)
    corners[N - 1, 1] = 0
    diag = corners[N:].reshape(n, n - 2, 2)  # by side e, then by family k
    diag[..., 0] = i[:n, None] - i[1:n - 1]  # e - k, at least 2 - n
    diag[..., 1] = i[:n, None] + i[2:n]  # e + 1 + k, at most 2n - 2
    diag[diag < 0] += N
    return corners


def base_segments(spec: PolygonSpec) -> np.ndarray:
    """The base segments as an (m, 4) array of x0, y0, x1, y1 rows.

    Perimeter edges come first, then the side-parallel diagonals; row i
    joins the two corners of row i of ``base_corners``. Corner k sits at
    angle pi*k/n on the unit circle, and every row looks its corners up in
    one table, so shared endpoints are bit-identical.
    """
    n = spec.n
    angles = [math.pi * k / n for k in range(2 * n)]
    xy = np.empty(2 * n, dtype=np.complex128)  # corner k as one x, y pair
    xy.real, xy.imag = list(map(math.cos, angles)), list(map(math.sin, angles))
    return xy[base_corners(spec)].view(np.float64)  # a row's corners: x0, y0, x1, y1


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
