"""The default fuzz, the split record and the close-pair search of the pipeline.

All geometry in this package lives in the closed unit disk, so a single
absolute distance threshold, a float ``fuzz`` in (0, 1e-3), serves both for
point identity and for the parallelism test of ``arrangement``'s pair kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_FUZZ = 1e-10


@dataclass(frozen=True, eq=False)
class Split:
    """The fragments of a split arrangement with the vertex of each fragment end.

    Fragment k runs from vertex ``labels[2k]`` to vertex ``labels[2k + 1]``;
    ``points`` holds each vertex's position, and ``heading`` the angular
    rank of the base direction that leaves each end (forward at p0, back at
    p1), a small integer. Its length is the number of fragments.
    """

    frags: np.ndarray    # (E, 4) x0, y0, x1, y1 rows
    labels: np.ndarray   # (2E,) vertex of each fragment end, p0 then p1
    points: np.ndarray   # (V, 2) vertex coordinates
    heading: np.ndarray  # (2E,) direction rank of the half-edge leaving each end

    def __len__(self) -> int:
        return len(self.frags)


def close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair of points with |points[i] - points[j]| <= radius.

    ``points`` is a (k, 2) array of x, y. Each unordered pair comes back
    once, as (i, j) or (j, i), and no point is paired with itself. The
    points are bucketed into square cells of side ``radius``, or of side
    max|coordinate| / 2**30 where that is larger, so that each cell
    coordinate fits in 31 bits; a cell never smaller than ``radius`` keeps
    every close pair in neighbouring cells. The points are sorted once by
    the int64 cell key gx * 2**32 + gy, which sorts by gx and then by gy.
    So the points after a point in its own cell, with the cell above, form
    one run of the sorted keys that starts right after it, and the three
    cells of the next column form a second run; its other neighbour cells
    find it from their side (the half-neighbourhood self-join of Bentley,
    Stanat and Williams, 1977).
    """
    side = max(radius, float(np.abs(points).max(initial=0.0)) / 2**30)
    grid = np.floor(points / side).astype(np.int64)
    keys = (grid[:, 0] << 32) + grid[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    at = np.arange(len(keys))
    column = 1 << 32
    lo = np.concatenate((at + 1, np.searchsorted(keys, keys + (column - 1), "left")))
    hits = np.concatenate((np.searchsorted(keys, keys + 1, "right"),
                           np.searchsorted(keys, keys + (column + 1), "right"))) - lo
    # sorted position of each candidate: lo of its run plus its rank in the run
    j = order[np.arange(hits.sum()) + np.repeat(lo - (np.cumsum(hits) - hits), hits)]
    i = order[np.repeat(np.tile(at, 2), hits)]
    dx = points[i, 0] - points[j, 0]
    dy = points[i, 1] - points[j, 1]
    keep = dx * dx + dy * dy <= radius * radius
    return i[keep], j[keep]
