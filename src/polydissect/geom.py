"""The tolerance, the split record and the array helpers of the pipeline.

All geometry in this package lives in the closed unit disk, so a single
absolute distance threshold (``point_fuzzy``) serves both for point
identity and for the parallelism test of ``arrangement``'s pair solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_FUZZ = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Absolute distance threshold under which two points are the same."""

    point_fuzzy: float = DEFAULT_FUZZ

    def __post_init__(self) -> None:
        if not (0.0 < self.point_fuzzy < 1e-3):
            raise ValueError(f"point_fuzzy must lie in (0, 1e-3), got {self.point_fuzzy!r}")


DEFAULT_TOL = Tolerance()


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


def merge_sorted_runs(
    group: np.ndarray, ts: np.ndarray, fuzz: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the runs of values closer than ``fuzz`` in many sorted lists at once.

    ``group`` labels each value with its list; the lists are contiguous and
    ``ts`` is sorted within each. A list's first run holds the values less
    than ``fuzz`` above its first value, and that first value survives;
    every later run continues while consecutive values are closer than
    ``fuzz``, and its last value survives. Returns the index of each run's
    survivor, in order, and the size of each run.
    """
    k = len(ts)
    idx = np.arange(k)
    head = np.ones(k, dtype=bool)
    head[1:] = group[1:] != group[:-1]
    first = np.maximum.accumulate(np.where(head, idx, 0))
    in_first_run = ts - ts[first] < fuzz
    opens = head.copy()
    opens[1:] |= ~in_first_run[1:] & (in_first_run[:-1] | ~(np.diff(ts) < fuzz))
    starts = np.flatnonzero(opens)
    sizes = np.diff(np.append(starts, k))
    return np.where(head[starts], starts, starts + sizes - 1), sizes


def group_order(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An order of the items by non-negative integer ``group``, then by ``values``.

    One default (unstable) argsort by value, then one stable argsort per
    16-bit digit of ``group`` cast to uint16, least significant first; numpy
    sorts uint16 keys by radix with ``kind="stable"``, so a group id below
    65,536 costs one pass. Items with equal group and equal value may come
    in any order: that is the only difference from numpy's lexsort with
    keys ``(values, group)``.
    """
    order = np.argsort(values)
    for shift in range(0, max(1, int(group.max(initial=0)).bit_length()), 16):
        order = order[np.argsort((group[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair of points with |points[i] - points[j]| <= radius.

    ``points`` is a (k, 2) array of x, y. Each unordered pair comes back
    once, as (i, j) or (j, i), and no point is paired with itself. The
    points are bucketed into square cells of side ``radius`` and sorted once
    by cell key gx + 1j*gy; complex keys sort by gx and then by gy. So the
    points after a point in its own cell, with the cell above, form one run
    of the sorted keys that starts right after it, and the three cells of
    the next column form a second run; its other neighbour cells find it
    from their side (the half-neighbourhood self-join of Bentley, Stanat
    and Williams, 1977). Cell keys are complex numbers of float-valued cell
    coordinates, which stay exact where an int64 key would overflow for a
    small radius.
    """
    grid = np.floor(points / radius)
    keys = grid[:, 0] + 1j * grid[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    at = np.arange(len(keys))
    lo = np.concatenate((at + 1, np.searchsorted(keys, keys + (1 - 1j), "left")))
    hits = np.concatenate((np.searchsorted(keys, keys + 1j, "right"),
                           np.searchsorted(keys, keys + (1 + 1j), "right"))) - lo
    # sorted position of each candidate: lo of its run plus its rank in the run
    j = order[np.arange(hits.sum()) + np.repeat(lo - (np.cumsum(hits) - hits), hits)]
    i = order[np.repeat(np.tile(at, 2), hits)]
    dx = points[i, 0] - points[j, 0]
    dy = points[i, 1] - points[j, 1]
    keep = dx * dx + dy * dy <= radius * radius
    return i[keep], j[keep]
