import math

import numpy as np

from polydissect import Point2, Segment
from polydissect.arrangement import _segment_arrays
from polydissect.geom import close_pairs, segment_array


def dense_classes(arrays, rows, fuzz):
    """Solve and classify every pair of the whole (rows, m) block at once.

    ``arrays`` is ``_segment_arrays`` of the m segments. Returns ``t`` on the
    row segment with the classes of ``t`` and of ``u`` (on the column): 2
    strictly inside the fuzz bands, 1 within fuzz of 0 or 1, 0 otherwise and
    for parallel pairs.
    """
    x0, y0, dx, dy, seglen = arrays
    rdx, rdy = dx[rows, None], dy[rows, None]
    det = rdy * dx - rdx * dy
    live = np.abs(det) >= fuzz * (seglen[rows, None] * seglen)
    rhsx, rhsy = x0 - x0[rows, None], y0 - y0[rows, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * rhsy - rhsx * dy) / det
        u = (rdx * rhsy - rhsx * rdy) / det

    def classes(p):
        interior = live & (p > fuzz) & (p < 1.0 - fuzz)
        end = live & ((np.abs(p) < fuzz) | (np.abs(p - 1.0) < fuzz))
        return interior * np.int8(2) + end * np.int8(1)

    return t, classes(t), classes(u)


def crossing_free(split, tol):
    """Exhaustive pairwise check: no pair i < j meets Interior x Interior."""
    arrays = _segment_arrays(segment_array(split))
    _, t_cls, u_cls = dense_classes(arrays, np.arange(len(arrays[0])), tol.point_fuzzy)
    return not np.triu((t_cls == 2) & (u_cls == 2), 1).any()


def as_segments(split):
    """The fragments of a split (a Split, an array or a Segment list) as Segments."""
    return [Segment(Point2(x0, y0), Point2(x1, y1))
            for x0, y0, x1, y1 in segment_array(split).tolist()]


def rotate_segments(segments, angle):
    """Rigidly rotate a segment list about the origin."""
    c = math.cos(angle)
    s = math.sin(angle)

    def rot(p):
        return Point2(c * p.x - s * p.y, s * p.x + c * p.y)

    return [Segment(rot(seg.p0), rot(seg.p1)) for seg in segments]


def float_clusters(split, fuzz):
    """Vertex labels and centroids of fragment endpoints found by distance alone.

    The float clustering the full route once used: exactly equal endpoints
    collapse, the clusters are the connected components of the distance
    <= fuzz relation among the rest, numbered in the order of their first
    point in sorted (x, y) order, and each centroid is the ``np.bincount``
    mean of its endpoints, summed in endpoint order.
    """
    ends = segment_array(split).reshape(-1, 2)
    xs, ys = ends[:, 0], ends[:, 1]
    uniq, inverse = np.unique(xs + 1j * ys, return_inverse=True)
    i, j = close_pairs(np.column_stack((uniq.real, uniq.imag)), fuzz)
    root = np.arange(len(uniq))
    while True:
        nxt = root.copy()
        np.minimum.at(nxt, i, root[j])
        np.minimum.at(nxt, j, root[i])
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            break
        root = nxt
    labels = (np.cumsum(root == np.arange(len(uniq))) - 1)[root][inverse]
    size = np.bincount(labels)
    return labels, np.column_stack((np.bincount(labels, weights=xs) / size,
                                    np.bincount(labels, weights=ys) / size))
