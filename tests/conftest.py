import math

import numpy as np

from polydissect.arrangement import _segment_arrays
from polydissect.geom import Split, close_pairs


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


def frags_of(split):
    """The (E, 4) fragment rows of a splitter's result: a Split or an array."""
    return split.frags if isinstance(split, Split) else split


def lengths(rows):
    """The length of each (k, 4) segment row."""
    return np.hypot(rows[:, 2] - rows[:, 0], rows[:, 3] - rows[:, 1])


def lies_on(frag, base):
    """Whether both ends of the row ``frag`` lie on the row ``base``, within 1e-9."""
    bx, by, ex, ey = base
    dx, dy = ex - bx, ey - by
    norm = math.hypot(dx, dy)
    for px, py in (frag[:2], frag[2:]):
        if abs((px - bx) * dy - (py - by) * dx) / norm > 1e-9:
            return False
        t = ((px - bx) * dx + (py - by) * dy) / (norm * norm)
        if not -1e-9 <= t <= 1 + 1e-9:
            return False
    return True


def crossing_free(split, tol):
    """Exhaustive pairwise check: no pair i < j meets Interior x Interior."""
    arrays = _segment_arrays(frags_of(split))
    _, t_cls, u_cls = dense_classes(arrays, np.arange(len(arrays[0])), tol.point_fuzzy)
    return not np.triu((t_cls == 2) & (u_cls == 2), 1).any()


def rotate_segments(rows, angle):
    """Rigidly rotate (k, 4) segment rows about the origin."""
    c = math.cos(angle)
    s = math.sin(angle)
    x, y = rows[:, 0::2], rows[:, 1::2]
    out = np.empty_like(rows)
    out[:, 0::2] = c * x - s * y
    out[:, 1::2] = s * x + c * y
    return out


def shuffled_rows(rows, rng):
    """The rows in the order ``rng.shuffle`` gives a list of their indices."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return rows[order]


def float_clusters(frags, fuzz):
    """Vertex labels and centroids of fragment endpoints found by distance alone.

    The float clustering the full route once used: exactly equal endpoints
    collapse, the clusters are the connected components of the distance
    <= fuzz relation among the rest, numbered in the order of their first
    point in sorted (x, y) order, and each centroid is the ``np.bincount``
    mean of its endpoints, summed in endpoint order.
    """
    ends = frags.reshape(-1, 2)
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
