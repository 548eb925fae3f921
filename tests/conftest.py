import math

import numpy as np

from polydissect.arrangement import (
    DEFAULT_FUZZ, Split, _check_rows, _hits, _parallel_overlap, _points_along, _rows_along, _runs,
    _segment_arrays, close_pairs,
)
from polydissect.errors import NumericalDegeneracy
from polydissect.planar import enumerate_faces, orbit_census


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


def sided_hits(arrays, fuzz=DEFAULT_FUZZ):
    """``_hits`` with the column of each side: the row of its partner, H sides away."""
    row, t, t_cls = _hits(arrays, fuzz)
    return row, np.roll(row, len(row) // 2), t, t_cls


def merge_runs_loop(params, fuzz):
    """The merge rule as a plain loop over one segment's ends 0 and 1 and its cuts.

    The values go in order: the first run is anchored at the smallest value
    and keeps it, and a later run goes on while each step is below ``fuzz``
    and keeps its last value. Returns the kept values, the run sizes and
    the run of each value of [0, 1, *params].
    """
    values = [0.0, 1.0, *params]
    out, sizes, run = [], [], [0] * len(values)
    for i in sorted(range(len(values)), key=values.__getitem__):
        t = values[i]
        if out and t - out[-1] < fuzz:
            if len(out) > 1:
                out[-1] = t
            sizes[-1] += 1
        else:
            out.append(t)
            sizes.append(1)
        run[i] = len(out) - 1
    return out, sizes, run


def _cut_tuple(wx0, wy0, wx1, wy1, u, fuzz):
    """Split a working-set entry at parameter u into its two fragments."""
    cx = u * wx1 + (1.0 - u) * wx0
    cy = u * wy1 + (1.0 - u) * wy0
    l0 = math.hypot(cx - wx0, cy - wy0)
    l1 = math.hypot(wx1 - cx, wy1 - cy)
    if l0 < fuzz or l1 < fuzz:
        raise NumericalDegeneracy(
            f"fragment shorter than fuzz {fuzz:g} near ({cx:.12g}, {cy:.12g})")
    return (wx0, wy0, cx, cy, l0), (cx, cy, wx1, wy1, l1)


def _split_tuple(x0, y0, x1, y1, params, fuzz):
    """Cut one segment (as coordinates) at interior parameters, merged by
    ``merge_runs_loop``; rows are x0, y0, x1, y1, length."""
    pts = [(t * x1 + (1.0 - t) * x0, t * y1 + (1.0 - t) * y0)
           for t in merge_runs_loop(params, fuzz)[0]]
    out = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        ln = math.hypot(bx - ax, by - ay)
        if ln < fuzz:
            raise NumericalDegeneracy(
                f"fragment shorter than fuzz {fuzz:g} near ({ax:.12g}, {ay:.12g})")
        out.append((ax, ay, bx, by, ln))
    return out


def split_all(base, fuzz=DEFAULT_FUZZ):
    """The reference splitter: fragment every base segment at every crossing or touch.

    Working-set rescan: each base segment is intersected against all
    fragments accumulated so far. An interior-interior hit cuts both
    sides; a hit at a fragment endpoint cuts only the side whose interior
    was met. It shares the row check and the collinear-overlap rule with
    ``split_all_fast`` but no merge code, so it is an oracle for that
    splitter's merge kernel. Raises ValueError for collinear overlapping
    base segments, NumericalDegeneracy for a base row or fragment shorter
    than fuzz or not finite, and TypeError or ValueError for a base that is
    not an (m, 4) float array. The fragments come back as an (E, 4) array.
    """
    _check_rows(base, fuzz)
    working = []
    for sx0, sy0, sx1, sy1 in base.tolist():
        sdx = sx1 - sx0
        sdy = sy1 - sy0
        slen = math.hypot(sdx, sdy)
        if not working:
            working.append((sx0, sy0, sx1, sy1, slen))
            continue

        cut_params = []
        removed = set()
        chaff = []
        for idx, (wx0, wy0, wx1, wy1, wlen) in enumerate(working):
            a01 = wx0 - wx1
            a11 = wy0 - wy1
            det = sdx * a11 - a01 * sdy
            if abs(det) < fuzz * slen * wlen:
                if _parallel_overlap(sx0, sy0, sdx, sdy, slen, wx0, wy0, wx1, wy1, fuzz):
                    raise ValueError("collinear overlapping segments in the base set")
                continue
            rhs0 = wx0 - sx0
            rhs1 = wy0 - sy0
            t = (rhs0 * a11 - a01 * rhs1) / det
            u = (sdx * rhs1 - rhs0 * sdy) / det
            if fuzz < t < 1.0 - fuzz:
                if fuzz < u < 1.0 - fuzz:
                    # true crossing: cut the working entry now, the incoming later
                    cut_params.append(t)
                    chaff.extend(_cut_tuple(wx0, wy0, wx1, wy1, u, fuzz))
                    removed.add(idx)
                elif abs(u) < fuzz or abs(u - 1.0) < fuzz:
                    # fragment endpoint touches the incoming interior
                    cut_params.append(t)
            elif abs(t) < fuzz or abs(t - 1.0) < fuzz:
                if fuzz < u < 1.0 - fuzz:
                    # incoming endpoint touches the fragment interior
                    chaff.extend(_cut_tuple(wx0, wy0, wx1, wy1, u, fuzz))
                    removed.add(idx)

        if removed:
            working = [w for i, w in enumerate(working) if i not in removed]
        working.extend(chaff)
        if cut_params:
            working.extend(_split_tuple(sx0, sy0, sx1, sy1, cut_params, fuzz))
        else:
            working.append((sx0, sy0, sx1, sy1, slen))

    return np.array([w[:4] for w in working], dtype=float).reshape(-1, 4)


def values_along(owner, ts, k, fuzz=DEFAULT_FUZZ):
    """The orbit route's merge: k rows sorted in place, then their runs; no point map.

    The hits must come grouped by ``owner`` in increasing order."""
    grid, length = _rows_along(owner, ts, k)
    grid.sort(axis=1)
    return _runs(grid, length, fuzz)[1:]


def assert_merge_follows_the_loop(owner, ts, k, fuzz=DEFAULT_FUZZ):
    """Both row sorts of the merge kernel against ``merge_runs_loop`` on each segment.

    The in-place sort (on the hits grouped by owner) and ``_points_along``
    (on the hits as they come) give the loop's values (up to the sign of a
    zero) and run sizes, and ``_points_along`` the loop's point of every hit
    and of each segment's ends. Returns the in-place sort's owner, values
    and sizes.
    """
    loops = [merge_runs_loop(ts[owner == r].tolist(), fuzz) for r in range(k)]
    # the first point of each segment
    first = np.cumsum([0] + [len(out) for out, _, _ in loops]).tolist()
    want_owner = [r for r, (out, _, _) in enumerate(loops) for _ in out]
    want_values = [x for out, _, _ in loops for x in out]
    want_sizes = [x for _, sizes, _ in loops for x in sizes]
    want_point = np.empty(len(owner), dtype=np.int64)
    for r, (_, _, run) in enumerate(loops):
        want_point[owner == r] = first[r] + np.array(run[2:], dtype=np.int64)
    want_ends = [[first[r] + run[0], first[r] + run[1]] for r, (_, _, run) in enumerate(loops)]

    grouped = np.argsort(owner, kind="stable")
    got = values_along(owner[grouped], ts[grouped], k, fuzz)
    row, along, sizes, point, ends = _points_along(owner, ts, k, fuzz)
    for got_owner, got_values, got_sizes in (got, (row, along, sizes)):
        assert got_owner.tolist() == want_owner
        assert got_values.tolist() == want_values
        assert got_sizes.tolist() == want_sizes
    assert point.tolist() == want_point.tolist()
    assert ends.tolist() == want_ends
    return got


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


def crossing_free(split, fuzz=DEFAULT_FUZZ):
    """Exhaustive pairwise check: no pair i < j meets Interior x Interior."""
    arrays = _segment_arrays(frags_of(split))
    _, t_cls, u_cls = dense_classes(arrays, np.arange(len(arrays[0])), fuzz)
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


def spread_face_orbits(faces):
    """The orbit of each face under the rotation spread round by round from
    the outer face: the reference for ``orbit_census``'s layout reading.

    The rotation rho is one step along the outer face there, spread by
    rho(nxt h) = nxt(rho h) and rho(h ^ 1) = rho(h) ^ 1, each half-edge
    taking the image offered to it in the round it is first reached. It
    must be a permutation that commutes with nxt. Orbits are numbered in the order of their first
    face, -1 for the outer face, as ``orbit_census`` numbers them.
    """
    cycle, start = faces.cycle, faces.start
    nh, nf, size = len(cycle), len(faces), np.diff(start)
    succ = np.arange(1, nh + 1)  # the next slot of each face, the last back to its first
    succ[start[1:] - 1] = start[:-1]
    nxt = np.empty(nh, dtype=np.int64)
    nxt[cycle] = cycle[succ]
    outer = int(np.flatnonzero(faces.signed_area < 0.0)[0])
    rho = np.full(nh, -1)
    stamp = np.empty(nh, dtype=np.int64)
    new = cycle[start[outer]:start[outer + 1]]
    rho[new] = nxt[new]
    while len(new):
        h = np.concatenate((nxt[new], new ^ 1))
        image = np.concatenate((nxt[rho[new]], rho[new] ^ 1))
        fresh = rho[h] < 0
        h = h[fresh]
        rho[h] = image[fresh]
        # one copy of each half-edge offered twice, or the frontier grows
        slot = np.arange(len(h))
        stamp[h] = slot
        new = h[stamp[h] == slot]
    assert np.array_equal(np.sort(rho), np.arange(nh))
    assert np.array_equal(rho[nxt], nxt[rho])

    face_of = np.empty(nh, dtype=np.int64)
    face_of[cycle] = np.repeat(np.arange(nf), size)
    turn = face_of[rho[cycle[start[:-1]]]]
    # the smallest face of each orbit, by walking every orbit at once
    first, at = np.arange(nf), turn
    while not np.array_equal(at, np.arange(nf)):
        first = np.minimum(first, at)
        at = turn[at]
    lead = (first == np.arange(nf)) & (np.arange(nf) != outer)
    orbit = (np.cumsum(lead) - 1)[first]
    orbit[outer] = -1  # the outer face is an orbit of its own
    return orbit


def tile_text(graph, scale):
    """The <g stroke="none"> group of an unzoomed render, written in plain
    Python: the inner faces with at least 3 points in index order, each
    point as '%.6f' of its canvas x and y, one hsl fill per orbit of
    ``orbit_census``."""
    faces = enumerate_faces(graph)
    census = orbit_census(faces)
    total = len(census.orbit_sizes)
    origin = graph.edges.reshape(-1).tolist()
    xy = graph.vertices.tolist()
    cycle, start = faces.cycle.tolist(), faces.start.tolist()
    out = ['<g stroke="none">\n']
    for f, orbit in enumerate(census.face_orbits.tolist()):
        ring = cycle[start[f]:start[f + 1]]
        if orbit < 0 or len(ring) < 3:
            continue
        points = " ".join("%.6f,%.6f" % ((xy[origin[h]][0] + 1.05) * scale,
                                          (1.05 - xy[origin[h]][1]) * scale) for h in ring)
        out.append(f'<polygon points="{points}" fill="hsl({orbit * 360 // total},70%,55%)"/>\n')
    out.append("</g>\n")
    return "".join(out)
